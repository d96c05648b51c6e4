#include "obs/attribution.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace dgnn::obs {

const char*
ToString(BottleneckCategory category)
{
    switch (category) {
      case BottleneckCategory::kQueueing:
        return "queueing";
      case BottleneckCategory::kHost:
        return "host";
      case BottleneckCategory::kTransfer:
        return "transfer";
      case BottleneckCategory::kCompute:
        return "compute";
      case BottleneckCategory::kCrossShard:
        return "cross-shard";
    }
    return "?";
}

BottleneckCategory
Classify(double queueing_us, double host_us, double transfer_us,
         double compute_us, double cross_shard_us)
{
    const std::array<double, kNumBottleneckCategories> components = {
        queueing_us, host_us, transfer_us, compute_us, cross_shard_us};
    size_t best = 0;
    for (size_t i = 1; i < components.size(); ++i) {
        // Strict > keeps ties on the earlier enum value.
        if (components[i] > components[best]) {
            best = i;
        }
    }
    return static_cast<BottleneckCategory>(best);
}

double
AttributionSummary::BatchSharePct(BottleneckCategory category) const
{
    return total_batches > 0
               ? 100.0 *
                     static_cast<double>(
                         batches[static_cast<size_t>(category)]) /
                     static_cast<double>(total_batches)
               : 0.0;
}

double
AttributionSummary::TimeSharePct(BottleneckCategory category) const
{
    double total = 0.0;
    for (const double t : total_us) {
        total += t;
    }
    return total > 0.0
               ? 100.0 * total_us[static_cast<size_t>(category)] / total
               : 0.0;
}

BottleneckCategory
AttributionSummary::Dominant() const
{
    size_t best = 0;
    for (size_t i = 1; i < batches.size(); ++i) {
        if (batches[i] > batches[best]) {
            best = i;
        }
    }
    return static_cast<BottleneckCategory>(best);
}

BottleneckCategory
AttributionSummary::DominantByTime() const
{
    return Classify(
        total_us[static_cast<size_t>(BottleneckCategory::kQueueing)],
        total_us[static_cast<size_t>(BottleneckCategory::kHost)],
        total_us[static_cast<size_t>(BottleneckCategory::kTransfer)],
        total_us[static_cast<size_t>(BottleneckCategory::kCompute)],
        total_us[static_cast<size_t>(BottleneckCategory::kCrossShard)]);
}

void
BottleneckAttributor::OnBatch(const serve::BatchObservation& ob)
{
    const serve::BatchSpans& s = ob.spans;
    DGNN_CHECK(!ob.requests.empty(), "batch observation with no members");

    BatchAttribution a;
    a.batch_index = ob.batch_index;
    // Queue wait is request-specific; the batch carries its members' mean.
    double queue_sum = 0.0;
    for (const serve::Request& r : ob.requests) {
        queue_sum += s.dispatch_us - r.arrival_us;
    }
    a.queueing_us = queue_sum / static_cast<double>(ob.requests.size()) +
                    (s.stall_done_us - s.dispatch_us);
    a.host_us = s.host_done_us - s.stall_done_us;
    a.transfer_us = (s.h2d_done_us - s.host_done_us) +
                    (s.complete_us - s.compute_done_us);
    a.compute_us = s.compute_done_us - s.h2d_done_us;
    a.cross_shard_us = ob.exchange.link_us;
    a.dominant = Classify(a.queueing_us, a.host_us, a.transfer_us,
                          a.compute_us, a.cross_shard_us);
    batches_.push_back(a);
}

AttributionSummary
BottleneckAttributor::Summary() const
{
    AttributionSummary summary;
    summary.total_batches = static_cast<int64_t>(batches_.size());
    for (const BatchAttribution& a : batches_) {
        ++summary.batches[static_cast<size_t>(a.dominant)];
        summary.total_us[static_cast<size_t>(BottleneckCategory::kQueueing)] +=
            a.queueing_us;
        summary.total_us[static_cast<size_t>(BottleneckCategory::kHost)] +=
            a.host_us;
        summary.total_us[static_cast<size_t>(BottleneckCategory::kTransfer)] +=
            a.transfer_us;
        summary.total_us[static_cast<size_t>(BottleneckCategory::kCompute)] +=
            a.compute_us;
        summary
            .total_us[static_cast<size_t>(BottleneckCategory::kCrossShard)] +=
            a.cross_shard_us;
    }
    return summary;
}

}  // namespace dgnn::obs
