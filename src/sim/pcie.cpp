#include "sim/pcie.hpp"

#include "sim/topology.hpp"
#include "support/check.hpp"

namespace dgnn::sim {

PcieLink::PcieLink(double bandwidth_gbps, SimTime latency_us)
    : bandwidth_gbps_(bandwidth_gbps), latency_us_(latency_us), queue_("pcie")
{
    // Every transfer divides by the bandwidth.
    ValidateLinkSpec(LinkSpec{LinkKind::kPcie, bandwidth_gbps_, latency_us_}, "link");
}

SimTime
PcieLink::TransferTime(int64_t bytes) const
{
    DGNN_CHECK(bytes >= 0, "negative transfer size ", bytes);
    // GB/s == kbytes per microsecond.
    return latency_us_ + static_cast<double>(bytes) / (bandwidth_gbps_ * 1e3);
}

Stream::Interval
PcieLink::Schedule(SimTime earliest_start, int64_t bytes)
{
    return queue_.Enqueue(earliest_start, TransferTime(bytes));
}

}  // namespace dgnn::sim
