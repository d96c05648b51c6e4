#include "sim/staging.hpp"

#include "support/check.hpp"

namespace dgnn::sim {

SlotResources::SlotResources(int64_t slot)
    : host_in("host_in#" + std::to_string(slot)),
      dev_in("dev_in#" + std::to_string(slot)),
      dev_out("dev_out#" + std::to_string(slot)),
      host_out("host_out#" + std::to_string(slot))
{
}

AccessSet
SlotResources::HostBuildAccess() const
{
    return AccessSet{{}, {host_in}};
}

AccessSet
SlotResources::InputAccess() const
{
    return AccessSet{{host_in}, {dev_in}};
}

AccessSet
SlotResources::KernelAccess() const
{
    return AccessSet{{dev_in}, {dev_out}};
}

AccessSet
SlotResources::ResultAccess() const
{
    return AccessSet{{dev_out}, {host_out}};
}

StagingPipeline::StagingPipeline(Runtime& runtime, int64_t depth)
    : runtime_(runtime), depth_(depth), slot_(0)
{
    DGNN_CHECK(depth_ >= 1, "pipeline depth must be >= 1, got ", depth_);
}

const SlotResources&
StagingPipeline::Admit()
{
    slot_ = SlotResources(admitted_ % depth_);
    ++admitted_;
    // The wait is also the slot's reuse fence: it is the happens-before
    // edge that orders this batch's staging writes after the previous slot
    // owner's reads (the hazard mutation suite drops exactly this edge to
    // prove the checker sees the WAR).
    while (InFlight() >= depth_) {
        WaitOldest();
    }
    return slot_;
}

SimTime
StagingPipeline::FenceInputs(int64_t bytes, const std::string& what)
{
    (void)runtime_.CopyToDeviceAsync(bytes, what);
    const Event inputs_ready = runtime_.RecordEvent(StreamId::kCopy);
    runtime_.StreamWaitEvent(StreamId::kCompute, inputs_ready);
    return inputs_ready.ready_us;
}

Event
StagingPipeline::ReturnResults(const Event& compute_done, int64_t bytes,
                               const std::string& what)
{
    runtime_.StreamWaitEvent(StreamId::kCopy, compute_done);
    (void)runtime_.CopyToHostAsync(bytes, what);
    return runtime_.RecordEvent(StreamId::kCopy);
}

void
StagingPipeline::Track(const Event& done, DeviceBuffer held)
{
    if (!runtime_.HasGpu()) {
        // Everything ran on the host: the batch is already complete.
        held.Release();
    }
    in_flight_.push_back({done, std::move(held)});
}

void
StagingPipeline::WaitOldest()
{
    (void)runtime_.WaitEvent(in_flight_.front().done);
    in_flight_.pop_front();  // frees the batch's buffer
}

void
StagingPipeline::Drain()
{
    while (!in_flight_.empty()) {
        WaitOldest();
    }
}

}  // namespace dgnn::sim
