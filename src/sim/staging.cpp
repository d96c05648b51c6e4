#include "sim/staging.hpp"

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

StagingPipeline::StagingPipeline(Runtime& runtime, Schedule schedule)
    : runtime_(runtime), schedule_(schedule), slot_(0)
{
}

const SlotResources&
StagingPipeline::Admit()
{
    if (!Staged()) {
        return slot_;
    }
    slot_ = SlotResources(admitted_ % kDepth);
    ++admitted_;
    // The wait is also the slot's reuse fence: it is the happens-before
    // edge that orders this batch's staging writes after the previous slot
    // owner's reads (the hazard mutation suite drops exactly this edge to
    // prove the checker sees the WAR).
    while (static_cast<int64_t>(in_flight_.size()) >= kDepth) {
        WaitOldest();
    }
    return slot_;
}

SimTime
StagingPipeline::IssueInputs(int64_t bytes, const std::string& what,
                             int64_t copies)
{
    if (!Staged()) {
        for (int64_t c = 0; c < copies; ++c) {
            runtime_.CopyToDevice(bytes, what);
        }
        return runtime_.Now();
    }
    for (int64_t c = 0; c < copies; ++c) {
        (void)runtime_.CopyToDeviceAsync(bytes, what);
    }
    const Event inputs_ready = runtime_.RecordEvent(StreamId::kCopy);
    runtime_.StreamWaitEvent(StreamId::kCompute, inputs_ready);
    return inputs_ready.ready_us;
}

void
StagingPipeline::Barrier()
{
    if (!Staged()) {
        (void)runtime_.Synchronize();
    }
}

Event
StagingPipeline::MarkComputeDone()
{
    if (!Staged()) {
        return Event{runtime_.Now(), 0};
    }
    return runtime_.RecordEvent(StreamId::kCompute);
}

Event
StagingPipeline::ReturnResults(const Event& compute_done, int64_t bytes,
                               const std::string& what, int64_t copies)
{
    if (!Staged()) {
        for (int64_t c = 0; c < copies; ++c) {
            runtime_.CopyToHost(bytes, what);
        }
        return Event{runtime_.Now(), 0};
    }
    runtime_.StreamWaitEvent(StreamId::kCopy, compute_done);
    for (int64_t c = 0; c < copies; ++c) {
        (void)runtime_.CopyToHostAsync(bytes, what);
    }
    return runtime_.RecordEvent(StreamId::kCopy);
}

void
StagingPipeline::Track(const Event& done, DeviceBuffer held)
{
    if (!Staged()) {
        return;  // eager issue blocked on the batch: `held` frees here
    }
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
