#include "serve/executor.hpp"

#include <algorithm>

namespace dgnn::serve {

namespace {

// Staging resources (sim::SlotResources, DESIGN.md §11): serial execution
// always stages through slot 0 — every stage blocks the host, so reuse is
// host-ordered. The pipelined executor rotates slots through its
// sim::StagingPipeline: batch k owns slot k % depth until the throttle wait
// on its completion event releases it.

/// Footprint of the staged input copy: the slot's input copy plus the
/// residency episode of every row the gather inserted (missed rows ride
/// this copy).
sim::AccessSet
InputCopyAccess(const sim::SlotResources& slot, const CacheBatchCost& cache_cost)
{
    sim::AccessSet access = slot.InputAccess();
    access.writes.insert(access.writes.end(),
                         cache_cost.row_trace.inserted_rows.begin(),
                         cache_cost.row_trace.inserted_rows.end());
    return access;
}

/// Footprint of the batch's compute kernels: consume the staged inputs,
/// produce the staged results, and (for memory models) update the batch's
/// gathered state rows in place.
sim::AccessSet
KernelAccess(const sim::SlotResources& slot, const CacheBatchCost& cache_cost)
{
    sim::AccessSet access = slot.KernelAccess();
    if (cache_cost.rows_mutable) {
        access.writes.insert(access.writes.end(),
                             cache_cost.row_trace.hit_rows.begin(),
                             cache_cost.row_trace.hit_rows.end());
        access.writes.insert(access.writes.end(),
                             cache_cost.row_trace.inserted_rows.begin(),
                             cache_cost.row_trace.inserted_rows.end());
    }
    return access;
}

/// Footprint of the result copy: reads the device results plus any
/// evicted-dirty rows riding the transfer, lands the host staging buffer
/// and (for write-backs) the host-side state store.
sim::AccessSet
ResultCopyAccess(const sim::SlotResources& slot, const CacheBatchCost& cache_cost)
{
    sim::AccessSet access = slot.ResultAccess();
    access.reads.insert(access.reads.end(),
                        cache_cost.row_trace.evicted_dirty_rows.begin(),
                        cache_cost.row_trace.evicted_dirty_rows.end());
    if (cache_cost.writeback_rows > 0) {
        access.writes.emplace_back("host_store");
    }
    return access;
}

/// Footprint of the device-side hit-gather kernel: reads the resident rows
/// the batch hit and appends them to the staged device inputs.
sim::AccessSet
HitGatherAccess(const sim::SlotResources& slot, const CacheBatchCost& cache_cost)
{
    sim::AccessSet access;
    access.reads = cache_cost.row_trace.hit_rows;
    access.writes.push_back(slot.dev_in);
    return access;
}

}  // namespace

sim::SimTime
BatchExecutor::Drain()
{
    return runtime_.Synchronize();
}

sim::SimTime
SerialExecutor::Submit(const BatchProfile& profile,
                       const CacheBatchCost& cache_cost, BatchSpans* spans)
{
    sim::CategoryScope scope(runtime_, "Serving Batch");
    const sim::SlotResources slot(0);
    const sim::SimTime dispatch = runtime_.Now();
    {
        sim::MaybeAccess access(runtime_, [&] { return slot.HostBuildAccess(); });
        runtime_.RunHostFor("batch_build", profile.host_us);
    }
    const sim::SimTime host_done = runtime_.Now();
    // Missed state rows ride the batch's single staged input copy (one
    // pinned buffer, one PCIe transaction); cache hits cost only the
    // device-side gather kernel.
    const int64_t h2d_total =
        profile.h2d_bytes + cache_cost.miss_rows * cache_cost.row_bytes;
    if (h2d_total > 0) {
        sim::MaybeAccess access(runtime_,
                                [&] { return InputCopyAccess(slot, cache_cost); });
        runtime_.CopyToDevice(h2d_total, "serve_inputs_h2d");
    }
    const sim::SimTime h2d_done = runtime_.Now();
    if (cache_cost.hit_rows > 0) {
        sim::MaybeAccess access(runtime_,
                                [&] { return HitGatherAccess(slot, cache_cost); });
        runtime_.GatherHits(cache_cost.hit_rows, cache_cost.row_bytes,
                            "serve_state");
    }
    {
        sim::MaybeAccess access(runtime_,
                                [&] { return KernelAccess(slot, cache_cost); });
        for (const sim::KernelDesc& kernel : profile.kernels) {
            runtime_.Launch(kernel);
        }
    }
    (void)runtime_.Synchronize();
    const sim::SimTime compute_done = runtime_.Now();
    if (profile.d2h_bytes > 0) {
        sim::MaybeAccess access(runtime_, [&] { return slot.ResultAccess(); });
        runtime_.CopyToHost(profile.d2h_bytes, "serve_results_d2h");
    }
    if (cache_cost.writeback_rows > 0) {
        sim::MaybeAccess access(runtime_, [&] {
            sim::AccessSet set;
            set.reads = cache_cost.row_trace.evicted_dirty_rows;
            set.writes.emplace_back("host_store");
            return set;
        });
        runtime_.WriteBackToHost(cache_cost.writeback_rows, cache_cost.row_bytes,
                                 "serve_state");
    }
    if (spans != nullptr) {
        // Every stage blocks the host, so the boundaries are plain clock
        // reads: already monotone, no clamping needed.
        spans->dispatch_us = dispatch;
        spans->stall_done_us = dispatch;  // no pipeline throttle
        spans->host_done_us = host_done;
        spans->h2d_done_us = h2d_done;
        spans->compute_done_us = compute_done;
        spans->complete_us = runtime_.Now();
    }
    return runtime_.Now();
}

PipelinedExecutor::PipelinedExecutor(sim::Runtime& runtime, int64_t max_in_flight)
    : BatchExecutor(runtime), staging_(runtime, max_in_flight)
{
}

sim::SimTime
PipelinedExecutor::Submit(const BatchProfile& profile,
                          const CacheBatchCost& cache_cost, BatchSpans* spans)
{
    sim::CategoryScope scope(runtime_, "Serving Batch");
    const sim::SimTime dispatch = runtime_.Now();
    // Throttle: with max_in_flight batches outstanding the host blocks on
    // the oldest one before building the next (bounded staging memory).
    const sim::SlotResources& slot = staging_.Admit();
    const sim::SimTime stall_done = runtime_.Now();

    // Host stage for batch k+1 — overlaps whatever the device still runs.
    {
        sim::MaybeAccess access(runtime_, [&] { return slot.HostBuildAccess(); });
        runtime_.RunHostFor("batch_build", profile.host_us);
    }

    // Input stage: pinned async H2D on the copy stream; compute kernels of
    // this batch wait on its completion event, not the host. Missed state
    // rows ride the same staged copy (one pinned buffer, one DMA); the
    // hit-gather kernel queues on the compute stream behind the fence.
    const int64_t h2d_total =
        profile.h2d_bytes + cache_cost.miss_rows * cache_cost.row_bytes;
    const sim::SimTime inputs_ready_us = staging_.StageInputs(
        h2d_total, "serve_inputs_h2d",
        [&] { return InputCopyAccess(slot, cache_cost); });
    if (cache_cost.hit_rows > 0) {
        sim::MaybeAccess access(runtime_,
                                [&] { return HitGatherAccess(slot, cache_cost); });
        runtime_.GatherHits(cache_cost.hit_rows, cache_cost.row_bytes,
                            "serve_state");
    }

    // Compute stage: kernels queue asynchronously behind the previous batch.
    {
        sim::MaybeAccess access(runtime_,
                                [&] { return KernelAccess(slot, cache_cost); });
        for (const sim::KernelDesc& kernel : profile.kernels) {
            runtime_.Launch(kernel);
        }
    }

    // Result stage: D2H (results + evicted-dirty-row write-backs) behind
    // the batch's compute event.
    const int64_t d2h_total = profile.d2h_bytes + cache_cost.WritebackBytes();
    const sim::StagingPipeline::Retired batch =
        staging_.Retire(d2h_total, "serve_results_d2h", sim::DeviceBuffer{},
                        [&] { return ResultCopyAccess(slot, cache_cost); });

    if (spans != nullptr) {
        // The host-side boundaries are clock reads; the device-side ones
        // are event completion times. Each boundary is clamped into
        // [previous boundary, complete] so the chain is monotone and ends
        // exactly at the completion time Submit returns — an event can
        // resolve before the host finished submitting (CPU-only no-op
        // copies), and a batch's H2D can queue behind older copy-stream
        // work, both of which the clamp absorbs.
        const sim::SimTime host_done = runtime_.Now();  // build + submits
        const sim::SimTime complete = batch.done.ready_us;
        spans->dispatch_us = dispatch;
        spans->stall_done_us =
            std::clamp(stall_done, spans->dispatch_us, complete);
        spans->host_done_us =
            std::clamp(host_done, spans->stall_done_us, complete);
        spans->h2d_done_us =
            std::clamp(h2d_total > 0 ? inputs_ready_us : spans->host_done_us,
                       spans->host_done_us, complete);
        spans->compute_done_us =
            std::clamp(batch.compute_done.ready_us, spans->h2d_done_us, complete);
        spans->complete_us = complete;
    }
    return batch.done.ready_us;
}

sim::SimTime
PipelinedExecutor::Drain()
{
    staging_.Drain();
    return runtime_.Synchronize();
}

}  // namespace dgnn::serve
