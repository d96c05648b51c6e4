#include "serve/executor.hpp"

#include <algorithm>

namespace dgnn::serve {

namespace {

// Staging resources (sim::SlotResources, DESIGN.md §11): kEager always
// stages through slot 0 — every stage blocks the host, so reuse is
// host-ordered. kStaged rotates slots through the sim::StagingPipeline:
// batch k owns slot k % 2 until the throttle wait on its completion event
// releases it.

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

Executor::Executor(sim::Runtime& runtime, sim::Schedule schedule)
    : runtime_(runtime), schedule_(schedule), staging_(runtime, schedule)
{
}

std::string
Executor::Name() const
{
    return schedule_ == sim::Schedule::kEager ? "serial" : "pipelined";
}

sim::SimTime
Executor::Submit(const BatchProfile& profile, const CacheBatchCost& cache_cost,
                 BatchSpans* spans)
{
    sim::CategoryScope scope(runtime_, "Serving Batch");
    const bool eager = schedule_ == sim::Schedule::kEager;
    const sim::SimTime dispatch = runtime_.Now();
    // Throttle (kStaged): with two batches outstanding the host blocks on
    // the oldest one before building the next (bounded staging memory).
    const sim::SlotResources& slot = staging_.Admit();
    const sim::SimTime stall_done = runtime_.Now();

    // Host stage; under kStaged it overlaps whatever the device still runs.
    {
        sim::MaybeAccess access(runtime_, [&] { return slot.HostBuildAccess(); });
        runtime_.RunHostFor("batch_build", profile.host_us);
    }
    const sim::SimTime build_done = runtime_.Now();

    // Input stage. Missed state rows ride the batch's single input copy (one
    // pinned buffer, one PCIe transaction); cache hits cost only the
    // device-side gather kernel, which queues behind the copy.
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

    // Compute stage: under kStaged the kernels queue behind the previous
    // batch without blocking the host.
    {
        sim::MaybeAccess access(runtime_,
                                [&] { return KernelAccess(slot, cache_cost); });
        for (const sim::KernelDesc& kernel : profile.kernels) {
            runtime_.Launch(kernel);
        }
    }
    staging_.Barrier();

    // Result stage. kStaged returns the evicted-dirty-row write-backs on the
    // batch's one result copy; kEager writes them back as a blocking copy of
    // their own after the results.
    const int64_t d2h_total =
        profile.d2h_bytes + (eager ? 0 : cache_cost.WritebackBytes());
    const sim::StagingPipeline::Retired batch =
        staging_.Retire(d2h_total, "serve_results_d2h", sim::DeviceBuffer{}, [&] {
            return eager ? slot.ResultAccess() : ResultCopyAccess(slot, cache_cost);
        });
    if (eager && cache_cost.writeback_rows > 0) {
        sim::MaybeAccess access(runtime_, [&] {
            sim::AccessSet set;
            set.reads = cache_cost.row_trace.evicted_dirty_rows;
            set.writes.emplace_back("host_store");
            return set;
        });
        runtime_.WriteBackToHost(cache_cost.writeback_rows, cache_cost.row_bytes,
                                 "serve_state");
    }
    const sim::SimTime complete = eager ? runtime_.Now() : batch.done_us;

    if (spans != nullptr) {
        // The host-side boundaries are clock reads; under kStaged the
        // device-side ones are event completion times. kEager's host stage
        // ends with the build (its copies block and belong to the transfer
        // stages); kStaged's also covers the async submits. Each boundary is
        // clamped into [previous boundary, complete] so the chain is
        // monotone and ends exactly at the completion time Submit returns —
        // an event can resolve before the host finished submitting
        // (CPU-only no-op copies), and a batch's H2D can queue behind older
        // copy-stream work, both of which the clamp absorbs. kEager's
        // boundaries are already monotone.
        const sim::SimTime host_done = eager ? build_done : runtime_.Now();
        spans->dispatch_us = dispatch;
        spans->stall_done_us = std::clamp(stall_done, dispatch, complete);
        spans->host_done_us =
            std::clamp(host_done, spans->stall_done_us, complete);
        spans->h2d_done_us =
            std::clamp(inputs_ready_us, spans->host_done_us, complete);
        spans->compute_done_us =
            std::clamp(batch.compute_done_us, spans->h2d_done_us, complete);
        spans->complete_us = complete;
    }
    return complete;
}

sim::SimTime
Executor::Drain()
{
    staging_.Drain();
    return runtime_.Synchronize();
}

}  // namespace dgnn::serve
