#pragma once

/// @file
/// Depth-bounded in-flight staging: the pipelining protocol of the paper's
/// Fig 10, shared by serve::PipelinedExecutor and the models' staged
/// offline schedule (models::Schedule::kStaged). One batch runs
///
///   Admit()        throttle: with `depth` batches outstanding the host
///                  blocks on the oldest one's done-event, then frees the
///                  buffers it held; returns the batch's staging slot
///                  (batch k stages through slot k % depth)
///   (host work)    the caller's batch build
///   StageInputs()  one pinned async H2D on the copy stream, fenced into
///                  the compute stream
///   (kernels)      the caller's launches, queued behind the fence
///   Retire()       records the compute event, returns the results with one
///                  async D2H behind it, and keeps the batch in flight
///   Drain()        waits every in-flight batch
///
/// Buffer rule: a batch's device buffer lives until the host has waited its
/// done-event (in Admit's throttle or in Drain), because the device may read
/// it until then. On a CPU-only runtime the async primitives are no-ops and
/// the batch has already completed when Retire returns, so the buffer is
/// freed there.
///
/// Hazard annotations: the stages declare the slot's staging resources
/// (SlotResources) through AccessScope only when an observer is attached
/// (MaybeAccess); callers may pass their own footprint builder to extend
/// them (the serving executor adds cache rows).

#include <cstdint>
#include <deque>
#include <string>
#include <utility>

#include "sim/runtime.hpp"

namespace dgnn::sim {

/// The four staging buffers a batch flows through, as hazard-checker
/// resources (DESIGN.md §11). Names carry the slot after '#'.
struct SlotResources {
    std::string host_in;   ///< pinned host input staging
    std::string dev_in;    ///< device-side batch input buffer
    std::string dev_out;   ///< device-side batch result buffer
    std::string host_out;  ///< pinned host result staging

    explicit SlotResources(int64_t slot);

    /// Host batch build: fills the input staging.
    AccessSet HostBuildAccess() const;
    /// Input copy: host staging -> device inputs.
    AccessSet InputAccess() const;
    /// Batch kernels: device inputs -> device results.
    AccessSet KernelAccess() const;
    /// Result copy: device results -> host staging.
    AccessSet ResultAccess() const;
};

/// See the file comment.
class StagingPipeline {
  public:
    /// @param depth batches allowed in flight before Admit blocks
    ///              (2 = double buffering)
    StagingPipeline(Runtime& runtime, int64_t depth);

    /// Device-side completion of one retired batch.
    struct Retired {
        Event compute_done;  ///< the batch's kernels finished
        Event done;          ///< results on the host (== compute_done
                             ///< when nothing was copied back)
    };

    /// Throttles, then returns the next batch's slot. The reference stays
    /// valid until the next Admit.
    const SlotResources& Admit();

    /// Moves @p bytes H2D as one pinned async copy and fences the compute
    /// stream on it. Returns the inputs-ready time; with @p bytes == 0
    /// nothing is issued and Now() is returned. @p footprint builds the
    /// copy's AccessSet (only called when an observer is attached).
    template <typename FootprintFn>
    SimTime StageInputs(int64_t bytes, const std::string& what,
                        FootprintFn&& footprint)
    {
        if (bytes <= 0) {
            return runtime_.Now();
        }
        MaybeAccess access(runtime_, std::forward<FootprintFn>(footprint));
        return FenceInputs(bytes, what);
    }
    SimTime StageInputs(int64_t bytes, const std::string& what)
    {
        return StageInputs(bytes, what, [this] { return slot_.InputAccess(); });
    }

    /// Records the batch's compute event, copies @p bytes D2H behind it
    /// (skipped when 0) and keeps the batch in flight, holding @p held,
    /// until its done-event is waited.
    template <typename FootprintFn>
    Retired Retire(int64_t bytes, const std::string& what, DeviceBuffer held,
                   FootprintFn&& footprint)
    {
        const Event compute_done = runtime_.RecordEvent(StreamId::kCompute);
        Event done = compute_done;
        if (bytes > 0) {
            MaybeAccess access(runtime_, std::forward<FootprintFn>(footprint));
            done = ReturnResults(compute_done, bytes, what);
        }
        Track(done, std::move(held));
        return {compute_done, done};
    }
    Retired Retire(int64_t bytes, const std::string& what, DeviceBuffer held)
    {
        return Retire(bytes, what, std::move(held),
                      [this] { return slot_.ResultAccess(); });
    }

    /// Blocks the host until every in-flight batch completes and frees
    /// their buffers.
    void Drain();

    int64_t InFlight() const { return static_cast<int64_t>(in_flight_.size()); }

  private:
    struct InFlightBatch {
        Event done;
        DeviceBuffer held;
    };

    SimTime FenceInputs(int64_t bytes, const std::string& what);
    Event ReturnResults(const Event& compute_done, int64_t bytes,
                        const std::string& what);
    void Track(const Event& done, DeviceBuffer held);
    /// Waits the oldest in-flight batch, then frees its buffer.
    void WaitOldest();

    Runtime& runtime_;
    int64_t depth_;
    int64_t admitted_ = 0;
    SlotResources slot_;
    std::deque<InFlightBatch> in_flight_;
};

}  // namespace dgnn::sim
