#pragma once

/// @file
/// The one batch-issue protocol, shared by the serving executor
/// (serve::Executor) and the models' offline mini-batch loops. A
/// pipeline is built for one Schedule and issues the matching ops; the
/// caller writes one sequence for both (DESIGN.md §14):
///
///   call           kStaged (the paper's Fig 10)    kEager (profiled path)
///   Admit()        with 2 batches in flight, wait  slot 0, never waits
///                  the oldest one's done-event and
///                  free its buffer; batch k gets
///                  slot k % 2
///   (host work)    the caller's batch build
///   StageInputs()  pinned async H2D on the copy    blocking H2D
///                  stream, fenced into the compute
///                  stream
///   (kernels)      the caller's launches
///   Barrier()      nothing                         Synchronize()
///   Retire()       record the compute event, async blocking D2H, then free
///                  D2H behind it, keep the batch   the batch's buffer
///                  (and its buffer) in flight
///   Drain()        wait every in-flight batch      nothing
///
/// Buffer rule (kStaged): a batch's device buffer lives until the host has
/// waited its done-event (in Admit's throttle or in Drain), because the
/// device may read it until then. On a CPU-only runtime the async
/// primitives are no-ops and the batch has already completed when Retire
/// returns, so the buffer is freed there.
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

/// How batches are issued. CPU-only runs issue the same host timeline under
/// both, because the async primitives kStaged relies on are no-ops there.
enum class Schedule {
    /// Each batch's inputs cross PCIe as one pinned async copy fenced into
    /// the compute stream, results return as one async copy behind a
    /// compute event, the host never synchronizes per phase, and two
    /// batches stay in flight (double buffering).
    kStaged,
    /// The paper's profiled eager-PyTorch path: blocking pageable copies,
    /// a device synchronization at every Barrier(), one batch at a time.
    kEager,
};

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
    StagingPipeline(Runtime& runtime, Schedule schedule);

    /// Completion of one retired batch.
    struct Retired {
        /// The batch's kernels finished. kEager: the host clock when Retire
        /// was entered, which a preceding Barrier() makes exact.
        SimTime compute_done_us = 0.0;
        /// Results on the host (== compute_done_us when nothing was
        /// copied back).
        SimTime done_us = 0.0;
    };

    /// Throttles (kStaged), then returns the next batch's slot. The
    /// reference stays valid until the next Admit.
    const SlotResources& Admit();

    /// Moves @p copies copies of @p bytes each H2D and, under kStaged,
    /// fences the compute stream on them. Returns the inputs-ready time;
    /// with @p bytes == 0 nothing is issued and Now() is returned.
    /// @p footprint builds the copies' AccessSet (only called when an
    /// observer is attached).
    template <typename FootprintFn>
    SimTime StageInputs(int64_t bytes, const std::string& what,
                        FootprintFn&& footprint, int64_t copies = 1)
    {
        if (bytes <= 0) {
            return runtime_.Now();
        }
        MaybeAccess access(runtime_, std::forward<FootprintFn>(footprint));
        return IssueInputs(bytes, what, copies);
    }
    SimTime StageInputs(int64_t bytes, const std::string& what)
    {
        return StageInputs(bytes, what, [this] { return slot_.InputAccess(); });
    }

    /// The eager schedule's per-phase barrier: blocks the host until the
    /// device drains (the cudaDeviceSynchronize the paper profiles). No-op
    /// under kStaged, where only a batch's done-event orders the host.
    void Barrier();

    /// Ends the batch: copies @p copies copies of @p bytes each D2H behind
    /// its kernels (none when @p bytes is 0) and releases @p held once the
    /// device can no longer read it (see the buffer rule).
    template <typename FootprintFn>
    Retired Retire(int64_t bytes, const std::string& what, DeviceBuffer held,
                   FootprintFn&& footprint, int64_t copies = 1)
    {
        const Event compute_done = MarkComputeDone();
        Event done = compute_done;
        if (bytes > 0) {
            MaybeAccess access(runtime_, std::forward<FootprintFn>(footprint));
            done = ReturnResults(compute_done, bytes, what, copies);
        }
        Track(done, std::move(held));
        return {compute_done.ready_us, done.ready_us};
    }
    Retired Retire(int64_t bytes, const std::string& what, DeviceBuffer held)
    {
        return Retire(bytes, what, std::move(held),
                      [this] { return slot_.ResultAccess(); });
    }

    /// Blocks the host until every in-flight batch completes and frees
    /// their buffers.
    void Drain();

  private:
    /// Batches kStaged keeps in flight before Admit blocks.
    static constexpr int64_t kDepth = 2;

    struct InFlightBatch {
        Event done;
        DeviceBuffer held;
    };

    bool Staged() const { return schedule_ == Schedule::kStaged; }
    SimTime IssueInputs(int64_t bytes, const std::string& what, int64_t copies);
    /// kStaged records the compute event; kEager reads the host clock.
    Event MarkComputeDone();
    Event ReturnResults(const Event& compute_done, int64_t bytes,
                        const std::string& what, int64_t copies);
    void Track(const Event& done, DeviceBuffer held);
    /// Waits the oldest in-flight batch, then frees its buffer.
    void WaitOldest();

    Runtime& runtime_;
    Schedule schedule_;
    int64_t admitted_ = 0;
    SlotResources slot_;
    std::deque<InFlightBatch> in_flight_;
};

}  // namespace dgnn::sim
