#pragma once

/// @file
/// Batch executors: how a dispatched batch's cost profile is issued to the
/// runtime.
///
///   * SerialExecutor     — eager-mode semantics, exactly what the offline
///                          models do: host build, blocking H2D, kernels,
///                          synchronize, blocking D2H. One batch owns the
///                          whole machine at a time.
///   * PipelinedExecutor  — the serving optimization the paper's bottleneck
///                          analysis motivates: host build for batch k+1
///                          overlaps device compute for batch k. Inputs move
///                          via async pinned copies on the copy stream; the
///                          compute stream waits on the copy event; results
///                          return via an async D2H behind a compute event.
///                          A depth bound (default 2 = double buffering)
///                          throttles the host when it runs too far ahead.
///
/// Submit returns the batch's absolute completion time, which for the
/// pipelined executor generally lies beyond the host clock.

#include <cstdint>
#include <deque>

#include "cache/device_cache.hpp"
#include "serve/model_session.hpp"
#include "sim/runtime.hpp"

namespace dgnn::serve {

/// Per-batch cache outcome the serving loop resolved against the session's
/// live device cache: how the batch's state gather splits into hits and
/// misses, and how many evicted dirty rows owe a write-back. Inactive
/// (all-zero) for uncached sessions — the profile then already carries the
/// full transfer volume.
struct CacheBatchCost {
    int64_t hit_rows = 0;
    int64_t miss_rows = 0;
    int64_t row_bytes = 0;
    int64_t writeback_rows = 0;

    /// Whether the cached rows are mutable state (the batch's kernels
    /// update them on the device) — TGN/JODIE/DyRep memory rows.
    bool rows_mutable = false;

    /// Generation-tagged row resources for the hazard checker
    /// (cache::GatherTrace semantics). Filled by the serving loop only
    /// when the runtime has an observer attached; empty otherwise.
    cache::GatherTrace row_trace;

    int64_t WritebackBytes() const { return writeback_rows * row_bytes; }
};

/// Stage-boundary timestamps of one submitted batch, filled by the
/// executors for the observability layer (src/obs/). The six boundaries are
/// monotone non-decreasing and complete_us equals the completion time
/// Submit returns, so the consecutive differences partition the batch's
/// in-executor latency exactly:
///
///   dispatch -> stall    pipeline-depth throttle wait (0 for serial)
///   stall    -> host     host-side batch build (+ async submit overheads)
///   host     -> h2d      input H2D landed on the device
///   h2d      -> compute  device kernels (incl. the cache hit-gather) done
///   compute  -> complete results (+ dirty write-backs) back on the host
///
/// For the pipelined executor the device-side boundaries are event
/// completion times clamped into [host_done, complete]: a batch's H2D may
/// queue behind the previous batch's D2H on the copy stream, and that wait
/// is attributed to the H2D stage.
struct BatchSpans {
    sim::SimTime dispatch_us = 0.0;
    sim::SimTime stall_done_us = 0.0;
    sim::SimTime host_done_us = 0.0;
    sim::SimTime h2d_done_us = 0.0;
    sim::SimTime compute_done_us = 0.0;
    sim::SimTime complete_us = 0.0;
};

/// Issues batches to the simulated runtime.
class BatchExecutor {
  public:
    explicit BatchExecutor(sim::Runtime& runtime) : runtime_(runtime) {}
    virtual ~BatchExecutor() = default;

    virtual std::string Name() const = 0;

    /// Issues one batch; returns its absolute completion time (when its
    /// results are back on the host). @p cache_cost carries the batch's
    /// resolved hit/miss split when the session serves through a device
    /// cache (all-zero for uncached sessions). When @p spans is non-null
    /// the executor records the batch's stage boundaries into it; the
    /// capture only reads the clock, so passing nullptr vs a target is
    /// simulation-identical.
    virtual sim::SimTime Submit(const BatchProfile& profile,
                                const CacheBatchCost& cache_cost,
                                BatchSpans* spans = nullptr) = 0;

    /// Blocks the host until every in-flight batch completes.
    virtual sim::SimTime Drain();

    sim::Runtime& GetRuntime() { return runtime_; }

  protected:
    sim::Runtime& runtime_;
};

/// Eager-mode executor: every stage blocks the host.
class SerialExecutor : public BatchExecutor {
  public:
    using BatchExecutor::BatchExecutor;

    std::string Name() const override { return "serial"; }
    sim::SimTime Submit(const BatchProfile& profile,
                        const CacheBatchCost& cache_cost,
                        BatchSpans* spans = nullptr) override;
};

/// Multi-stream pipelined executor with bounded in-flight depth.
class PipelinedExecutor : public BatchExecutor {
  public:
    /// @param max_in_flight batches allowed in flight before the host
    ///                      blocks (2 = classic double buffering)
    explicit PipelinedExecutor(sim::Runtime& runtime, int64_t max_in_flight = 2);

    std::string Name() const override { return "pipelined"; }
    sim::SimTime Submit(const BatchProfile& profile,
                        const CacheBatchCost& cache_cost,
                        BatchSpans* spans = nullptr) override;
    sim::SimTime Drain() override;

    int64_t InFlight() const { return static_cast<int64_t>(in_flight_.size()); }

  private:
    int64_t max_in_flight_;
    std::deque<sim::Event> in_flight_;
    /// Batches submitted so far; batch k stages through slot
    /// k % max_in_flight_ (the double-buffer rotation the hazard
    /// annotations describe).
    int64_t submitted_ = 0;
};

}  // namespace dgnn::serve
