#pragma once

/// @file
/// Bridges the offline model layer to the online server. A ModelSession
/// wraps one DgnnModel and captures, per batch size, the model's exact
/// per-batch cost profile: it replays the model's batched inference entry
/// (models::SingleBatchProbe) against a scratch runtime and distills the
/// recorded trace into a BatchProfile — total host-side work (sampling,
/// batch build, framework overhead), H2D/D2H transfer volumes, and the
/// ordered device-kernel descriptors. The serving executors then re-issue
/// that profile per request batch, either serially (eager-mode semantics)
/// or pipelined across streams. Profiles are memoized per batch size, so
/// dynamic batching with variable sizes stays cheap.
///
/// Cache-aware serving: a session built with a positive cache capacity (and
/// a model exposing cacheable per-node state) owns a cache::DeviceCache
/// that stays WARM ACROSS BATCHES — the locality the offline benches cannot
/// express. Profiles are then captured with an unbounded probe cache so the
/// per-node state gather is separated out (state_rows / state_row_bytes,
/// recognized by the runtime's ":cache_miss_h2d"/":cache_writeback_d2h"
/// trace markers); at dispatch time the serving loop runs the batch's
/// actual request nodes through the live cache and the executor re-issues
/// the gather with the real hit/miss split.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cache/device_cache.hpp"
#include "models/dgnn_model.hpp"
#include "sim/kernel.hpp"
#include "sim/runtime.hpp"

namespace dgnn::serve {

/// Everything one inference batch costs, in issue order.
struct BatchProfile {
    int64_t batch_size = 0;
    /// Total host-side work per batch (sampling + batch build + framework
    /// overhead), us.
    sim::SimTime host_us = 0.0;
    /// Input bytes moved host->device per batch. When the session cache is
    /// enabled this EXCLUDES per-node state (tracked by state_rows below).
    int64_t h2d_bytes = 0;
    /// Result bytes moved device->host per batch (write-backs excluded —
    /// the live cache decides those per batch).
    int64_t d2h_bytes = 0;
    /// Unique per-node state rows the probe batch gathered, and their
    /// width. Zero when the capture ran uncached.
    int64_t state_rows = 0;
    int64_t state_row_bytes = 0;
    /// Device kernels, in launch order.
    std::vector<sim::KernelDesc> kernels;
};

/// One served model: captures and memoizes BatchProfiles.
class ModelSession {
  public:
    /// @param model          the model to serve (borrowed; must outlive the
    ///                       session)
    /// @param mode           execution mode profiles are captured under
    /// @param num_neighbors  sampler fan-out forwarded to the probe config
    /// @param cache_config   device cache shared by every batch this
    ///                       session serves; capacity 0 (the default)
    ///                       serves uncached. Only effective in hybrid mode
    ///                       for models with cacheable state.
    /// @param fuse_kernels   capture profiles with the model's registered
    ///                       fusion chains collapsed (models::RunConfig::
    ///                       fuse_kernels): fewer, fatter kernels, identical
    ///                       host work and transfer volumes
    /// @throws dgnn::Error on a negative num_neighbors or a negative
    ///         cache_config.capacity_bytes
    ModelSession(models::DgnnModel& model, sim::ExecMode mode,
                 int64_t num_neighbors = 20,
                 cache::DeviceCacheConfig cache_config = {},
                 bool fuse_kernels = false);

    std::string ModelName() const { return model_.Name(); }
    sim::ExecMode Mode() const { return mode_; }

    /// Whether batches are served through the session's device cache.
    bool CacheEnabled() const { return cache_.Enabled(); }

    /// The session-lifetime cache (warm across batches AND across Serve
    /// runs; Serve reports per-run deltas of its stats).
    cache::DeviceCache& Cache() { return cache_; }
    const cache::DeviceCache& Cache() const { return cache_; }

    /// Whether cached rows are mutated per batch (write-back tracking).
    bool CacheRowsMutable() const { return model_.CacheRowsMutable(); }

    /// The (memoized) cost profile of a batch of @p batch_size requests.
    const BatchProfile& Profile(int64_t batch_size);

    /// Number of distinct batch sizes captured so far.
    int64_t CapturedProfiles() const
    {
        return static_cast<int64_t>(cache_profiles_.size());
    }

  private:
    BatchProfile Capture(int64_t batch_size);

    models::DgnnModel& model_;
    sim::ExecMode mode_;
    int64_t num_neighbors_;
    bool fuse_kernels_;
    cache::DeviceCache cache_;
    std::map<int64_t, BatchProfile> cache_profiles_;
};

}  // namespace dgnn::serve
