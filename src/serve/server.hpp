#pragma once

/// @file
/// The online-serving simulator: an open-loop arrival stream feeds a
/// request queue; a BatchPolicy turns the queue into batches; a
/// BatchExecutor issues each batch's captured cost profile to a fresh
/// simulated runtime. The loop is a discrete-event simulation on the
/// runtime's host clock — when there is nothing to dispatch the host idles
/// to the next arrival or policy wake-up. Produces a ServingReport with the
/// tail-latency histogram, queue/batch statistics, and sustained
/// throughput; FindMaxQpsUnderSlo searches for the highest offered rate
/// whose p99 stays under an SLO.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/latency_histogram.hpp"
#include "serve/arrival_source.hpp"
#include "serve/batch_policy.hpp"
#include "serve/executor.hpp"
#include "serve/model_session.hpp"
#include "serve/observer.hpp"
#include "serve/request.hpp"
#include "serve/shard_hook.hpp"

namespace dgnn::serve {

/// Which executor the server builds over its runtime.
enum class ExecutorKind {
    kSerial,
    kPipelined,
};

const char* ToString(ExecutorKind kind);

/// Server knobs independent of policy and load.
struct ServerOptions {
    ExecutorKind executor = ExecutorKind::kPipelined;
    /// In-flight depth bound for the pipelined executor.
    int64_t pipeline_depth = 2;
    /// Pay the one-time device warm-up before the serving window opens.
    bool warm_start = true;
    /// Optional passive observer (src/obs/). Null — the default — disables
    /// all observability hooks; the simulation is bit-identical either way
    /// because the hooks only read state.
    ServingObserver* observer = nullptr;
    /// Optional passive runtime observer (src/analysis/ — attach an
    /// analysis::HazardChecker to happens-before-check the run). Attached
    /// to the per-run runtime before any work is issued; null — the
    /// default — keeps the run bit-identical and skips all access
    /// annotation work.
    sim::RuntimeObserver* runtime_observer = nullptr;
    /// Optional runtime configuration for the run (scale-out: a topology
    /// node per shard). The execution mode is always overridden from the
    /// session; unset — the default — reproduces the historical
    /// models::MakeRuntime(mode) runtime bit-for-bit.
    std::optional<sim::RuntimeConfig> runtime_config;
    /// Optional per-batch shard intercept (src/shard/): claims the batch
    /// nodes owned by remote shards and issues the priced alltoall
    /// exchange before the batch executes. Null — the default — skips the
    /// seam entirely. Borrowed; must outlive the run.
    BatchShardHook* shard_hook = nullptr;
};

/// Everything one serving run produces.
struct ServingReport {
    std::string model;
    std::string mode;
    std::string policy;
    std::string executor;

    int64_t requests = 0;
    int64_t batches = 0;
    double offered_qps = 0.0;   ///< arrival rate implied by the workload
    double achieved_qps = 0.0;  ///< completions over the serving makespan
    sim::SimTime makespan_us = 0.0;

    /// End-to-end request latency (arrival -> results on host), us.
    /// latency.OverflowCount() reports samples clamped into the top bucket
    /// (non-zero means the p99 is biased low — the saturation flag).
    core::LatencyHistogram latency;
    /// Queue depth sampled at each dispatch decision.
    core::RunningStat queue_depth;
    /// Dispatched batch sizes.
    core::RunningStat batch_size;

    /// PCIe traffic of the serving window (the Fig 6/7 transfer categories
    /// under load).
    int64_t h2d_bytes = 0;
    int64_t d2h_bytes = 0;
    /// H2D bytes served on-device by cache hits during this run.
    int64_t cache_hit_bytes = 0;
    /// Device-cache counters for THIS run (delta of the session cache,
    /// which stays warm across runs). All zero for uncached sessions.
    cache::CacheStats cache_stats;
    /// Cross-shard exchange totals across the run's batches (all-zero
    /// without a shard hook — every unsharded run).
    ExchangeCost exchange;
};

/// Runs one serving simulation of @p arrivals (relative timestamps, sorted)
/// against @p session under @p policy. Builds a fresh runtime internally;
/// deterministic for fixed inputs. Requests carry no node identities, so a
/// cache-enabled session falls back to the captured all-miss state volume.
ServingReport Serve(ModelSession& session, BatchPolicy& policy,
                    const std::vector<sim::SimTime>& arrivals,
                    const ServerOptions& options);

/// General entry: node-bearing requests (relative arrival timestamps,
/// sorted). When the session serves through a device cache, each dispatched
/// batch's unique request nodes run through the live cache — recurrent
/// nodes across batches become on-device hits, which is the cross-batch
/// locality the offline benches cannot express.
ServingReport ServeRequests(ModelSession& session, BatchPolicy& policy,
                            const std::vector<Request>& requests,
                            const ServerOptions& options);

/// Source-driven entry: generates @p n requests from @p source and serves
/// them. The ArrivalSource seam (scenario generators plug in here).
ServingReport Serve(ModelSession& session, BatchPolicy& policy,
                    const ArrivalSource& source, int64_t n,
                    const ServerOptions& options);

/// Result of the sustained-throughput search.
struct QpsSearchResult {
    /// Highest offered rate the server sustained — p99 under the SLO while
    /// completions keep pace with arrivals (0 when even the lowest probed
    /// rate failed).
    double max_qps = 0.0;
    /// p99 latency at that rate, us.
    sim::SimTime p99_us = 0.0;
    /// Serving runs the search spent.
    int64_t evaluations = 0;
};

/// Binary-searches the maximum sustained Poisson arrival rate: p99 <=
/// @p slo_us and completions keeping pace with arrivals (>= 95% of the
/// offered rate — a finite workload bounds p99 even past saturation, so
/// the latency criterion alone would not saturate). Doubles from
/// @p lo_qps until the criterion breaks, then bisects a fixed number of
/// rounds. Policies are recreated per evaluation via @p make_policy;
/// arrivals are regenerated per rate from @p seed. Deterministic.
QpsSearchResult FindMaxQpsUnderSlo(
    ModelSession& session,
    const std::function<std::unique_ptr<BatchPolicy>()>& make_policy,
    const ServerOptions& options, sim::SimTime slo_us, int64_t num_requests,
    uint64_t seed, double lo_qps = 50.0);

}  // namespace dgnn::serve
