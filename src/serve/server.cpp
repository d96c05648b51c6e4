#include "serve/server.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace dgnn::serve {

const char*
ToString(ExecutorKind kind)
{
    switch (kind) {
      case ExecutorKind::kSerial:
        return "serial";
      case ExecutorKind::kPipelined:
        return "pipelined";
    }
    return "?";
}

namespace {

std::unique_ptr<BatchExecutor>
MakeExecutor(sim::Runtime& runtime, const ServerOptions& options)
{
    if (options.executor == ExecutorKind::kPipelined) {
        return std::make_unique<PipelinedExecutor>(runtime,
                                                   options.pipeline_depth);
    }
    return std::make_unique<SerialExecutor>(runtime);
}

}  // namespace

ServingReport
Serve(ModelSession& session, BatchPolicy& policy,
      const std::vector<sim::SimTime>& arrivals, const ServerOptions& options)
{
    std::vector<Request> requests;
    requests.reserve(arrivals.size());
    int64_t id = 0;
    for (const sim::SimTime t : arrivals) {
        requests.push_back(Request{id++, t});
    }
    return ServeRequests(session, policy, requests, options);
}

ServingReport
Serve(ModelSession& session, BatchPolicy& policy, const ArrivalSource& source,
      int64_t n, const ServerOptions& options)
{
    return ServeRequests(session, policy, source.Generate(n), options);
}

ServingReport
ServeRequests(ModelSession& session, BatchPolicy& policy,
              const std::vector<Request>& requests, const ServerOptions& options)
{
    DGNN_CHECK(std::is_sorted(requests.begin(), requests.end(),
                              [](const Request& a, const Request& b) {
                                  return a.arrival_us < b.arrival_us;
                              }),
               "arrival timestamps must be sorted");

    // Unset runtime_config reproduces models::MakeRuntime(mode) — a default
    // config with only the mode set — bit-for-bit.
    sim::RuntimeConfig runtime_config =
        options.runtime_config.value_or(sim::RuntimeConfig{});
    runtime_config.mode = session.Mode();
    sim::Runtime runtime{std::move(runtime_config)};
    runtime.SetObserver(options.runtime_observer);
    const cache::CacheStats cache_stats_before = session.Cache().Stats();
    std::unique_ptr<BatchExecutor> executor = MakeExecutor(runtime, options);

    if (options.warm_start) {
        // Context/model init happen before the serving window opens; model
        // weights are assumed resident (a server loads them once).
        runtime.EnsureWarm(0);
    }
    runtime.ResetMeasurementWindow();
    const sim::SimTime window_start = runtime.Now();

    ServingObserver* observer = options.observer;
    if (observer != nullptr) {
        RunContext ctx;
        ctx.model = session.ModelName();
        ctx.mode = sim::ToString(session.Mode());
        ctx.policy = policy.Name();
        ctx.executor = executor->Name();
        ctx.runtime = &runtime;
        ctx.cache = &session.Cache();
        ctx.window_start_us = window_start;
        observer->OnRunBegin(ctx);
    }

    ServingReport report;
    report.model = session.ModelName();
    report.mode = sim::ToString(session.Mode());
    report.policy = policy.Name();
    report.executor = executor->Name();
    report.requests = static_cast<int64_t>(requests.size());
    if (!requests.empty() &&
        requests.back().arrival_us > requests.front().arrival_us) {
        report.offered_qps =
            static_cast<double>(requests.size() - 1) /
            (requests.back().arrival_us - requests.front().arrival_us) * 1e6;
    }

    // Everything below runs in ABSOLUTE host time: rebasing arrivals once
    // keeps every comparison (admission, policy deadlines, idle targets) in
    // one floating-point domain. Mixing window-relative and absolute clocks
    // here can disagree by an ulp once the warm-up offset is large, and an
    // ulp of disagreement is an infinite loop in a discrete-event simulator.
    const auto n = static_cast<int64_t>(requests.size());
    std::vector<sim::SimTime> due;
    due.reserve(requests.size());
    for (const Request& r : requests) {
        due.push_back(window_start + r.arrival_us);
    }

    int64_t next_arrival = 0;
    std::deque<Request> queue;
    const sim::SimTime first_due = n > 0 ? due.front() : window_start;
    sim::SimTime last_completion = first_due;

    while (next_arrival < n || !queue.empty()) {
        const sim::SimTime now = runtime.Now();

        // Admit everything that has arrived by the current host time.
        while (next_arrival < n && due[static_cast<size_t>(next_arrival)] <= now) {
            const sim::SimTime t = due[static_cast<size_t>(next_arrival)];
            const Request& r = requests[static_cast<size_t>(next_arrival)];
            queue.push_back(Request{next_arrival, t, r.src, r.dst});
            policy.OnArrival(t);
            if (observer != nullptr) {
                observer->OnArrival(queue.back());
            }
            ++next_arrival;
        }

        const bool stream_ended = next_arrival >= n;
        const BatchDecision decision = policy.Decide(queue, now, stream_ended);

        if (decision.dispatch > 0) {
            DGNN_CHECK(decision.dispatch <= static_cast<int64_t>(queue.size()),
                       "policy dispatched more requests than queued");
            report.queue_depth.Record(static_cast<double>(queue.size()));
            report.batch_size.Record(static_cast<double>(decision.dispatch));

            const BatchProfile& profile = session.Profile(decision.dispatch);

            // Resolve the batch's state gather against the session's live
            // cache (warm across batches and runs). Blind endpoints (a
            // src or dst of -1) are charged their share of the probe's
            // all-miss state volume, so transfer accounting never silently
            // drops state movement — not even in mixed or half-blind
            // batches.
            CacheBatchCost cache_cost;
            ExchangeCost exchange;
            // The shard hook needs the batch's unique nodes even for
            // uncached sessions (sharded read-only feature tables still pay
            // the exchange); without a hook the collection stays gated on
            // the cache exactly as before.
            const bool want_nodes =
                session.CacheEnabled() || options.shard_hook != nullptr;
            std::vector<int64_t> nodes;
            int64_t blind_endpoints = 0;
            if (want_nodes) {
                nodes.reserve(static_cast<size_t>(2 * decision.dispatch));
                for (int64_t i = 0; i < decision.dispatch; ++i) {
                    const Request& r = queue[static_cast<size_t>(i)];
                    for (const int64_t node : {r.src, r.dst}) {
                        if (node >= 0) {
                            nodes.push_back(node);
                        } else {
                            ++blind_endpoints;
                        }
                    }
                }
                cache::SortUnique(nodes);
            }
            if (options.shard_hook != nullptr) {
                // Remote-owned nodes leave the batch's local gather; their
                // rows arrive through the exchange issued below.
                (void)options.shard_hook->ClaimRemote(nodes);
            }
            if (session.CacheEnabled()) {
                cache_cost.row_bytes = profile.state_row_bytes;
                cache_cost.rows_mutable = session.CacheRowsMutable();
                if (!nodes.empty()) {
                    const cache::GatherResult g = session.Cache().Gather(
                        nodes, session.CacheRowsMutable(),
                        runtime.HasObserver() ? &cache_cost.row_trace
                                              : nullptr);
                    cache_cost.hit_rows = g.hit_rows;
                    cache_cost.miss_rows = g.miss_rows;
                    cache_cost.writeback_rows = g.writeback_rows;
                }
                // Pro-rated all-miss charge for the endpoints the cache
                // cannot see (the probe's state_rows cover a full batch's
                // 2 * batch_size endpoints' worth of unique state);
                // ceiling division so a small blind share never truncates
                // to a free ride. Mutable rows the cache never admitted
                // also pay their sync-back per batch, like the uncached
                // baseline.
                const int64_t blind_rows =
                    blind_endpoints == 0
                        ? 0
                        : (blind_endpoints * profile.state_rows +
                           2 * profile.batch_size - 1) /
                              (2 * profile.batch_size);
                cache_cost.miss_rows += blind_rows;
                if (session.CacheRowsMutable()) {
                    cache_cost.writeback_rows += blind_rows;
                }
            }

            if (options.shard_hook != nullptr) {
                // The exchange lands on the run's streams ahead of the
                // batch's own work, so stream ordering alone serializes
                // them; an empty claim issues nothing (1-shard identity).
                exchange = options.shard_hook->IssueExchange(runtime);
                report.exchange += exchange;
            }

            BatchSpans spans;
            const sim::SimTime completion = executor->Submit(
                profile, cache_cost, observer != nullptr ? &spans : nullptr);
            last_completion = std::max(last_completion, completion);
            BatchObservation ob;
            if (observer != nullptr) {
                // Member requests must be copied BEFORE the pops below
                // retire them from the queue.
                ob.batch_index = report.batches;
                ob.queue_depth = static_cast<int64_t>(queue.size());
                ob.spans = spans;
                ob.cache_cost = cache_cost;
                ob.exchange = exchange;
                ob.profile = &profile;
                ob.requests.assign(queue.begin(),
                                   queue.begin() + decision.dispatch);
            }
            for (int64_t i = 0; i < decision.dispatch; ++i) {
                report.latency.Record(completion - queue.front().arrival_us);
                queue.pop_front();
            }
            ++report.batches;
            if (observer != nullptr) {
                observer->OnBatch(ob);
            }
            continue;
        }

        // Nothing to dispatch: idle to the next actionable instant. Both
        // candidate wake targets are strictly in the future (admission
        // consumed arrivals <= now; policies only schedule wakes beyond
        // now), so the idle below always advances the clock.
        sim::SimTime wake = decision.wake_us;
        if (next_arrival < n) {
            wake = std::min(wake, due[static_cast<size_t>(next_arrival)]);
        }
        DGNN_CHECK(wake < kNoWake,
                   "batch policy stalled: no dispatch and nothing to wake for");
        if (observer != nullptr) {
            // A wake at the policy's own deadline is a timeout flush in the
            // making; a wake at the next arrival is the server going idle.
            observer->OnIdleWake(wake, wake == decision.wake_us);
        }
        sim::CategoryScope idle_scope(runtime, "Serving Idle");
        runtime.IdleUntil(wake);
        DGNN_CHECK(runtime.Now() > now, "serving loop failed to advance");
    }

    executor->Drain();
    // End-of-run sync of the host-side store, like the offline models'
    // flush: every dirty row still resident pays its write-back exactly
    // once (DESIGN.md §8 — on eviction or here). The rows stay resident,
    // so a follow-up run over the same session starts warm and clean.
    if (session.CacheEnabled() && session.CacheRowsMutable()) {
        std::vector<std::string> flushed;
        const int64_t flushed_rows = session.Cache().FlushDirty(
            runtime.HasObserver() ? &flushed : nullptr);
        sim::AccessSet access;
        access.reads = std::move(flushed);
        access.writes.emplace_back("host_store");
        sim::AccessScope access_scope(runtime, std::move(access));
        runtime.WriteBackToHost(flushed_rows, session.Cache().RowBytes(),
                                "serve_state_flush");
    }
    if (observer != nullptr) {
        observer->OnRunEnd();
    }
    report.makespan_us = last_completion - first_due;
    if (report.makespan_us > 0.0) {
        report.achieved_qps =
            static_cast<double>(report.requests) / report.makespan_us * 1e6;
    }
    report.h2d_bytes = runtime.BytesToDevice();
    report.d2h_bytes = runtime.BytesToHost();
    report.cache_hit_bytes = runtime.CacheHitBytes();
    report.cache_stats = session.Cache().Stats() - cache_stats_before;
    return report;
}

QpsSearchResult
FindMaxQpsUnderSlo(ModelSession& session,
                   const std::function<std::unique_ptr<BatchPolicy>()>& make_policy,
                   const ServerOptions& options, sim::SimTime slo_us,
                   int64_t num_requests, uint64_t seed, double lo_qps)
{
    DGNN_CHECK(slo_us > 0.0, "SLO must be positive, got ", slo_us);
    DGNN_CHECK(num_requests > 0, "need at least one request for the search");
    DGNN_CHECK(lo_qps > 0.0, "search floor must be positive, got ", lo_qps);

    QpsSearchResult result;
    struct Probe {
        bool sustained;
        sim::SimTime p99;
    };
    // "Sustained" needs both halves: the tail meets the SLO AND the server
    // keeps up with the offered rate. The second half matters because a
    // finite workload bounds p99 even past saturation (the last batch
    // always completes eventually); requiring completions to track
    // arrivals restores the steady-state meaning of the search.
    auto probe_at = [&](double rate) {
        const std::vector<sim::SimTime> arrivals =
            PoissonArrivals(rate, num_requests, seed);
        std::unique_ptr<BatchPolicy> policy = make_policy();
        const ServingReport report = Serve(session, *policy, arrivals, options);
        ++result.evaluations;
        const bool keeps_up = report.achieved_qps >= 0.95 * rate;
        return Probe{report.latency.P99() <= slo_us && keeps_up,
                     report.latency.P99()};
    };

    // Phase 1: geometric probe upward from the floor until it breaks.
    double lo = lo_qps;
    Probe at_lo = probe_at(lo);
    if (!at_lo.sustained) {
        return result;  // even the floor misses the SLO
    }
    double hi = lo;
    constexpr int kMaxDoublings = 24;
    bool bracketed = false;
    for (int i = 0; i < kMaxDoublings; ++i) {
        hi = lo * 2.0;
        const Probe p = probe_at(hi);
        if (!p.sustained) {
            bracketed = true;
            break;
        }
        lo = hi;
        at_lo = p;
    }

    // Phase 2: fixed-round bisection of (sustained lo, unsustained hi).
    if (bracketed) {
        constexpr int kBisections = 12;
        for (int i = 0; i < kBisections; ++i) {
            const double mid = 0.5 * (lo + hi);
            const Probe p = probe_at(mid);
            if (p.sustained) {
                lo = mid;
                at_lo = p;
            } else {
                hi = mid;
            }
        }
    }
    result.max_qps = lo;
    result.p99_us = at_lo.p99;
    return result;
}

}  // namespace dgnn::serve
