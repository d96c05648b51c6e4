/// The two serving workloads: simulated open loops whose arrivals are
/// timestamps on the simulated clock, so the generator is never late.
///
///   serve-flash-crowd  a TGN session behind an LRU device cache holding a
///                      quarter of node memory (mutable rows: gathers and
///                      dirty write-backs), pipelined executor,
///                      timeout(64, 5 ms) batching, gauntlet scenario
///                      flash-crowd/pref-burst.
///   serve-sharded      TGAT uncached (read-only feature rows, uniform
///                      sampler) across 4 shards, greedy partitioner, PCIe
///                      peer links, poisson/recurrent arrivals.
///
/// Each workload serves two fixed rates (low, knee) and bisects for the
/// highest rate of its own arrival shape that keeps p99 <= 10 ms while
/// completions keep pace with arrivals. Host time counts only the serving
/// calls; request generation is memoized per rate.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "cache/device_cache.hpp"
#include "core/latency_histogram.hpp"
#include "data/temporal_interactions.hpp"
#include "models/tgat.hpp"
#include "models/tgn.hpp"
#include "obs/request_timeline.hpp"
#include "scenario/scenario.hpp"
#include "serve/batch_policy.hpp"
#include "serve/executor.hpp"
#include "serve/model_session.hpp"
#include "serve/observer.hpp"
#include "serve/server.hpp"
#include "shard/partition_book.hpp"
#include "shard/sharded_server.hpp"

namespace perfbench {

using namespace dgnn;

namespace {

constexpr int64_t kServeBatch = 64;
constexpr double kTimeoutUs = 5000.0;
constexpr double kSloMs = 10.0;
constexpr double kPaceFraction = 0.95;
constexpr int kSearchRounds = 8;
constexpr int64_t kNeighbors = 10;
constexpr int32_t kShards = 4;

/// @p n requests of the gauntlet scenario named @p name at @p rate.
std::vector<serve::Request>
GauntletRequests(const std::string& name, double rate, int64_t n,
                 const data::InteractionDataset& dataset, uint64_t seed)
{
    for (const scenario::Scenario& s :
         scenario::GauntletScenarios(rate, n, dataset.NumNodes(), seed)) {
        if (s.name == name) {
            return scenario::GenerateRequests(s, dataset, n);
        }
    }
    throw std::runtime_error("gauntlet has no scenario " + name);
}

/// The gauntlet's recurrent repeat-talker stream, seeded by the workload.
data::InteractionSpec
ServingDatasetSpec(uint64_t seed)
{
    data::InteractionSpec spec;
    spec.name = "gauntlet";
    spec.num_users = 512;
    spec.num_items = 128;
    spec.num_events = 4096;
    spec.edge_feature_dim = 64;
    spec.popularity_alpha = 2.5;
    spec.repeat_prob = 0.9;
    spec.seed = seed;
    return spec;
}

/// Records every served request's exact latency and every batch's service
/// span; with a timeline attached it also expands batches into request
/// span records.
class LatencyObserver final : public serve::ServingObserver {
  public:
    explicit LatencyObserver(obs::RequestTimeline* timeline) : timeline_(timeline) {}

    void OnBatch(const serve::BatchObservation& ob) override
    {
        for (const serve::Request& r : ob.requests) {
            latencies_ms.push_back((ob.spans.complete_us - r.arrival_us) / 1000.0);
        }
        service_ms.Record((ob.spans.complete_us - ob.spans.dispatch_us) / 1000.0);
        if (timeline_ != nullptr) {
            timeline_->RecordBatch(ob);
        }
    }

    std::vector<double> latencies_ms;
    core::RunningStat service_ms;

  private:
    obs::RequestTimeline* timeline_;
};

/// One serving run at one rate.
struct ServePoint {
    int64_t sent = 0;
    int64_t completed = 0;
    double offered_qps = 0.0;
    double achieved_qps = 0.0;
    int64_t overflow = 0;
    std::vector<double> latencies_ms;  ///< sorted
    double service_ms = 0.0;
    core::RunningStat batch_size;
    core::RunningStat queue_depth;
    cache::CacheStats cache;
    int64_t cache_hit_bytes = 0;
    int64_t edge_cut = 0;
    double balance_factor = 0.0;
    serve::ExchangeCost exchange;
    double comm_tax_pct = 0.0;
    double host_s = 0.0;

    double Quantile(double q) const { return SortedQuantile(latencies_ms, q); }
    bool MeetsSlo() const
    {
        return completed == sent && Quantile(0.99) <= kSloMs &&
               achieved_qps >= kPaceFraction * offered_qps;
    }
    std::vector<double> Fingerprint() const
    {
        std::vector<double> f = latencies_ms;
        f.insert(f.end(),
                 {static_cast<double>(completed), offered_qps, achieved_qps,
                  service_ms, batch_size.Mean(), queue_depth.Mean(),
                  static_cast<double>(cache.hits), static_cast<double>(cache.evictions),
                  static_cast<double>(cache.writeback_rows),
                  static_cast<double>(exchange.bytes), comm_tax_pct});
        return f;
    }
};

/// The workload-specific half: set-up and one serving run per rate.
class ServingWorkload {
  public:
    virtual ~ServingWorkload() = default;
    /// Generates the dataset, builds the model and captures profiles;
    /// returns {data generation s, profile capture s}.
    virtual std::pair<double, double> Setup(uint64_t seed) = 0;
    virtual std::vector<serve::Request> Generate(double rate, int64_t n) const = 0;
    virtual ServePoint Serve(const std::vector<serve::Request>& requests,
                             obs::RequestTimeline* timeline) = 0;
    /// Per-layer metrics only this workload's layers produce.
    virtual void ReportLayers(const ServePoint& knee,
                              const std::vector<serve::Request>& knee_requests,
                              SpanRecorder& spans, Report& report) = 0;
    /// The captured full-batch profile, re-issued for sim.host_ns_per_op.
    virtual const serve::BatchProfile& FullBatchProfile() = 0;
};

void
FillFromReport(const serve::ServingReport& r, ServePoint& p)
{
    p.batch_size.Merge(r.batch_size);
    p.queue_depth.Merge(r.queue_depth);
    p.overflow += r.latency.OverflowCount();
}

void
FillFromObserver(const LatencyObserver& observer, ServePoint& p)
{
    p.latencies_ms = observer.latencies_ms;
    std::sort(p.latencies_ms.begin(), p.latencies_ms.end());
    p.completed = static_cast<int64_t>(p.latencies_ms.size());
    p.service_ms = observer.service_ms.Mean();
}

class FlashCrowd final : public ServingWorkload {
  public:
    std::pair<double, double> Setup(uint64_t seed) override
    {
        seed_ = seed;
        session_.reset();
        model_.reset();
        const Clock::time_point start = Clock::now();
        dataset_ = std::make_unique<data::InteractionDataset>(
            data::GenerateInteractions(ServingDatasetSpec(seed)));
        const double gen_s = SecondsSince(start);
        model_ = std::make_unique<models::Tgn>(*dataset_,
                                               models::TgnConfig{172, 64, 2, 11});
        cache_config_.capacity_bytes =
            dataset_->NumNodes() / 4 * model_->CacheRowBytes();
        cache_config_.row_bytes = model_->CacheRowBytes();
        cache_config_.eviction = cache::EvictionPolicy::kLru;
        session_ = std::make_unique<serve::ModelSession>(
            *model_, sim::ExecMode::kHybrid, kNeighbors, cache_config_);
        const Clock::time_point capture = Clock::now();
        for (int64_t b = 1; b <= kServeBatch; ++b) {
            (void)session_->Profile(b);
        }
        return {gen_s, SecondsSince(capture)};
    }

    std::vector<serve::Request> Generate(double rate, int64_t n) const override
    {
        return GauntletRequests("flash-crowd/pref-burst", rate, n, *dataset_, seed_);
    }

    ServePoint Serve(const std::vector<serve::Request>& requests,
                     obs::RequestTimeline* timeline) override
    {
        // Every run starts from a cold cache, so runs do not depend on
        // the order they are made in.
        session_->Cache() = cache::DeviceCache(cache_config_);
        serve::TimeoutPolicy policy(kServeBatch, kTimeoutUs);
        LatencyObserver observer(timeline);
        serve::ServerOptions options;
        options.executor = serve::ExecutorKind::kPipelined;
        options.observer = &observer;
        const Clock::time_point start = Clock::now();
        const serve::ServingReport r =
            serve::ServeRequests(*session_, policy, requests, options);
        ServePoint p;
        p.host_s = SecondsSince(start);
        p.sent = static_cast<int64_t>(requests.size());
        p.offered_qps = r.offered_qps;
        p.achieved_qps = r.achieved_qps;
        p.cache = r.cache_stats;
        p.cache_hit_bytes = r.cache_hit_bytes;
        FillFromReport(r, p);
        FillFromObserver(observer, p);
        return p;
    }

    void ReportLayers(const ServePoint& knee,
                      const std::vector<serve::Request>& knee_requests,
                      SpanRecorder& spans, Report& report) override
    {
        report.Metric("cache.hit_rate", knee.cache.HitRate(), "frac");
        report.Metric("cache.evictions", static_cast<double>(knee.cache.evictions),
                      "count");
        report.Metric("cache.writebacks",
                      static_cast<double>(knee.cache.writeback_rows), "count");
        report.Metric("cache.saved_mb",
                      static_cast<double>(knee.cache_hit_bytes) / (1024.0 * 1024.0),
                      "MB");
        // Replays the live-cache admission the serving loop makes for each
        // batch: the batch's unique endpoints, marked dirty.
        std::vector<std::vector<int64_t>> batches;
        int64_t rows = 0;
        for (size_t begin = 0; begin < knee_requests.size(); begin += kServeBatch) {
            std::vector<int64_t> keys;
            const size_t end =
                std::min(knee_requests.size(), begin + static_cast<size_t>(kServeBatch));
            for (size_t i = begin; i < end; ++i) {
                keys.push_back(knee_requests[i].src);
                keys.push_back(knee_requests[i].dst);
            }
            cache::SortUnique(keys);
            rows += static_cast<int64_t>(keys.size());
            batches.push_back(std::move(keys));
        }
        const double per_pass = TimePerCall(spans, "cache.gather", [&] {
            cache::DeviceCache cache(cache_config_);
            for (const std::vector<int64_t>& keys : batches) {
                (void)cache.Gather(keys, /*mark_dirty=*/true);
            }
        });
        report.Metric("cache.host_ns_per_row",
                      rows > 0 ? per_pass * 1e9 / static_cast<double>(rows) : 0.0,
                      "ns");
    }

    const serve::BatchProfile& FullBatchProfile() override
    {
        return session_->Profile(kServeBatch);
    }

  private:
    uint64_t seed_ = 0;
    std::unique_ptr<data::InteractionDataset> dataset_;
    std::unique_ptr<models::Tgn> model_;
    cache::DeviceCacheConfig cache_config_;
    std::unique_ptr<serve::ModelSession> session_;
};

class Sharded final : public ServingWorkload {
  public:
    std::pair<double, double> Setup(uint64_t seed) override
    {
        seed_ = seed;
        session_.reset();
        model_.reset();
        const Clock::time_point start = Clock::now();
        dataset_ = std::make_unique<data::InteractionDataset>(
            data::GenerateInteractions(ServingDatasetSpec(seed)));
        const double gen_s = SecondsSince(start);
        model_ = std::make_unique<models::Tgat>(*dataset_, models::TgatConfig{});
        // ServeSharded captures per shard inside every call; this session
        // times the capture once and supplies the re-issued profile.
        session_ = std::make_unique<serve::ModelSession>(*model_, sim::ExecMode::kHybrid,
                                                         kNeighbors);
        const Clock::time_point capture = Clock::now();
        for (int64_t b = 1; b <= kServeBatch; ++b) {
            (void)session_->Profile(b);
        }
        return {gen_s, SecondsSince(capture)};
    }

    std::vector<serve::Request> Generate(double rate, int64_t n) const override
    {
        return GauntletRequests("poisson/recurrent", rate, n, *dataset_, seed_);
    }

    ServePoint Serve(const std::vector<serve::Request>& requests,
                     obs::RequestTimeline* timeline) override
    {
        LatencyObserver observer(timeline);
        shard::ShardedOptions options;
        options.num_shards = kShards;
        options.partitioner = shard::PartitionerKind::kGreedy;
        options.interconnect = sim::LinkSpec::PcieGen4();
        options.partition_seed = seed_;
        options.num_neighbors = kNeighbors;
        options.server.executor = serve::ExecutorKind::kPipelined;
        options.server.observer = &observer;
        const Clock::time_point start = Clock::now();
        const shard::ShardedReport r = shard::ServeSharded(
            *model_, sim::ExecMode::kHybrid, dataset_->NumNodes(), requests,
            [] { return std::make_unique<serve::TimeoutPolicy>(kServeBatch, kTimeoutUs); },
            options);
        ServePoint p;
        p.host_s = SecondsSince(start);
        p.sent = static_cast<int64_t>(requests.size());
        p.offered_qps = r.offered_qps;
        p.achieved_qps = r.sustained_qps;
        p.edge_cut = r.edge_cut;
        p.balance_factor = r.balance_factor;
        p.exchange = r.exchange;
        p.comm_tax_pct = r.comm_tax_pct;
        for (const serve::ServingReport& shard_report : r.shards) {
            FillFromReport(shard_report, p);
        }
        FillFromObserver(observer, p);
        return p;
    }

    void ReportLayers(const ServePoint& knee,
                      const std::vector<serve::Request>& knee_requests,
                      SpanRecorder& spans, Report& report) override
    {
        const std::vector<std::pair<int64_t, int64_t>> edges =
            shard::TraceEdges(knee_requests);
        report.Metric("shard.edge_cut_frac",
                      edges.empty() ? 0.0
                                    : static_cast<double>(knee.edge_cut) /
                                          static_cast<double>(edges.size()),
                      "frac");
        report.Metric("shard.balance_factor", knee.balance_factor, "ratio");
        report.Metric("shard.exchange_mb",
                      static_cast<double>(knee.exchange.bytes) / (1024.0 * 1024.0), "MB");
        report.Metric("shard.comm_tax_pct", knee.comm_tax_pct, "%");
        const double partition_s = TimePerCall(spans, "shard.partition", [&] {
            (void)shard::GreedyEdgeCutPartition(dataset_->NumNodes(), kShards, edges,
                                                seed_);
        });
        report.Metric("shard.partition_s", partition_s, "s");
    }

    const serve::BatchProfile& FullBatchProfile() override
    {
        return session_->Profile(kServeBatch);
    }

  private:
    uint64_t seed_ = 0;
    std::unique_ptr<data::InteractionDataset> dataset_;
    std::unique_ptr<models::Tgat> model_;
    std::unique_ptr<serve::ModelSession> session_;
};

/// Fixed rates and the search bracket, in the arrival shape's own rate
/// parameter (flash crowd: base rate; Poisson: rate).
struct Rates {
    double low = 0.0;
    double knee = 0.0;
    double search_lo = 0.0;
    double search_hi = 0.0;
};

/// One repetition: low, knee and the bisection.
struct Repetition {
    ServePoint low;
    ServePoint knee;
    ServePoint best;
    bool lo_meets = false;
    bool hi_meets = false;
    int64_t search_sent = 0;
    int64_t search_completed = 0;
    int64_t sent = 0;
    int64_t completed = 0;
    double host_s = 0.0;
    std::vector<double> fingerprint;
};

class RateSweep {
  public:
    RateSweep(ServingWorkload& workload, Rates rates, int64_t n)
        : workload_(workload), rates_(rates), n_(n)
    {
    }

    const std::vector<serve::Request>& Requests(double rate)
    {
        auto it = requests_.find(rate);
        if (it == requests_.end()) {
            it = requests_.emplace(rate, workload_.Generate(rate, n_)).first;
        }
        return it->second;
    }

    Repetition Run(SpanRecorder& spans, obs::RequestTimeline* knee_timeline)
    {
        Repetition rep;
        auto serve = [&](double rate, obs::RequestTimeline* timeline) {
            const std::vector<serve::Request>& requests = Requests(rate);
            ScopedSpan span(spans, "serve.run");
            ServePoint p = workload_.Serve(requests, timeline);
            rep.sent += p.sent;
            rep.completed += p.completed;
            rep.host_s += p.host_s;
            const std::vector<double> f = p.Fingerprint();
            rep.fingerprint.insert(rep.fingerprint.end(), f.begin(), f.end());
            return p;
        };
        rep.low = serve(rates_.low, nullptr);
        rep.knee = serve(rates_.knee, knee_timeline);
        const int64_t sent_before_search = rep.sent;
        const int64_t completed_before_search = rep.completed;
        double lo = rates_.search_lo;
        double hi = rates_.search_hi;
        rep.best = serve(lo, nullptr);
        rep.lo_meets = rep.best.MeetsSlo();
        rep.hi_meets = serve(hi, nullptr).MeetsSlo();
        for (int round = 0; round < kSearchRounds; ++round) {
            const double mid = 0.5 * (lo + hi);
            ServePoint p = serve(mid, nullptr);
            if (p.MeetsSlo()) {
                lo = mid;
                rep.best = std::move(p);
            } else {
                hi = mid;
            }
        }
        rep.search_sent = rep.sent - sent_before_search;
        rep.search_completed = rep.completed - completed_before_search;
        return rep;
    }

  private:
    ServingWorkload& workload_;
    Rates rates_;
    int64_t n_;
    std::map<double, std::vector<serve::Request>> requests_;
};

struct Phase {
    Repetition first;
    std::vector<double> items_per_s;
    std::vector<double> rep_host_s;
};

/// One warm-up repetition (it also generates every rate's requests), then
/// repetitions until @p seconds of host time passed; each must reproduce
/// the warm-up's simulated results. @p after_timed_rep runs after each
/// timed repetition, outside the repetition's host time.
Phase
Measure(RateSweep& sweep, double seconds, bool single, SpanRecorder& spans,
        obs::RequestTimeline* timeline, Report& report, const std::string& label,
        const std::function<void()>& after_timed_rep = {})
{
    Phase phase;
    const Clock::time_point start = Clock::now();
    for (int64_t index = 0;; ++index) {
        spans.SetRun(index);
        if (timeline != nullptr) {
            timeline->Clear();
        }
        Repetition rep = sweep.Run(spans, timeline);
        report.Operations(rep.sent, rep.sent - rep.completed);
        if (index > 0 || single) {
            phase.rep_host_s.push_back(rep.host_s);
            phase.items_per_s.push_back(static_cast<double>(rep.sent) /
                                        std::max(rep.host_s, 1e-9));
            if (after_timed_rep) {
                after_timed_rep();
            }
        }
        if (index == 0) {
            phase.first = std::move(rep);
        } else {
            report.Check(rep.fingerprint == phase.first.fingerprint,
                         label + " repetition " + std::to_string(index) +
                             " reproduces the simulated results");
        }
        if (single || (index > 0 && SecondsSince(start) >= seconds)) {
            break;
        }
    }
    return phase;
}

void
NotePhase(Report& report, const std::string& phase, int64_t sent, int64_t completed)
{
    report.Note(phase + ": sent " + std::to_string(sent) + ", succeeded " +
                std::to_string(completed) + ", failed " +
                std::to_string(sent - completed) +
                ", generator lateness 0 (arrivals are simulated timestamps)");
}

void
RunServing(const Options& options, Report& report,
           const std::function<std::unique_ptr<ServingWorkload>()>& make_workload,
           const Rates& rates)
{
    const int64_t n = options.smoke ? 4000 : 200000;

    // Set-up: dataset, model, every profile the timeout policy can emit, and
    // the fixed-rate arrival streams. It runs once here and again, on a copy
    // that is thrown away, after every timed untraced repetition: host speed
    // drifts over seconds, and spreading the samples over the run keeps
    // setup_s from reading one moment of it.
    std::vector<double> setup_s;
    std::vector<double> gen_s;
    std::vector<double> capture_s;
    std::vector<double> scenario_s;
    struct SetUp {
        std::unique_ptr<ServingWorkload> workload;
        std::unique_ptr<RateSweep> sweep;
    };
    const auto set_up = [&] {
        const Clock::time_point start = Clock::now();
        SetUp fresh{make_workload(), nullptr};
        const auto [data_s, profile_s] = fresh.workload->Setup(options.seed);
        fresh.sweep = std::make_unique<RateSweep>(*fresh.workload, rates, n);
        const Clock::time_point scenario_start = Clock::now();
        (void)fresh.sweep->Requests(rates.low);
        (void)fresh.sweep->Requests(rates.knee);
        scenario_s.push_back(SecondsSince(scenario_start) / 2.0);
        setup_s.push_back(SecondsSince(start));
        gen_s.push_back(data_s);
        capture_s.push_back(profile_s);
        return fresh;
    };
    const SetUp main = set_up();
    ServingWorkload& workload = *main.workload;
    RateSweep& sweep = *main.sweep;

    SpanRecorder quiet(false);
    const double budget = options.trace ? options.seconds / 2.0 : options.seconds;
    const Phase plain = Measure(sweep, budget, options.smoke, quiet, nullptr, report,
                                "untraced", [&] { (void)set_up(); });
    report.Metric("setup_s", Median(setup_s), "s");
    const Repetition& rep = plain.first;

    NotePhase(report, "low (" + std::to_string(rep.low.offered_qps) + " qps offered)",
              rep.low.sent, rep.low.completed);
    NotePhase(report, "knee (" + std::to_string(rep.knee.offered_qps) + " qps offered)",
              rep.knee.sent, rep.knee.completed);
    NotePhase(report, "search (" + std::to_string(2 + kSearchRounds) + " runs)",
              rep.search_sent, rep.search_completed);
    report.Check(rep.low.completed == rep.low.sent && rep.knee.completed == rep.knee.sent,
                 "every request at low and knee completes");
    report.Check(rep.low.overflow == 0, "no latency-histogram overflow at low");
    report.Check(rep.lo_meets, "the search's lower bracket meets the SLO");
    report.Check(!rep.hi_meets, "the search's upper bracket misses the SLO");

    report.Metric("host_items_per_s", Median(plain.items_per_s), "1/s");
    report.Metric("sim_batch_ms", rep.knee.service_ms, "ms");
    report.Metric("sim_p50_ms.low", rep.low.Quantile(0.50), "ms");
    report.Metric("sim_p99_ms.low", rep.low.Quantile(0.99), "ms");
    report.Metric("sim_p50_ms.knee", rep.knee.Quantile(0.50), "ms");
    report.Metric("sim_p99_ms.knee", rep.knee.Quantile(0.99), "ms");
    report.Metric("sim_p999_ms.knee", rep.knee.Quantile(0.999), "ms");
    report.Metric("sim_max_qps", rep.lo_meets ? rep.best.offered_qps : 0.0, "1/s");
    report.Note("latency samples: low " + std::to_string(rep.low.completed) + ", knee " +
                std::to_string(rep.knee.completed) + "; " +
                std::to_string(plain.items_per_s.size()) + " repetitions");

    if (!options.trace) {
        return;
    }

    SpanRecorder spans(true);
    obs::RequestTimeline timeline;
    const Phase traced =
        Measure(sweep, budget, options.smoke, spans, &timeline, report, "traced");
    report.Check(traced.first.fingerprint == rep.fingerprint,
                 "traced and untraced runs agree on every simulated figure");
    report.Check(timeline.MaxConservationErrorUs() <= 1e-6,
                 "request spans sum to their latency within 1e-6 us");
    const double untraced_s = Median(plain.rep_host_s);
    report.Metric("obs.trace_overhead_frac",
                  untraced_s > 0.0 ? (Median(traced.rep_host_s) - untraced_s) / untraced_s
                                   : 0.0,
                  "frac");

    // Where the knee's slowest requests spend their time.
    const double p99 = rep.knee.Quantile(0.99);
    std::vector<double> span_sum(obs::kNumSpanKinds, 0.0);
    int64_t tail = 0;
    for (const obs::RequestRecord& record : timeline.Records()) {
        if (record.LatencyUs() / 1000.0 >= p99) {
            for (int kind = 0; kind < obs::kNumSpanKinds; ++kind) {
                span_sum[static_cast<size_t>(kind)] +=
                    record.span_us[static_cast<size_t>(kind)];
            }
            ++tail;
        }
    }
    const char* kSpanNames[obs::kNumSpanKinds] = {"queue", "stall",   "host",
                                                  "h2d",   "compute", "d2h"};
    for (int kind = 0; kind < obs::kNumSpanKinds; ++kind) {
        report.Metric(std::string("serve.p99span.") + kSpanNames[kind] + "_ms",
                      tail > 0 ? span_sum[static_cast<size_t>(kind)] /
                                     static_cast<double>(tail) / 1000.0
                               : 0.0,
                      "ms");
    }
    report.Metric("serve.batch_size_mean.low", rep.low.batch_size.Mean(), "count");
    report.Metric("serve.batch_size_mean.knee", rep.knee.batch_size.Mean(), "count");
    report.Metric("serve.queue_depth_mean.low", rep.low.queue_depth.Mean(), "count");
    report.Metric("serve.queue_depth_mean.knee", rep.knee.queue_depth.Mean(), "count");
    report.Metric("serve.profile_capture_s", Median(capture_s), "s");
    report.Metric("data.gen_s", Median(gen_s), "s");
    report.Metric("scenario.gen_s", Median(scenario_s), "s");

    // Host cost of one runtime op: a captured full batch re-issued on a
    // fresh runtime.
    const serve::BatchProfile& profile = workload.FullBatchProfile();
    int64_t ops = 0;
    const double per_batch = TimePerCall(spans, "sim.reissue", [&] {
        sim::Runtime runtime = models::MakeRuntime(sim::ExecMode::kHybrid);
        serve::PipelinedExecutor executor(runtime);
        for (int i = 0; i < 16; ++i) {
            (void)executor.Submit(profile, serve::CacheBatchCost{});
        }
        (void)executor.Drain();
        ops = static_cast<int64_t>(runtime.GetTrace().Size());
    });
    report.Metric("sim.host_ns_per_op",
                  ops > 0 ? per_batch * 1e9 / static_cast<double>(ops) : 0.0, "ns");

    workload.ReportLayers(rep.knee, sweep.Requests(rates.knee), spans, report);
    if (!options.spans_out.empty()) {
        spans.WriteTo(options.spans_out);
    }
}

}  // namespace

void
RunServeFlashCrowd(const Options& options, Report& report)
{
    // Base rates: at low, p99 sits on the 5 ms batch timeout; the knee is
    // about 96% of the highest passing rate (offered ~33.4k qps), the last
    // fixed rate below the p99 cliff on every seed tried.
    RunServing(options, report, [] { return std::make_unique<FlashCrowd>(); },
               Rates{5000.0, 11000.0, 4000.0, 16000.0});
}

void
RunServeSharded(const Options& options, Report& report)
{
    // Poisson rates: at low, each shard's batches flush on the timeout; the
    // knee is about 93% of the sustained maximum (~155k qps).
    RunServing(options, report, [] { return std::make_unique<Sharded>(); },
               Rates{30000.0, 145000.0, 60000.0, 240000.0});
}

}  // namespace perfbench
