// Tests for the online-serving subsystem: arrival generators, dynamic
// batching policies, batch-cost capture, the serial vs pipelined
// executors, the serving loop, and the sustained-QPS search.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "support/check.hpp"

#include "data/temporal_interactions.hpp"
#include "models/jodie.hpp"
#include "models/tgat.hpp"
#include "models/tgn.hpp"
#include "serve/server.hpp"

namespace dgnn::serve {
namespace {

data::InteractionDataset
TinyInteractions(int64_t edge_feature_dim = 8)
{
    data::InteractionSpec spec;
    spec.name = "tiny";
    spec.num_users = 20;
    spec.num_items = 12;
    spec.num_events = 400;
    spec.edge_feature_dim = edge_feature_dim;
    spec.seed = 5;
    return data::GenerateInteractions(spec);
}

// ---------------------------------------------------------------- arrivals

TEST(ArrivalsTest, PoissonIsDeterministicSortedAndRateMatched)
{
    const auto a = PoissonArrivals(1000.0, 2000, 7);
    const auto b = PoissonArrivals(1000.0, 2000, 7);
    ASSERT_EQ(a.size(), 2000u);
    EXPECT_EQ(a, b);  // bit-identical for a fixed seed
    EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
    // Mean inter-arrival of 1000 qps is 1000 us; LLN puts the empirical
    // mean well within 10% at n = 2000.
    const double mean_gap = a.back() / static_cast<double>(a.size());
    EXPECT_NEAR(mean_gap, 1000.0, 100.0);

    const auto c = PoissonArrivals(1000.0, 2000, 8);
    EXPECT_NE(a, c);  // seed matters
}

TEST(ArrivalsTest, TraceReplayRescalesToTargetRate)
{
    const auto ds = TinyInteractions();
    const auto arrivals = TraceArrivals(ds.stream, 500.0, 300);
    ASSERT_EQ(arrivals.size(), 300u);
    EXPECT_TRUE(std::is_sorted(arrivals.begin(), arrivals.end()));
    // Rescaling makes the mean gap hit the target rate exactly.
    const double mean_gap = arrivals.back() / 300.0;
    EXPECT_NEAR(mean_gap, 1e6 / 500.0, 1e-6);
}

TEST(ArrivalsTest, InvalidParametersThrow)
{
    EXPECT_THROW(PoissonArrivals(0.0, 10, 1), Error);
    EXPECT_THROW(PoissonArrivals(100.0, -1, 1), Error);
    const auto ds = TinyInteractions();
    EXPECT_THROW(TraceArrivals(ds.stream, -5.0, 10), Error);
}

// ---------------------------------------------------------- arrival sources

TEST(ArrivalSourceTest, PoissonSourceWrapsTheFreeFunctionExactly)
{
    const PoissonSource source(1000.0, 7);
    EXPECT_EQ(source.Name(), "poisson(1000qps)");

    const auto requests = source.Generate(200);
    const auto raw = PoissonArrivals(1000.0, 200, 7);
    ASSERT_EQ(requests.size(), 200u);
    for (size_t i = 0; i < requests.size(); ++i) {
        EXPECT_EQ(requests[i].id, static_cast<int64_t>(i));
        EXPECT_EQ(requests[i].arrival_us, raw[i]);
        EXPECT_EQ(requests[i].src, -1);  // node-blind by contract
        EXPECT_EQ(requests[i].dst, -1);
    }
    EXPECT_THROW(PoissonSource(0.0, 1), Error);
}

TEST(ArrivalSourceTest, TraceReplaySourceCarriesEndpoints)
{
    const auto ds = TinyInteractions();
    const TraceReplaySource source(ds.stream, 500.0);
    EXPECT_EQ(source.Name(), "trace-replay(500qps)");

    const auto requests = source.Generate(100);
    const auto direct = TraceRequests(ds.stream, 500.0, 100);
    ASSERT_EQ(requests.size(), direct.size());
    for (size_t i = 0; i < requests.size(); ++i) {
        EXPECT_EQ(requests[i].arrival_us, direct[i].arrival_us);
        EXPECT_EQ(requests[i].src, direct[i].src);
        EXPECT_EQ(requests[i].dst, direct[i].dst);
        EXPECT_GE(requests[i].src, 0);  // replay is node-bearing
    }
    EXPECT_THROW(TraceReplaySource(ds.stream, 0.0), Error);
}

TEST(ArrivalSourceTest, ServeViaSourceMatchesServeRequests)
{
    // The Serve(source) overload must be a pure composition of Generate +
    // ServeRequests: same report either way, through the virtual interface.
    const auto ds = TinyInteractions();
    models::Tgn tgn(ds, models::TgnConfig{16, 16, 2, 11});
    ModelSession session(tgn, sim::ExecMode::kHybrid, 4);
    const TraceReplaySource source(ds.stream, 2000.0);
    const ArrivalSource& virt = source;
    ServerOptions options;
    options.executor = ExecutorKind::kPipelined;

    TimeoutPolicy policy_a(16, 3000.0);
    const ServingReport via_source =
        Serve(session, policy_a, virt, 128, options);
    TimeoutPolicy policy_b(16, 3000.0);
    const ServingReport via_requests =
        ServeRequests(session, policy_b, source.Generate(128), options);

    EXPECT_EQ(via_source.requests, via_requests.requests);
    EXPECT_EQ(via_source.batches, via_requests.batches);
    EXPECT_DOUBLE_EQ(via_source.makespan_us, via_requests.makespan_us);
    EXPECT_DOUBLE_EQ(via_source.latency.P50(), via_requests.latency.P50());
    EXPECT_DOUBLE_EQ(via_source.latency.P99(), via_requests.latency.P99());
    EXPECT_EQ(via_source.h2d_bytes, via_requests.h2d_bytes);
}

// ---------------------------------------------------------------- policies

std::deque<Request>
QueueOf(std::initializer_list<double> arrivals)
{
    std::deque<Request> q;
    int64_t id = 0;
    for (const double t : arrivals) {
        q.push_back(Request{id++, t});
    }
    return q;
}

TEST(BatchPolicyTest, FixedSizeWaitsForFullBatch)
{
    FixedSizePolicy policy(4);
    const auto three = QueueOf({0.0, 1.0, 2.0});
    EXPECT_EQ(policy.Decide(three, 10.0, false).dispatch, 0);
    // Flushes leftovers once the stream ends.
    EXPECT_EQ(policy.Decide(three, 10.0, true).dispatch, 3);

    const auto five = QueueOf({0.0, 1.0, 2.0, 3.0, 4.0});
    EXPECT_EQ(policy.Decide(five, 10.0, false).dispatch, 4);
}

TEST(BatchPolicyTest, TimeoutDispatchesWhenOldestExpires)
{
    TimeoutPolicy policy(8, 100.0);
    const auto queue = QueueOf({50.0, 60.0});
    // Before the deadline: wait, and wake exactly at it.
    const BatchDecision wait = policy.Decide(queue, 100.0, false);
    EXPECT_EQ(wait.dispatch, 0);
    EXPECT_DOUBLE_EQ(wait.wake_us, 150.0);
    // At/after the deadline: flush the queue.
    EXPECT_EQ(policy.Decide(queue, 150.0, false).dispatch, 2);
    // A full batch dispatches regardless of age.
    const auto full = QueueOf({0, 1, 2, 3, 4, 5, 6, 7, 8});
    EXPECT_EQ(policy.Decide(full, 2.0, false).dispatch, 8);
}

TEST(BatchPolicyTest, AdaptiveDispatchesEarlyWhenFillIsHopeless)
{
    AdaptivePolicy policy(2, 64, 1000.0);
    // Feed a slow arrival stream: one request per 900 us.
    policy.OnArrival(0.0);
    policy.OnArrival(900.0);
    policy.OnArrival(1800.0);
    EXPECT_GT(policy.EstimatedGapUs(), 0.0);
    // Two queued, 62 slots to fill at ~900 us each, deadline in 1000 us:
    // filling is hopeless, so it dispatches the queued pair early.
    const auto pair = QueueOf({1700.0, 1800.0});
    EXPECT_EQ(policy.Decide(pair, 1850.0, false).dispatch, 2);

    // A fast stream (1 us gaps) makes filling plausible: keep waiting.
    AdaptivePolicy fast(2, 64, 1000.0);
    for (int i = 0; i < 50; ++i) {
        fast.OnArrival(static_cast<double>(i));
    }
    const auto queued = QueueOf({48.0, 49.0});
    const BatchDecision wait = fast.Decide(queued, 50.0, false);
    EXPECT_EQ(wait.dispatch, 0);
    EXPECT_DOUBLE_EQ(wait.wake_us, 1048.0);
    // The deadline still forces a flush.
    EXPECT_EQ(fast.Decide(queued, 1048.0, false).dispatch, 2);
}

TEST(BatchPolicyTest, AdaptiveTreatsZeroFirstGapAsAnEstimate)
{
    AdaptivePolicy policy(2, 64, 1000.0);
    // A burst: two simultaneous arrivals. The first observed gap is
    // exactly 0, which IS a rate estimate ("arrivals are instantaneous"),
    // not its absence — the old `ewma > 0` sentinel got stuck in
    // no-estimate mode forever here.
    policy.OnArrival(100.0);
    policy.OnArrival(100.0);
    EXPECT_TRUE(policy.HasGapEstimate());
    EXPECT_DOUBLE_EQ(policy.EstimatedGapUs(), 0.0);

    // With an instantaneous-rate estimate, filling to max_batch is
    // plausible: keep accumulating instead of dispatching at min_batch.
    const auto pair = QueueOf({100.0, 100.0});
    const BatchDecision wait = policy.Decide(pair, 150.0, false);
    EXPECT_EQ(wait.dispatch, 0);
    EXPECT_DOUBLE_EQ(wait.wake_us, 1100.0);
    // The oldest request's deadline still bounds the wait.
    EXPECT_EQ(policy.Decide(pair, 1100.0, false).dispatch, 2);

    // Later non-zero gaps blend into the EWMA normally.
    policy.OnArrival(600.0);
    EXPECT_GT(policy.EstimatedGapUs(), 0.0);
}

TEST(BatchPolicyTest, FixedSizePartialBatchWaitsOutLullsUntilStreamEnd)
{
    FixedSizePolicy policy(8);
    const auto partial = QueueOf({0.0, 1.0, 2.0});
    // A long lull: no matter how stale the queue grows, a partial batch
    // neither dispatches nor schedules a timed wake — only a new arrival
    // or the end of the stream re-triggers the policy.
    for (const double now : {10.0, 1e4, 1e7, 1e9}) {
        const BatchDecision d = policy.Decide(partial, now, false);
        EXPECT_EQ(d.dispatch, 0);
        EXPECT_DOUBLE_EQ(d.wake_us, kNoWake);
    }
    // Stream end flushes the leftovers.
    EXPECT_EQ(policy.Decide(partial, 1e9, true).dispatch, 3);
}

TEST(BatchPolicyTest, InvalidConfigurationsThrow)
{
    EXPECT_THROW(FixedSizePolicy(0), Error);
    EXPECT_THROW(TimeoutPolicy(4, -1.0), Error);
    EXPECT_THROW(AdaptivePolicy(8, 4, 100.0), Error);
}

// ----------------------------------------------------------- model session

TEST(ModelSessionTest, CapturesAndMemoizesBatchProfiles)
{
    const auto ds = TinyInteractions();
    models::Tgn tgn(ds, models::TgnConfig{16, 16, 2, 11});
    ModelSession session(tgn, sim::ExecMode::kHybrid, 4);

    const BatchProfile& p16 = session.Profile(16);
    EXPECT_EQ(p16.batch_size, 16);
    EXPECT_GT(p16.host_us, 0.0);
    EXPECT_GT(p16.h2d_bytes, 0);
    EXPECT_GT(p16.d2h_bytes, 0);
    EXPECT_FALSE(p16.kernels.empty());

    // Memoized: same object back, no re-capture.
    const BatchProfile& again = session.Profile(16);
    EXPECT_EQ(&p16, &again);
    EXPECT_EQ(session.CapturedProfiles(), 1);

    // Bigger batches cost more host time and move more bytes.
    const BatchProfile& p32 = session.Profile(32);
    EXPECT_EQ(session.CapturedProfiles(), 2);
    EXPECT_GT(p32.host_us, p16.host_us);
    EXPECT_GT(p32.h2d_bytes, p16.h2d_bytes);
}

TEST(ModelSessionTest, CpuOnlyProfilesHaveNoTransfers)
{
    const auto ds = TinyInteractions();
    models::Tgn tgn(ds, models::TgnConfig{16, 16, 2, 11});
    ModelSession session(tgn, sim::ExecMode::kCpuOnly, 4);
    const BatchProfile& p = session.Profile(16);
    EXPECT_EQ(p.h2d_bytes, 0);
    EXPECT_EQ(p.d2h_bytes, 0);
    EXPECT_FALSE(p.kernels.empty());
}

TEST(ModelSessionTest, ProfilesExcludeOneTimeSetUp)
{
    // TGAT copies its resident feature tables to the device once, before
    // the probe's measurement window. The edge-feature width sizes that
    // copy only, so it must not reach the per-batch profile.
    auto batch_h2d = [](int64_t edge_feature_dim) {
        const auto ds = TinyInteractions(edge_feature_dim);
        models::Tgat tgat(ds, models::TgatConfig{});
        ModelSession session(tgat, sim::ExecMode::kHybrid, 4);
        return session.Profile(16).h2d_bytes;
    };
    const int64_t narrow = batch_h2d(8);
    EXPECT_GT(narrow, 0);
    EXPECT_EQ(narrow, batch_h2d(320));
}

// Constructs @p make() and expects a dgnn::Error whose message names
// @p field.
template <typename MakeFn>
void
ExpectErrorNaming(MakeFn make, const std::string& field)
{
    try {
        make();
        ADD_FAILURE() << "no dgnn::Error for " << field;
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
            << e.what();
    }
}

TEST(ModelSessionTest, NegativeCacheCapacityThrowsNamingTheField)
{
    // The session builds its cache only for a positive capacity, so a
    // negative one must be caught before that or it serves uncached.
    const auto ds = TinyInteractions();
    models::Tgn tgn(ds, models::TgnConfig{16, 16, 2, 11});
    cache::DeviceCacheConfig cache_config;
    cache_config.capacity_bytes = -4096;
    ExpectErrorNaming(
        [&] { (void)ModelSession(tgn, sim::ExecMode::kHybrid, 4, cache_config); },
        "cache_config.capacity_bytes");
}

TEST(ModelSessionTest, NegativeNeighborFanOutThrowsNamingTheField)
{
    // Rejected at construction, not at the first capture inside a run.
    const auto ds = TinyInteractions();
    models::Tgn tgn(ds, models::TgnConfig{16, 16, 2, 11});
    ExpectErrorNaming([&] { (void)ModelSession(tgn, sim::ExecMode::kHybrid, -1); },
                      "num_neighbors");
}

// ----------------------------------------------------------------- serving

ServerOptions
Options(ExecutorKind kind)
{
    ServerOptions o;
    o.executor = kind;
    return o;
}

TEST(ServeTest, AllRequestsServedAndLatenciesPositive)
{
    const auto ds = TinyInteractions();
    models::Jodie jodie(ds, models::JodieConfig{16, 13});
    ModelSession session(jodie, sim::ExecMode::kHybrid, 4);
    const auto arrivals = PoissonArrivals(2000.0, 256, 11);

    TimeoutPolicy policy(16, 3000.0);
    const ServingReport report =
        Serve(session, policy, arrivals, Options(ExecutorKind::kPipelined));

    EXPECT_EQ(report.requests, 256);
    EXPECT_EQ(report.latency.Count(), 256);  // nothing lost or duplicated
    EXPECT_GT(report.latency.Min(), 0.0);    // completion after arrival
    EXPECT_GT(report.batches, 0);
    EXPECT_LE(report.batch_size.Max(), 16.0);
    EXPECT_GT(report.achieved_qps, 0.0);
    EXPECT_EQ(report.model, "JODIE");
    EXPECT_EQ(report.executor, "pipelined");
}

TEST(ServeTest, DeterministicAcrossRuns)
{
    const auto ds = TinyInteractions();
    models::Tgn tgn(ds, models::TgnConfig{16, 16, 2, 11});
    ModelSession session(tgn, sim::ExecMode::kHybrid, 4);
    const auto arrivals = PoissonArrivals(3000.0, 200, 3);

    auto run = [&] {
        TimeoutPolicy policy(16, 2000.0);
        return Serve(session, policy, arrivals,
                     Options(ExecutorKind::kPipelined));
    };
    const ServingReport a = run();
    const ServingReport b = run();
    EXPECT_DOUBLE_EQ(a.latency.P50(), b.latency.P50());
    EXPECT_DOUBLE_EQ(a.latency.P99(), b.latency.P99());
    EXPECT_DOUBLE_EQ(a.makespan_us, b.makespan_us);
    EXPECT_EQ(a.batches, b.batches);
}

TEST(ServeTest, SerialAndPipelinedAgreeInCpuOnlyMode)
{
    // Without a device there is nothing to overlap: the pipelined executor
    // must degenerate to exactly the serial schedule.
    const auto ds = TinyInteractions();
    models::Jodie jodie(ds, models::JodieConfig{16, 13});
    ModelSession session(jodie, sim::ExecMode::kCpuOnly, 4);
    const auto arrivals = PoissonArrivals(1500.0, 128, 19);

    TimeoutPolicy p1(16, 3000.0);
    const ServingReport serial =
        Serve(session, p1, arrivals, Options(ExecutorKind::kSerial));
    TimeoutPolicy p2(16, 3000.0);
    const ServingReport pipelined =
        Serve(session, p2, arrivals, Options(ExecutorKind::kPipelined));

    EXPECT_DOUBLE_EQ(serial.latency.P99(), pipelined.latency.P99());
    EXPECT_DOUBLE_EQ(serial.makespan_us, pipelined.makespan_us);
}

TEST(ServeTest, PipelinedBeatsSerialAtSaturationInHybridMode)
{
    // At a saturating arrival rate the serial executor's makespan is the
    // sum of host and device time; the pipelined executor overlaps them
    // and must finish the same workload strictly faster.
    const auto ds = TinyInteractions();
    models::Tgn tgn(ds, models::TgnConfig{16, 16, 2, 11});
    ModelSession session(tgn, sim::ExecMode::kHybrid, 4);
    const auto arrivals = PoissonArrivals(1e6, 384, 23);  // instant backlog

    FixedSizePolicy p1(16);
    const ServingReport serial =
        Serve(session, p1, arrivals, Options(ExecutorKind::kSerial));
    FixedSizePolicy p2(16);
    const ServingReport pipelined =
        Serve(session, p2, arrivals, Options(ExecutorKind::kPipelined));

    EXPECT_LT(pipelined.makespan_us, serial.makespan_us);
    EXPECT_GT(pipelined.achieved_qps, serial.achieved_qps);
}

TEST(ServeTest, ZeroArrivalStreamDrainsCleanly)
{
    // An empty trace must produce an empty report — no spin waiting for
    // requests that never come, no division by a zero makespan.
    const auto ds = TinyInteractions();
    models::Tgn tgn(ds, models::TgnConfig{16, 16, 2, 11});
    ModelSession session(tgn, sim::ExecMode::kHybrid, 4);
    TimeoutPolicy policy(16, 3000.0);

    const ServingReport report = Serve(session, policy, std::vector<sim::SimTime>{},
                                       Options(ExecutorKind::kSerial));
    EXPECT_EQ(report.requests, 0);
    EXPECT_EQ(report.batches, 0);
    EXPECT_TRUE(report.latency.Empty());
    EXPECT_EQ(report.latency.OverflowCount(), 0);
    EXPECT_DOUBLE_EQ(report.makespan_us, 0.0);
    EXPECT_DOUBLE_EQ(report.offered_qps, 0.0);
    EXPECT_DOUBLE_EQ(report.achieved_qps, 0.0);
    EXPECT_EQ(report.h2d_bytes, 0);

    // Same through the node-bearing and source-driven entry points.
    TimeoutPolicy policy2(16, 3000.0);
    const ServingReport via_requests = ServeRequests(
        session, policy2, {}, Options(ExecutorKind::kPipelined));
    EXPECT_EQ(via_requests.requests, 0);
    EXPECT_EQ(via_requests.batches, 0);

    TimeoutPolicy policy3(16, 3000.0);
    const TraceReplaySource source(ds.stream, 1000.0);
    const ServingReport via_source = Serve(session, policy3, source, 0,
                                           Options(ExecutorKind::kSerial));
    EXPECT_EQ(via_source.requests, 0);
    EXPECT_EQ(via_source.batches, 0);
}

TEST(ServeTest, SingleRequestFlushesAtStreamEndBeforeTimeout)
{
    // One request, batch budget 16, 5 ms timeout: the stream ends the
    // moment the request is admitted, so the timeout policy must flush the
    // partial batch immediately — latency is service time, NOT the 5 ms
    // timeout the request could never fill a batch within.
    const auto ds = TinyInteractions();
    models::Tgn tgn(ds, models::TgnConfig{16, 16, 2, 11});
    ModelSession session(tgn, sim::ExecMode::kHybrid, 4);
    TimeoutPolicy policy(16, 5000.0);

    const ServingReport report =
        Serve(session, policy, std::vector<sim::SimTime>{100.0},
              Options(ExecutorKind::kSerial));
    EXPECT_EQ(report.requests, 1);
    EXPECT_EQ(report.batches, 1);
    EXPECT_EQ(report.latency.Count(), 1);
    EXPECT_GT(report.latency.Max(), 0.0);
    EXPECT_LT(report.latency.Max(), 5000.0);  // did not wait out the timeout
    EXPECT_DOUBLE_EQ(report.batch_size.Max(), 1.0);
}

TEST(ServeTest, TimeoutWakesAPartialBatchDuringALull)
{
    // Two requests 40 ms apart with a 5 ms timeout: the first cannot see
    // end-of-stream (the second is still pending), so it must be dispatched
    // by the timeout wake — latency >= timeout, and nowhere near the 40 ms
    // a fill-or-end-of-stream policy would strand it for.
    const auto ds = TinyInteractions();
    models::Tgn tgn(ds, models::TgnConfig{16, 16, 2, 11});
    ModelSession session(tgn, sim::ExecMode::kHybrid, 4);
    TimeoutPolicy policy(16, 5000.0);

    const ServingReport report =
        Serve(session, policy, std::vector<sim::SimTime>{0.0, 40000.0},
              Options(ExecutorKind::kSerial));
    EXPECT_EQ(report.requests, 2);
    EXPECT_EQ(report.batches, 2);  // the lull forces two singleton batches
    EXPECT_EQ(report.latency.Count(), 2);
    EXPECT_GE(report.latency.Max(), 5000.0);   // first waited its deadline
    EXPECT_LT(report.latency.Max(), 20000.0);  // but not until the lull ended
}

TEST(ServeTest, QpsSearchFindsSustainedRate)
{
    const auto ds = TinyInteractions();
    models::Jodie jodie(ds, models::JodieConfig{16, 13});
    ModelSession session(jodie, sim::ExecMode::kHybrid, 4);

    const QpsSearchResult found = FindMaxQpsUnderSlo(
        session, [] { return std::make_unique<TimeoutPolicy>(16, 2000.0); },
        Options(ExecutorKind::kPipelined), 10000.0, 256, 5);

    EXPECT_GT(found.max_qps, 0.0);
    EXPECT_LE(found.p99_us, 10000.0);
    EXPECT_GT(found.evaluations, 0);

    // The found rate is actually servable: replaying it meets the SLO.
    const auto arrivals = PoissonArrivals(found.max_qps, 256, 5);
    TimeoutPolicy policy(16, 2000.0);
    const ServingReport report =
        Serve(session, policy, arrivals, Options(ExecutorKind::kPipelined));
    EXPECT_LE(report.latency.P99(), 10000.0);
}

}  // namespace
}  // namespace dgnn::serve
