// Tests for the section-5 optimization implementations: each optimized
// schedule must (a) be at least as fast as its baseline on the simulated
// system and (b) leave the numeric outputs bit-identical. The staged
// schedule (pipelining, Fig 10, plus delta/coalesced transfer, 5.2.2; for
// TGAT also the parallel sampler of 5.1.1) is checked against the eager
// schedule the paper profiled.

#include <gtest/gtest.h>

#include <cctype>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <regex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/bottleneck.hpp"
#include "models/astgnn.hpp"
#include "models/evolvegcn.hpp"
#include "models/jodie.hpp"
#include "models/moldgnn.hpp"
#include "models/tgat.hpp"
#include "models/tgn.hpp"

namespace dgnn::models {
namespace {

data::SnapshotDataset
Snapshots(double overlap = 0.7)
{
    data::SnapshotSpec spec = data::SnapshotSpec::SbmLike();
    spec.num_nodes = 300;
    spec.num_steps = 8;
    spec.edges_per_step = 2000;
    spec.overlap = overlap;
    return data::GenerateSnapshots(spec);
}

data::MolecularDataset
Molecules()
{
    data::MolecularSpec spec;
    spec.num_frames = 96;
    spec.seed = 7;
    return data::GenerateMolecular(spec);
}

data::TrafficDataset
Traffic()
{
    data::TrafficSpec spec;
    spec.num_sensors = 32;
    spec.num_timesteps = 96;
    spec.seed = 8;
    return data::GenerateTraffic(spec);
}

data::InteractionDataset
Interactions()
{
    data::InteractionSpec spec;
    spec.num_users = 200;
    spec.num_items = 60;
    spec.num_events = 1500;
    spec.edge_feature_dim = 32;
    spec.seed = 21;
    return data::GenerateInteractions(spec);
}

RunConfig
GpuRun(int64_t batch, int64_t neighbors = 10)
{
    RunConfig run;
    run.mode = sim::ExecMode::kHybrid;
    run.batch_size = batch;
    run.num_neighbors = neighbors;
    run.numeric_cap = 4;
    return run;
}

/// Runs @p model for @p batch_size-item mini-batches (@p max_events items,
/// 0 = all) on @p rt under @p schedule.
RunResult
RunScheduled(DgnnModel& model, int64_t batch_size, int64_t max_events,
             sim::Runtime& rt, Schedule schedule)
{
    RunConfig run = GpuRun(batch_size);
    run.mode = rt.Mode();
    run.max_events = max_events;
    run.schedule = schedule;
    return model.RunInference(rt, run);
}

/// The hybrid half of the eager-vs-staged contract every staged model
/// meets; returns the {eager, staged} results for model-specific checks.
template <typename MakeModel>
std::pair<RunResult, RunResult>
ExpectHybridStagedContract(MakeModel make, int64_t batch_size, int64_t max_events)
{
    auto run = [&](sim::Runtime& rt, Schedule schedule) {
        auto model = make();
        return RunScheduled(*model, batch_size, max_events, rt, schedule);
    };
    sim::Runtime eager_gpu = MakeRuntime(sim::ExecMode::kHybrid);
    sim::Runtime staged_gpu = MakeRuntime(sim::ExecMode::kHybrid);
    const RunResult eager = run(eager_gpu, Schedule::kEager);
    const RunResult staged = run(staged_gpu, Schedule::kStaged);
    EXPECT_GT(eager.iterations, 2);
    EXPECT_EQ(staged.iterations, eager.iterations);
    EXPECT_DOUBLE_EQ(staged.output_checksum, eager.output_checksum);
    EXPECT_LT(staged.total_us, eager.total_us);
    // A batch's device buffer lives until its done-event is waited, so with
    // two batches in flight the peak exceeds the eager one-batch peak.
    EXPECT_GT(staged.compute_peak_bytes, eager.compute_peak_bytes);
    return {eager, staged};
}

/// The eager-vs-staged contract of a model whose staged schedule changes
/// only device issue; returns the hybrid {eager, staged} results.
template <typename MakeModel>
std::pair<RunResult, RunResult>
ExpectStagedContract(MakeModel make, int64_t batch_size, int64_t max_events = 0)
{
    auto run = [&](sim::Runtime& rt, Schedule schedule) {
        auto model = make();
        return RunScheduled(*model, batch_size, max_events, rt, schedule);
    };
    const auto hybrid = ExpectHybridStagedContract(make, batch_size, max_events);

    // The async primitives the staged schedule relies on are no-ops without
    // a GPU, so on the CPU the two schedules issue the same host timeline.
    sim::Runtime eager_cpu = MakeRuntime(sim::ExecMode::kCpuOnly);
    sim::Runtime staged_cpu = MakeRuntime(sim::ExecMode::kCpuOnly);
    const RunResult cpu_eager = run(eager_cpu, Schedule::kEager);
    const RunResult cpu_staged = run(staged_cpu, Schedule::kStaged);
    EXPECT_EQ(cpu_staged.total_us, cpu_eager.total_us);
    EXPECT_EQ(staged_cpu.GetTrace().Events().size(),
              eager_cpu.GetTrace().Events().size());
    EXPECT_EQ(cpu_staged.compute_peak_bytes, cpu_eager.compute_peak_bytes);
    EXPECT_DOUBLE_EQ(cpu_staged.output_checksum, cpu_eager.output_checksum);
    return hybrid;
}

TEST(StagedScheduleTest, EvolveGcnO)
{
    const auto ds = Snapshots();
    ExpectStagedContract(
        [&] {
            return std::make_unique<EvolveGcn>(
                ds, EvolveGcnConfig{EvolveGcnVariant::kO, 64, 17});
        },
        1);
}

TEST(StagedScheduleTest, EvolveGcnH)
{
    const auto ds = Snapshots();
    ExpectStagedContract(
        [&] {
            return std::make_unique<EvolveGcn>(
                ds, EvolveGcnConfig{EvolveGcnVariant::kH, 64, 17});
        },
        1);
}

TEST(StagedScheduleTest, MolDgnn)
{
    const auto ds = Molecules();
    const auto [eager, staged] = ExpectStagedContract(
        [&] { return std::make_unique<MolDgnn>(ds, MolDgnnConfig{}); }, 16);
    // One coalesced copy each way per mini-batch, where eager pays one H2D
    // and one D2H per frame.
    EXPECT_EQ(staged.transfer_count, 2 * staged.iterations);
    EXPECT_EQ(eager.transfer_count, 2 * ds.NumFrames());
}

TEST(StagedScheduleTest, Astgnn)
{
    const auto ds = Traffic();
    ExpectStagedContract([&] { return std::make_unique<Astgnn>(ds, AstgnnConfig{}); },
                         8, 32);
}

TEST(StagedScheduleTest, Jodie)
{
    const auto ds = Interactions();
    const auto [eager, staged] = ExpectStagedContract(
        [&] { return std::make_unique<Jodie>(ds, JodieConfig{}); }, 200);
    // One copy each way per chunk under both schedules; staged only drops
    // the host's per-t-batch sync.
    EXPECT_EQ(staged.transfer_count, 2 * staged.iterations);
    EXPECT_EQ(staged.h2d_bytes, eager.h2d_bytes);
    EXPECT_EQ(staged.d2h_bytes, eager.d2h_bytes);
}

/// Ops named @p name of kind @p kind in @p rt's trace.
int64_t
CountOps(const sim::Runtime& rt, const std::string& name, sim::EventKind kind)
{
    int64_t count = 0;
    for (const sim::TraceEvent& e : rt.GetTrace().Events()) {
        count += e.name == name && e.kind == kind ? 1 : 0;
    }
    return count;
}

TEST(StagedScheduleTest, Tgat)
{
    const auto ds = Interactions();
    // Two attention hops, so both sampler calls are priced.
    auto make = [&] { return std::make_unique<Tgat>(ds, TgatConfig{64, 2, 2, 10, 7}); };
    const auto [eager, staged] = ExpectHybridStagedContract(make, 200, 0);
    // The adjacency is resident and sampling runs on the device, so only
    // the targets' ids and times (both endpoints of every event) cross in
    // as one pinned copy; the embeddings return as one.
    EXPECT_EQ(staged.transfer_count, 2 * staged.iterations);
    EXPECT_EQ(staged.h2d_bytes, 2 * ds.stream.NumEvents() * 16);
    EXPECT_LT(staged.h2d_bytes, eager.h2d_bytes);
    // One sampling kernel per hop per batch, none left on the host.
    {
        sim::Runtime rt = MakeRuntime(sim::ExecMode::kHybrid);
        auto model = make();
        const RunResult again = RunScheduled(*model, 200, 0, rt, Schedule::kStaged);
        EXPECT_EQ(again.total_us, staged.total_us);
        EXPECT_EQ(CountOps(rt, "temporal_sampling", sim::EventKind::kKernel),
                  2 * staged.iterations);
        EXPECT_EQ(CountOps(rt, "temporal_sampling", sim::EventKind::kHostOp), 0);
    }

    // On the CPU the schedules differ only in the sampler's pricing: the
    // same host ops in the same order, no temporal_sampling op longer
    // under staged (a one-target call runs one thread either way), every
    // other op as long.
    auto run_cpu = [&](sim::Runtime& rt, Schedule schedule) {
        auto model = make();
        return RunScheduled(*model, 200, 0, rt, schedule);
    };
    sim::Runtime eager_cpu = MakeRuntime(sim::ExecMode::kCpuOnly);
    sim::Runtime staged_cpu = MakeRuntime(sim::ExecMode::kCpuOnly);
    const RunResult cpu_eager = run_cpu(eager_cpu, Schedule::kEager);
    const RunResult cpu_staged = run_cpu(staged_cpu, Schedule::kStaged);
    EXPECT_DOUBLE_EQ(cpu_staged.output_checksum, cpu_eager.output_checksum);
    const auto& eager_ops = eager_cpu.GetTrace().Events();
    const auto& staged_ops = staged_cpu.GetTrace().Events();
    ASSERT_EQ(staged_ops.size(), eager_ops.size());
    double sampling_saved_us = 0.0;
    int64_t sampling_ops = 0;
    for (size_t i = 0; i < eager_ops.size(); ++i) {
        const sim::TraceEvent& e = eager_ops[i];
        const sim::TraceEvent& s = staged_ops[i];
        ASSERT_EQ(s.name, e.name) << "op " << i;
        ASSERT_EQ(s.kind, e.kind) << "op " << i;
        if (e.name == "temporal_sampling") {
            ++sampling_ops;
            EXPECT_LE(s.Duration(), e.Duration() + 1e-9 * e.end_us) << "op " << i;
            sampling_saved_us += e.Duration() - s.Duration();
        } else {
            EXPECT_NEAR(s.Duration(), e.Duration(), 1e-9 * e.end_us)
                << e.name << " op " << i;
        }
    }
    EXPECT_GT(sampling_ops, cpu_eager.iterations);  // second hops ran too
    EXPECT_GT(sampling_saved_us, 0.0);
    EXPECT_NEAR(cpu_eager.total_us - cpu_staged.total_us, sampling_saved_us,
                1e-6 * cpu_eager.total_us);
}

TEST(StagedScheduleTest, CachedTgatSamplesOnTheHost)
{
    // The cached gather resolves hits by the sampled ids, so a staged run
    // with a device cache keeps the host sampler and sends the sampled
    // indices and deltas.
    const auto ds = Interactions();
    Tgat model(ds, TgatConfig{64, 2, 2, 10, 7});
    sim::Runtime rt = MakeRuntime(sim::ExecMode::kHybrid);
    RunConfig run = GpuRun(200);
    run.cache.capacity_bytes = ds.NumNodes() / 4 * model.CacheRowBytes();
    const RunResult r = model.RunInference(rt, run);
    EXPECT_EQ(CountOps(rt, "temporal_sampling", sim::EventKind::kHostOp),
              2 * r.iterations);
    EXPECT_EQ(CountOps(rt, "temporal_sampling", sim::EventKind::kKernel), 0);
    EXPECT_GT(r.h2d_bytes, 2 * ds.stream.NumEvents() * 16);
}

/// A breakdown category as perfbench spells it in a metric name
/// (models.<model>.sim.<category>_ms): lower-case alphanumeric runs joined
/// by '_'.
std::string
MetricToken(const std::string& text)
{
    std::string out;
    bool pending = false;
    for (const char c : text) {
        if (std::isalnum(static_cast<unsigned char>(c))) {
            if (pending && !out.empty()) {
                out += '_';
            }
            pending = false;
            out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
        } else {
            pending = true;
        }
    }
    return out;
}

/// The per-phase categories BENCHMARK.json reads, per model token.
std::map<std::string, std::set<std::string>>
BenchmarkCategories()
{
    std::ifstream in(std::string(DGNN_SOURCE_DIR) + "/BENCHMARK.json");
    EXPECT_TRUE(in.good()) << "BENCHMARK.json not found";
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    const std::regex metric(R"re("models\.([a-z0-9_]+)\.sim\.([a-z0-9_]+)_ms")re");
    std::map<std::string, std::set<std::string>> categories;
    for (auto it = std::sregex_iterator(text.begin(), text.end(), metric);
         it != std::sregex_iterator(); ++it) {
        categories[(*it)[1]].insert((*it)[2]);
    }
    return categories;
}

TEST(CategoryGuardTest, EveryBenchmarkedPhaseIsReported)
{
    // The benchmark fails a run whose model stops reporting a per-phase
    // metric it lists, so a renamed or vanished phase must fail here first.
    const auto interactions = Interactions();
    const auto snapshots = Snapshots();
    const auto molecules = Molecules();
    const auto traffic = Traffic();
    struct Case {
        std::unique_ptr<DgnnModel> model;
        int64_t batch_size;
        int64_t num_neighbors;
    };
    std::vector<Case> cases;
    cases.push_back({std::make_unique<Tgn>(interactions, TgnConfig{}), 200, 20});
    cases.push_back({std::make_unique<Tgat>(interactions, TgatConfig{}), 200, 20});
    cases.push_back({std::make_unique<Jodie>(interactions, JodieConfig{}), 200, 20});
    cases.push_back({std::make_unique<EvolveGcn>(
                         snapshots, EvolveGcnConfig{EvolveGcnVariant::kO, 64, 17}),
                     1, 10});
    cases.push_back({std::make_unique<MolDgnn>(molecules, MolDgnnConfig{}), 16, 10});
    cases.push_back({std::make_unique<Astgnn>(traffic, AstgnnConfig{}), 8, 10});

    const auto expected = BenchmarkCategories();
    std::set<std::string> covered;
    for (Case& c : cases) {
        const std::string token = MetricToken(c.model->Name());
        covered.insert(token);
        sim::Runtime rt = MakeRuntime(sim::ExecMode::kHybrid);
        RunConfig run = GpuRun(c.batch_size, c.num_neighbors);
        run.numeric_cap = 1;
        const RunResult r = c.model->RunInference(rt, run);
        std::set<std::string> reported;
        for (const core::BreakdownEntry& e : r.breakdown.Entries()) {
            reported.insert(MetricToken(e.category));
        }
        const auto it = expected.find(token);
        ASSERT_NE(it, expected.end()) << token << " has no per-phase metric";
        for (const std::string& category : it->second) {
            EXPECT_TRUE(reported.count(category) > 0)
                << c.model->Name() << " no longer reports models." << token
                << ".sim." << category << "_ms";
        }
    }
    for (const auto& [token, categories] : expected) {
        EXPECT_TRUE(covered.count(token) > 0) << "no guard runs " << token;
    }
}

RunResult
RunEvolveGcn(const data::SnapshotDataset& ds, Schedule schedule)
{
    EvolveGcn model(ds, EvolveGcnConfig{});
    sim::Runtime rt = MakeRuntime(sim::ExecMode::kHybrid);
    RunConfig run = GpuRun(1);
    run.schedule = schedule;
    return model.RunInference(rt, run);
}

TEST(DeltaTransferTest, FewerBytesIdenticalNumerics)
{
    const auto ds = Snapshots();
    const RunResult eager = RunEvolveGcn(ds, Schedule::kEager);
    const RunResult staged = RunEvolveGcn(ds, Schedule::kStaged);
    EXPECT_LT(staged.h2d_bytes, eager.h2d_bytes);
    EXPECT_DOUBLE_EQ(staged.output_checksum, eager.output_checksum);
}

TEST(DeltaTransferTest, SavingsTrackSnapshotOverlap)
{
    // With higher snapshot overlap the staged delta transfer saves more
    // bytes.
    auto saving = [](const data::SnapshotDataset& ds) {
        return 1.0 - static_cast<double>(RunEvolveGcn(ds, Schedule::kStaged).h2d_bytes) /
                         static_cast<double>(RunEvolveGcn(ds, Schedule::kEager).h2d_bytes);
    };
    EXPECT_GT(saving(Snapshots(0.9)), saving(Snapshots(0.2)));
}

TEST(TBatchAblationTest, TBatchingBeatsSequential)
{
    const auto ds = Interactions();
    auto run_variant = [&](bool tbatch) {
        JodieConfig config;
        config.use_tbatch = tbatch;
        Jodie model(ds, config);
        sim::Runtime rt = MakeRuntime(sim::ExecMode::kHybrid);
        RunConfig run = GpuRun(256);
        run.numeric_cap = 0;  // full numerics for checksum comparability
        return model.RunInference(rt, run);
    };
    const RunResult sequential = run_variant(false);
    const RunResult tbatched = run_variant(true);
    EXPECT_LT(tbatched.total_us, sequential.total_us);
    // Substantial, not marginal: t-batching is the JODIE paper's headline.
    EXPECT_GT(sequential.total_us / tbatched.total_us, 2.0);
    EXPECT_DOUBLE_EQ(tbatched.output_checksum, sequential.output_checksum);
}

TEST(TBatchAblationTest, TBatchingCollapsesKernelCount)
{
    // The point of t-batching is parallelism *within* a kernel: batched
    // updates run many interactions per launch, so the launch count drops
    // by roughly the mean t-batch size.
    const auto ds = Interactions();
    auto kernel_count = [&](bool tbatch) {
        JodieConfig config;
        config.use_tbatch = tbatch;
        Jodie model(ds, config);
        sim::Runtime rt = MakeRuntime(sim::ExecMode::kHybrid);
        model.RunInference(rt, GpuRun(256));
        return core::AnalyzeTemporalDependency(rt).kernel_count;
    };
    EXPECT_LT(2 * kernel_count(true), kernel_count(false));
}

}  // namespace
}  // namespace dgnn::models
