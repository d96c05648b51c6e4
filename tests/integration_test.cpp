// Cross-model integration tests: the qualitative *shapes* the paper reports
// must emerge from the simulator — who wins CPU vs GPU, which phase
// dominates, how utilization trends with batch size / neighbor count.

#include <gtest/gtest.h>

#include "core/bottleneck.hpp"
#include "models/astgnn.hpp"
#include "models/dyrep.hpp"
#include "models/evolvegcn.hpp"
#include "models/jodie.hpp"
#include "models/ldg.hpp"
#include "models/moldgnn.hpp"
#include "models/tgat.hpp"
#include "models/tgn.hpp"

namespace dgnn::models {
namespace {

RunConfig
MakeRun(sim::ExecMode mode, int64_t batch, int64_t neighbors = 8)
{
    RunConfig run;
    run.mode = mode;
    run.batch_size = batch;
    run.num_neighbors = neighbors;
    run.numeric_cap = 4;  // integration tests exercise timing, not math
    // These tests assert the paper's measured bottleneck shapes (memory
    // copy dominating MolDGNN, EvolveGCN's idle GPU, TGAT's sampling, ...),
    // which the models reproduce under the profiled eager schedule.
    run.schedule = Schedule::kEager;
    return run;
}

data::InteractionDataset
MidInteractions(int64_t events = 2000)
{
    data::InteractionSpec spec;
    spec.name = "mid";
    spec.num_users = 300;
    spec.num_items = 100;
    spec.num_events = events;
    spec.edge_feature_dim = 32;
    spec.seed = 15;
    return data::GenerateInteractions(spec);
}

TEST(SpeedupShapes, DyRepGpuSlowerThanCpu)
{
    // Fig 8(c): GPU speedup < 1 for all batch sizes.
    data::PointProcessSpec spec = data::PointProcessSpec::SocialEvolutionLike();
    spec.num_events = 300;
    const auto ds = data::GeneratePointProcess(spec);

    DyRep gpu_model(ds, DyRepConfig{});
    sim::Runtime gpu_rt = MakeRuntime(sim::ExecMode::kHybrid);
    const RunResult gpu = gpu_model.RunInference(gpu_rt, MakeRun(sim::ExecMode::kHybrid, 32));

    DyRep cpu_model(ds, DyRepConfig{});
    sim::Runtime cpu_rt = MakeRuntime(sim::ExecMode::kCpuOnly);
    const RunResult cpu =
        cpu_model.RunInference(cpu_rt, MakeRun(sim::ExecMode::kCpuOnly, 32));

    const double speedup = cpu.total_us / gpu.total_us;
    EXPECT_LT(speedup, 1.0);
    EXPECT_GT(speedup, 0.2);  // slower, but not absurdly so
}

TEST(SpeedupShapes, LdgGpuSlowerThanCpu)
{
    // Fig 8(d).
    data::PointProcessSpec spec = data::PointProcessSpec::SocialEvolutionLike();
    spec.num_events = 300;
    const auto ds = data::GeneratePointProcess(spec);

    Ldg gpu_model(ds, LdgConfig{});
    sim::Runtime gpu_rt = MakeRuntime(sim::ExecMode::kHybrid);
    const RunResult gpu = gpu_model.RunInference(gpu_rt, MakeRun(sim::ExecMode::kHybrid, 32));

    Ldg cpu_model(ds, LdgConfig{});
    sim::Runtime cpu_rt = MakeRuntime(sim::ExecMode::kCpuOnly);
    const RunResult cpu =
        cpu_model.RunInference(cpu_rt, MakeRun(sim::ExecMode::kCpuOnly, 32));

    EXPECT_LT(cpu.total_us / gpu.total_us, 1.0);
}

TEST(SpeedupShapes, TgnSpeedupGrowsWithBatchSize)
{
    // Fig 8(b): TGN's GPU advantage grows with batch size.
    const auto ds = MidInteractions(4000);
    std::vector<double> speedups;
    for (const int64_t batch : {16, 256, 4000}) {
        Tgn gpu_model(ds, TgnConfig{});
        sim::Runtime gpu_rt = MakeRuntime(sim::ExecMode::kHybrid);
        const RunResult gpu =
            gpu_model.RunInference(gpu_rt, MakeRun(sim::ExecMode::kHybrid, batch));

        Tgn cpu_model(ds, TgnConfig{});
        sim::Runtime cpu_rt = MakeRuntime(sim::ExecMode::kCpuOnly);
        const RunResult cpu =
            cpu_model.RunInference(cpu_rt, MakeRun(sim::ExecMode::kCpuOnly, batch));
        speedups.push_back(cpu.total_us / gpu.total_us);
    }
    // The GPU advantage at the largest batch clearly exceeds the smallest
    // batch (the paper's Fig 8(b) trend), and large batches do win.
    EXPECT_GT(speedups.back(), 1.2 * speedups.front());
    EXPECT_GT(speedups.back(), 1.0);
}

TEST(SpeedupShapes, TgatSpeedupFlatWithBatchSize)
{
    // Fig 8(a): TGAT inference time barely improves with mini-batch size
    // because CPU-side sampling congests the pipeline.
    const auto ds = MidInteractions(3000);
    std::vector<double> speedups;
    for (const int64_t batch : {100, 300, 1000}) {
        Tgat gpu_model(ds, TgatConfig{});
        sim::Runtime gpu_rt = MakeRuntime(sim::ExecMode::kHybrid);
        const RunResult gpu =
            gpu_model.RunInference(gpu_rt, MakeRun(sim::ExecMode::kHybrid, batch, 10));

        Tgat cpu_model(ds, TgatConfig{});
        sim::Runtime cpu_rt = MakeRuntime(sim::ExecMode::kCpuOnly);
        const RunResult cpu =
            cpu_model.RunInference(cpu_rt, MakeRun(sim::ExecMode::kCpuOnly, batch, 10));
        speedups.push_back(cpu.total_us / gpu.total_us);
    }
    // Flat: max/min within 2x across a 10x batch sweep.
    const auto [lo, hi] = std::minmax_element(speedups.begin(), speedups.end());
    EXPECT_LT(*hi / *lo, 2.0);
}

TEST(BottleneckShapes, TgatSamplingDominatesInference)
{
    // Fig 7(e-h): neighborhood sampling takes the majority of TGAT time.
    const auto ds = MidInteractions(2000);
    Tgat model(ds, TgatConfig{});
    sim::Runtime rt = MakeRuntime(sim::ExecMode::kHybrid);
    const RunResult r = model.RunInference(rt, MakeRun(sim::ExecMode::kHybrid, 200, 20));
    EXPECT_GT(r.breakdown.SharePct("Sampling (CPU)"), 40.0);
}

TEST(BottleneckShapes, MolDgnnMemoryCopyDominates)
{
    // Fig 7(b): memory copy is ~80-90% of MolDGNN time at any batch size.
    data::MolecularSpec spec = data::MolecularSpec::Iso17Like();
    spec.num_frames = 256;
    const auto ds = data::GenerateMolecular(spec);
    for (const int64_t batch : {16, 64, 256}) {
        MolDgnn model(ds, MolDgnnConfig{});
        sim::Runtime rt = MakeRuntime(sim::ExecMode::kHybrid);
        const RunResult r =
            model.RunInference(rt, MakeRun(sim::ExecMode::kHybrid, batch));
        EXPECT_GT(r.breakdown.SharePct("Memory Copy"), 50.0)
            << "batch " << batch;
    }
}

TEST(BottleneckShapes, TgnUtilizationDecreasesWithBatchSize)
{
    // Fig 6(c): endpoints of the batch sweep — small batches keep the GPU
    // visibly busier than huge transfer-bound batches. Needs a Wikipedia-
    // scale node pool so large batches actually coalesce memory updates.
    data::InteractionSpec spec = data::InteractionSpec::WikipediaLike(4000);
    const auto ds = data::GenerateInteractions(spec);
    std::vector<double> utils;
    for (const int64_t batch : {32, 4000}) {
        Tgn model(ds, TgnConfig{});
        sim::Runtime rt = MakeRuntime(sim::ExecMode::kHybrid);
        const RunResult r =
            model.RunInference(rt, MakeRun(sim::ExecMode::kHybrid, batch));
        utils.push_back(r.compute_utilization_pct);
    }
    EXPECT_GT(utils.front(), 1.3 * utils.back());
}

TEST(BottleneckShapes, TgnMemoryGrowsWithBatchSize)
{
    // Fig 6(c) second series: peak memory rises with batch size.
    const auto ds = MidInteractions(4000);
    int64_t prev_mem = 0;
    for (const int64_t batch : {32, 512, 4000}) {
        Tgn model(ds, TgnConfig{});
        sim::Runtime rt = MakeRuntime(sim::ExecMode::kHybrid);
        const RunResult r =
            model.RunInference(rt, MakeRun(sim::ExecMode::kHybrid, batch));
        EXPECT_GE(r.compute_peak_bytes, prev_mem);
        prev_mem = r.compute_peak_bytes;
    }
}

TEST(BottleneckShapes, TgatUtilizationGrowsWithNeighborCount)
{
    // Fig 6(a): more sampled neighbors -> more GPU work per sampled byte.
    const auto ds = MidInteractions(2000);
    double prev_util = 0.0;
    for (const int64_t k : {10, 50, 200}) {
        Tgat model(ds, TgatConfig{});
        sim::Runtime rt = MakeRuntime(sim::ExecMode::kHybrid);
        const RunResult r =
            model.RunInference(rt, MakeRun(sim::ExecMode::kHybrid, 200, k));
        EXPECT_GT(r.compute_utilization_pct, prev_util) << "k=" << k;
        prev_util = r.compute_utilization_pct;
    }
}

TEST(BottleneckShapes, LowGpuUtilizationAcrossSequentialModels)
{
    // Section 4.1: EvolveGCN / MolDGNN < 1%, JODIE ~1.5-2.5%, DyRep < 2%.
    {
        const auto ds = data::GenerateSnapshots(data::SnapshotSpec::SbmLike());
        EvolveGcn model(ds, EvolveGcnConfig{});
        sim::Runtime rt = MakeRuntime(sim::ExecMode::kHybrid);
        const RunResult r = model.RunInference(rt, MakeRun(sim::ExecMode::kHybrid, 1));
        EXPECT_LT(r.compute_utilization_pct, 30.0);
    }
    {
        data::PointProcessSpec spec = data::PointProcessSpec::SocialEvolutionLike();
        spec.num_events = 200;
        const auto ds = data::GeneratePointProcess(spec);
        DyRep model(ds, DyRepConfig{});
        sim::Runtime rt = MakeRuntime(sim::ExecMode::kHybrid);
        const RunResult r = model.RunInference(rt, MakeRun(sim::ExecMode::kHybrid, 1));
        EXPECT_LT(r.compute_utilization_pct, 10.0);
    }
}

TEST(WarmupShapes, OneTimeWarmupManyIterationsOfInference)
{
    // Section 4.4: warm-up is 33x - 86x one mini-batch of inference.
    const auto ds = MidInteractions(2000);
    Tgat model(ds, TgatConfig{});
    sim::Runtime rt = MakeRuntime(sim::ExecMode::kHybrid);
    const RunResult r = model.RunInference(rt, MakeRun(sim::ExecMode::kHybrid, 200, 20));
    const double ratio = r.warmup_one_time_us / r.per_iteration_us;
    EXPECT_GT(ratio, 10.0);
}

TEST(WarmupShapes, WarmupShareGrowsWithBatchSize)
{
    // Table 2: per-run warm-up share of GPU working time grows with batch.
    data::MolecularSpec spec = data::MolecularSpec::Iso17Like();
    spec.num_frames = 512;
    const auto ds = data::GenerateMolecular(spec);
    double prev_share = 0.0;
    for (const int64_t batch : {8, 128, 512}) {
        MolDgnn model(ds, MolDgnnConfig{});
        sim::Runtime rt = MakeRuntime(sim::ExecMode::kHybrid);
        const RunResult r =
            model.RunInference(rt, MakeRun(sim::ExecMode::kHybrid, batch));
        const double share =
            r.warmup_per_run_us / (r.warmup_per_run_us + r.compute_busy_us);
        EXPECT_GT(share, prev_share) << "batch " << batch;
        prev_share = share;
    }
}

TEST(BottleneckReportIntegration, FullReportForTgn)
{
    const auto ds = MidInteractions(1000);
    Tgn model(ds, TgnConfig{});
    sim::Runtime rt = MakeRuntime(sim::ExecMode::kHybrid);
    const RunResult r = model.RunInference(rt, MakeRun(sim::ExecMode::kHybrid, 128));
    const core::BottleneckReport report = core::AnalyzeAll(
        rt, r.model, "bs=128", r.warmup_per_run_us, r.per_iteration_us);
    EXPECT_EQ(report.model, "TGN");
    EXPECT_GT(report.elapsed_us, 0.0);
    EXPECT_GT(report.data_movement.h2d_bytes, 0);
    EXPECT_GT(report.temporal_dependency.kernel_count, 0);
    EXPECT_FALSE(report.ToText().empty());
}

}  // namespace
}  // namespace dgnn::models
