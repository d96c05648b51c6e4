// Kernel fusion: the Collapse algebra over the analytic cost model, the
// registered per-model chains (identical numerics, fewer launches), fused
// profile capture, and hazard freedom of fused and CPU-only serving.
// Labelled `fusion` in CTest.

#include <gtest/gtest.h>

#include <cmath>

#include "analysis/hazard_checker.hpp"
#include "models/fusion_catalog.hpp"
#include "models/jodie.hpp"
#include "models/tgat.hpp"
#include "models/tgn.hpp"
#include "scenario/scenario.hpp"
#include "serve/batch_policy.hpp"
#include "serve/server.hpp"
#include "support/check.hpp"

namespace dgnn {
namespace {

// --------------------------------------------------------- Collapse algebra

sim::KernelDesc
Desc(const std::string& name, int64_t flops, int64_t bytes,
     int64_t parallel_items, bool irregular = false)
{
    sim::KernelDesc k;
    k.name = name;
    k.flops = flops;
    k.bytes = bytes;
    k.parallel_items = parallel_items;
    k.irregular = irregular;
    return k;
}

TEST(CollapseTest, SumsWorkAndKeepsWidestStage)
{
    sim::FusedKernelDesc fused;
    fused.name = "chain";
    fused.parts = {Desc("a", 100, 1000, 8), Desc("b", 200, 2000, 64),
                   Desc("c", 400, 500, 16)};
    fused.intermediate_bytes = {300, 100};

    const sim::KernelDesc collapsed = sim::Collapse(fused);
    EXPECT_EQ(collapsed.name, "chain");
    EXPECT_EQ(collapsed.flops, 700);
    // a pays 300 at its outgoing boundary; b pays 300 incoming + 100
    // outgoing; c pays 100 incoming:
    //   (1000-300) + (2000-400) + (500-100) = 2700
    EXPECT_EQ(collapsed.bytes, 2700);
    EXPECT_EQ(collapsed.parallel_items, 64);
    EXPECT_FALSE(collapsed.irregular);
}

TEST(CollapseTest, IntermediateLargerThanPartBytesClampsAtZero)
{
    sim::FusedKernelDesc fused;
    fused.name = "clamped";
    fused.parts = {Desc("a", 10, 100, 4), Desc("b", 10, 100, 4)};
    fused.intermediate_bytes = {1000};  // bigger than either side's traffic

    const sim::KernelDesc collapsed = sim::Collapse(fused);
    EXPECT_EQ(collapsed.bytes, 0);  // never negative
}

TEST(CollapseTest, AnyIrregularPartPoisonsTheChain)
{
    sim::FusedKernelDesc fused;
    fused.name = "mixed";
    fused.parts = {Desc("gather", 10, 4096, 16, /*irregular=*/true),
                   Desc("gemm", 100000, 4096, 256)};
    fused.intermediate_bytes = {0};

    EXPECT_TRUE(sim::Collapse(fused).irregular);
}

TEST(CollapseTest, ValidatesChainShape)
{
    sim::FusedKernelDesc empty;
    empty.name = "empty";
    EXPECT_THROW((void)sim::Collapse(empty), dgnn::Error);

    sim::FusedKernelDesc bad_boundaries;
    bad_boundaries.name = "bad";
    bad_boundaries.parts = {Desc("a", 1, 1, 1), Desc("b", 1, 1, 1)};
    bad_boundaries.intermediate_bytes = {0, 0};  // must be parts-1
    EXPECT_THROW((void)sim::Collapse(bad_boundaries), dgnn::Error);

    sim::FusedKernelDesc negative_intermediate;
    negative_intermediate.name = "neg";
    negative_intermediate.parts = {Desc("a", 1, 1, 1), Desc("b", 1, 1, 1)};
    negative_intermediate.intermediate_bytes = {-1};
    EXPECT_THROW((void)sim::Collapse(negative_intermediate), dgnn::Error);
}

TEST(CollapseTest, RejectsNonPositiveParallelismAndNegativeWork)
{
    for (const int64_t items : {int64_t{0}, int64_t{-4}}) {
        sim::FusedKernelDesc fused;
        fused.name = "width";
        fused.parts = {Desc("a", 1, 1, items)};
        EXPECT_THROW((void)sim::Collapse(fused), dgnn::Error);
    }

    sim::FusedKernelDesc negative_flops;
    negative_flops.name = "work";
    negative_flops.parts = {Desc("a", -1, 1, 1)};
    EXPECT_THROW((void)sim::Collapse(negative_flops), dgnn::Error);
}

// ------------------------------------------------- durations over the model

TEST(FusedDurationTest, MatchesCostModelOnCollapsedDescriptor)
{
    sim::FusedKernelDesc fused;
    fused.name = "chain";
    fused.parts = {Desc("a", 5000, 4096, 32), Desc("b", 9000, 8192, 64)};
    fused.intermediate_bytes = {2048};

    for (const sim::DeviceSpec& spec :
         {sim::DeviceSpec::XeonGold6226R(), sim::DeviceSpec::RtxA6000()}) {
        EXPECT_DOUBLE_EQ(sim::FusedDuration(spec, fused),
                         sim::KernelDuration(spec, sim::Collapse(fused)));
        EXPECT_DOUBLE_EQ(sim::UnfusedDuration(spec, fused),
                         sim::KernelDuration(spec, fused.parts[0]) +
                             sim::KernelDuration(spec, fused.parts[1]));
        EXPECT_DOUBLE_EQ(sim::FusedSavings(spec, fused),
                         sim::UnfusedDuration(spec, fused) -
                             sim::FusedDuration(spec, fused));
    }
}

TEST(FusedDurationTest, LaunchBoundChainSavesAtLeastTwoThirdsOfOverhead)
{
    // Four tiny launches (the JODIE t-batch shape): execution is negligible
    // next to the 6 us GPU launch overhead, so fusing 4 -> 1 must cut the
    // chain duration by >= 2x.
    sim::FusedKernelDesc fused;
    fused.name = "tbatch";
    fused.parts = {Desc("project_user", 64, 512, 1),
                   Desc("predict_item", 8192, 512, 1),
                   Desc("rnn_update", 24576, 768, 1),
                   Desc("rnn_update", 24576, 768, 1)};
    fused.intermediate_bytes = {256, 0, 0};

    const sim::DeviceSpec gpu = sim::DeviceSpec::RtxA6000();
    EXPECT_GE(sim::UnfusedDuration(gpu, fused),
              2.0 * sim::FusedDuration(gpu, fused));
}

TEST(FusedDurationTest, IrregularPoisoningCanMakeFusionLose)
{
    // A tiny gather fused in front of a byte-bound regular kernel: the whole
    // chain inherits the irregular penalty, which costs more than one saved
    // launch. FusedSavings must surface the loss (negative) — this is the
    // case that keeps placement a per-batch decision.
    sim::FusedKernelDesc fused;
    fused.name = "poisoned";
    fused.parts = {Desc("gather", 0, 4096, 200000, /*irregular=*/true),
                   Desc("stream", 0, 600000000, 200000)};
    fused.intermediate_bytes = {0};

    EXPECT_LT(sim::FusedSavings(sim::DeviceSpec::RtxA6000(), fused), 0.0);
}

TEST(CostModelEdgeTest, OccupancyClampsToFloorAndOne)
{
    const sim::DeviceSpec gpu = sim::DeviceSpec::RtxA6000();
    EXPECT_DOUBLE_EQ(sim::Occupancy(gpu, Desc("tiny", 1, 1, 1)),
                     gpu.occupancy_floor);
    EXPECT_DOUBLE_EQ(
        sim::Occupancy(gpu, Desc("huge", 1, 1, gpu.saturation_items * 100)),
        1.0);
}

TEST(CostModelEdgeTest, NonPositiveParallelismThrows)
{
    const sim::DeviceSpec gpu = sim::DeviceSpec::RtxA6000();
    EXPECT_THROW((void)sim::KernelDuration(gpu, Desc("zero", 1, 1, 0)),
                 dgnn::Error);
    EXPECT_THROW((void)sim::KernelDuration(gpu, Desc("neg", 1, 1, -1)),
                 dgnn::Error);
}

// ----------------------------------------------------------- the catalog

TEST(FusionCatalogTest, RegistersTheFiveChains)
{
    const std::vector<models::FusionPlan>& catalog = models::FusionCatalog();
    ASSERT_EQ(catalog.size(), 5u);
    EXPECT_NE(models::FindFusionPlan("tgn_memory_fused"), nullptr);
    EXPECT_NE(models::FindFusionPlan("tgn_embed_fused"), nullptr);
    EXPECT_NE(models::FindFusionPlan("tgat_encode_fused"), nullptr);
    EXPECT_NE(models::FindFusionPlan("tgat_attention_fused"), nullptr);
    EXPECT_NE(models::FindFusionPlan("jodie_tbatch_fused"), nullptr);
    EXPECT_EQ(models::FindFusionPlan("nonexistent"), nullptr);

    const models::FusionPlan* jodie =
        models::FindFusionPlan("jodie_tbatch_fused");
    ASSERT_EQ(jodie->parts.size(), 4u);  // 4 launches -> 1 per t-batch
}

TEST(FusionCatalogTest, MakeRegisteredChainValidatesPartsAgainstThePlan)
{
    const sim::FusedKernelDesc chain = models::MakeRegisteredChain(
        "tgn_memory_fused",
        {Desc("aggregate_last", 10, 100, 4), Desc("gru_memory_update", 10, 100, 4)},
        {64});
    EXPECT_EQ(chain.name, "tgn_memory_fused");
    EXPECT_EQ(chain.parts.size(), 2u);

    // Unknown chain.
    EXPECT_THROW((void)models::MakeRegisteredChain(
                     "nonexistent", {Desc("a", 1, 1, 1)}, {}),
                 dgnn::Error);
    // Wrong part count.
    EXPECT_THROW((void)models::MakeRegisteredChain(
                     "tgn_memory_fused", {Desc("aggregate_last", 1, 1, 1)}, {}),
                 dgnn::Error);
    // Wrong order.
    EXPECT_THROW(
        (void)models::MakeRegisteredChain(
            "tgn_memory_fused",
            {Desc("gru_memory_update", 1, 1, 1), Desc("aggregate_last", 1, 1, 1)},
            {64}),
        dgnn::Error);
}

// ------------------------------------------- model identity: fused vs not

data::InteractionDataset
TinyInteractions()
{
    data::InteractionSpec spec;
    spec.name = "tiny";
    spec.num_users = 20;
    spec.num_items = 12;
    spec.num_events = 120;
    spec.edge_feature_dim = 8;
    spec.seed = 5;
    return data::GenerateInteractions(spec);
}

int64_t
CountKernelLaunches(const sim::Runtime& runtime)
{
    int64_t launches = 0;
    for (const sim::TraceEvent& event : runtime.GetTrace().Events()) {
        if (event.kind == sim::EventKind::kKernel) {
            ++launches;
        }
    }
    return launches;
}

template <typename ModelFactory>
void
ExpectFusionPreservesNumerics(ModelFactory make_model)
{
    models::RunConfig run;
    run.mode = sim::ExecMode::kHybrid;
    run.batch_size = 16;
    run.num_neighbors = 4;
    run.numeric_cap = 0;  // full numerics — the checksum must not move

    auto unfused_model = make_model();
    sim::Runtime unfused_rt = models::MakeRuntime(run.mode);
    const models::RunResult unfused =
        unfused_model->RunInference(unfused_rt, run);

    run.fuse_kernels = true;
    auto fused_model = make_model();
    sim::Runtime fused_rt = models::MakeRuntime(run.mode);
    const models::RunResult fused = fused_model->RunInference(fused_rt, run);

    // Fusion is cost-shape only: identical numerics and iteration count...
    EXPECT_DOUBLE_EQ(fused.output_checksum, unfused.output_checksum);
    EXPECT_EQ(fused.iterations, unfused.iterations);
    // ...with strictly fewer launches and a cheaper (or equal) timeline.
    EXPECT_LT(CountKernelLaunches(fused_rt), CountKernelLaunches(unfused_rt));
    EXPECT_LE(fused.total_us, unfused.total_us);
}

TEST(ModelFusionTest, TgnChecksumIdenticalWithFewerLaunches)
{
    const auto ds = TinyInteractions();
    ExpectFusionPreservesNumerics(
        [&] { return std::make_unique<models::Tgn>(ds, models::TgnConfig{64, 32, 1, 11}); });
}

TEST(ModelFusionTest, TgatChecksumIdenticalWithFewerLaunches)
{
    const auto ds = TinyInteractions();
    ExpectFusionPreservesNumerics(
        [&] { return std::make_unique<models::Tgat>(ds, models::TgatConfig{16, 2, 1, 4, 7}); });
}

TEST(ModelFusionTest, JodieChecksumIdenticalWithFewerLaunches)
{
    const auto ds = TinyInteractions();
    ExpectFusionPreservesNumerics(
        [&] { return std::make_unique<models::Jodie>(ds, models::JodieConfig{}); });
}

TEST(ModelFusionTest, FusedSessionKeepsHostAndTransferVolumes)
{
    const auto ds = TinyInteractions();
    models::Tgn tgn(ds, models::TgnConfig{64, 32, 1, 11});
    serve::ModelSession plain(tgn, sim::ExecMode::kHybrid,
                              /*num_neighbors=*/4);
    serve::ModelSession fused_session(tgn, sim::ExecMode::kHybrid,
                                      /*num_neighbors=*/4, {},
                                      /*fuse_kernels=*/true);

    const serve::BatchProfile& unfused = plain.Profile(16);
    const serve::BatchProfile& fused = fused_session.Profile(16);
    EXPECT_LT(fused.kernels.size(), unfused.kernels.size());
    EXPECT_DOUBLE_EQ(fused.host_us, unfused.host_us);
    EXPECT_EQ(fused.h2d_bytes, unfused.h2d_bytes);
    EXPECT_EQ(fused.d2h_bytes, unfused.d2h_bytes);
}

// ------------------------------------------------------ serving integration

data::InteractionDataset
ServingDataset()
{
    data::InteractionSpec spec;
    spec.name = "fusion-serve";
    spec.num_users = 128;
    spec.num_items = 32;
    spec.num_events = 1024;
    spec.edge_feature_dim = 32;
    spec.popularity_alpha = 2.5;
    spec.repeat_prob = 0.9;
    spec.seed = 31;
    return data::GenerateInteractions(spec);
}

std::vector<serve::Request>
ServingRequests(const data::InteractionDataset& dataset, int64_t n)
{
    scenario::Scenario s;
    s.name = "fusion-replay";
    s.poisson_qps = 20000.0;
    s.poisson_seed = 1009;
    return scenario::GenerateRequests(s, dataset, n);
}

TEST(DispatchServingTest, FusedAndRoutedServingIsHazardFree)
{
    // The two sessions that serve placements other than the default
    // hybrid one: hybrid with fused capture, and CPU-only.
    const auto dataset = ServingDataset();
    const auto requests = ServingRequests(dataset, 256);
    models::Tgn tgn(dataset, models::TgnConfig{64, 32, 1, 11});
    models::Jodie jodie(dataset, models::JodieConfig{});

    for (models::DgnnModel* model :
         std::vector<models::DgnnModel*>{&tgn, &jodie}) {
        for (const bool cpu_only : {false, true}) {
            serve::ModelSession session(
                *model,
                cpu_only ? sim::ExecMode::kCpuOnly : sim::ExecMode::kHybrid,
                /*num_neighbors=*/4, {}, /*fuse_kernels=*/!cpu_only);
            for (const serve::ExecutorKind kind :
                 {serve::ExecutorKind::kSerial,
                  serve::ExecutorKind::kPipelined}) {
                serve::TimeoutPolicy policy(/*batch_size=*/32,
                                            /*timeout_us=*/5000.0);
                analysis::HazardChecker checker;
                serve::ServerOptions options;
                options.executor = kind;
                options.runtime_observer = &checker;
                (void)serve::ServeRequests(session, policy, requests, options);
                const analysis::HazardReport report = checker.Report();
                EXPECT_TRUE(report.Clean())
                    << model->Name() << " / " << sim::ToString(session.Mode())
                    << " / " << serve::ToString(kind) << "\n"
                    << report.ToText();
                EXPECT_GT(report.ops, 0);
                EXPECT_GT(report.writes, 0);
            }
        }
    }
}

}  // namespace
}  // namespace dgnn
