// Cross-cutting conservation laws, parameterized over every model and both
// execution modes. Whatever a model does, the simulator's invariants must
// hold: category times partition elapsed time, device busy time never
// exceeds elapsed, trace events stay inside the run window and ordered per
// stream, transfer byte counters match the trace, and checksums are finite.

#include <cmath>
#include <functional>
#include <memory>

#include <gtest/gtest.h>

#include "core/trace_analysis.hpp"
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

/// A named model factory bound to its own dataset lifetime.
struct ModelCase {
    std::string name;
    std::function<std::unique_ptr<DgnnModel>()> make;
};

/// Shared datasets (constructed once; factories capture by reference).
struct Fixtures {
    data::InteractionDataset interactions = data::GenerateInteractions([] {
        data::InteractionSpec spec;
        spec.num_users = 60;
        spec.num_items = 30;
        spec.num_events = 300;
        spec.edge_feature_dim = 16;
        spec.seed = 33;
        return spec;
    }());
    data::SnapshotDataset snapshots = data::GenerateSnapshots([] {
        data::SnapshotSpec spec;
        spec.num_nodes = 80;
        spec.num_steps = 5;
        spec.edges_per_step = 400;
        spec.node_feature_dim = 16;
        spec.seed = 34;
        return spec;
    }());
    data::TrafficDataset traffic = data::GenerateTraffic([] {
        data::TrafficSpec spec;
        spec.num_sensors = 20;
        spec.num_timesteps = 60;
        spec.seed = 35;
        return spec;
    }());
    data::MolecularDataset molecular = data::GenerateMolecular([] {
        data::MolecularSpec spec;
        spec.num_frames = 48;
        spec.seed = 36;
        return spec;
    }());
    data::PointProcessDataset point_process = data::GeneratePointProcess([] {
        data::PointProcessSpec spec;
        spec.num_actors = 20;
        spec.num_events = 80;
        spec.seed = 37;
        return spec;
    }());
};

Fixtures&
SharedFixtures()
{
    static Fixtures fixtures;
    return fixtures;
}

std::vector<ModelCase>
AllModelCases()
{
    Fixtures& f = SharedFixtures();
    return {
        {"JODIE",
         [&f] { return std::make_unique<Jodie>(f.interactions, JodieConfig{16, 13, true}); }},
        {"TGN",
         [&f] { return std::make_unique<Tgn>(f.interactions, TgnConfig{16, 16, 2, 11}); }},
        {"TGAT",
         [&f] { return std::make_unique<Tgat>(f.interactions, TgatConfig{16, 2, 1, 4, 7}); }},
        {"EvolveGCN-O",
         [&f] {
             return std::make_unique<EvolveGcn>(
                 f.snapshots, EvolveGcnConfig{EvolveGcnVariant::kO, 16, 17});
         }},
        {"EvolveGCN-H",
         [&f] {
             return std::make_unique<EvolveGcn>(
                 f.snapshots, EvolveGcnConfig{EvolveGcnVariant::kH, 16, 17});
         }},
        {"ASTGNN",
         [&f] { return std::make_unique<Astgnn>(f.traffic, AstgnnConfig{8, 2, 1, 1, 23}); }},
        {"MolDGNN",
         [&f] { return std::make_unique<MolDgnn>(f.molecular, MolDgnnConfig{8, 16, 19}); }},
        {"DyRep",
         [&f] { return std::make_unique<DyRep>(f.point_process, DyRepConfig{8, 3, 29}); }},
        {"LDG",
         [&f] {
             return std::make_unique<Ldg>(f.point_process,
                                          LdgConfig{LdgEncoder::kMlp, 8, 4, 3, 31});
         }},
    };
}

struct CaseParam {
    size_t case_index;
    sim::ExecMode mode;
};

std::string
ParamName(const ::testing::TestParamInfo<CaseParam>& info)
{
    std::string name = AllModelCases()[info.param.case_index].name;
    for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) {
            c = '_';
        }
    }
    return name + "_" + sim::ToString(info.param.mode);
}

class ConservationLaws : public ::testing::TestWithParam<CaseParam> {};

TEST_P(ConservationLaws, HoldForEveryModelAndMode)
{
    const CaseParam param = GetParam();
    const ModelCase model_case = AllModelCases()[param.case_index];

    auto model = model_case.make();
    sim::Runtime rt = MakeRuntime(param.mode);
    RunConfig run;
    run.mode = param.mode;
    run.batch_size = 16;
    run.num_neighbors = 4;
    const RunResult r = model->RunInference(rt, run);

    // 1. The run did something and the clock moved forward.
    EXPECT_GT(r.total_us, 0.0);
    EXPECT_GT(r.iterations, 0);
    EXPECT_TRUE(std::isfinite(r.output_checksum));

    // 2. Category times partition elapsed window time exactly.
    double category_total = 0.0;
    for (const auto& [name, t] : rt.CategoryTimes()) {
        EXPECT_GE(t, 0.0) << name;
        category_total += t;
    }
    EXPECT_NEAR(category_total, rt.ElapsedInWindow(),
                1e-6 * std::max(1.0, rt.ElapsedInWindow()));

    // 3. Breakdown shares sum to 100 %.
    double share_total = 0.0;
    for (const auto& e : r.breakdown.Entries()) {
        share_total += e.share_pct;
    }
    EXPECT_NEAR(share_total, 100.0, 1e-6);

    // 4. Device busy time cannot exceed elapsed time (single stream).
    EXPECT_LE(rt.ComputeDevice().BusyTime(), rt.ElapsedInWindow() + 1e-6);
    EXPECT_LE(rt.ComputeDevice().WeightedBusyTime(),
              rt.ComputeDevice().BusyTime() + 1e-6);

    // 5. Trace events live inside [0, Now] with non-negative durations,
    //    and kernel events never overlap (one compute stream).
    sim::SimTime prev_kernel_end = 0.0;
    for (const sim::TraceEvent& e : rt.GetTrace().Events()) {
        EXPECT_GE(e.start_us, 0.0);
        EXPECT_LE(e.end_us, rt.Now() + 1e-6);
        EXPECT_GE(e.Duration(), -1e-9);
        if (e.kind == sim::EventKind::kKernel) {
            EXPECT_GE(e.start_us, prev_kernel_end - 1e-6);
            prev_kernel_end = e.end_us;
            EXPECT_GE(e.occupancy, 0.0);
            EXPECT_LE(e.occupancy, 1.0);
        }
    }

    // 6. Transfer counters agree with the trace.
    const int64_t h2d = core::TransferredBytes(
        rt.GetTrace(), sim::CopyDirection::kHostToDevice, rt.MeasureStart(),
        rt.Now() + 1.0);
    const int64_t d2h = core::TransferredBytes(
        rt.GetTrace(), sim::CopyDirection::kDeviceToHost, rt.MeasureStart(),
        rt.Now() + 1.0);
    EXPECT_EQ(h2d, r.h2d_bytes);
    EXPECT_EQ(d2h, r.d2h_bytes);

    // 7. CPU-only runs move no bytes and leave GPU memory untouched.
    if (param.mode == sim::ExecMode::kCpuOnly) {
        EXPECT_EQ(r.h2d_bytes, 0);
        EXPECT_EQ(r.d2h_bytes, 0);
        EXPECT_DOUBLE_EQ(rt.SyncWaitTime(), 0.0);
    } else {
        // 8. Hybrid runs allocated device memory and it was tracked.
        EXPECT_GT(rt.Gpu().Memory().PeakBytes(), 0);
    }

    // 9. No memory leaks: after the model's buffers go out of scope inside
    //    RunInference, only long-lived buffers (weights/state) may remain;
    //    live never exceeds peak.
    EXPECT_LE(rt.ComputeDevice().Memory().LiveBytes(),
              rt.ComputeDevice().Memory().PeakBytes());
}

std::vector<CaseParam>
AllParams()
{
    std::vector<CaseParam> params;
    for (size_t i = 0; i < AllModelCases().size(); ++i) {
        params.push_back({i, sim::ExecMode::kHybrid});
        params.push_back({i, sim::ExecMode::kCpuOnly});
    }
    return params;
}

INSTANTIATE_TEST_SUITE_P(AllModels, ConservationLaws,
                         ::testing::ValuesIn(AllParams()), ParamName);

}  // namespace
}  // namespace dgnn::models
