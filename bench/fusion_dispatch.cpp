/// The kernel-fusion ablation — the launch-overhead killer
/// (src/sim/fusion.hpp over the serving stack). Two sweeps:
///
///   Table A  launch-overhead ablation: per model (TGN, TGAT, JODIE) and
///            batch size, the captured serving profile with and without the
///            registered fusion chains collapsed — launches, the per-batch
///            launch+submit overhead each sequence pays, and the reduction
///            factor. JODIE's per-t-batch 4-launch RNN chain is the paper's
///            launch-bound cell (Fig 7d, GPU util 1.5-2.5%): fusing it cuts
///            launch overhead 4x.
///
///   Table B  placements at saturation: per model, the highest Poisson rate
///            each placement sustains under a 10 ms p99 SLO
///            (serve::FindMaxQpsUnderSlo) — a CPU-only session, the default
///            hybrid session, and a hybrid session capturing fused profiles
///            — on the serial executor, uncached, over three arrival seeds.
///            Reports every seed, the median, and the seed spread
///            (max-min)/median.
///
/// The text summary diffs against docs/expected/bench_fusion_dispatch.txt
/// in CI (scripts/check_fusion.sh); BENCH_fusion_dispatch.json carries the
/// trajectory for scripts/compare_bench.py plus the acceptance checks.
///
/// DGNN_FUSION_REQUESTS sets the requests per search evaluation (default
/// 2048); DGNN_BENCH_JSON_PATH redirects the JSON artifact.

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "core/bench_json_writer.hpp"
#include "models/fusion_catalog.hpp"
#include "models/jodie.hpp"
#include "models/tgat.hpp"
#include "models/tgn.hpp"
#include "serve/batch_policy.hpp"
#include "serve/server.hpp"
#include "sim/runtime.hpp"

namespace dgnn {
namespace {

constexpr uint64_t kSeeds[] = {1013, 1014, 1015};
constexpr int64_t kServeBatch = 64;
constexpr sim::SimTime kBatchTimeoutUs = 3000.0;
constexpr int64_t kNumNeighbors = 10;
constexpr sim::SimTime kSloUs = 10000.0;
constexpr double kFloorQps = 250.0;

/// One way to serve a model: the session that expresses the placement.
struct Placement {
    const char* name;
    sim::ExecMode mode;
    bool fuse_kernels;
};

constexpr Placement kPlacements[] = {
    {"cpu-only", sim::ExecMode::kCpuOnly, false},
    {"hybrid", sim::ExecMode::kHybrid, false},
    {"hybrid+fused", sim::ExecMode::kHybrid, true},
};

int64_t
RequestCount()
{
    if (const char* env = std::getenv("DGNN_FUSION_REQUESTS")) {
        return std::max<int64_t>(1, std::atoll(env));
    }
    return 2048;
}

std::string
JsonPath()
{
    if (const char* env = std::getenv("DGNN_BENCH_JSON_PATH")) {
        return env;
    }
    return "BENCH_fusion_dispatch.json";
}

data::InteractionSpec
FusionDatasetSpec()
{
    // The hazard-audit dataset (recurrent repeat-talker stream) — the same
    // stream the gauntlet and shard sweeps serve, so cells are comparable
    // across benches.
    data::InteractionSpec spec;
    spec.name = "gauntlet";
    spec.num_users = 512;
    spec.num_items = 128;
    spec.num_events = 4096;
    spec.edge_feature_dim = 64;
    spec.popularity_alpha = 2.5;
    spec.repeat_prob = 0.9;
    spec.seed = 31;
    return spec;
}

void
PrintCatalog()
{
    bench::Banner("Registered fusion chains",
                  "the launch-bound producer->consumer chains of Figs 6/7");
    core::TableWriter table({"model", "chain", "launches", "parts"});
    for (const models::FusionPlan& plan : models::FusionCatalog()) {
        std::string parts;
        for (const std::string& part : plan.parts) {
            if (!parts.empty()) {
                parts += " + ";
            }
            parts += part;
        }
        table.AddRow({plan.model, plan.chain,
                      std::to_string(plan.parts.size()), parts});
    }
    std::cout << table.ToString();
}

void
LaunchAblation(const std::vector<models::DgnnModel*>& model_list,
               core::BenchJsonWriter& json)
{
    bench::Banner(
        "Launch-overhead ablation: captured profile, fused vs unfused",
        "Fig 6/7 launch-bound cells — kernel launch + submit per batch");

    const sim::DeviceSpec gpu = sim::DeviceSpec::RtxA6000();
    const sim::RuntimeConfig runtime_defaults;
    const double per_launch_us =
        gpu.launch_overhead_us + runtime_defaults.submit_overhead_us;

    core::TableWriter table({"model", "batch", "launches", "fused launches",
                             "launch+submit us", "fused us", "reduction"});
    for (models::DgnnModel* model : model_list) {
        serve::ModelSession session(*model, sim::ExecMode::kHybrid,
                                    kNumNeighbors);
        serve::ModelSession fused_session(*model, sim::ExecMode::kHybrid,
                                          kNumNeighbors, {},
                                          /*fuse_kernels=*/true);
        for (const int64_t batch : {int64_t{4}, int64_t{64}, int64_t{256}}) {
            const serve::BatchProfile& unfused = session.Profile(batch);
            const serve::BatchProfile& fused = fused_session.Profile(batch);
            const auto launches = static_cast<int64_t>(unfused.kernels.size());
            const auto fused_launches =
                static_cast<int64_t>(fused.kernels.size());
            const double unfused_us =
                static_cast<double>(launches) * per_launch_us;
            const double fused_us =
                static_cast<double>(fused_launches) * per_launch_us;
            const double reduction = unfused_us / fused_us;

            table.AddRow({model->Name(), std::to_string(batch),
                          std::to_string(launches),
                          std::to_string(fused_launches),
                          core::TableWriter::Num(unfused_us, 1),
                          core::TableWriter::Num(fused_us, 1),
                          core::TableWriter::Num(reduction, 2) + "x"});

            json.BeginRecord();
            json.Field("table", "launch_ablation");
            json.Field("model", model->Name());
            json.Field("batch", std::to_string(batch));
            json.Field("launches", launches);
            json.Field("fused_launches", fused_launches);
            json.Field("launch_overhead_us", unfused_us, 1);
            json.Field("fused_launch_overhead_us", fused_us, 1);
            json.Field("launch_reduction", reduction, 2);
        }
    }
    std::cout << table.ToString();
}

void
SaturationSweep(const std::vector<models::DgnnModel*>& model_list, int64_t n,
                core::BenchJsonWriter& json)
{
    bench::Banner("Placements at saturation: max QPS under a 10 ms p99 SLO "
                  "(serial, uncached)",
                  "the Fig 7 CPU vs GPU comparison, under open-loop load");

    std::vector<std::string> header = {"model", "placement"};
    for (const uint64_t seed : kSeeds) {
        header.push_back("seed " + std::to_string(seed));
    }
    header.insert(header.end(), {"median", "min-max", "spread"});
    core::TableWriter table(std::move(header));
    const auto make_policy = [] {
        return std::make_unique<serve::TimeoutPolicy>(kServeBatch,
                                                      kBatchTimeoutUs);
    };
    serve::ServerOptions options;
    options.executor = serve::ExecutorKind::kSerial;

    for (models::DgnnModel* model : model_list) {
        for (const Placement& placement : kPlacements) {
            serve::ModelSession session(*model, placement.mode, kNumNeighbors,
                                        {}, placement.fuse_kernels);
            std::vector<std::string> row = {model->Name(), placement.name};
            std::vector<double> qps;
            for (const uint64_t seed : kSeeds) {
                const serve::QpsSearchResult search = serve::FindMaxQpsUnderSlo(
                    session, make_policy, options, kSloUs, n, seed, kFloorQps);
                qps.push_back(search.max_qps);
                row.push_back(core::TableWriter::Num(search.max_qps, 0));

                json.BeginRecord();
                json.Field("table", "saturation");
                json.Field("model", model->Name());
                json.Field("placement", placement.name);
                json.Field("seed", std::to_string(seed));
                json.Field("requests", n);
                json.Field("max_qps", search.max_qps, 1);
                json.Field("p99_ms", search.p99_us / 1000.0, 3);
            }
            std::sort(qps.begin(), qps.end());
            const double median = qps[qps.size() / 2];
            const double spread =
                median > 0.0 ? (qps.back() - qps.front()) / median : 0.0;
            row.push_back(core::TableWriter::Num(median, 0));
            row.push_back(core::TableWriter::Num(qps.front(), 0) + "-" +
                          core::TableWriter::Num(qps.back(), 0));
            row.push_back(core::TableWriter::Num(spread, 2));
            table.AddRow(row);
        }
    }
    std::cout << table.ToString();
}

}  // namespace
}  // namespace dgnn

int
main()
{
    using namespace dgnn;

    const int64_t n = RequestCount();
    std::cout << "DGNN kernel fusion (simulated Xeon Gold 6226R vs RTX A6000)\n"
              << "Registered-chain kernel fusion; placements compared at "
                 "saturation: "
              << n << " requests per search step, timeout(" << kServeBatch
              << "," << static_cast<int64_t>(kBatchTimeoutUs) / 1000
              << "ms) batching, floor " << static_cast<int64_t>(kFloorQps)
              << " qps, seeds 1013-1015\n";

    const auto dataset = data::GenerateInteractions(FusionDatasetSpec());

    models::Tgn tgn(dataset, models::TgnConfig{172, 64, 2, 11});
    models::Tgat tgat(dataset, models::TgatConfig{});
    models::Jodie jodie(dataset, models::JodieConfig{});
    const std::vector<models::DgnnModel*> model_list = {&tgn, &tgat, &jodie};

    core::BenchJsonWriter json("fusion_dispatch");
    PrintCatalog();
    LaunchAblation(model_list, json);
    SaturationSweep(model_list, n, json);

    json.WriteFile(JsonPath());
    std::cout << "\njson: BENCH_fusion_dispatch.json (" << json.RecordCount()
              << " records)\n";
    return 0;
}
