// Traffic forecasting with ASTGNN on a PeMS-like sensor network: run the
// encoder-decoder across batch sizes, watch GPU utilization climb toward
// saturation (the Fig 9 effect), and read the utilization timeline.

#include <iomanip>
#include <iostream>

#include "core/trace_analysis.hpp"
#include "data/traffic_gen.hpp"
#include "models/astgnn.hpp"

int
main()
{
    using namespace dgnn;

    data::TrafficSpec spec = data::TrafficSpec::PemsLike();
    const data::TrafficDataset dataset = data::GenerateTraffic(spec);
    std::cout << "PeMS-like network: " << spec.num_sensors << " sensors, "
              << spec.num_timesteps << " five-minute bins, history "
              << spec.history_len << " -> horizon " << spec.horizon << "\n";

    for (const int64_t batch : {4, 16, 64}) {
        models::Astgnn model(dataset, models::AstgnnConfig{});
        sim::Runtime runtime = models::MakeRuntime(sim::ExecMode::kHybrid);
        models::RunConfig run;
        run.batch_size = batch;
        run.max_events = 128;
        // The paper's profiled schedule: the phase shares below are the
        // measured eager-PyTorch bottleneck.
        run.schedule = models::Schedule::kEager;
        const models::RunResult r = model.RunInference(runtime, run);
        std::cout << "\nbatch " << batch << ": total "
                  << sim::FormatDuration(r.total_us) << ", GPU utilization "
                  << std::fixed << std::setprecision(1)
                  << r.compute_utilization_pct << " %\n";
        std::cout << "  temporal attention "
                  << sim::FormatDuration(r.breakdown.TimeUs("Temporal Attention"))
                  << " vs spatial GCN "
                  << sim::FormatDuration(
                         r.breakdown.TimeUs("Spatial-attention GCN"))
                  << " (paper: temporal > 3x spatial)\n";

        // Coarse utilization timeline over the run (8 bins).
        const auto timeline = core::UtilizationTimeline(
            runtime.GetTrace(), runtime.Gpu().Name(), runtime.MeasureStart(),
            runtime.Now(), (runtime.Now() - runtime.MeasureStart()) / 8.0);
        std::cout << "  utilization timeline:";
        for (const auto& s : timeline) {
            std::cout << " " << std::setprecision(0) << s.utilization_pct << "%";
        }
        std::cout << "\n";
    }

    std::cout << "\nNote: larger batches saturate the GPU during encode and "
                 "delay the next iteration (Fig 9 of the paper).\n";
    return 0;
}
