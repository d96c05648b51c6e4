// The paper, end to end: run all eight DGNNs on the simulated CPU+GPU
// system and print the full four-bottleneck report for each — the
// programmatic equivalent of the paper's section 4.

#include <iostream>
#include <memory>
#include <vector>

#include "core/bottleneck.hpp"
#include "data/molecular_gen.hpp"
#include "data/snapshot_seq_gen.hpp"
#include "data/social_evolution_gen.hpp"
#include "data/temporal_interactions.hpp"
#include "data/traffic_gen.hpp"
#include "models/astgnn.hpp"
#include "models/dyrep.hpp"
#include "models/evolvegcn.hpp"
#include "models/jodie.hpp"
#include "models/ldg.hpp"
#include "models/moldgnn.hpp"
#include "models/tgat.hpp"
#include "models/tgn.hpp"

namespace {

using namespace dgnn;

void
Report(models::DgnnModel& model, const models::RunConfig& run,
       const std::string& config_label)
{
    sim::Runtime runtime = models::MakeRuntime(run.mode);
    const models::RunResult r = model.RunInference(runtime, run);
    const core::BottleneckReport report = core::AnalyzeAll(
        runtime, r.model, config_label, r.warmup_per_run_us, r.per_iteration_us);
    std::cout << report.ToText() << "\n";
}

}  // namespace

int
main()
{
    using namespace dgnn;

    models::RunConfig run;
    run.batch_size = 256;
    run.num_neighbors = 20;
    run.numeric_cap = 4;
    run.max_events = 4000;
    // The report diagnoses the paper's measured bottlenecks, so the DTDG
    // models run the profiled eager schedule.
    run.schedule = models::Schedule::kEager;

    const auto interactions =
        data::GenerateInteractions(data::InteractionSpec::WikipediaLike(8000));
    const auto snapshots = data::GenerateSnapshots(data::SnapshotSpec::SbmLike());
    const auto traffic = data::GenerateTraffic(data::TrafficSpec::PemsLike());
    auto molecular_spec = data::MolecularSpec::Iso17Like();
    molecular_spec.num_frames = 2048;
    const auto molecular = data::GenerateMolecular(molecular_spec);
    auto pp_spec = data::PointProcessSpec::SocialEvolutionLike();
    pp_spec.num_events = 1000;
    const auto point_process = data::GeneratePointProcess(pp_spec);

    std::cout << "Bottleneck analysis of all eight DGNNs on the simulated "
                 "Xeon 6226R + RTX A6000 system\n\n";

    {
        models::Jodie m(interactions, models::JodieConfig{});
        Report(m, run, "wikipedia, bs=256");
    }
    {
        models::Tgn m(interactions, models::TgnConfig{});
        Report(m, run, "wikipedia, bs=256, k=20");
    }
    {
        models::EvolveGcn m(snapshots,
                            models::EvolveGcnConfig{models::EvolveGcnVariant::kO,
                                                    64, 17});
        Report(m, run, "sbm, per-snapshot");
    }
    {
        models::EvolveGcn m(snapshots,
                            models::EvolveGcnConfig{models::EvolveGcnVariant::kH,
                                                    64, 17});
        Report(m, run, "sbm, per-snapshot");
    }
    {
        models::Tgat m(interactions, models::TgatConfig{});
        Report(m, run, "wikipedia, bs=256, k=20");
    }
    {
        models::Astgnn m(traffic, models::AstgnnConfig{});
        models::RunConfig astgnn_run = run;
        astgnn_run.batch_size = 16;
        astgnn_run.max_events = 128;
        Report(m, astgnn_run, "pems, bs=16");
    }
    {
        models::DyRep m(point_process, models::DyRepConfig{});
        Report(m, run, "social-evolution, per-event");
    }
    {
        models::Ldg m(point_process, models::LdgConfig{});
        Report(m, run, "social-evolution, per-event");
    }
    {
        models::MolDgnn m(molecular, models::MolDgnnConfig{});
        Report(m, run, "iso17, bs=256");
    }
    return 0;
}
