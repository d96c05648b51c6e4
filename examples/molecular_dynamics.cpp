// Molecular dynamics with MolDGNN on an ISO17-like trajectory: predict
// adjacency matrices frame by frame, and observe the paper's data-movement
// bottleneck — the adjacency shuttling between CPU and GPU dwarfs compute.

#include <iostream>

#include "core/bottleneck.hpp"
#include "data/molecular_gen.hpp"
#include "models/moldgnn.hpp"

int
main()
{
    using namespace dgnn;

    data::MolecularSpec spec = data::MolecularSpec::Iso17Like();
    spec.num_frames = 2048;
    const data::MolecularDataset dataset = data::GenerateMolecular(spec);

    // How dynamic is the molecular graph?
    int64_t bond_changes = 0;
    for (int64_t f = 1; f < dataset.NumFrames(); ++f) {
        for (int64_t i = 0; i < spec.num_atoms * spec.num_atoms; ++i) {
            bond_changes += dataset.adjacency[static_cast<size_t>(f)].At(i) !=
                            dataset.adjacency[static_cast<size_t>(f - 1)].At(i);
        }
    }
    std::cout << "ISO17-like trajectory: " << dataset.NumFrames() << " frames of "
              << spec.num_atoms << " atoms, " << bond_changes
              << " bond make/break events across the trajectory\n";

    for (const int64_t batch : {32, 512}) {
        models::MolDgnn model(dataset, models::MolDgnnConfig{});
        sim::Runtime runtime = models::MakeRuntime(sim::ExecMode::kHybrid);
        models::RunConfig run;
        run.batch_size = batch;
        run.numeric_cap = 8;
        // The paper's profiled schedule: per-frame pageable copies are the
        // movement bottleneck this example reports.
        run.schedule = models::Schedule::kEager;
        const models::RunResult r = model.RunInference(runtime, run);

        std::cout << "\nbatch " << batch << ": total "
                  << sim::FormatDuration(r.total_us) << "\n"
                  << "  memory copy share: "
                  << r.breakdown.SharePct("Memory Copy")
                  << " % (paper: 80-90% at every batch size)\n"
                  << "  GPU utilization: " << r.compute_utilization_pct
                  << " % (paper: < 1%)\n"
                  << "  bytes moved: " << r.h2d_bytes / 1024 / 1024 << " MiB H2D, "
                  << r.d2h_bytes / 1024 / 1024 << " MiB D2H in "
                  << r.transfer_count << " transfers\n";

        const core::DataMovementReport dm = core::AnalyzeDataMovement(runtime);
        std::cout << "  data-movement bottleneck severity: "
                  << core::ToString(dm.severity) << "\n";
    }
    return 0;
}
