// Social recommendation with JODIE: model a user/item interaction stream
// (the paper's motivating social-network scenario), build t-batches, run
// inference on CPU and on the simulated GPU, and inspect how t-batching
// exposes parallelism — and why the RNN chain still caps GPU utilization.

#include <iostream>

#include "data/temporal_interactions.hpp"
#include "graph/tbatch.hpp"
#include "models/jodie.hpp"

int
main()
{
    using namespace dgnn;

    data::InteractionSpec spec = data::InteractionSpec::LastFmLike(6000);
    const data::InteractionDataset dataset = data::GenerateInteractions(spec);
    std::cout << "LastFM-like stream: " << dataset.stream.NumEvents()
              << " listens, " << spec.num_users << " users x " << spec.num_items
              << " artists\n";

    // t-batch statistics: how much parallelism does the algorithm expose?
    const auto tbatches =
        graph::BuildTBatches(dataset.stream, 0, dataset.stream.NumEvents());
    size_t largest = 0;
    for (const auto& tb : tbatches) {
        largest = std::max(largest, tb.event_indices.size());
    }
    std::cout << "t-batching: " << dataset.stream.NumEvents() << " events -> "
              << tbatches.size() << " t-batches (largest " << largest
              << " parallel interactions, mean "
              << static_cast<double>(dataset.stream.NumEvents()) /
                     static_cast<double>(tbatches.size())
              << ")\n";
    std::cout << "t-batch invariants hold: "
              << (graph::ValidateTBatches(dataset.stream, tbatches) ? "yes" : "NO")
              << "\n";

    // Inference on both systems.
    for (const auto mode : {sim::ExecMode::kCpuOnly, sim::ExecMode::kHybrid}) {
        models::Jodie model(dataset, models::JodieConfig{});
        sim::Runtime runtime = models::MakeRuntime(mode);
        models::RunConfig run;
        run.mode = mode;
        run.batch_size = 512;
        // The profiled eager issue: the host waits out every t-batch, which
        // is the serialization the utilization line below explains.
        run.schedule = models::Schedule::kEager;
        const models::RunResult r = model.RunInference(runtime, run);
        std::cout << "\n[" << r.mode << "] total "
                  << sim::FormatDuration(r.total_us);
        if (mode == sim::ExecMode::kHybrid) {
            std::cout << ", GPU utilization " << r.compute_utilization_pct
                      << " % (the RNN chain between t-batches serializes "
                         "execution)";
        }
        std::cout << "\n";
        for (const core::BreakdownEntry& e : r.breakdown.Entries()) {
            std::cout << "  " << e.category << ": "
                      << sim::FormatDuration(e.time_us) << " (" << e.share_pct
                      << " %)\n";
        }
    }

    // The embeddings after inference are the recommendation state: the
    // predicted item embedding for a user is a real, inspectable tensor.
    models::Jodie model(dataset, models::JodieConfig{});
    sim::Runtime runtime = models::MakeRuntime(sim::ExecMode::kCpuOnly);
    models::RunConfig run;
    run.mode = sim::ExecMode::kCpuOnly;
    run.batch_size = 512;
    model.RunInference(runtime, run);
    std::cout << "\nuser 0 embedding after the stream: "
              << model.UserEmbeddings().Row(0).ToString(6) << "\n";
    return 0;
}
