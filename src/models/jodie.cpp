#include "models/jodie.hpp"

#include <algorithm>

#include "graph/tbatch.hpp"
#include "models/fusion_catalog.hpp"
#include "tensor/ops.hpp"

namespace dgnn::models {

namespace {

/// Hazard resource of the host embedding store the uncached chunks read
/// from and return to: chunk i's D2H must land before chunk i+1's H2D.
constexpr char kHostEmbeddings[] = "jodie_host_embeddings";

}  // namespace

Jodie::Jodie(const data::InteractionDataset& dataset, JodieConfig config)
    : dataset_(dataset), config_(config)
{
    Rng rng(config_.seed);
    const int64_t d = config_.embed_dim;
    user_embeddings_ = std::make_unique<nn::Embedding>(dataset_.spec.num_users, d, rng);
    item_embeddings_ = std::make_unique<nn::Embedding>(dataset_.spec.num_items, d, rng);
    user_last_update_.assign(static_cast<size_t>(dataset_.spec.num_users), 0.0);
    // User RNN consumes the interacted item's embedding; item RNN the user's.
    user_rnn_ = std::make_unique<nn::RnnCell>(d, d, rng);
    item_rnn_ = std::make_unique<nn::RnnCell>(d, d, rng);
    item_predictor_ = std::make_unique<nn::Linear>(d, d, rng);
    projection_w_ = init::Uniform(Shape({d}), rng, -0.01f, 0.01f);
}

int64_t
Jodie::WeightBytes() const
{
    return user_rnn_->ParameterBytes() + item_rnn_->ParameterBytes() +
           item_predictor_->ParameterBytes() + projection_w_.NumBytes();
}

RunResult
Jodie::RunInference(sim::Runtime& runtime, const RunConfig& run)
{
    ValidateRunConfig(runtime, run);
    core::Profiler profiler(runtime);
    const int64_t d = config_.embed_dim;
    // Device-resident embedding cache keyed by global node id (users and
    // items share one id space). Hits keep rows on the device across
    // chunks; updates mark them dirty and write back on eviction/flush.
    cache::DeviceCache embedding_cache =
        MakeRunCache(runtime, run, CacheRowBytes());

    sim::SimTime warm_one = 0.0;
    sim::SimTime warm_run = 0.0;
    if (run.include_warmup) {
        warm_one = runtime.EnsureWarm(WeightBytes()).TotalUs();
        warm_run = runtime.RunAllocWarmup(run.batch_size * d * 4).TotalUs();
    }

    sim::DeviceBuffer weights = runtime.AllocDevice(WeightBytes(), "jodie_weights");
    // The cache's device footprint, capped at the full embedding tables:
    // cached capacity is not free device memory.
    sim::DeviceBuffer cache_buf;
    if (embedding_cache.Enabled()) {
        cache_buf = runtime.AllocDevice(
            std::min(embedding_cache.CapacityRows(), dataset_.NumNodes()) *
                CacheRowBytes(),
            "jodie_embedding_cache");
    }

    runtime.ResetMeasurementWindow();

    const int64_t total_events =
        run.max_events > 0 ? std::min(run.max_events, dataset_.stream.NumEvents())
                           : dataset_.stream.NumEvents();
    const int64_t bs = run.batch_size;
    Checksum checksum;
    int64_t iterations = 0;
    // Cached runs keep eager issue: their gathers write evictions back
    // synchronously, so there is no single copy each way to stage.
    sim::StagingPipeline staging(
        runtime, embedding_cache.Enabled() ? Schedule::kEager : run.schedule);

    for (int64_t begin = 0; begin < total_events; begin += bs) {
        const int64_t end = std::min(begin + bs, total_events);
        const int64_t chunk_events = end - begin;
        const sim::SlotResources& slot =
            AdmitBatch(staging, profiler, "Update Embedding");

        // Unique endpoints of the chunk, in event order (cache keys).
        std::vector<int64_t> chunk_nodes;
        if (embedding_cache.Enabled()) {
            for (int64_t i = begin; i < end; ++i) {
                const auto& e = dataset_.stream.Event(i);
                chunk_nodes.push_back(e.src);
                chunk_nodes.push_back(e.dst);
            }
            cache::SortUnique(chunk_nodes);
        }

        // --- Load Embedding: t-batch creation (CPU) + embeddings H2D.
        const int64_t chunk_bytes = 2 * chunk_events * d * 4;
        std::vector<graph::TBatch> tbatches;
        // The chunk's device staging area: freed at the end of the chunk
        // when eager, held until the chunk's done-event when staged.
        sim::DeviceBuffer batch_buf;
        {
            core::ProfileScope scope(profiler, "Load Embedding");
            {
                sim::MaybeAccess access(runtime,
                                        [&] { return slot.HostBuildAccess(); });
                ChargeBatchOverhead(runtime);
                if (config_.use_tbatch) {
                    tbatches = graph::BuildTBatches(dataset_.stream, begin, end);
                } else {
                    // Ablation: one event per "batch" — fully sequential RNNs.
                    tbatches.resize(static_cast<size_t>(end - begin));
                    for (int64_t i = begin; i < end; ++i) {
                        tbatches[static_cast<size_t>(i - begin)].event_indices = {i};
                    }
                }
                sim::KernelDesc build;
                build.name = "tbatch_build";
                build.flops = chunk_events * 8;
                build.bytes = chunk_events * 128;  // hash-map traffic per event
                build.parallel_items = 1;
                build.irregular = true;
                runtime.RunHost(build);
            }
            // Embedding rows for every event endpoint. Cached: unique rows
            // come through the device cache (hits stay resident across
            // chunks — LastFM-style streams revisit the same users/items).
            // Uncached: every row is read from the host embedding store the
            // previous chunk returned to (staged: as one pinned copy fenced
            // into the compute stream).
            if (embedding_cache.Enabled()) {
                // Every gathered row is rewritten by the RNN updates:
                // dirty at gather time, so same-chunk evictions still owe
                // their write-back.
                const cache::GatherResult g =
                    embedding_cache.Gather(chunk_nodes, /*mark_dirty=*/true);
                runtime.GatherToDevice(g.hit_rows, g.miss_rows, CacheRowBytes(),
                                       "jodie_embeddings");
                runtime.WriteBackToHost(g.writeback_rows, CacheRowBytes(),
                                       "jodie_embeddings");
            } else {
                auto input_access = [&] {
                    sim::AccessSet access = slot.InputAccess();
                    access.reads.push_back(kHostEmbeddings);
                    return access;
                };
                staging.StageInputs(chunk_bytes, "jodie_embeddings_h2d",
                                    input_access);
            }
            batch_buf = runtime.AllocDevice(chunk_bytes, "jodie_chunk");
        }

        // The t-batch kernels; the result copy below declares its own.
        sim::MaybeAccess kernels(runtime, [&] { return slot.KernelAccess(); });

        // --- Per t-batch sequential processing (mutually recursive RNNs).
        for (const graph::TBatch& tb : tbatches) {
            const int64_t m = static_cast<int64_t>(tb.event_indices.size());
            const int64_t cap =
                run.numeric_cap > 0 ? std::min<int64_t>(run.numeric_cap, m) : m;

            // Gather the real rows for the numeric path.
            std::vector<int64_t> users;
            std::vector<int64_t> items;
            std::vector<float> deltas;
            for (int64_t i = 0; i < cap; ++i) {
                const auto& e =
                    dataset_.stream.Event(tb.event_indices[static_cast<size_t>(i)]);
                users.push_back(e.src);
                items.push_back(e.dst - dataset_.ItemOffset());
                deltas.push_back(static_cast<float>(
                    e.time - user_last_update_[static_cast<size_t>(e.src)]));
            }
            Tensor u = user_embeddings_->Lookup(users);
            Tensor v = item_embeddings_->Lookup(items);

            // Hot-chain fusion (run.fuse_kernels): the whole t-batch —
            // project + predict + both RNN updates — collapses into ONE
            // launch (jodie_tbatch_fused) issued in the update phase, so
            // the early descriptors outlive their phase scopes.
            sim::KernelDesc proj;
            sim::KernelDesc pred;

            // [Project User Embedding]: u' = (1 + Δt*w) ⊙ u.
            Tensor projected(u.GetShape());
            {
                core::ProfileScope scope(profiler, "Project User Embedding");
                for (int64_t i = 0; i < cap; ++i) {
                    for (int64_t j = 0; j < d; ++j) {
                        projected.At(i, j) =
                            (1.0f + deltas[static_cast<size_t>(i)] *
                                        projection_w_.At(j)) *
                            u.At(i, j);
                    }
                }
                proj.name = "project_user";
                proj.flops = 3 * m * d;
                proj.bytes = 2 * m * d * 4;
                proj.parallel_items = m * d;
                if (!run.fuse_kernels) {
                    runtime.Launch(proj);
                }
            }

            // [Predict Item Embedding]: linear head on projected users.
            Tensor predicted;
            {
                core::ProfileScope scope(profiler, "Predict Item Embedding");
                predicted = item_predictor_->Forward(projected);
                pred.name = "predict_item";
                pred.flops = item_predictor_->ForwardFlops(m);
                pred.bytes = 2 * m * d * 4 + item_predictor_->ParameterBytes();
                pred.parallel_items = m * d;
                if (!run.fuse_kernels) {
                    runtime.Launch(pred);
                }
            }

            // [Update Embedding]: mutually-recursive user and item RNNs.
            {
                core::ProfileScope scope(profiler, "Update Embedding");
                const Tensor new_u = user_rnn_->Forward(v, u);
                const Tensor new_v = item_rnn_->Forward(u, v);
                user_embeddings_->Update(users, new_u);
                item_embeddings_->Update(items, new_v);
                checksum.Add(predicted);
                checksum.Add(new_u);

                std::vector<sim::KernelDesc> rnns;
                for (const nn::RnnCell* cell : {user_rnn_.get(), item_rnn_.get()}) {
                    sim::KernelDesc rnn;
                    rnn.name = "rnn_update";
                    rnn.flops = cell->ForwardFlops(m);
                    rnn.bytes = 3 * m * d * 4 + cell->ParameterBytes();
                    rnn.parallel_items = m * d;
                    rnns.push_back(rnn);
                }
                if (run.fuse_kernels) {
                    // The whole t-batch as one launch: the projected user
                    // rows feed the predictor on-chip; the RNNs read the
                    // already-gathered u/v rows (boundary bytes 0). Tiny
                    // t-batches are exactly the paper's launch-bound cell:
                    // 4 launches -> 1.
                    runtime.Launch(sim::Collapse(MakeRegisteredChain(
                        "jodie_tbatch_fused", {proj, pred, rnns[0], rnns[1]},
                        {m * d * 4, 0, 0})));
                } else {
                    runtime.Launch(rnns[0]);
                    runtime.Launch(rnns[1]);
                }
                // The next t-batch depends on these updates. The compute
                // stream already orders them; the eager schedule also
                // stalls the host here.
                staging.Barrier();
            }

            for (int64_t i = 0; i < cap; ++i) {
                const auto& e =
                    dataset_.stream.Event(tb.event_indices[static_cast<size_t>(i)]);
                user_last_update_[static_cast<size_t>(e.src)] = e.time;
            }
        }

        // --- Updated embeddings D2H (Fig 5a final step). Cached: the
        // updated rows stay device-resident (marked dirty at gather time)
        // and write back only on eviction or the end-of-run flush.
        if (!embedding_cache.Enabled()) {
            core::ProfileScope scope(profiler, "Update Embedding");
            auto result_access = [&] {
                sim::AccessSet access = slot.ResultAccess();
                access.writes.push_back(kHostEmbeddings);
                return access;
            };
            staging.Retire(chunk_bytes, "jodie_embeddings_d2h",
                           std::move(batch_buf), result_access);
        }
        ++iterations;
    }
    DrainBatches(staging, profiler, "Update Embedding");

    if (embedding_cache.Enabled()) {
        core::ProfileScope scope(profiler, "Update Embedding");
        runtime.WriteBackToHost(embedding_cache.FlushDirty(), CacheRowBytes(),
                                "jodie_embeddings_flush");
    }

    RunResult result =
        CollectRunStats(runtime, Name(), dataset_.spec.name, iterations);
    result.warmup_one_time_us = warm_one;
    result.warmup_per_run_us = warm_run;
    result.output_checksum = checksum.Value();
    result.cache_stats = embedding_cache.Stats();
    return result;
}

}  // namespace dgnn::models
