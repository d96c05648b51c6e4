#pragma once

/// @file
/// TGAT — Temporal Graph Attention Network (Xu et al., ICLR'20), inference
/// path as profiled by the paper (Figs 2b, 6a-b, 7e-h, 8a):
///
///   per mini-batch of events:
///     [Sampling (CPU)]   temporal neighbor sampling with bisection + sort
///     [Memory Copy]      gathered features + time deltas H2D
///     [Time Encoding]    Bochner harmonic encoding of relative times
///     [Attention Layer]  feature projection + per-target attention + merge
///     [Cuda Synchronization] tail sync
///     [Memory Copy]      embeddings D2H
///
/// The CPU-side sampling is the dominant cost (workload-imbalance
/// bottleneck); attention work grows with the sampled-neighbor count, which
/// drives the GPU-utilization trend of Fig 6(a).
///
/// The staged hybrid schedule without a device cache moves the sampling to
/// the device: the temporal adjacency is copied once before the measured
/// window, only the targets' ids and times cross per batch, and each hop
/// samples as one kernel behind the input fence, still charged to
/// [Sampling (CPU)] so the phases keep their paper names.

#include <memory>
#include <vector>

#include "data/temporal_interactions.hpp"
#include "models/dgnn_model.hpp"

namespace dgnn::models {

/// TGAT hyper-parameters.
struct TgatConfig {
    int64_t embed_dim = 64;
    int64_t num_heads = 2;
    int64_t num_layers = 1;          ///< attention hops (2 enables recursion)
    int64_t second_hop_neighbors = 10;  ///< neighbors per node at layer >= 2
    uint64_t seed = 7;
};

/// TGAT model bound to one interaction dataset.
class Tgat : public DgnnModel {
  public:
    Tgat(const data::InteractionDataset& dataset, TgatConfig config);

    std::string Name() const override { return "TGAT"; }

    RunResult RunInference(sim::Runtime& runtime, const RunConfig& config) override;

    /// Pure host-math embedding of one node at one time (used by tests).
    Tensor ComputeEmbedding(graph::TemporalNeighborSampler& sampler, int64_t node,
                            double time, int64_t num_neighbors, int64_t layer) const;

    int64_t WeightBytes() const;

    /// One node-feature row — read-only, so cached rows never write back.
    /// With the cache enabled the feature table is NOT assumed resident;
    /// the capacity sweep spans "nothing fits" to "the table fits".
    int64_t CacheRowBytes() const override
    {
        return dataset_.spec.edge_feature_dim * 4;
    }

  private:
    const data::InteractionDataset& dataset_;
    TgatConfig config_;
    graph::TemporalAdjacency adjacency_;
    std::unique_ptr<nn::Linear> feature_proj_;
    std::unique_ptr<nn::BochnerTimeEncoder> time_encoder_;
    std::vector<std::unique_ptr<nn::MultiHeadAttention>> attention_layers_;
    std::vector<std::unique_ptr<nn::Linear>> merge_layers_;
};

}  // namespace dgnn::models
