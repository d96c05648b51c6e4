#pragma once

/// @file
/// EvolveGCN (Pareja et al., AAAI'20), -O and -H variants, inference path as
/// profiled by the paper (Figs 2a, 7i-j, 10):
///
///   per snapshot (sequential — weights evolve across time steps):
///     [Memory Copy]  snapshot CSR + node features H2D (the paper notes
///                    EvolveGCN reloads each snapshot rather than updating
///                    on-chip, so under the eager schedule this repeats
///                    every step; the staged schedule sends only the edges
///                    that changed, paper section 5.2.2)
///     [RNN]          GRU evolves each GCN layer's weight matrix
///     [top-k]        (-H only) node-embedding top-k selection to match the
///                    weight matrix dimensions
///     [GNN]          two GCN layers with the evolved weights
///     [Memory Copy]  output embeddings D2H
///
/// The RNN -> GNN chain inside a step and the step -> step chain are the
/// temporal-dependency bottleneck (GPU utilization < 1 %). The staged
/// schedule (RunConfig::schedule) keeps two steps in flight instead of
/// synchronizing inside every step (paper section 5.2.1 / Fig 10).

#include <memory>
#include <vector>

#include "data/snapshot_seq_gen.hpp"
#include "models/dgnn_model.hpp"

namespace dgnn::models {

/// EvolveGCN variant selector.
enum class EvolveGcnVariant {
    kO,  ///< weights-only recurrence
    kH,  ///< recurrence driven by top-k node embeddings
};

const char* ToString(EvolveGcnVariant variant);

/// EvolveGCN hyper-parameters.
struct EvolveGcnConfig {
    EvolveGcnVariant variant = EvolveGcnVariant::kO;
    int64_t hidden_dim = 64;
    uint64_t seed = 17;
};

/// EvolveGCN model bound to one snapshot-sequence dataset.
class EvolveGcn : public DgnnModel {
  public:
    EvolveGcn(const data::SnapshotDataset& dataset, EvolveGcnConfig config);

    std::string Name() const override;

    RunResult RunInference(sim::Runtime& runtime, const RunConfig& config) override;

    int64_t WeightBytes() const;

    /// Current evolved weight of layer @p layer (tests assert evolution).
    const Tensor& LayerWeight(int64_t layer) const;

  private:
    /// Evolves layer weights for one step (top-k selection first for -H).
    void EvolveWeights(NnExecutor& exec, core::Profiler& profiler,
                       sim::StagingPipeline& staging,
                       const Tensor& node_embeddings);

    /// Staged H2D bytes of step @p t: the whole snapshot plus the node
    /// features at step 0, afterwards only the edges that changed.
    int64_t DeltaBytes(int64_t t) const;

    const data::SnapshotDataset& dataset_;
    EvolveGcnConfig config_;
    std::vector<int64_t> layer_in_;
    std::vector<int64_t> layer_out_;
    std::vector<Tensor> weights_;  ///< evolved [out, in] per layer
    std::vector<std::unique_ptr<nn::GruCell>> weight_rnn_;
    std::vector<std::unique_ptr<nn::GcnLayer>> gcn_layers_;
    std::vector<Tensor> topk_scorer_;  ///< -H: per-layer score vector [in]
};

/// Converts a snapshot to a row-normalized CSR for GCN aggregation.
nn::SparseMatrix ToNormalizedCsr(const graph::GraphSnapshot& snapshot);

}  // namespace dgnn::models
