#pragma once

/// @file
/// MolDGNN (Ashby & Bilbrey, 2021), inference path as profiled by the paper
/// (Figs 3c, 5c, 6d, 7b; Table 2):
///
///   per batch of molecular-graph frames:
///     [Memory Copy]  all adjacency matrices of the batch concatenated on
///                    CPU and moved H2D (the dominant cost: 80-90 %)
///     [GCN]          graph convolution per frame (tiny: 19-atom graphs)
///     [LSTM]         sequential LSTM over the frame sequence
///     [FFN]          MLP predicting the next adjacency matrix
///     [Memory Copy]  predicted adjacency matrices D2H
///
/// Compute per frame is tiny while the adjacency traffic is large, so the
/// model is data-movement-bound at every batch size (Fig 7b) under the
/// eager schedule, which copies every frame separately each way. The
/// staged schedule (RunConfig::schedule) moves each batch as one pinned
/// copy each way with two batches in flight (DESIGN.md §14).

#include <memory>
#include <vector>

#include "data/molecular_gen.hpp"
#include "models/dgnn_model.hpp"

namespace dgnn::models {

/// MolDGNN hyper-parameters.
struct MolDgnnConfig {
    int64_t gcn_dim = 32;
    int64_t lstm_dim = 64;
    uint64_t seed = 19;
};

/// MolDGNN model bound to one molecular trajectory.
class MolDgnn : public DgnnModel {
  public:
    MolDgnn(const data::MolecularDataset& dataset, MolDgnnConfig config);

    std::string Name() const override { return "MolDGNN"; }

    RunResult RunInference(sim::Runtime& runtime, const RunConfig& config) override;

    int64_t WeightBytes() const;

  private:
    const data::MolecularDataset& dataset_;
    MolDgnnConfig config_;
    std::unique_ptr<nn::GcnLayer> gcn_;
    std::unique_ptr<nn::LstmCell> lstm_;
    std::unique_ptr<nn::Mlp> ffn_;
};

/// Dense adjacency [n, n] -> row-normalized CSR.
nn::SparseMatrix DenseToNormalizedCsr(const Tensor& adjacency);

}  // namespace dgnn::models
