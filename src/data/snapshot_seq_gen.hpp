#pragma once

/// @file
/// Synthetic discrete-time snapshot sequences standing in for the paper's
/// EvolveGCN datasets: Stochastic Block Model sequences, Bitcoin-Alpha-like
/// signed trust graphs, and Reddit-Hyperlink-like community graphs. Adjacent
/// snapshots share a sliding-window overlap fraction, which is the property
/// the delta-transfer optimization (paper 5.2.2) exploits.

#include <cstdint>
#include <string>

#include "graph/snapshot_sequence.hpp"
#include "tensor/tensor.hpp"

namespace dgnn::data {

/// Parameters of the snapshot-sequence generator.
struct SnapshotSpec {
    std::string name = "synthetic";
    int64_t num_nodes = 1000;
    int64_t num_steps = 16;
    int64_t edges_per_step = 8000;
    int64_t node_feature_dim = 64;
    int64_t num_blocks = 10;       ///< SBM communities
    double intra_block_prob = 0.8; ///< edge stays inside its community
    double overlap = 0.6;          ///< fraction of edges carried to next step
    bool signed_weights = false;   ///< Bitcoin-style +/- trust weights
    uint64_t seed = 7;

    /// IBM EvolveGCN SBM benchmark-like sequence.
    static SnapshotSpec SbmLike();

    /// Bitcoin-Alpha-like signed trust network (small, sparse).
    static SnapshotSpec BitcoinAlphaLike();

    /// Reddit-Hyperlink-like community graph (larger snapshots).
    static SnapshotSpec RedditHyperlinkLike();
};

/// A generated DTDG: snapshots + per-node features.
struct SnapshotDataset {
    SnapshotSpec spec;
    graph::SnapshotSequence sequence;
    Tensor node_features;  ///< [num_nodes, node_feature_dim]
};

/// Rejects a spec the generator cannot honour: a dgnn::Error naming the
/// offending field, raised before anything is allocated.
void ValidateSnapshotSeqSpec(const SnapshotSpec& spec);

/// Generates the dataset deterministically from the spec (validated first).
SnapshotDataset GenerateSnapshots(const SnapshotSpec& spec);

}  // namespace dgnn::data
