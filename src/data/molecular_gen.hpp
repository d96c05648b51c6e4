#pragma once

/// @file
/// Synthetic molecular-trajectory dataset standing in for ISO17 (MolDGNN's
/// workload): sequences of molecular-graph snapshots where atoms oscillate
/// and bonds form/break with distance, producing a time series of adjacency
/// matrices — the large tensors whose CPU<->GPU shuttling dominates MolDGNN.

#include <cstdint>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace dgnn::data {

/// Parameters of the molecular-trajectory generator.
struct MolecularSpec {
    std::string name = "iso17";
    int64_t num_atoms = 19;        ///< ISO17 molecules are C7O2H10 (19 atoms)
    int64_t num_frames = 512;      ///< trajectory length
    int64_t atom_feature_dim = 16; ///< one-hot element + charge channels
    double bond_threshold = 1.24;  ///< bond when distance < threshold
    uint64_t seed = 71;

    static MolecularSpec Iso17Like();
};

/// A molecular trajectory: per-frame dense adjacency + atom features.
struct MolecularDataset {
    MolecularSpec spec;
    /// Per-frame dense adjacency matrices, each [num_atoms, num_atoms].
    std::vector<Tensor> adjacency;
    Tensor atom_features;  ///< [num_atoms, atom_feature_dim]

    int64_t NumFrames() const { return static_cast<int64_t>(adjacency.size()); }

    /// Bytes of one frame's adjacency (the H2D/D2H unit of MolDGNN).
    int64_t FrameBytes() const;
};

/// Rejects a spec the generator cannot honour: a dgnn::Error naming the
/// offending field, raised before anything is allocated.
void ValidateMolecularSpec(const MolecularSpec& spec);

/// Generates the dataset deterministically from the spec (validated first).
MolecularDataset GenerateMolecular(const MolecularSpec& spec);

}  // namespace dgnn::data
