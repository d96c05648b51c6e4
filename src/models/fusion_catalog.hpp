#pragma once

/// @file
/// Registered fusion plans for the hot per-model kernel chains. Each plan
/// names the collapsed launch and the exact unfused kernels (in order) it
/// replaces; models build the concrete FusedKernelDesc per batch through
/// MakeRegisteredChain, which validates the parts against the registry so a
/// model refactor cannot silently fuse a different chain than the one the
/// docs and bench reason about.
///
/// The chains (see DESIGN.md §13 for the cost derivations):
///
///   TGN    tgn_memory_fused   aggregate_last + gru_memory_update
///          tgn_embed_fused    temporal_attention + edge_decoder
///   TGAT   tgat_encode_fused  time_encoding + feature_projection
///          tgat_attention_fused  attention + merge_ffn  (per layer)
///   JODIE  jodie_tbatch_fused project_user + predict_item + 2x rnn_update
///                             (per t-batch: 4 launches -> 1)

#include <cstdint>
#include <string>
#include <vector>

#include "sim/fusion.hpp"

namespace dgnn::models {

/// One registered fusion opportunity: a named chain of kernels in one model.
struct FusionPlan {
    /// Model the chain belongs to ("TGN", "TGAT", "JODIE").
    std::string model;

    /// Collapsed launch name, e.g. "tgn_memory_fused".
    std::string chain;

    /// Unfused kernel names, in execution order.
    std::vector<std::string> parts;
};

/// The full registry, fixed order (TGN, TGAT, JODIE).
[[nodiscard]] const std::vector<FusionPlan>& FusionCatalog();

/// Lookup by chain name; nullptr when not registered.
[[nodiscard]] const FusionPlan* FindFusionPlan(const std::string& chain);

/// Build the FusedKernelDesc for a registered chain, checking that the given
/// parts match the plan's kernel names and order. JODIE's recurrent cells
/// repeat a part name; the plan lists each repetition explicitly.
[[nodiscard]] sim::FusedKernelDesc MakeRegisteredChain(
    const std::string& chain, std::vector<sim::KernelDesc> parts,
    std::vector<int64_t> intermediate_bytes);

}  // namespace dgnn::models
