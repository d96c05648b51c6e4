#pragma once

/// @file
/// Synthetic temporal-interaction datasets standing in for the paper's
/// Wikipedia / Reddit / LastFM streams (SNAP JODIE datasets): bipartite
/// user-item interaction streams with power-law item popularity, repeating
/// user sessions, and per-event edge features. The generator is matched on
/// the structural statistics that drive the hardware bottlenecks: event
/// count, node counts, degree skew, and feature width.

#include <cstdint>
#include <string>

#include "graph/event_stream.hpp"
#include "tensor/tensor.hpp"

namespace dgnn::data {

/// Parameters of the bipartite interaction generator.
struct InteractionSpec {
    std::string name = "synthetic";
    int64_t num_users = 1000;
    int64_t num_items = 1000;
    int64_t num_events = 20000;
    int64_t edge_feature_dim = 172;  ///< Wikipedia/Reddit use 172-d LIWC features
    double popularity_alpha = 2.0;   ///< skew exponent for item choice
    double repeat_prob = 0.7;        ///< chance a user revisits a recent item
    double mean_gap = 1.0;           ///< mean inter-event time
    uint64_t seed = 1;

    /// Wikipedia-like: ~8K users, ~1K pages, dense repeat behaviour.
    static InteractionSpec WikipediaLike(int64_t num_events = 20000);

    /// Reddit-like: ~10K users, ~1K subreddits, larger graph, heavier tail.
    static InteractionSpec RedditLike(int64_t num_events = 20000);

    /// LastFM-like: ~1K users, ~1K artists, long histories, weak features.
    static InteractionSpec LastFmLike(int64_t num_events = 20000);
};

/// A generated interaction dataset: stream + features.
struct InteractionDataset {
    InteractionSpec spec;
    graph::EventStream stream;     ///< node ids: users [0, U), items [U, U+I)
    Tensor edge_features;          ///< [num_events, edge_feature_dim]
    Tensor node_features;          ///< [U+I, edge_feature_dim]

    int64_t NumNodes() const { return stream.NumNodes(); }

    /// Item node id offset (items are numbered after users).
    int64_t ItemOffset() const { return spec.num_users; }
};

/// Rejects a spec the generator cannot honour: a dgnn::Error naming the
/// offending field, raised before anything is allocated.
void ValidateInteractionSpec(const InteractionSpec& spec);

/// Generates the dataset deterministically from the spec (validated first).
InteractionDataset GenerateInteractions(const InteractionSpec& spec);

}  // namespace dgnn::data
