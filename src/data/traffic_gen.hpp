#pragma once

/// @file
/// Synthetic traffic-sensor dataset standing in for Caltrans PeMS (ASTGNN's
/// workload): a fixed road-sensor graph plus a [time, sensors, channels]
/// signal tensor with daily periodicity, rush-hour peaks, and spatial
/// correlation along the road graph.

#include <cstdint>
#include <string>

#include "graph/snapshot.hpp"
#include "tensor/tensor.hpp"

namespace dgnn::data {

/// Parameters of the traffic generator.
struct TrafficSpec {
    std::string name = "pems";
    int64_t num_sensors = 307;     ///< PeMS04 has 307 sensors
    int64_t num_timesteps = 288;   ///< one day at 5-minute bins
    int64_t channels = 3;          ///< flow / occupancy / speed
    int64_t avg_degree = 4;        ///< road-graph connectivity
    int64_t history_len = 12;      ///< encoder input window
    int64_t horizon = 12;          ///< decoder prediction window
    uint64_t seed = 61;

    static TrafficSpec PemsLike();
};

/// A generated traffic dataset.
struct TrafficDataset {
    TrafficSpec spec;
    graph::GraphSnapshot road_graph;  ///< static sensor adjacency
    Tensor signal;                    ///< [num_timesteps, num_sensors * channels]

    /// Signal window [t, t+len) flattened to [len, sensors*channels].
    Tensor Window(int64_t t, int64_t len) const;

    /// Number of (history, horizon) samples available.
    int64_t NumSamples() const;
};

/// Rejects a spec the generator cannot honour: a dgnn::Error naming the
/// offending field, raised before anything is allocated.
void ValidateTrafficSpec(const TrafficSpec& spec);

/// Generates the dataset deterministically from the spec (validated first).
TrafficDataset GenerateTraffic(const TrafficSpec& spec);

}  // namespace dgnn::data
