#pragma once

/// @file
/// Synthetic point-process dataset standing in for MIT Social Evolution and
/// GitHub archive streams (DyRep's and LDG's workloads): a small, dense set
/// of actors generating two event kinds — communication events (frequent,
/// between associated actors) and association events (rare topology
/// changes). Event times follow a self-exciting pattern: recent interaction
/// raises the pair's rate, matching the bursty dynamics DyRep models.

#include <cstdint>
#include <string>
#include <vector>

#include "graph/event_stream.hpp"

namespace dgnn::data {

/// Kind of a point-process event (DyRep's two-process structure).
enum class PointEventKind {
    kCommunication,  ///< fast process (calls, messages, commits)
    kAssociation,    ///< slow process (friendship / follow topology change)
};

/// Parameters of the point-process generator.
struct PointProcessSpec {
    std::string name = "social_evolution";
    int64_t num_actors = 84;     ///< Social Evolution has 84 participants
    int64_t num_events = 4000;
    double association_frac = 0.05;  ///< fraction of association events
    double burstiness = 3.0;         ///< rate multiplier after an interaction
    uint64_t seed = 81;

    static PointProcessSpec SocialEvolutionLike();
    static PointProcessSpec GithubLike();
};

/// A generated point-process dataset.
struct PointProcessDataset {
    PointProcessSpec spec;
    graph::EventStream stream;
    std::vector<PointEventKind> kinds;  ///< aligned with stream order
};

/// Rejects a spec the generator cannot honour: a dgnn::Error naming the
/// offending field, raised before anything is allocated.
void ValidateSocialEvolutionSpec(const PointProcessSpec& spec);

/// Generates the dataset deterministically from the spec (validated first).
PointProcessDataset GeneratePointProcess(const PointProcessSpec& spec);

}  // namespace dgnn::data
