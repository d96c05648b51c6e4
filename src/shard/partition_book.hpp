#pragma once

/// @file
/// Node-to-shard partitioning for scale-out serving. A PartitionBook maps
/// every node of a dataset to exactly one shard (the shard OWNS the node's
/// mutable state: TGN memory row, JODIE embedding, TGAT feature rows).
/// Two seeded, deterministic partitioners:
///
///   * HashPartition          — splitmix64 of (node ^ seed) mod shards;
///                              balance is near-perfect, edge locality is
///                              whatever chance provides
///   * GreedyEdgeCutPartition — LDG-style streaming greedy: nodes placed
///                              heaviest request load first on the shard
///                              holding most of their already-placed
///                              neighbors, discounted by a load penalty so
///                              every shard routes the same request load
///
/// Both are bit-deterministic in (num_nodes, num_shards, seed[, edges]) —
/// the same seed always reproduces the same assignment, which the shard
/// determinism suite asserts. EdgeCut counts the interactions whose
/// endpoints land on different shards: the direct predictor of the
/// alltoall exchange volume the serving bench measures.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace dgnn::shard {

/// Which partitioner produced an assignment.
enum class PartitionerKind {
    kHash,
    kGreedy,
};

const char* ToString(PartitionerKind kind);

/// Immutable node -> shard assignment. Every node id in [0, NumNodes())
/// belongs to exactly one shard in [0, NumShards()).
class PartitionBook {
  public:
    /// @p assignment[i] is the owning shard of node i; every entry must lie
    /// in [0, num_shards).
    PartitionBook(int32_t num_shards, std::vector<int32_t> assignment);

    int32_t NumShards() const { return num_shards_; }
    int64_t NumNodes() const
    {
        return static_cast<int64_t>(assignment_.size());
    }

    /// Owning shard of @p node. Nodes outside the book (negative ids from
    /// node-blind generators, or ids past the dataset) fold deterministically
    /// onto a shard so routing never dead-ends.
    [[nodiscard]] int32_t ShardOf(int64_t node) const;

    /// Nodes owned by each shard, indexed by shard id.
    [[nodiscard]] std::vector<int64_t> ShardSizes() const;

    /// Largest shard relative to the ideal NumNodes()/NumShards() size.
    /// 1.0 = perfectly balanced; 2.0 = the worst shard carries twice its
    /// fair share (and its cache is half as effective per node).
    [[nodiscard]] double BalanceFactor() const;

    /// Deterministic text round-trip ("shards k\nnodes n\n" + one
    /// assignment per line).
    [[nodiscard]] std::string Serialize() const;
    [[nodiscard]] static PartitionBook Deserialize(const std::string& text);

    bool operator==(const PartitionBook& other) const
    {
        return num_shards_ == other.num_shards_ &&
               assignment_ == other.assignment_;
    }

  private:
    int32_t num_shards_;
    std::vector<int32_t> assignment_;
};

/// Seeded hash assignment: splitmix64(node ^ seed) mod shards.
[[nodiscard]] PartitionBook HashPartition(int64_t num_nodes, int32_t num_shards,
                            uint64_t seed);

/// LDG-style streaming greedy that balances request load and minimizes the
/// edge cut. A node's load is the number of @p edges it sources (requests
/// route to their source's owner). Nodes are placed heaviest first, ties
/// by id; each goes to the open shard maximizing
///   |already-placed neighbors on shard| * (1 - (shard_load + load) / L)
/// with L = total_load / num_shards * 1.1. A shard is open below the node
/// capacity ceil(num_nodes/num_shards) * 1.1. A node no positive score
/// claims (no placed neighbor, or every neighbor's shard past L) goes to
/// the open shard with the least load, then the fewest nodes, then the
/// lowest id. Deterministic in (num_nodes, num_shards, edges); @p seed is
/// accepted for signature parity with HashPartition and does not affect
/// the result.
[[nodiscard]] PartitionBook GreedyEdgeCutPartition(
    int64_t num_nodes, int32_t num_shards,
    const std::vector<std::pair<int64_t, int64_t>>& edges, uint64_t seed);

/// Interactions in @p edges whose endpoints live on different shards.
/// Self-loops and out-of-book endpoints count through ShardOf like any
/// other node.
[[nodiscard]] int64_t EdgeCut(const PartitionBook& book,
                const std::vector<std::pair<int64_t, int64_t>>& edges);

}  // namespace dgnn::shard
