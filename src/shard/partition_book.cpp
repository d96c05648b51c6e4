#include "shard/partition_book.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>
#include <unordered_map>

#include "support/check.hpp"

namespace dgnn::shard {

namespace {

/// splitmix64 finalizer — the standard 64-bit avalanche mix.
uint64_t
SplitMix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

int32_t
HashShard(int64_t node, int32_t num_shards, uint64_t seed)
{
    return static_cast<int32_t>(
        SplitMix64(static_cast<uint64_t>(node) ^ seed) %
        static_cast<uint64_t>(num_shards));
}

}  // namespace

const char*
ToString(PartitionerKind kind)
{
    switch (kind) {
      case PartitionerKind::kHash:
        return "hash";
      case PartitionerKind::kGreedy:
        return "greedy";
    }
    return "?";
}

PartitionBook::PartitionBook(int32_t num_shards,
                             std::vector<int32_t> assignment)
    : num_shards_(num_shards), assignment_(std::move(assignment))
{
    DGNN_CHECK(num_shards_ >= 1, "partition book needs >= 1 shard, got ",
               num_shards_);
    for (size_t i = 0; i < assignment_.size(); ++i) {
        DGNN_CHECK(assignment_[i] >= 0 && assignment_[i] < num_shards_,
                   "node ", i, " assigned to out-of-range shard ",
                   assignment_[i]);
    }
}

int32_t
PartitionBook::ShardOf(int64_t node) const
{
    if (node >= 0 && node < NumNodes()) {
        return assignment_[static_cast<size_t>(node)];
    }
    // Out-of-book fold: deterministic, id-only (no seed is stored), so
    // node-blind requests (src = -1) and past-the-dataset ids still route.
    const int64_t shards = num_shards_;
    return static_cast<int32_t>(((node % shards) + shards) % shards);
}

std::vector<int64_t>
PartitionBook::ShardSizes() const
{
    std::vector<int64_t> sizes(static_cast<size_t>(num_shards_), 0);
    for (const int32_t shard : assignment_) {
        ++sizes[static_cast<size_t>(shard)];
    }
    return sizes;
}

double
PartitionBook::BalanceFactor() const
{
    if (assignment_.empty()) {
        return 1.0;
    }
    const std::vector<int64_t> sizes = ShardSizes();
    const int64_t largest = *std::max_element(sizes.begin(), sizes.end());
    const double ideal = static_cast<double>(NumNodes()) /
                         static_cast<double>(num_shards_);
    return static_cast<double>(largest) / ideal;
}

std::string
PartitionBook::Serialize() const
{
    std::ostringstream out;
    out << "shards " << num_shards_ << "\n";
    out << "nodes " << NumNodes() << "\n";
    for (const int32_t shard : assignment_) {
        out << shard << "\n";
    }
    return out.str();
}

PartitionBook
PartitionBook::Deserialize(const std::string& text)
{
    std::istringstream in(text);
    std::string tag;
    int32_t num_shards = 0;
    int64_t num_nodes = 0;
    in >> tag >> num_shards;
    DGNN_CHECK(in && tag == "shards", "partition book header expected ",
               "'shards <count>', got '", tag, "'");
    in >> tag >> num_nodes;
    DGNN_CHECK(in && tag == "nodes", "partition book header expected ",
               "'nodes <count>', got '", tag, "'");
    DGNN_CHECK(num_shards >= 1, "partition book needs >= 1 shard, got ",
               num_shards);
    DGNN_CHECK(num_nodes >= 0, "negative node count ", num_nodes);
    // Every entry takes at least a separator and a digit, so a count the
    // rest of the text cannot hold is rejected before it is allocated.
    const int64_t remaining =
        in.eof() ? 0
                 : static_cast<int64_t>(text.size()) -
                       static_cast<int64_t>(in.tellg());
    DGNN_CHECK(num_nodes <= remaining / 2, "partition book claims ",
               num_nodes, " nodes but its text holds at most ", remaining / 2);
    std::vector<int32_t> assignment(static_cast<size_t>(num_nodes), 0);
    for (int64_t i = 0; i < num_nodes; ++i) {
        DGNN_CHECK(static_cast<bool>(in >> assignment[static_cast<size_t>(i)]),
                   "partition book truncated at node ", i);
    }
    return PartitionBook(num_shards, std::move(assignment));
}

PartitionBook
HashPartition(int64_t num_nodes, int32_t num_shards, uint64_t seed)
{
    DGNN_CHECK(num_nodes >= 0, "negative node count ", num_nodes);
    DGNN_CHECK(num_shards >= 1, "need >= 1 shard, got ", num_shards);
    std::vector<int32_t> assignment(static_cast<size_t>(num_nodes));
    for (int64_t node = 0; node < num_nodes; ++node) {
        assignment[static_cast<size_t>(node)] =
            HashShard(node, num_shards, seed);
    }
    return PartitionBook(num_shards, std::move(assignment));
}

PartitionBook
GreedyEdgeCutPartition(int64_t num_nodes, int32_t num_shards,
                       const std::vector<std::pair<int64_t, int64_t>>& edges,
                       uint64_t /*seed*/)
{
    DGNN_CHECK(num_nodes >= 0, "negative node count ", num_nodes);
    DGNN_CHECK(num_shards >= 1, "need >= 1 shard, got ", num_shards);

    // Request load: RouteShard sends every request to its source's owner,
    // so a node's load is the number of trace edges it sources. The CSR
    // adjacency covers in-book endpoints only (out-of-book endpoints carry
    // no state rows to co-locate, so they do not steer placement).
    std::vector<int64_t> load(static_cast<size_t>(num_nodes), 0);
    std::vector<int64_t> degree(static_cast<size_t>(num_nodes), 0);
    int64_t total_load = 0;
    for (const auto& [u, v] : edges) {
        if (u < 0 || u >= num_nodes) {
            continue;
        }
        ++load[static_cast<size_t>(u)];
        ++total_load;
        if (v >= 0 && v < num_nodes && u != v) {
            ++degree[static_cast<size_t>(u)];
            ++degree[static_cast<size_t>(v)];
        }
    }
    std::vector<int64_t> offset(static_cast<size_t>(num_nodes) + 1, 0);
    for (int64_t node = 0; node < num_nodes; ++node) {
        offset[static_cast<size_t>(node) + 1] =
            offset[static_cast<size_t>(node)] +
            degree[static_cast<size_t>(node)];
    }
    std::vector<int64_t> adjacency(static_cast<size_t>(offset.back()));
    std::vector<int64_t> cursor = offset;
    for (const auto& [u, v] : edges) {
        if (u >= 0 && u < num_nodes && v >= 0 && v < num_nodes && u != v) {
            adjacency[static_cast<size_t>(cursor[static_cast<size_t>(u)]++)] =
                v;
            adjacency[static_cast<size_t>(cursor[static_cast<size_t>(v)]++)] =
                u;
        }
    }

    // Heaviest first, ties by id: the hot sources are spread while every
    // shard still has load headroom.
    std::vector<int64_t> order(static_cast<size_t>(num_nodes));
    std::iota(order.begin(), order.end(), int64_t{0});
    std::stable_sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
        return load[static_cast<size_t>(a)] > load[static_cast<size_t>(b)];
    });

    const int64_t capacity = std::max<int64_t>(
        1, static_cast<int64_t>(
               static_cast<double>((num_nodes + num_shards - 1) / num_shards) *
               1.1) +
               1);
    const double load_capacity = static_cast<double>(total_load) /
                                 static_cast<double>(num_shards) * 1.1;
    std::vector<int64_t> sizes(static_cast<size_t>(num_shards), 0);
    std::vector<int64_t> shard_load(static_cast<size_t>(num_shards), 0);
    std::vector<int32_t> assignment(static_cast<size_t>(num_nodes), -1);
    std::vector<int64_t> placed_neighbors(static_cast<size_t>(num_shards), 0);

    for (const int64_t node : order) {
        const int64_t node_load = load[static_cast<size_t>(node)];
        std::fill(placed_neighbors.begin(), placed_neighbors.end(), 0);
        for (int64_t i = offset[static_cast<size_t>(node)];
             i < offset[static_cast<size_t>(node) + 1]; ++i) {
            const int32_t owner =
                assignment[static_cast<size_t>(adjacency[static_cast<size_t>(
                    i)])];
            if (owner >= 0) {
                ++placed_neighbors[static_cast<size_t>(owner)];
            }
        }
        int32_t best = -1;
        double best_score = 0.0;
        int32_t lightest = -1;
        for (int32_t shard = 0; shard < num_shards; ++shard) {
            const auto s = static_cast<size_t>(shard);
            if (sizes[s] >= capacity) {
                continue;
            }
            // Strict comparisons keep ties on the lowest shard id.
            if (lightest < 0 ||
                std::pair(shard_load[s], sizes[s]) <
                    std::pair(shard_load[static_cast<size_t>(lightest)],
                              sizes[static_cast<size_t>(lightest)])) {
                lightest = shard;
            }
            if (placed_neighbors[s] == 0) {
                continue;
            }
            const double score =
                static_cast<double>(placed_neighbors[s]) *
                (1.0 - static_cast<double>(shard_load[s] + node_load) /
                           load_capacity);
            if (score > best_score) {
                best = shard;
                best_score = score;
            }
        }
        if (best < 0) {
            // No placed neighbor (or every neighbor's shard is past its
            // load capacity): the least-loaded open shard takes the node.
            best = lightest;
        }
        DGNN_CHECK(best >= 0, "greedy partitioner found no open shard for ",
                   "node ", node);
        assignment[static_cast<size_t>(node)] = best;
        ++sizes[static_cast<size_t>(best)];
        shard_load[static_cast<size_t>(best)] += node_load;
    }
    return PartitionBook(num_shards, std::move(assignment));
}

int64_t
EdgeCut(const PartitionBook& book,
        const std::vector<std::pair<int64_t, int64_t>>& edges)
{
    int64_t cut = 0;
    for (const auto& [u, v] : edges) {
        if (book.ShardOf(u) != book.ShardOf(v)) {
            ++cut;
        }
    }
    return cut;
}

}  // namespace dgnn::shard
