#include "data/snapshot_seq_gen.hpp"

#include <limits>
#include <vector>

#include "support/check.hpp"
#include "tensor/random.hpp"

namespace dgnn::data {

SnapshotSpec
SnapshotSpec::SbmLike()
{
    SnapshotSpec s;
    s.name = "sbm";
    s.num_nodes = 1000;
    s.num_steps = 16;
    s.edges_per_step = 8000;
    s.node_feature_dim = 64;
    s.num_blocks = 10;
    s.intra_block_prob = 0.85;
    s.overlap = 0.7;
    s.seed = 51;
    return s;
}

SnapshotSpec
SnapshotSpec::BitcoinAlphaLike()
{
    SnapshotSpec s;
    s.name = "bitcoin_alpha";
    s.num_nodes = 3783 / 4;
    s.num_steps = 16;
    s.edges_per_step = 1500;
    s.node_feature_dim = 64;
    s.num_blocks = 6;
    s.intra_block_prob = 0.6;
    s.overlap = 0.5;
    s.signed_weights = true;
    s.seed = 52;
    return s;
}

SnapshotSpec
SnapshotSpec::RedditHyperlinkLike()
{
    SnapshotSpec s;
    s.name = "reddit_hyperlink";
    s.num_nodes = 2000;
    s.num_steps = 16;
    s.edges_per_step = 20000;  // larger average snapshot than Bitcoin
    s.node_feature_dim = 64;
    s.num_blocks = 20;
    s.intra_block_prob = 0.75;
    s.overlap = 0.55;
    s.seed = 53;
    return s;
}

namespace {

/// Draws one SBM edge.
graph::Edge
DrawEdge(Rng& rng, const SnapshotSpec& spec)
{
    const int64_t block_size = spec.num_nodes / spec.num_blocks;
    graph::Edge e;
    e.src = rng.UniformInt(0, spec.num_nodes - 1);
    if (rng.Bernoulli(spec.intra_block_prob) && block_size > 1) {
        const int64_t block = e.src / block_size;
        const int64_t lo = block * block_size;
        const int64_t hi = std::min(spec.num_nodes, lo + block_size) - 1;
        e.dst = rng.UniformInt(lo, hi);
    } else {
        e.dst = rng.UniformInt(0, spec.num_nodes - 1);
    }
    e.weight = spec.signed_weights ? (rng.Bernoulli(0.85) ? 1.0f : -1.0f)
                                   : rng.Uniform(0.5f, 1.5f);
    return e;
}

}  // namespace

void
ValidateSnapshotSeqSpec(const SnapshotSpec& spec)
{
    DGNN_CHECK(spec.num_nodes >= 1, "num_nodes must be positive, got ",
               spec.num_nodes);
    DGNN_CHECK(spec.num_steps >= 1, "num_steps must be positive, got ",
               spec.num_steps);
    DGNN_CHECK(spec.edges_per_step >= 0, "edges_per_step must be non-negative, got ",
               spec.edges_per_step);
    DGNN_CHECK(spec.node_feature_dim >= 1, "node_feature_dim must be positive, got ",
               spec.node_feature_dim);
    DGNN_CHECK(spec.num_blocks >= 1, "num_blocks must be positive, got ",
               spec.num_blocks);
    // Written so that NaN fails too.
    DGNN_CHECK(spec.intra_block_prob >= 0.0 && spec.intra_block_prob <= 1.0,
               "intra_block_prob must lie in [0, 1], got ", spec.intra_block_prob);
    DGNN_CHECK(spec.overlap >= 0.0 && spec.overlap <= 1.0,
               "overlap must lie in [0, 1], got ", spec.overlap);
    // The node features are [num_nodes, node_feature_dim] floats and the
    // sequence holds num_steps x edges_per_step edges; their byte counts
    // must be representable before anything is sized from them.
    constexpr int64_t kMaxBytes = std::numeric_limits<int64_t>::max();
    DGNN_CHECK(spec.num_nodes <= kMaxBytes / 4 / spec.node_feature_dim,
               "num_nodes x node_feature_dim x 4 bytes overflows int64: num_nodes ",
               spec.num_nodes, ", node_feature_dim ", spec.node_feature_dim);
    constexpr int64_t kEdgeBytes = static_cast<int64_t>(sizeof(graph::Edge));
    DGNN_CHECK(spec.edges_per_step <= kMaxBytes / kEdgeBytes / spec.num_steps,
               "num_steps x edges_per_step x ", kEdgeBytes,
               " bytes overflows int64: edges_per_step ", spec.edges_per_step,
               ", num_steps ", spec.num_steps);
}

SnapshotDataset
GenerateSnapshots(const SnapshotSpec& spec)
{
    ValidateSnapshotSeqSpec(spec);

    Rng rng(spec.seed);
    std::vector<graph::GraphSnapshot> snapshots;
    snapshots.reserve(static_cast<size_t>(spec.num_steps));

    std::vector<graph::Edge> carried;
    for (int64_t t = 0; t < spec.num_steps; ++t) {
        std::vector<graph::Edge> edges;
        edges.reserve(static_cast<size_t>(spec.edges_per_step));
        // Sliding-window overlap: keep a fraction of the previous edges.
        for (const graph::Edge& e : carried) {
            if (rng.Bernoulli(spec.overlap) &&
                static_cast<int64_t>(edges.size()) < spec.edges_per_step) {
                edges.push_back(e);
            }
        }
        while (static_cast<int64_t>(edges.size()) < spec.edges_per_step) {
            edges.push_back(DrawEdge(rng, spec));
        }
        carried = edges;
        snapshots.emplace_back(spec.num_nodes, edges);
    }

    SnapshotDataset ds{
        spec,
        graph::SnapshotSequence(spec.num_nodes, std::move(snapshots)),
        init::Normal(Shape({spec.num_nodes, spec.node_feature_dim}), rng, 0.3f)};
    return ds;
}

}  // namespace dgnn::data
