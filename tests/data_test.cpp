// Tests for the synthetic dataset generators.

#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/molecular_gen.hpp"
#include "data/snapshot_seq_gen.hpp"
#include "data/social_evolution_gen.hpp"
#include "data/temporal_interactions.hpp"
#include "data/traffic_gen.hpp"
#include "support/check.hpp"

namespace dgnn::data {
namespace {

TEST(InteractionsTest, SizesAndBipartiteRange)
{
    InteractionSpec spec;
    spec.num_users = 30;
    spec.num_items = 20;
    spec.num_events = 500;
    spec.edge_feature_dim = 8;
    const InteractionDataset ds = GenerateInteractions(spec);
    EXPECT_EQ(ds.stream.NumEvents(), 500);
    EXPECT_EQ(ds.NumNodes(), 50);
    EXPECT_EQ(ds.edge_features.GetShape(), Shape({500, 8}));
    EXPECT_EQ(ds.node_features.GetShape(), Shape({50, 8}));
    for (const auto& e : ds.stream.Events()) {
        EXPECT_LT(e.src, 30);                 // src is a user
        EXPECT_GE(e.dst, ds.ItemOffset());    // dst is an item
        EXPECT_LT(e.dst, 50);
    }
}

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr int64_t kMax = std::numeric_limits<int64_t>::max();

/// One nonsense spec: the field its error must name and how to set it.
template <typename Spec>
struct Corruption {
    std::string field;
    std::function<void(Spec&)> corrupt;
};

/// Expects @p generate to reject every corruption of @p valid with a
/// dgnn::Error that names the corrupted field.
template <typename Spec, typename GenerateFn>
void
ExpectEachRejectedNamingTheField(const Spec& valid,
                                 const std::vector<Corruption<Spec>>& cases,
                                 GenerateFn generate)
{
    for (const Corruption<Spec>& c : cases) {
        Spec spec = valid;
        c.corrupt(spec);
        try {
            (void)generate(spec);
            ADD_FAILURE() << c.field << ": nonsense value accepted";
        } catch (const Error& e) {
            EXPECT_NE(std::string(e.what()).find(c.field), std::string::npos)
                << "error does not name " << c.field << ": " << e.what();
        }
    }
}

TEST(InteractionsTest, RejectsNonsenseNamingTheField)
{
    using S = InteractionSpec;
    const std::vector<Corruption<S>> cases = {
        {"num_users", [](S& s) { s.num_users = 0; }},
        {"num_users", [](S& s) { s.num_users = -5; }},
        {"num_items", [](S& s) { s.num_items = 0; }},
        {"num_events", [](S& s) { s.num_events = -1; }},
        {"edge_feature_dim", [](S& s) { s.edge_feature_dim = 0; }},
        {"repeat_prob", [](S& s) { s.repeat_prob = -0.1; }},
        {"repeat_prob", [](S& s) { s.repeat_prob = 1.5; }},
        {"repeat_prob", [](S& s) { s.repeat_prob = kNan; }},
        {"mean_gap", [](S& s) { s.mean_gap = 0.0; }},
        {"mean_gap", [](S& s) { s.mean_gap = -1.0; }},
        {"mean_gap", [](S& s) { s.mean_gap = kNan; }},
        {"mean_gap", [](S& s) { s.mean_gap = kInf; }},
        {"popularity_alpha", [](S& s) { s.popularity_alpha = -0.5; }},
        {"popularity_alpha", [](S& s) { s.popularity_alpha = kNan; }},
        {"popularity_alpha", [](S& s) { s.popularity_alpha = kInf; }},
        // Rejected by the byte-count check, before the table is sized.
        {"num_events", [](S& s) { s.num_events = kMax / 2; }},
        {"edge_feature_dim", [](S& s) { s.edge_feature_dim = kMax / 8; }},
        {"num_users", [](S& s) { s.num_users = kMax; }},
    };
    S valid;
    valid.num_users = 10;
    valid.num_items = 5;
    valid.num_events = 20;
    valid.edge_feature_dim = 4;
    EXPECT_EQ(GenerateInteractions(valid).stream.NumEvents(), 20);
    ExpectEachRejectedNamingTheField(valid, cases, GenerateInteractions);
}

TEST(SnapshotGenTest, RejectsNonsenseNamingTheField)
{
    using S = SnapshotSpec;
    const std::vector<Corruption<S>> cases = {
        {"num_nodes", [](S& s) { s.num_nodes = 0; }},
        {"num_nodes", [](S& s) { s.num_nodes = -4; }},
        {"num_steps", [](S& s) { s.num_steps = 0; }},
        {"edges_per_step", [](S& s) { s.edges_per_step = -1; }},
        {"node_feature_dim", [](S& s) { s.node_feature_dim = 0; }},
        {"num_blocks", [](S& s) { s.num_blocks = 0; }},
        {"num_blocks", [](S& s) { s.num_blocks = -2; }},
        {"intra_block_prob", [](S& s) { s.intra_block_prob = -0.1; }},
        {"intra_block_prob", [](S& s) { s.intra_block_prob = 1.5; }},
        {"intra_block_prob", [](S& s) { s.intra_block_prob = kNan; }},
        {"overlap", [](S& s) { s.overlap = -0.5; }},
        {"overlap", [](S& s) { s.overlap = 2.0; }},
        {"overlap", [](S& s) { s.overlap = kNan; }},
        // Rejected by the byte-count checks, before anything is sized.
        {"num_nodes", [](S& s) { s.num_nodes = kMax / 2; }},
        {"node_feature_dim", [](S& s) { s.node_feature_dim = kMax / 8; }},
        {"edges_per_step", [](S& s) { s.edges_per_step = kMax / 8; }},
    };
    S valid;
    valid.num_nodes = 20;
    valid.num_steps = 3;
    valid.edges_per_step = 30;
    valid.node_feature_dim = 4;
    EXPECT_EQ(GenerateSnapshots(valid).sequence.NumSteps(), 3);
    ExpectEachRejectedNamingTheField(valid, cases, GenerateSnapshots);
}

TEST(TrafficGenTest, RejectsNonsenseNamingTheField)
{
    using S = TrafficSpec;
    const std::vector<Corruption<S>> cases = {
        {"num_sensors", [](S& s) { s.num_sensors = 0; }},
        {"num_sensors", [](S& s) { s.num_sensors = -3; }},
        {"num_timesteps", [](S& s) { s.num_timesteps = 0; }},
        {"channels", [](S& s) { s.channels = 0; }},
        {"avg_degree", [](S& s) { s.avg_degree = -1; }},
        {"history_len", [](S& s) { s.history_len = 0; }},
        {"horizon", [](S& s) { s.horizon = -2; }},
        // Rejected by the byte-count checks, before the signal is sized.
        {"num_sensors", [](S& s) { s.num_sensors = kMax / 2; }},
        {"channels", [](S& s) { s.channels = kMax / 2; }},
        {"num_timesteps", [](S& s) { s.num_timesteps = kMax / 8; }},
    };
    S valid;
    valid.num_sensors = 5;
    valid.num_timesteps = 30;
    EXPECT_EQ(GenerateTraffic(valid).signal.Dim(0), 30);
    ExpectEachRejectedNamingTheField(valid, cases, GenerateTraffic);
}

TEST(MolecularGenTest, RejectsNonsenseNamingTheField)
{
    using S = MolecularSpec;
    const std::vector<Corruption<S>> cases = {
        {"num_atoms", [](S& s) { s.num_atoms = 1; }},
        {"num_atoms", [](S& s) { s.num_atoms = -3; }},
        {"num_frames", [](S& s) { s.num_frames = 0; }},
        {"atom_feature_dim", [](S& s) { s.atom_feature_dim = 0; }},
        {"bond_threshold", [](S& s) { s.bond_threshold = -0.1; }},
        {"bond_threshold", [](S& s) { s.bond_threshold = kNan; }},
        {"bond_threshold", [](S& s) { s.bond_threshold = kInf; }},
        // Rejected by the byte-count checks, before any frame is sized.
        {"num_atoms", [](S& s) { s.num_atoms = kMax / 2; }},
        {"num_frames", [](S& s) { s.num_frames = kMax / 8; }},
        {"atom_feature_dim", [](S& s) { s.atom_feature_dim = kMax / 8; }},
    };
    S valid;
    valid.num_atoms = 5;
    valid.num_frames = 3;
    valid.atom_feature_dim = 4;
    EXPECT_EQ(GenerateMolecular(valid).NumFrames(), 3);
    ExpectEachRejectedNamingTheField(valid, cases, GenerateMolecular);
}

TEST(PointProcessTest, RejectsNonsenseNamingTheField)
{
    using S = PointProcessSpec;
    const std::vector<Corruption<S>> cases = {
        {"num_actors", [](S& s) { s.num_actors = 1; }},
        {"num_actors", [](S& s) { s.num_actors = 0; }},
        {"num_events", [](S& s) { s.num_events = -1; }},
        {"association_frac", [](S& s) { s.association_frac = -0.1; }},
        {"association_frac", [](S& s) { s.association_frac = 1.1; }},
        {"association_frac", [](S& s) { s.association_frac = kNan; }},
        {"burstiness", [](S& s) { s.burstiness = -1.0; }},
        {"burstiness", [](S& s) { s.burstiness = kNan; }},
        {"burstiness", [](S& s) { s.burstiness = kInf; }},
        // Rejected by the byte-count check, before the stream is sized.
        {"num_events", [](S& s) { s.num_events = kMax / 2; }},
    };
    S valid;
    valid.num_actors = 4;
    valid.num_events = 10;
    EXPECT_EQ(GeneratePointProcess(valid).stream.NumEvents(), 10);
    ExpectEachRejectedNamingTheField(valid, cases, GeneratePointProcess);
}

TEST(InteractionsTest, TimesAreNonDecreasing)
{
    const InteractionDataset ds =
        GenerateInteractions(InteractionSpec::WikipediaLike(300));
    double prev = -1.0;
    for (const auto& e : ds.stream.Events()) {
        EXPECT_GE(e.time, prev);
        prev = e.time;
    }
}

TEST(InteractionsTest, DeterministicForSameSeed)
{
    const InteractionDataset a =
        GenerateInteractions(InteractionSpec::RedditLike(200));
    const InteractionDataset b =
        GenerateInteractions(InteractionSpec::RedditLike(200));
    ASSERT_EQ(a.stream.NumEvents(), b.stream.NumEvents());
    for (int64_t i = 0; i < a.stream.NumEvents(); ++i) {
        EXPECT_EQ(a.stream.Event(i).src, b.stream.Event(i).src);
        EXPECT_EQ(a.stream.Event(i).dst, b.stream.Event(i).dst);
        EXPECT_EQ(a.stream.Event(i).time, b.stream.Event(i).time);
    }
    EXPECT_EQ(a.edge_features.Sum(), b.edge_features.Sum());
}

TEST(InteractionsTest, PresetsDiffer)
{
    const auto wiki = InteractionSpec::WikipediaLike(100);
    const auto reddit = InteractionSpec::RedditLike(100);
    const auto lastfm = InteractionSpec::LastFmLike(100);
    EXPECT_NE(wiki.name, reddit.name);
    EXPECT_GT(reddit.num_users, wiki.num_users);
    EXPECT_LT(lastfm.edge_feature_dim, wiki.edge_feature_dim);
}

TEST(InteractionsTest, PopularItemSkew)
{
    // Power-law popularity: the most popular item should receive far more
    // interactions than the median item.
    InteractionSpec spec;
    spec.num_users = 50;
    spec.num_items = 100;
    spec.num_events = 5000;
    spec.edge_feature_dim = 2;
    spec.repeat_prob = 0.0;  // isolate the popularity draw
    const InteractionDataset ds = GenerateInteractions(spec);
    std::vector<int64_t> counts(100, 0);
    for (const auto& e : ds.stream.Events()) {
        ++counts[static_cast<size_t>(e.dst - ds.ItemOffset())];
    }
    std::sort(counts.begin(), counts.end());
    EXPECT_GT(counts.back(), 4 * counts[50]);
}

TEST(SnapshotGenTest, ShapesAndOverlap)
{
    SnapshotSpec spec = SnapshotSpec::SbmLike();
    spec.num_nodes = 200;
    spec.num_steps = 6;
    spec.edges_per_step = 1000;
    const SnapshotDataset ds = GenerateSnapshots(spec);
    EXPECT_EQ(ds.sequence.NumSteps(), 6);
    EXPECT_EQ(ds.sequence.Step(0).NumEdges(), 1000);
    EXPECT_EQ(ds.node_features.Dim(0), 200);
    // Sliding-window overlap should be clearly visible between steps.
    EXPECT_GT(ds.sequence.MeanOverlap(), 0.2);
}

TEST(SnapshotGenTest, BitcoinHasSignedWeights)
{
    SnapshotSpec spec = SnapshotSpec::BitcoinAlphaLike();
    spec.num_nodes = 100;
    spec.num_steps = 3;
    spec.edges_per_step = 500;
    const SnapshotDataset ds = GenerateSnapshots(spec);
    bool saw_negative = false;
    for (int64_t t = 0; t < ds.sequence.NumSteps(); ++t) {
        const auto& snap = ds.sequence.Step(t);
        for (int64_t u = 0; u < snap.NumNodes(); ++u) {
            for (float w : snap.Weights(u)) {
                saw_negative |= w < 0.0f;
            }
        }
    }
    EXPECT_TRUE(saw_negative);
}

TEST(SnapshotGenTest, DeterministicForSameSeed)
{
    const SnapshotDataset a = GenerateSnapshots(SnapshotSpec::SbmLike());
    const SnapshotDataset b = GenerateSnapshots(SnapshotSpec::SbmLike());
    EXPECT_EQ(a.sequence.TotalEdges(), b.sequence.TotalEdges());
    EXPECT_DOUBLE_EQ(a.sequence.MeanOverlap(), b.sequence.MeanOverlap());
}

TEST(TrafficGenTest, SignalShapeAndWindows)
{
    TrafficSpec spec = TrafficSpec::PemsLike();
    spec.num_sensors = 50;
    spec.num_timesteps = 100;
    const TrafficDataset ds = GenerateTraffic(spec);
    EXPECT_EQ(ds.signal.GetShape(), Shape({100, 50 * spec.channels}));
    EXPECT_TRUE(ds.signal.AllFinite());
    const Tensor w = ds.Window(10, 12);
    EXPECT_EQ(w.Dim(0), 12);
    EXPECT_THROW(ds.Window(95, 12), Error);
    EXPECT_EQ(ds.NumSamples(), 100 - spec.history_len - spec.horizon + 1);
}

TEST(TrafficGenTest, RoadGraphConnected)
{
    TrafficSpec spec = TrafficSpec::PemsLike();
    spec.num_sensors = 40;
    const TrafficDataset ds = GenerateTraffic(spec);
    EXPECT_EQ(ds.road_graph.NumNodes(), 40);
    for (int64_t i = 0; i < 40; ++i) {
        EXPECT_GE(ds.road_graph.Degree(i), 1);  // at least the ring edge
    }
}

TEST(TrafficGenTest, DailyPeriodicityVisible)
{
    // Rush-hour bumps: signal variance along the day must be non-trivial.
    TrafficSpec spec = TrafficSpec::PemsLike();
    spec.num_sensors = 10;
    spec.num_timesteps = 288;
    const TrafficDataset ds = GenerateTraffic(spec);
    float lo = 1e9f;
    float hi = -1e9f;
    for (int64_t t = 0; t < 288; ++t) {
        const float v = ds.signal.At(t, 0);
        lo = std::min(lo, v);
        hi = std::max(hi, v);
    }
    EXPECT_GT(hi - lo, 0.3f);
}

TEST(MolecularGenTest, FramesAndAdjacency)
{
    MolecularSpec spec = MolecularSpec::Iso17Like();
    spec.num_frames = 32;
    const MolecularDataset ds = GenerateMolecular(spec);
    EXPECT_EQ(ds.NumFrames(), 32);
    EXPECT_EQ(ds.adjacency[0].GetShape(), Shape({19, 19}));
    EXPECT_EQ(ds.FrameBytes(), 19 * 19 * 4);
    // Bonds are symmetric by construction (distance-based).
    const Tensor& a = ds.adjacency[5];
    for (int64_t i = 0; i < 19; ++i) {
        EXPECT_EQ(a.At(i, i), 0.0f);
        for (int64_t j = 0; j < 19; ++j) {
            EXPECT_EQ(a.At(i, j), a.At(j, i));
        }
    }
}

TEST(MolecularGenTest, TopologyEvolves)
{
    MolecularSpec spec = MolecularSpec::Iso17Like();
    spec.num_frames = 64;
    const MolecularDataset ds = GenerateMolecular(spec);
    // The dynamic graph must actually change over the trajectory.
    double diff = 0.0;
    for (int64_t f = 1; f < ds.NumFrames(); ++f) {
        for (int64_t i = 0; i < ds.adjacency[0].NumElements(); ++i) {
            diff += std::fabs(ds.adjacency[static_cast<size_t>(f)].At(i) -
                              ds.adjacency[static_cast<size_t>(f - 1)].At(i));
        }
    }
    EXPECT_GT(diff, 0.0);
}

TEST(PointProcessTest, EventKindsAndBurstiness)
{
    PointProcessSpec spec = PointProcessSpec::SocialEvolutionLike();
    spec.num_events = 2000;
    const PointProcessDataset ds = GeneratePointProcess(spec);
    EXPECT_EQ(ds.stream.NumEvents(), 2000);
    ASSERT_EQ(ds.kinds.size(), 2000u);

    int64_t associations = 0;
    for (const auto kind : ds.kinds) {
        associations += kind == PointEventKind::kAssociation ? 1 : 0;
    }
    // ~5% association events.
    EXPECT_GT(associations, 40);
    EXPECT_LT(associations, 250);

    // Self-excitation: repeated pairs should be common.
    std::map<std::pair<int64_t, int64_t>, int64_t> pair_counts;
    for (const auto& e : ds.stream.Events()) {
        ++pair_counts[{e.src, e.dst}];
    }
    int64_t max_count = 0;
    for (const auto& [pair, count] : pair_counts) {
        max_count = std::max(max_count, count);
    }
    EXPECT_GT(max_count, 3);
}

TEST(PointProcessTest, GithubPresetLarger)
{
    const auto social = PointProcessSpec::SocialEvolutionLike();
    const auto github = PointProcessSpec::GithubLike();
    EXPECT_GT(github.num_actors, social.num_actors);
    EXPECT_GT(github.association_frac, social.association_frac);
}

TEST(PointProcessTest, Deterministic)
{
    const PointProcessDataset a =
        GeneratePointProcess(PointProcessSpec::SocialEvolutionLike());
    const PointProcessDataset b =
        GeneratePointProcess(PointProcessSpec::SocialEvolutionLike());
    ASSERT_EQ(a.stream.NumEvents(), b.stream.NumEvents());
    for (int64_t i = 0; i < a.stream.NumEvents(); ++i) {
        EXPECT_EQ(a.stream.Event(i).src, b.stream.Event(i).src);
        EXPECT_EQ(a.stream.Event(i).dst, b.stream.Event(i).dst);
    }
}

}  // namespace
}  // namespace dgnn::data
