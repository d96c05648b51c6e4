#include "data/temporal_interactions.hpp"

#include <cmath>
#include <limits>
#include <vector>

#include "support/check.hpp"
#include "tensor/random.hpp"

namespace dgnn::data {

InteractionSpec
InteractionSpec::WikipediaLike(int64_t num_events)
{
    InteractionSpec s;
    s.name = "wikipedia";
    s.num_users = 8227 / 4;  // scaled 4x down; ratios preserved
    s.num_items = 1000 / 4;
    s.num_events = num_events;
    s.edge_feature_dim = 172;
    s.popularity_alpha = 2.2;
    s.repeat_prob = 0.79;  // Wikipedia has strong repeat editing
    s.seed = 41;
    return s;
}

InteractionSpec
InteractionSpec::RedditLike(int64_t num_events)
{
    InteractionSpec s;
    s.name = "reddit";
    s.num_users = 10000 / 4;
    s.num_items = 984 / 4;
    s.num_events = num_events;
    s.edge_feature_dim = 172;
    s.popularity_alpha = 2.8;   // heavier popularity tail than Wikipedia
    s.repeat_prob = 0.61;
    s.seed = 42;
    return s;
}

InteractionSpec
InteractionSpec::LastFmLike(int64_t num_events)
{
    InteractionSpec s;
    s.name = "lastfm";
    s.num_users = 980 / 4;
    s.num_items = 1000 / 4;
    s.num_events = num_events;
    s.edge_feature_dim = 2;  // LastFM has no rich edge features
    s.popularity_alpha = 1.8;
    s.repeat_prob = 0.88;  // users replay the same artists
    s.seed = 43;
    return s;
}

namespace {

/// Draws an item with approximate power-law popularity via inverse CDF.
int64_t
DrawPowerLaw(Rng& rng, int64_t n, double alpha)
{
    // Zipf-like: index ~ floor(n * u^alpha) biases toward low indices.
    const double u = rng.Uniform(0.0f, 1.0f);
    const double x = std::pow(u, alpha);
    int64_t idx = static_cast<int64_t>(x * static_cast<double>(n));
    return std::min(idx, n - 1);
}

}  // namespace

void
ValidateInteractionSpec(const InteractionSpec& spec)
{
    DGNN_CHECK(spec.num_users >= 1, "num_users must be positive, got ",
               spec.num_users);
    DGNN_CHECK(spec.num_items >= 1, "num_items must be positive, got ",
               spec.num_items);
    DGNN_CHECK(spec.num_events >= 0, "num_events must be non-negative, got ",
               spec.num_events);
    DGNN_CHECK(spec.edge_feature_dim >= 1, "edge_feature_dim must be positive, got ",
               spec.edge_feature_dim);
    DGNN_CHECK(spec.repeat_prob >= 0.0 && spec.repeat_prob <= 1.0,
               "repeat_prob must lie in [0, 1], got ", spec.repeat_prob);
    DGNN_CHECK(std::isfinite(spec.mean_gap) && spec.mean_gap > 0.0,
               "mean_gap must be positive and finite, got ", spec.mean_gap);
    DGNN_CHECK(std::isfinite(spec.popularity_alpha) && spec.popularity_alpha >= 0.0,
               "popularity_alpha must be non-negative and finite, got ",
               spec.popularity_alpha);
    // The edge- and node-feature tables hold edge_feature_dim floats per
    // event and per node; their byte counts must be representable before
    // anything is sized from them.
    constexpr int64_t kMaxBytes = std::numeric_limits<int64_t>::max();
    const int64_t max_rows = kMaxBytes / 4 / spec.edge_feature_dim;
    DGNN_CHECK(spec.num_events <= max_rows,
               "num_events x edge_feature_dim x 4 bytes overflows int64: num_events ",
               spec.num_events, ", edge_feature_dim ", spec.edge_feature_dim);
    DGNN_CHECK(spec.num_users <= max_rows - spec.num_items,
               "(num_users + num_items) x edge_feature_dim x 4 bytes overflows "
               "int64: num_users ",
               spec.num_users, ", num_items ", spec.num_items,
               ", edge_feature_dim ", spec.edge_feature_dim);
}

InteractionDataset
GenerateInteractions(const InteractionSpec& spec)
{
    ValidateInteractionSpec(spec);

    Rng rng(spec.seed);
    const int64_t num_nodes = spec.num_users + spec.num_items;

    // Per-user most recent item (session behaviour).
    std::vector<int64_t> last_item(static_cast<size_t>(spec.num_users), -1);

    std::vector<graph::TemporalEvent> events;
    events.reserve(static_cast<size_t>(spec.num_events));
    double t = 0.0;
    for (int64_t e = 0; e < spec.num_events; ++e) {
        t += rng.Exponential(1.0 / spec.mean_gap);
        const int64_t user = DrawPowerLaw(rng, spec.num_users, 1.3);
        int64_t item;
        if (last_item[static_cast<size_t>(user)] >= 0 &&
            rng.Bernoulli(spec.repeat_prob)) {
            item = last_item[static_cast<size_t>(user)];
        } else {
            item = DrawPowerLaw(rng, spec.num_items, spec.popularity_alpha);
        }
        last_item[static_cast<size_t>(user)] = item;

        graph::TemporalEvent ev;
        ev.src = user;
        ev.dst = spec.num_users + item;
        ev.time = t;
        ev.feature_index = e;
        events.push_back(ev);
    }

    InteractionDataset ds{spec,
                          graph::EventStream(num_nodes, std::move(events)),
                          init::Normal(Shape({spec.num_events, spec.edge_feature_dim}),
                                       rng, 0.3f),
                          init::Normal(Shape({num_nodes, spec.edge_feature_dim}), rng,
                                       0.3f)};
    return ds;
}

}  // namespace dgnn::data
