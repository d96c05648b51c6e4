#include "data/social_evolution_gen.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

#include "support/check.hpp"
#include "tensor/random.hpp"

namespace dgnn::data {

PointProcessSpec
PointProcessSpec::SocialEvolutionLike()
{
    return PointProcessSpec{};
}

PointProcessSpec
PointProcessSpec::GithubLike()
{
    PointProcessSpec s;
    s.name = "github";
    s.num_actors = 400;
    s.num_events = 4000;
    s.association_frac = 0.12;  // follows/stars change topology more often
    s.burstiness = 4.0;
    s.seed = 82;
    return s;
}

void
ValidateSocialEvolutionSpec(const PointProcessSpec& spec)
{
    DGNN_CHECK(spec.num_actors >= 2, "num_actors must be at least 2 (an event "
               "joins two distinct actors), got ", spec.num_actors);
    DGNN_CHECK(spec.num_events >= 0, "num_events must be non-negative, got ",
               spec.num_events);
    // Written so that NaN fails too.
    DGNN_CHECK(spec.association_frac >= 0.0 && spec.association_frac <= 1.0,
               "association_frac must lie in [0, 1], got ", spec.association_frac);
    DGNN_CHECK(std::isfinite(spec.burstiness) && spec.burstiness >= 0.0,
               "burstiness must be non-negative and finite, got ", spec.burstiness);
    // The stream holds num_events events; its byte count must be
    // representable before anything is sized from it.
    constexpr int64_t kEventBytes =
        static_cast<int64_t>(sizeof(graph::TemporalEvent));
    DGNN_CHECK(spec.num_events <= std::numeric_limits<int64_t>::max() / kEventBytes,
               "num_events x ", kEventBytes, " bytes overflows int64: num_events ",
               spec.num_events);
}

PointProcessDataset
GeneratePointProcess(const PointProcessSpec& spec)
{
    ValidateSocialEvolutionSpec(spec);
    Rng rng(spec.seed);

    // Recent-pair memory drives self-excitation.
    std::vector<std::pair<int64_t, int64_t>> hot_pairs;
    std::vector<graph::TemporalEvent> events;
    std::vector<PointEventKind> kinds;
    events.reserve(static_cast<size_t>(spec.num_events));
    kinds.reserve(static_cast<size_t>(spec.num_events));

    double t = 0.0;
    for (int64_t e = 0; e < spec.num_events; ++e) {
        t += rng.Exponential(1.0);
        int64_t u;
        int64_t v;
        const bool excited =
            !hot_pairs.empty() &&
            rng.Bernoulli(spec.burstiness / (spec.burstiness + 1.0));
        if (excited) {
            const auto& p = hot_pairs[static_cast<size_t>(
                rng.UniformInt(0, static_cast<int64_t>(hot_pairs.size()) - 1))];
            u = p.first;
            v = p.second;
        } else {
            u = rng.UniformInt(0, spec.num_actors - 1);
            do {
                v = rng.UniformInt(0, spec.num_actors - 1);
            } while (v == u);
        }
        graph::TemporalEvent ev;
        ev.src = u;
        ev.dst = v;
        ev.time = t;
        ev.feature_index = e;
        events.push_back(ev);
        kinds.push_back(rng.Bernoulli(spec.association_frac)
                            ? PointEventKind::kAssociation
                            : PointEventKind::kCommunication);

        hot_pairs.emplace_back(u, v);
        if (hot_pairs.size() > 32) {
            hot_pairs.erase(hot_pairs.begin());
        }
    }

    return PointProcessDataset{
        spec, graph::EventStream(spec.num_actors, std::move(events)),
        std::move(kinds)};
}

}  // namespace dgnn::data
