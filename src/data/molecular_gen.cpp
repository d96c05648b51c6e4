#include "data/molecular_gen.hpp"

#include <cmath>
#include <limits>

#include "support/check.hpp"
#include "tensor/random.hpp"

namespace dgnn::data {

MolecularSpec
MolecularSpec::Iso17Like()
{
    return MolecularSpec{};
}

int64_t
MolecularDataset::FrameBytes() const
{
    return spec.num_atoms * spec.num_atoms * static_cast<int64_t>(sizeof(float));
}

void
ValidateMolecularSpec(const MolecularSpec& spec)
{
    DGNN_CHECK(spec.num_atoms >= 2, "num_atoms must be at least 2 (atoms sit on a "
               "ring), got ", spec.num_atoms);
    DGNN_CHECK(spec.num_frames >= 1, "num_frames must be positive, got ",
               spec.num_frames);
    DGNN_CHECK(spec.atom_feature_dim >= 1, "atom_feature_dim must be positive, got ",
               spec.atom_feature_dim);
    DGNN_CHECK(std::isfinite(spec.bond_threshold) && spec.bond_threshold >= 0.0,
               "bond_threshold must be non-negative and finite, got ",
               spec.bond_threshold);
    // Every frame holds a [num_atoms, num_atoms] float adjacency and the
    // atom features are [num_atoms, atom_feature_dim] floats; their byte
    // counts must be representable before anything is sized from them.
    constexpr int64_t kMaxBytes = std::numeric_limits<int64_t>::max();
    DGNN_CHECK(spec.num_atoms <= kMaxBytes / 4 / spec.num_atoms,
               "num_atoms^2 x 4 bytes overflows int64: num_atoms ", spec.num_atoms);
    const int64_t frame_bytes = spec.num_atoms * spec.num_atoms * 4;
    DGNN_CHECK(spec.num_frames <= kMaxBytes / frame_bytes,
               "num_frames x num_atoms^2 x 4 bytes overflows int64: num_frames ",
               spec.num_frames, ", num_atoms ", spec.num_atoms);
    DGNN_CHECK(spec.atom_feature_dim <= kMaxBytes / 4 / spec.num_atoms,
               "num_atoms x atom_feature_dim x 4 bytes overflows int64: "
               "atom_feature_dim ",
               spec.atom_feature_dim, ", num_atoms ", spec.num_atoms);
}

MolecularDataset
GenerateMolecular(const MolecularSpec& spec)
{
    ValidateMolecularSpec(spec);
    Rng rng(spec.seed);

    // Atoms on a ring with oscillating radial displacement — bonds between
    // ring neighbors persist, longer-range bonds flicker with vibration.
    struct Atom {
        double angle;
        double amp;
        double freq;
        double phase;
    };
    std::vector<Atom> atoms(static_cast<size_t>(spec.num_atoms));
    for (int64_t i = 0; i < spec.num_atoms; ++i) {
        atoms[static_cast<size_t>(i)] = Atom{
            2.0 * M_PI * static_cast<double>(i) / static_cast<double>(spec.num_atoms),
            0.15 + 0.1 * rng.Uniform(),
            0.5 + rng.Uniform(),
            rng.Uniform(0.0f, static_cast<float>(2.0 * M_PI)),
        };
    }

    MolecularDataset ds;
    ds.spec = spec;
    ds.adjacency.reserve(static_cast<size_t>(spec.num_frames));
    const double ring_radius =
        1.0 / (2.0 * std::sin(M_PI / static_cast<double>(spec.num_atoms))) * 1.2;

    for (int64_t f = 0; f < spec.num_frames; ++f) {
        const double t = static_cast<double>(f) * 0.1;
        std::vector<double> xs(static_cast<size_t>(spec.num_atoms));
        std::vector<double> ys(static_cast<size_t>(spec.num_atoms));
        for (int64_t i = 0; i < spec.num_atoms; ++i) {
            const Atom& a = atoms[static_cast<size_t>(i)];
            const double r = ring_radius + a.amp * std::sin(a.freq * t + a.phase);
            xs[static_cast<size_t>(i)] = r * std::cos(a.angle);
            ys[static_cast<size_t>(i)] = r * std::sin(a.angle);
        }
        Tensor adj(Shape({spec.num_atoms, spec.num_atoms}));
        for (int64_t i = 0; i < spec.num_atoms; ++i) {
            for (int64_t j = 0; j < spec.num_atoms; ++j) {
                if (i == j) {
                    continue;
                }
                const double dx = xs[static_cast<size_t>(i)] - xs[static_cast<size_t>(j)];
                const double dy = ys[static_cast<size_t>(i)] - ys[static_cast<size_t>(j)];
                const double dist = std::sqrt(dx * dx + dy * dy);
                if (dist < spec.bond_threshold) {
                    adj.At(i, j) = 1.0f;
                }
            }
        }
        ds.adjacency.push_back(std::move(adj));
    }
    ds.atom_features =
        init::Normal(Shape({spec.num_atoms, spec.atom_feature_dim}), rng, 0.3f);
    return ds;
}

}  // namespace dgnn::data
