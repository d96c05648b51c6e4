/// The two offline workloads: closed loops with one client that run
/// hybrid-mode RunInference at full numerics (numeric_cap = 0) over one
/// seeded dataset per model family.
///
///   offline-ctdg  TGN, TGAT and JODIE over one Wikipedia-like stream,
///                 batch 200 — 1-row GEMM shapes plus the temporal sampler.
///   offline-dtdg  EvolveGCN-O on Reddit-Hyperlink-like snapshots, MolDGNN
///                 on ISO17-like frames, ASTGNN on PEMS-like windows —
///                 block GEMM shapes plus SpMM, no temporal sampler.
///
/// Every measured repetition builds fresh models (TGN and JODIE mutate node
/// state) and must reproduce the first repetition's simulated results bit
/// for bit. A traced run also replays the tensor/nn/graph calls the models
/// make, at the shapes and counts the workload issues, to split the host
/// time per layer.

#include <algorithm>
#include <cstdint>
#include <exception>
#include <map>
#include <memory>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "data/molecular_gen.hpp"
#include "data/snapshot_seq_gen.hpp"
#include "data/temporal_interactions.hpp"
#include "data/traffic_gen.hpp"
#include "graph/tbatch.hpp"
#include "graph/temporal_sampler.hpp"
#include "models/astgnn.hpp"
#include "models/evolvegcn.hpp"
#include "models/jodie.hpp"
#include "models/moldgnn.hpp"
#include "models/tgat.hpp"
#include "models/tgn.hpp"
#include "nn/gcn.hpp"
#include "tensor/ops.hpp"
#include "tensor/random.hpp"

namespace perfbench {

using namespace dgnn;

namespace {

/// Seed of the fixed small canary inputs whose checksums are pinned for
/// every run, whatever --seed says.
constexpr uint64_t kCanarySeed = 1009;
constexpr int64_t kCtdgBatch = 200;
constexpr int64_t kNeighbors = 20;
/// DTDG batch widths chosen so every model runs the same number of
/// mini-batches: one snapshot, 32 frames or 16 windows per time step.
constexpr int64_t kMolFrameBatch = 32;
constexpr int64_t kAstWindowBatch = 16;
constexpr uint64_t kReplaySeed = 5;

/// Keeps replayed results observable so the calls are not optimized away.
volatile float g_sink = 0.0f;

void
Sink(const Tensor& t)
{
    if (t.NumElements() > 0) {
        g_sink = g_sink + t.Data()[0];
    }
}

Tensor
RandomTensor(Shape shape, Rng& rng)
{
    Tensor t(shape);
    for (int64_t i = 0; i < t.NumElements(); ++i) {
        t.Data()[i] = rng.Uniform(-1.0f, 1.0f);
    }
    return t;
}

/// One model of an offline workload: how to build it fresh and run it.
struct ModelSpec {
    std::function<std::unique_ptr<models::DgnnModel>()> make;
    models::RunConfig run;
    int64_t items = 0;    ///< events or time steps one run processes
    int64_t batches = 0;  ///< mini-batches one run issues
};

struct ModelRun {
    std::string name;
    models::RunResult result;
    double host_s = 0.0;
    /// Simulated latency of each mini-batch, us.
    std::vector<double> batch_us;
    int64_t launches = 0;
    bool ok = false;
};

/// One repetition over all of the workload's models.
struct Pass {
    std::vector<ModelRun> runs;
    double host_s = 0.0;
};

models::RunConfig
HybridRun(int64_t batch_size)
{
    models::RunConfig run;
    run.mode = sim::ExecMode::kHybrid;
    run.batch_size = batch_size;
    run.num_neighbors = kNeighbors;
    run.numeric_cap = 0;
    return run;
}

/// Splits the measured window into mini-batches at the per-batch framework
/// overhead every model charges (TGN charges it in three parts), giving
/// each batch's simulated latency in the closed loop.
std::vector<double>
BatchLatenciesUs(const sim::Runtime& runtime, const models::RunResult& result)
{
    std::vector<double> starts;
    for (const sim::TraceEvent& e : runtime.GetTrace().Events()) {
        if (e.kind == sim::EventKind::kHostOp && e.name == "framework_overhead" &&
            e.start_us >= runtime.MeasureStart()) {
            starts.push_back(e.start_us);
        }
    }
    const auto iterations = static_cast<size_t>(result.iterations);
    if (iterations == 0 || starts.size() % iterations != 0) {
        return {};
    }
    const size_t stride = starts.size() / iterations;
    const double window_end = runtime.MeasureStart() + result.total_us;
    std::vector<double> latencies;
    for (size_t i = 0; i < iterations; ++i) {
        const double end = i + 1 < iterations ? starts[(i + 1) * stride] : window_end;
        latencies.push_back(end - starts[i * stride]);
    }
    return latencies;
}

Pass
RunPass(const std::vector<ModelSpec>& specs, SpanRecorder& spans, Report& report)
{
    Pass pass;
    for (const ModelSpec& spec : specs) {
        ModelRun run;
        std::unique_ptr<models::DgnnModel> model;
        {
            ScopedSpan span(spans, "models.construct");
            model = spec.make();
        }
        run.name = MetricToken(model->Name());
        sim::Runtime runtime = models::MakeRuntime(sim::ExecMode::kHybrid);
        try {
            ScopedSpan span(spans, "models." + run.name + ".run_inference");
            const Clock::time_point start = Clock::now();
            run.result = model->RunInference(runtime, spec.run);
            run.host_s = SecondsSince(start);
            run.ok = true;
        } catch (const std::exception& e) {
            report.Check(false, run.name + " RunInference threw: " + e.what());
        }
        int64_t failed = spec.batches;
        if (run.ok) {
            run.batch_us = BatchLatenciesUs(runtime, run.result);
            for (const sim::TraceEvent& e : runtime.GetTrace().Events()) {
                run.launches += e.kind == sim::EventKind::kKernel ? 1 : 0;
            }
            failed = std::max<int64_t>(0, spec.batches - run.result.iterations);
        }
        report.Operations(spec.batches, failed);
        pass.host_s += run.host_s;
        pass.runs.push_back(std::move(run));
    }
    return pass;
}

/// Every simulated figure of a pass, for bit-identity checks.
std::vector<double>
SimFingerprint(const Pass& pass)
{
    std::vector<double> f;
    for (const ModelRun& run : pass.runs) {
        const models::RunResult& r = run.result;
        f.insert(f.end(),
                 {r.total_us, r.per_iteration_us, static_cast<double>(r.iterations),
                  r.compute_utilization_pct, static_cast<double>(r.h2d_bytes),
                  static_cast<double>(r.d2h_bytes), r.transfer_time_us,
                  r.warmup_one_time_us, r.warmup_per_run_us, r.compute_busy_us,
                  r.output_checksum, static_cast<double>(run.launches)});
        for (const core::BreakdownEntry& e : r.breakdown.Entries()) {
            f.push_back(e.time_us);
        }
        f.insert(f.end(), run.batch_us.begin(), run.batch_us.end());
    }
    return f;
}

bool
SameBits(const std::vector<double>& a, const std::vector<double>& b)
{
    return a.size() == b.size() &&
           std::equal(a.begin(), a.end(), b.begin(),
                      [](double x, double y) { return x == y; });
}

struct Phase {
    Pass first;
    std::vector<double> pass_host_s;
    std::map<std::string, std::vector<double>> model_host_s;
};

/// The measured phase: one warm-up repetition, whose simulated results
/// every later one must reproduce, then repetitions until @p seconds of host
/// time passed. A single-repetition phase times its only repetition.
Phase
Measure(const std::vector<ModelSpec>& specs, double seconds, bool single,
        SpanRecorder& spans, Report& report, const std::string& label,
        const std::function<void(const Pass&)>& after_timed_pass = {})
{
    Phase phase;
    const Clock::time_point start = Clock::now();
    std::vector<double> reference;
    for (int64_t rep = 0;; ++rep) {
        spans.SetRun(rep);
        Pass pass = RunPass(specs, spans, report);
        const std::vector<double> fingerprint = SimFingerprint(pass);
        if (rep == 0) {
            reference = fingerprint;
        } else {
            report.Check(SameBits(reference, fingerprint),
                         label + " repetition " + std::to_string(rep) +
                             " reproduces the simulated results");
        }
        if (rep > 0 || single) {
            phase.pass_host_s.push_back(pass.host_s);
            for (const ModelRun& run : pass.runs) {
                phase.model_host_s[run.name].push_back(run.host_s);
            }
            if (after_timed_pass) {
                after_timed_pass(pass);
            }
        }
        if (rep == 0) {
            phase.first = std::move(pass);
        }
        if (single || (rep > 0 && SecondsSince(start) >= seconds)) {
            break;
        }
    }
    return phase;
}

/// Per-layer values gathered once per traced repetition, reported as
/// medians so each sits next to the model runs it is compared with.
class LayerSamples {
  public:
    void Add(const std::string& name, double value, const std::string& unit)
    {
        auto [it, inserted] = samples_.try_emplace(name);
        if (inserted) {
            order_.push_back(name);
            it->second.first = unit;
        }
        it->second.second.push_back(value);
    }

    void ReportMedians(Report& report) const
    {
        for (const std::string& name : order_) {
            const auto& [unit, values] = samples_.at(name);
            report.Metric(name, Median(values), unit);
        }
    }

  private:
    std::map<std::string, std::pair<std::string, std::vector<double>>> samples_;
    std::vector<std::string> order_;
};

/// A seeded set of datasets plus the models that run over them.
class OfflineSuite {
  public:
    virtual ~OfflineSuite() = default;
    /// Generates the datasets (full size, or the small canary/smoke size).
    virtual void Generate(uint64_t seed, bool small) = 0;
    virtual std::vector<ModelSpec> Specs() const = 0;
    /// Replays the tensor/nn/graph calls at workload shapes, records the
    /// per-layer metrics, and returns the replayed host seconds per model.
    virtual std::map<std::string, double> Replay(SpanRecorder& spans,
                                                 LayerSamples& samples) const = 0;
};

/// Host seconds the CPU cost model predicts for the kernels @p call issues
/// through an NnExecutor. A CPU-only runtime runs every launch on the host
/// clock, which advances by sim::KernelDuration on the CPU preset for each
/// descriptor.
double
CpuModelSeconds(const std::function<void(models::NnExecutor&)>& call)
{
    sim::Runtime runtime = models::MakeRuntime(sim::ExecMode::kCpuOnly);
    models::NnExecutor exec(runtime);
    const double start_us = runtime.Now();
    call(exec);
    return (runtime.Now() - start_us) * 1e-6;
}

/// Reports nn.<layer>.host_us and its CPU cost-model ratio.
void
ReportLayer(LayerSamples& samples, const std::string& layer, double host_s,
            const std::function<void(models::NnExecutor&)>& call)
{
    samples.Add("nn." + layer + ".host_us", host_s * 1e6, "us");
    samples.Add("nn." + layer + ".cpu_model_ratio",
                  host_s > 0.0 ? CpuModelSeconds(call) / host_s : 0.0, "ratio");
}

// ------------------------------------------------------------------ CTDG

class CtdgSuite final : public OfflineSuite {
  public:
    void Generate(uint64_t seed, bool small) override
    {
        data::InteractionSpec spec =
            data::InteractionSpec::WikipediaLike(small ? 400 : 2000);
        spec.seed = seed;
        dataset_ = std::make_unique<data::InteractionDataset>(
            data::GenerateInteractions(spec));
    }

    std::vector<ModelSpec> Specs() const override
    {
        const data::InteractionDataset& ds = *dataset_;
        const int64_t events = ds.stream.NumEvents();
        const int64_t batches = (events + kCtdgBatch - 1) / kCtdgBatch;
        const models::RunConfig run = HybridRun(kCtdgBatch);
        return {
            {[&ds] { return std::make_unique<models::Tgn>(ds, models::TgnConfig{}); },
             run, events, batches},
            {[&ds] { return std::make_unique<models::Tgat>(ds, models::TgatConfig{}); },
             run, events, batches},
            {[&ds] {
                 return std::make_unique<models::Jodie>(ds, models::JodieConfig{});
             },
             run, events, batches},
        };
    }

    std::map<std::string, double> Replay(SpanRecorder& spans,
                                         LayerSamples& samples) const override;

  private:
    std::unique_ptr<data::InteractionDataset> dataset_;
};

std::map<std::string, double>
CtdgSuite::Replay(SpanRecorder& spans, LayerSamples& samples) const
{
    const data::InteractionDataset& ds = *dataset_;
    const graph::EventStream& stream = ds.stream;
    const int64_t events = stream.NumEvents();
    const models::TgnConfig tgn;
    const models::TgatConfig tgat;
    const models::JodieConfig jodie;
    const int64_t md = tgn.memory_dim;
    const int64_t feat = ds.spec.edge_feature_dim;
    const int64_t msg = 2 * md + tgn.time_dim + feat;
    const int64_t k = kNeighbors;

    // Per-batch shapes the models issue: TGN updates each batch's unique
    // endpoints; JODIE runs one RNN step per t-batch.
    int64_t batches = 0;
    int64_t unique_sum = 0;
    int64_t tbatches = 0;
    int64_t tbatch_events = 0;
    for (int64_t begin = 0; begin < events; begin += kCtdgBatch) {
        const int64_t end = std::min(begin + kCtdgBatch, events);
        std::set<int64_t> unique;
        for (const graph::TemporalEvent& e : stream.Slice(begin, end)) {
            unique.insert(e.src);
            unique.insert(e.dst);
        }
        unique_sum += static_cast<int64_t>(unique.size());
        for (const graph::TBatch& tb : graph::BuildTBatches(stream, begin, end)) {
            ++tbatches;
            tbatch_events += static_cast<int64_t>(tb.event_indices.size());
        }
        ++batches;
    }

    // graph: both samplers, replayed exactly as the models drive them.
    const graph::TemporalAdjacency adjacency(stream);
    double recent_s = 0.0;
    double uniform_s = 0.0;
    int64_t valid_neighbors = 0;
    {
        ScopedSpan span(spans, "graph.sampler.recent");
        const Clock::time_point start = Clock::now();
        graph::TemporalNeighborSampler sampler(
            adjacency, graph::SamplingStrategy::kMostRecent, tgn.seed + 1);
        for (int64_t begin = 0; begin < events; begin += kCtdgBatch) {
            const auto batch = stream.Slice(begin, std::min(begin + kCtdgBatch, events));
            std::vector<int64_t> nodes;
            std::vector<double> times;
            for (const graph::TemporalEvent& e : batch) {
                nodes.insert(nodes.end(), {e.src, e.dst});
                times.insert(times.end(), {e.time, e.time});
            }
            (void)sampler.SampleBatch(nodes, times, k);
            (void)sampler.TakeCost();
            for (const graph::TemporalEvent& e : batch) {
                (void)sampler.Sample(e.src, e.time, k);
            }
        }
        recent_s = SecondsSince(start);
    }
    {
        ScopedSpan span(spans, "graph.sampler.uniform");
        const Clock::time_point start = Clock::now();
        graph::TemporalNeighborSampler sampler(
            adjacency, graph::SamplingStrategy::kUniform, tgat.seed + 1);
        for (int64_t begin = 0; begin < events; begin += kCtdgBatch) {
            const auto batch = stream.Slice(begin, std::min(begin + kCtdgBatch, events));
            std::vector<int64_t> nodes;
            std::vector<double> times;
            for (const graph::TemporalEvent& e : batch) {
                nodes.insert(nodes.end(), {e.src, e.dst});
                times.insert(times.end(), {e.time, e.time});
            }
            (void)sampler.SampleBatch(nodes, times, k);
            (void)sampler.TakeCost();
            graph::TemporalNeighborSampler numeric(
                adjacency, graph::SamplingStrategy::kUniform, tgat.seed + 2);
            for (size_t i = 0; i < nodes.size(); ++i) {
                const graph::SampledNeighborhood hood =
                    numeric.Sample(nodes[i], times[i], k);
                for (const int64_t nbr : hood.neighbors) {
                    valid_neighbors += nbr >= 0 ? 1 : 0;
                }
            }
        }
        uniform_s = SecondsSince(start);
    }
    samples.Add("graph.sampler.recent.host_us_per_target",
                  recent_s * 1e6 / static_cast<double>(3 * events), "us");
    samples.Add("graph.sampler.uniform.host_us_per_target",
                  uniform_s * 1e6 / static_cast<double>(4 * events), "us");

    // nn + tensor at the shapes the models issue, with random weights.
    Rng rng(kReplaySeed);
    const int64_t unique_mean =
        std::max<int64_t>(1, (unique_sum + batches / 2) / std::max<int64_t>(1, batches));
    const int64_t tbatch_mean = std::max<int64_t>(
        1, (tbatch_events + tbatches / 2) / std::max<int64_t>(1, tbatches));

    nn::BochnerTimeEncoder time_encoder(tgn.time_dim, rng);
    const Tensor delta_one = RandomTensor(Shape({1}), rng);
    const Tensor delta_k = RandomTensor(Shape({k}), rng);
    nn::GruCell gru(msg, md, rng);
    const Tensor gru_x = RandomTensor(Shape({unique_mean, msg}), rng);
    const Tensor gru_h = RandomTensor(Shape({unique_mean, md}), rng);
    nn::MultiHeadAttention attention(md, tgn.num_heads, rng);
    const Tensor query = RandomTensor(Shape({1, md}), rng);
    const Tensor kv = RandomTensor(Shape({k, md}), rng);
    nn::Mlp decoder(std::vector<int64_t>{2 * md, md, 1}, rng);
    const Tensor pair = RandomTensor(Shape({1, 2 * md}), rng);
    nn::Linear feature_proj(feat, tgat.embed_dim, rng);
    const Tensor raw = RandomTensor(Shape({1, feat}), rng);
    nn::Linear merge(2 * tgat.embed_dim, tgat.embed_dim, rng);
    nn::Linear item_predictor(jodie.embed_dim, jodie.embed_dim, rng);
    nn::RnnCell rnn(jodie.embed_dim, jodie.embed_dim, rng);
    const Tensor jodie_x = RandomTensor(Shape({tbatch_mean, jodie.embed_dim}), rng);

    const double t_tenc_one = TimePerCall(spans, "nn.time_encoder", [&] {
        Sink(time_encoder.Forward(delta_one));
    });
    const double t_tenc_k = TimePerCall(spans, "nn.time_encoder", [&] {
        Sink(time_encoder.Forward(delta_k));
    });
    const double t_gru = TimePerCall(spans, "nn.gru", [&] { Sink(gru.Forward(gru_x, gru_h)); });
    const double t_attention = TimePerCall(spans, "nn.attention", [&] {
        Sink(attention.Forward(query, kv, kv));
    });
    const double t_decoder = TimePerCall(spans, "nn.decoder", [&] {
        Sink(ops::Sigmoid(decoder.Forward(pair)));
    });
    const double t_proj = TimePerCall(spans, "nn.linear", [&] {
        Sink(feature_proj.Forward(raw));
    });
    const double t_merge = TimePerCall(spans, "nn.linear", [&] {
        Sink(ops::Relu(merge.Forward(pair)));
    });
    const double t_predict = TimePerCall(spans, "nn.linear", [&] {
        Sink(item_predictor.Forward(jodie_x));
    });
    const double t_rnn = TimePerCall(spans, "nn.rnn", [&] {
        Sink(rnn.Forward(jodie_x, jodie_x));
    });
    const Tensor weight = RandomTensor(Shape({tgat.embed_dim, feat}), rng);
    const double t_row = TimePerCall(spans, "tensor.matmul_t", [&] {
        Sink(ops::MatMulTransposed(raw, weight));
    });
    samples.Add("tensor.matmul_t.gflops.row",
                  static_cast<double>(ops::MatMulFlops(1, feat, tgat.embed_dim)) /
                      t_row * 1e-9,
                  "GFLOP/s");

    ReportLayer(samples, "gru", t_gru, [&](models::NnExecutor& e) {
        (void)e.Gru(gru, gru_x, gru_h);
    });
    ReportLayer(samples, "attention", t_attention, [&](models::NnExecutor& e) {
        (void)e.Attention(attention, query, kv, kv);
    });
    ReportLayer(samples, "decoder", t_decoder,
                [&](models::NnExecutor& e) { (void)e.Mlp(decoder, pair); });
    ReportLayer(samples, "time_encoder", t_tenc_k, [&](models::NnExecutor& e) {
        (void)e.TimeEncode(time_encoder, delta_k);
    });
    ReportLayer(samples, "linear", t_proj,
                [&](models::NnExecutor& e) { (void)e.Linear(feature_proj, raw); });
    ReportLayer(samples, "rnn", t_rnn,
                [&](models::NnExecutor& e) { (void)e.Rnn(rnn, jodie_x, jodie_x); });

    // Host seconds the replay accounts for, per model, from the call counts
    // of the models' numeric paths.
    const double targets = static_cast<double>(2 * events);
    const double n_events = static_cast<double>(events);
    return {
        {"tgn", recent_s + static_cast<double>(unique_sum) * t_tenc_one +
                    t_gru * static_cast<double>(unique_sum) /
                        static_cast<double>(unique_mean) +
                    n_events * (t_attention + t_decoder)},
        {"tgat", uniform_s +
                     (targets + static_cast<double>(valid_neighbors)) * t_proj +
                     targets * (t_merge + t_tenc_k + t_tenc_one + t_attention)},
        {"jodie", static_cast<double>(tbatches) * (t_predict + 2.0 * t_rnn)},
    };
}

// ------------------------------------------------------------------ DTDG

class DtdgSuite final : public OfflineSuite {
  public:
    void Generate(uint64_t seed, bool small) override
    {
        data::SnapshotSpec snapshots = data::SnapshotSpec::RedditHyperlinkLike();
        data::MolecularSpec molecules = data::MolecularSpec::Iso17Like();
        data::TrafficSpec traffic = data::TrafficSpec::PemsLike();
        snapshots.seed = seed;
        molecules.seed = seed;
        traffic.seed = seed;
        if (small) {
            snapshots.num_nodes = 400;
            snapshots.num_steps = 2;
            snapshots.edges_per_step = 2000;
            traffic.num_timesteps = 64;
        }
        molecules.num_frames = snapshots.num_steps * kMolFrameBatch;
        snapshots_ = std::make_unique<data::SnapshotDataset>(
            data::GenerateSnapshots(snapshots));
        molecules_ = std::make_unique<data::MolecularDataset>(
            data::GenerateMolecular(molecules));
        traffic_ = std::make_unique<data::TrafficDataset>(data::GenerateTraffic(traffic));
    }

    std::vector<ModelSpec> Specs() const override
    {
        const data::SnapshotDataset& sd = *snapshots_;
        const data::MolecularDataset& md = *molecules_;
        const data::TrafficDataset& td = *traffic_;
        const int64_t steps = sd.sequence.NumSteps();
        models::RunConfig windows = HybridRun(kAstWindowBatch);
        windows.max_events = steps * kAstWindowBatch;
        return {
            {[&sd] {
                 return std::make_unique<models::EvolveGcn>(sd, models::EvolveGcnConfig{});
             },
             HybridRun(1), steps, steps},
            {[&md] {
                 return std::make_unique<models::MolDgnn>(md, models::MolDgnnConfig{});
             },
             HybridRun(kMolFrameBatch), md.NumFrames(), steps},
            {[&td] {
                 return std::make_unique<models::Astgnn>(td, models::AstgnnConfig{});
             },
             windows, windows.max_events, steps},
        };
    }

    std::map<std::string, double> Replay(SpanRecorder& spans,
                                         LayerSamples& samples) const override;

  private:
    std::unique_ptr<data::SnapshotDataset> snapshots_;
    std::unique_ptr<data::MolecularDataset> molecules_;
    std::unique_ptr<data::TrafficDataset> traffic_;
};

std::map<std::string, double>
DtdgSuite::Replay(SpanRecorder& spans, LayerSamples& samples) const
{
    const data::SnapshotDataset& sd = *snapshots_;
    const data::MolecularDataset& md = *molecules_;
    const data::TrafficDataset& td = *traffic_;
    const int64_t steps = sd.sequence.NumSteps();
    const int64_t frames = md.NumFrames();
    const models::EvolveGcnConfig egcn;
    const models::MolDgnnConfig mol;
    const models::AstgnnConfig ast;

    // graph: normalized adjacency built per snapshot and per frame.
    double snapshot_s = 0.0;
    double frame_s = 0.0;
    {
        ScopedSpan span(spans, "graph.snapshot_build");
        Clock::time_point start = Clock::now();
        for (int64_t t = 0; t < steps; ++t) {
            const nn::SparseMatrix a = models::ToNormalizedCsr(sd.sequence.Step(t));
            g_sink = g_sink + static_cast<float>(a.Nnz());
        }
        snapshot_s = SecondsSince(start);
        start = Clock::now();
        for (const Tensor& adjacency : md.adjacency) {
            const nn::SparseMatrix a = models::DenseToNormalizedCsr(adjacency);
            g_sink = g_sink + static_cast<float>(a.Nnz());
        }
        frame_s = SecondsSince(start);
    }
    samples.Add("graph.snapshot_build_s", snapshot_s + frame_s, "s");

    Rng rng(kReplaySeed);
    // EvolveGCN-O: two evolved-weight GRU steps and two GCN layers per step.
    const nn::SparseMatrix a_hat = models::ToNormalizedCsr(sd.sequence.Step(0));
    const int64_t nodes = sd.node_features.Dim(0);
    const int64_t feat = sd.node_features.Dim(1);
    const int64_t hidden = egcn.hidden_dim;
    nn::GruCell weight_gru(feat, feat, rng);
    const Tensor weights = RandomTensor(Shape({hidden, feat}), rng);
    nn::GcnLayer gcn(feat, hidden, rng);
    const double t_weight_gru = TimePerCall(spans, "nn.gru", [&] {
        Sink(weight_gru.Forward(weights, weights));
    });
    const double t_gcn = TimePerCall(spans, "nn.gcn", [&] {
        Sink(gcn.Forward(a_hat, sd.node_features));
    });
    const double t_block = TimePerCall(spans, "tensor.matmul_t", [&] {
        Sink(ops::MatMulTransposed(sd.node_features, weights));
    });
    const double t_spmm = TimePerCall(spans, "tensor.spmm", [&] {
        Sink(nn::Spmm(a_hat, sd.node_features));
    });
    samples.Add("tensor.matmul_t.gflops.block",
                  static_cast<double>(ops::MatMulFlops(nodes, feat, hidden)) /
                      t_block * 1e-9,
                  "GFLOP/s");
    samples.Add("tensor.spmm.gflops",
                  static_cast<double>(2 * a_hat.Nnz() * feat) / t_spmm * 1e-9,
                  "GFLOP/s");
    ReportLayer(samples, "gru", t_weight_gru, [&](models::NnExecutor& e) {
        (void)e.Gru(weight_gru, weights, weights);
    });
    ReportLayer(samples, "gcn", t_gcn, [&](models::NnExecutor& e) {
        (void)e.Gcn(gcn, a_hat, sd.node_features);
    });

    // MolDGNN: per frame one small GCN and one LSTM step; one FFN per batch.
    const int64_t atoms = md.spec.num_atoms;
    nn::GcnLayer mol_gcn(md.spec.atom_feature_dim, mol.gcn_dim, rng);
    nn::LstmCell lstm(mol.gcn_dim, mol.lstm_dim, rng);
    nn::Mlp ffn(std::vector<int64_t>{mol.lstm_dim, 2 * mol.lstm_dim, atoms * atoms},
                rng);
    const nn::SparseMatrix frame_a = models::DenseToNormalizedCsr(md.adjacency[0]);
    const Tensor frame_in = RandomTensor(Shape({1, mol.gcn_dim}), rng);
    const nn::LstmState state = lstm.InitialState(1);
    const double t_mol_gcn = TimePerCall(spans, "nn.gcn", [&] {
        Sink(ops::MeanRows(mol_gcn.Forward(frame_a, md.atom_features)));
    });
    const double t_lstm = TimePerCall(spans, "nn.lstm", [&] {
        Sink(lstm.Forward(frame_in, state).h);
    });
    const double t_ffn = TimePerCall(spans, "nn.decoder", [&] {
        Sink(ops::Sigmoid(ffn.Forward(state.h)));
    });
    ReportLayer(samples, "lstm", t_lstm, [&](models::NnExecutor& e) {
        (void)e.Lstm(lstm, frame_in, state);
    });
    ReportLayer(samples, "decoder", t_ffn,
                [&](models::NnExecutor& e) { (void)e.Mlp(ffn, state.h); });

    // ASTGNN: per batch six temporal-attention phases over four sensors and
    // four spatial GCN phases over the road graph.
    const int64_t hist = td.spec.history_len;
    nn::Linear input_proj(td.spec.channels, ast.model_dim, rng);
    nn::MultiHeadAttention temporal(ast.model_dim, ast.num_heads, rng);
    nn::GcnLayer spatial(ast.model_dim, ast.model_dim, rng);
    const nn::SparseMatrix road = models::ToNormalizedCsr(td.road_graph);
    const Tensor history = RandomTensor(Shape({hist, td.spec.channels}), rng);
    const Tensor sensors = RandomTensor(Shape({road.n, ast.model_dim}), rng);
    const Tensor projected = input_proj.Forward(history);
    const double t_input_proj = TimePerCall(spans, "nn.linear", [&] {
        Sink(input_proj.Forward(history));
    });
    const double t_temporal = TimePerCall(spans, "nn.attention", [&] {
        Sink(temporal.SelfAttention(projected));
    });
    const double t_spatial = TimePerCall(spans, "nn.gcn", [&] {
        Sink(spatial.Forward(road, sensors));
    });
    ReportLayer(samples, "attention", t_temporal, [&](models::NnExecutor& e) {
        (void)e.Attention(temporal, projected, projected, projected);
    });

    const auto batches = static_cast<double>(steps);
    // Encoder layers run one temporal phase each, decoder layers two.
    const int64_t phases = ast.encoder_layers + 2 * ast.decoder_layers;
    return {
        {"evolvegcn_o", snapshot_s + static_cast<double>(steps) *
                                         2.0 * (t_weight_gru + t_gcn)},
        {"moldgnn", frame_s + static_cast<double>(frames) * (t_mol_gcn + t_lstm) +
                        batches * t_ffn},
        {"astgnn", batches *
                       (static_cast<double>(4 * phases) * (t_input_proj + t_temporal) +
                        static_cast<double>(ast.encoder_layers + ast.decoder_layers) *
                            t_spatial)},
    };
}

// ------------------------------------------------------------- reporting

void
ReportEndToEnd(const Phase& phase, const std::vector<ModelSpec>& specs,
               Report& report)
{
    const Pass& pass = phase.first;
    double batch_ms = 0.0;
    double sim_s = 0.0;
    double host_s = 0.0;
    int64_t items = 0;
    // Every model runs the same number of mini-batches; the workload's i-th
    // mini-batch is the i-th batch of each model, back to back.
    std::vector<double> latencies(static_cast<size_t>(specs.front().batches), 0.0);
    for (size_t i = 0; i < pass.runs.size(); ++i) {
        const ModelRun& run = pass.runs[i];
        batch_ms += run.result.per_iteration_us / 1000.0;
        sim_s += run.result.total_us * 1e-6;
        host_s += Median(phase.model_host_s.at(run.name));
        items += specs[i].items;
        const bool aligned = run.batch_us.size() == latencies.size();
        report.Check(run.ok && run.result.iterations == specs[i].batches,
                     run.name + " ran every planned mini-batch");
        report.Check(aligned, run.name + " splits its window into the workload's " +
                                  std::to_string(latencies.size()) + " mini-batches");
        for (size_t b = 0; aligned && b < latencies.size(); ++b) {
            latencies[b] += run.batch_us[b] / 1000.0;
        }
    }
    std::sort(latencies.begin(), latencies.end());
    // Sum of the models' median host times, so one slow repetition of one
    // model moves the figure less than a median of whole passes would.
    report.Metric("host_items_per_s", host_s > 0.0 ? static_cast<double>(items) / host_s : 0.0,
                  "1/s");
    report.Metric("sim_batch_ms", batch_ms, "ms");
    // A closed loop with one client has one load point: the low and knee
    // columns both report the per-mini-batch latency distribution.
    for (const char* rate : {"low", "knee"}) {
        report.Metric(std::string("sim_p50_ms.") + rate,
                      SortedQuantile(latencies, 0.50), "ms");
        report.Metric(std::string("sim_p99_ms.") + rate,
                      SortedQuantile(latencies, 0.99), "ms");
    }
    report.Metric("sim_p999_ms.knee", SortedQuantile(latencies, 0.999), "ms");
    report.Metric("sim_max_qps", sim_s > 0.0 ? static_cast<double>(items) / sim_s : 0.0,
                  "1/s");
    report.Note("closed loop, 1 client: " + std::to_string(latencies.size()) +
                " latency samples (mini-batches) per repetition, " +
                std::to_string(phase.pass_host_s.size()) + " timed repetitions");

}

void
ReportSimLayers(const Pass& pass, Report& report)
{
    double h2d_mb = 0.0;
    double transfer_ms = 0.0;
    double util = 0.0;
    double launches = 0.0;
    double warmup_ms = 0.0;
    for (const ModelRun& run : pass.runs) {
        const models::RunResult& r = run.result;
        const double batches = static_cast<double>(std::max<int64_t>(1, r.iterations));
        h2d_mb += static_cast<double>(r.h2d_bytes) / batches / (1024.0 * 1024.0);
        transfer_ms += r.transfer_time_us / batches / 1000.0;
        util += r.compute_utilization_pct / static_cast<double>(pass.runs.size());
        launches += static_cast<double>(run.launches) / batches;
        warmup_ms += (r.warmup_one_time_us + r.warmup_per_run_us) / 1000.0;
        report.Metric("models." + run.name + ".sim_batch_ms",
                      r.per_iteration_us / 1000.0, "ms");
        for (const core::BreakdownEntry& e : r.breakdown.Entries()) {
            report.Metric("models." + run.name + ".sim." + MetricToken(e.category) +
                              "_ms",
                          e.time_us / batches / 1000.0, "ms");
        }
    }
    report.Metric("sim.h2d_mb_per_batch", h2d_mb, "MB");
    report.Metric("sim.transfer_ms_per_batch", transfer_ms, "ms");
    report.Metric("sim.gpu_util_pct", util, "%");
    report.Metric("sim.launches_per_batch", launches, "count");
    report.Metric("sim.warmup_ms", warmup_ms, "ms");
}

void
RunOffline(const Options& options, Report& report,
           const std::function<std::unique_ptr<OfflineSuite>()>& make_suite)
{
    SpanRecorder quiet(false);

    // Set-up: dataset generation and model construction. It runs once here
    // and again, on a copy that is thrown away, after every timed untraced
    // repetition: host speed drifts over seconds, and spreading the samples
    // over the run keeps setup_s from reading one moment of it.
    std::vector<double> setup_s;
    std::vector<double> gen_s;
    const auto set_up = [&] {
        const Clock::time_point start = Clock::now();
        std::unique_ptr<OfflineSuite> fresh = make_suite();
        fresh->Generate(options.seed, options.smoke);
        gen_s.push_back(SecondsSince(start));
        for (const ModelSpec& spec : fresh->Specs()) {
            (void)spec.make();
        }
        setup_s.push_back(SecondsSince(start));
        return fresh;
    };
    const std::unique_ptr<OfflineSuite> suite = set_up();
    const std::vector<ModelSpec> specs = suite->Specs();

    // Canary: fixed small inputs whose checksums are pinned for every seed.
    {
        std::unique_ptr<OfflineSuite> canary = make_suite();
        canary->Generate(kCanarySeed, true);
        Report scratch;
        const Pass pass = RunPass(canary->Specs(), quiet, scratch);
        for (const ModelRun& run : pass.runs) {
            report.Check(run.ok, "canary " + run.name + " ran");
            report.Checksum("canary." + run.name, run.result.output_checksum);
        }
    }

    const double budget = options.trace ? options.seconds / 2.0 : options.seconds;
    const Phase plain = Measure(specs, budget, options.smoke, quiet, report, "untraced",
                                [&](const Pass&) { (void)set_up(); });
    report.Metric("setup_s", Median(setup_s), "s");
    for (const ModelRun& run : plain.first.runs) {
        report.Checksum(run.name, run.result.output_checksum);
    }
    ReportEndToEnd(plain, specs, report);
    if (!options.trace) {
        return;
    }

    // Traced repetitions, each followed by the layer replay, so every
    // replay is timed right next to the model runs it is compared with.
    SpanRecorder spans(true);
    LayerSamples samples;
    const auto replay = [&](const Pass& pass) {
        const std::map<std::string, double> covered = suite->Replay(spans, samples);
        for (const ModelRun& run : pass.runs) {
            const auto it = covered.find(run.name);
            const double replayed = it != covered.end() ? it->second : 0.0;
            samples.Add("models." + run.name + ".host_s", run.host_s, "s");
            samples.Add("models." + run.name + ".host_unattributed_frac",
                        run.host_s > 0.0 ? 1.0 - replayed / run.host_s : 0.0, "frac");
        }
    };
    const Phase traced =
        Measure(specs, budget, options.smoke, spans, report, "traced", replay);
    report.Check(SameBits(SimFingerprint(plain.first), SimFingerprint(traced.first)),
                 "traced and untraced runs agree on every simulated figure");
    const double untraced_s = Median(plain.pass_host_s);
    report.Metric("obs.trace_overhead_frac",
                  untraced_s > 0.0 ? (Median(traced.pass_host_s) - untraced_s) / untraced_s
                                   : 0.0,
                  "frac");
    report.Metric("data.gen_s", Median(gen_s), "s");
    ReportSimLayers(traced.first, report);
    samples.ReportMedians(report);
    if (!options.spans_out.empty()) {
        spans.WriteTo(options.spans_out);
    }
}

}  // namespace

void
RunOfflineCtdg(const Options& options, Report& report)
{
    RunOffline(options, report, [] { return std::make_unique<CtdgSuite>(); });
}

void
RunOfflineDtdg(const Options& options, Report& report)
{
    RunOffline(options, report, [] { return std::make_unique<DtdgSuite>(); });
}

}  // namespace perfbench
