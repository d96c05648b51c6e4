#include "models/dgnn_model.hpp"

#include <algorithm>
#include <cmath>

#include "tensor/ops.hpp"

namespace dgnn::models {

sim::Runtime
MakeRuntime(sim::ExecMode mode)
{
    sim::RuntimeConfig config;
    config.mode = mode;
    return sim::Runtime(config);
}

void
ChargeBatchOverhead(sim::Runtime& runtime)
{
    runtime.RunHostFor("framework_overhead", kFrameworkBatchOverheadUs);
}

const sim::SlotResources&
AdmitBatch(sim::StagingPipeline& staging, core::Profiler& profiler,
           const std::string& wait_phase)
{
    core::ProfileScope scope(profiler, wait_phase);
    return staging.Admit();
}

void
DrainBatches(sim::StagingPipeline& staging, core::Profiler& profiler,
             const std::string& wait_phase)
{
    core::ProfileScope scope(profiler, wait_phase);
    staging.Drain();
}

void
ValidateRunConfig(const sim::Runtime& runtime, const RunConfig& config)
{
    DGNN_CHECK(config.batch_size > 0, "batch_size must be positive, got ",
               config.batch_size);
    DGNN_CHECK(config.num_neighbors >= 0, "num_neighbors must be non-negative, got ",
               config.num_neighbors);
    DGNN_CHECK(config.max_events >= 0, "max_events must be non-negative, got ",
               config.max_events);
    DGNN_CHECK(config.numeric_cap >= 0, "numeric_cap must be non-negative, got ",
               config.numeric_cap);
    DGNN_CHECK(config.mode == runtime.Mode(), "mode must match the runtime's: got ",
               sim::ToString(config.mode), ", runtime is ",
               sim::ToString(runtime.Mode()));
    DGNN_CHECK(config.cache.capacity_bytes >= 0,
               "cache.capacity_bytes must be non-negative, got ",
               config.cache.capacity_bytes);
}

cache::DeviceCache
MakeRunCache(const sim::Runtime& runtime, const RunConfig& run, int64_t row_bytes)
{
    if (!runtime.HasGpu() || run.cache.capacity_bytes <= 0 || row_bytes <= 0) {
        return cache::DeviceCache{};
    }
    cache::DeviceCacheConfig config = run.cache;
    config.row_bytes = row_bytes;
    return cache::DeviceCache(config);
}

RunConfig
SingleBatchProbe(sim::ExecMode mode, int64_t batch_size, int64_t num_neighbors)
{
    RunConfig run;
    run.mode = mode;
    run.batch_size = batch_size;
    run.num_neighbors = num_neighbors;
    run.max_events = batch_size;
    run.numeric_cap = 1;
    run.include_warmup = false;
    // The serving executors apply their own schedule to the captured
    // profile; capture the per-phase eager issue order.
    run.schedule = Schedule::kEager;
    return run;
}

RunResult
CollectRunStats(sim::Runtime& runtime, const std::string& model,
                const std::string& dataset, int64_t iterations)
{
    (void)runtime.Synchronize();
    RunResult r;
    r.model = model;
    r.dataset = dataset;
    r.mode = sim::ToString(runtime.Mode());
    r.total_us = runtime.ElapsedInWindow();
    r.iterations = iterations;
    r.per_iteration_us =
        iterations > 0 ? r.total_us / static_cast<double>(iterations) : r.total_us;
    r.compute_utilization_pct = runtime.ComputeUtilizationPct();
    r.compute_peak_bytes = runtime.ComputeDevice().Memory().PeakBytes();
    r.cpu_peak_bytes = runtime.Cpu().Memory().PeakBytes();
    r.h2d_bytes = runtime.BytesToDevice();
    r.d2h_bytes = runtime.BytesToHost();
    r.transfer_count = runtime.TransferCount();
    r.transfer_time_us = runtime.TransferTime();
    r.compute_busy_us = runtime.ComputeDevice().BusyTime();
    r.cache_hit_bytes = runtime.CacheHitBytes();
    r.breakdown = core::Breakdown::FromRuntime(runtime);
    return r;
}

namespace {

/// Approximate payload bytes of tensors touched by a kernel.
int64_t
TensorBytes(std::initializer_list<const Tensor*> tensors)
{
    int64_t bytes = 0;
    for (const Tensor* t : tensors) {
        bytes += t->NumBytes();
    }
    return bytes;
}

/// Probes and sort comparisons execute a handful of scalar ops each,
/// wherever the sampler runs.
int64_t
SamplingFlops(const graph::SamplingCost& cost)
{
    return cost.bisection_probes * 16 + cost.sort_ops * 8;
}

}  // namespace

Tensor
NnExecutor::Linear(const nn::Linear& linear, const Tensor& x)
{
    Tensor y = linear.Forward(x);
    sim::KernelDesc k;
    k.name = "linear";
    k.flops = linear.ForwardFlops(x.Dim(0));
    k.bytes = TensorBytes({&x, &y}) + linear.ParameterBytes();
    k.parallel_items = x.Dim(0) * linear.OutFeatures();
    runtime_.Launch(k);
    return y;
}

Tensor
NnExecutor::Mlp(const nn::Mlp& mlp, const Tensor& x)
{
    Tensor y = mlp.Forward(x);
    sim::KernelDesc k;
    k.name = "mlp";
    k.flops = mlp.ForwardFlops(x.Dim(0));
    k.bytes = TensorBytes({&x, &y}) + mlp.ParameterBytes();
    k.parallel_items = x.Dim(0) * mlp.OutFeatures();
    runtime_.Launch(k);
    return y;
}

Tensor
NnExecutor::Gru(const nn::GruCell& cell, const Tensor& x, const Tensor& h)
{
    Tensor y = cell.Forward(x, h);
    sim::KernelDesc k;
    k.name = "gru_cell";
    k.flops = cell.ForwardFlops(x.Dim(0));
    k.bytes = TensorBytes({&x, &h, &y}) + cell.ParameterBytes();
    k.parallel_items = x.Dim(0) * cell.HiddenSize();
    runtime_.Launch(k);
    return y;
}

Tensor
NnExecutor::Rnn(const nn::RnnCell& cell, const Tensor& x, const Tensor& h)
{
    Tensor y = cell.Forward(x, h);
    sim::KernelDesc k;
    k.name = "rnn_cell";
    k.flops = cell.ForwardFlops(x.Dim(0));
    k.bytes = TensorBytes({&x, &h, &y}) + cell.ParameterBytes();
    k.parallel_items = x.Dim(0) * cell.HiddenSize();
    runtime_.Launch(k);
    return y;
}

nn::LstmState
NnExecutor::Lstm(const nn::LstmCell& cell, const Tensor& x, const nn::LstmState& state)
{
    nn::LstmState next = cell.Forward(x, state);
    sim::KernelDesc k;
    k.name = "lstm_cell";
    k.flops = cell.ForwardFlops(x.Dim(0));
    k.bytes = TensorBytes({&x, &state.h, &state.c, &next.h, &next.c}) +
              cell.ParameterBytes();
    k.parallel_items = x.Dim(0) * cell.HiddenSize();
    runtime_.Launch(k);
    return next;
}

Tensor
NnExecutor::Attention(const nn::MultiHeadAttention& mha, const Tensor& q,
                      const Tensor& k, const Tensor& v)
{
    Tensor y = mha.Forward(q, k, v);
    sim::KernelDesc desc;
    desc.name = "attention";
    desc.flops = mha.ForwardFlops(q.Dim(0), k.Dim(0));
    desc.bytes = TensorBytes({&q, &k, &v, &y}) + mha.ParameterBytes();
    desc.parallel_items = q.Dim(0) * k.Dim(0) * mha.ModelDim();
    runtime_.Launch(desc);
    return y;
}

Tensor
NnExecutor::Spmm(const nn::SparseMatrix& a, const Tensor& x)
{
    Tensor y = nn::Spmm(a, x);
    sim::KernelDesc k;
    k.name = "spmm";
    k.flops = 2 * a.Nnz() * x.Dim(1);
    k.bytes = TensorBytes({&x, &y}) +
              a.Nnz() * static_cast<int64_t>(sizeof(int64_t) + sizeof(float));
    k.parallel_items = a.n * x.Dim(1);
    k.irregular = true;
    runtime_.Launch(k);
    return y;
}

Tensor
NnExecutor::Gcn(const nn::GcnLayer& layer, const nn::SparseMatrix& a_hat,
                const Tensor& h)
{
    const Tensor aggregated = Spmm(a_hat, h);
    // Dense transform kernel.
    Tensor y = nn::Apply(nn::Activation::kRelu,
                         ops::MatMulTransposed(aggregated, layer.Weight()));
    sim::KernelDesc k;
    k.name = "gcn_transform";
    k.flops = ops::MatMulFlops(aggregated.Dim(0), layer.InFeatures(),
                               layer.OutFeatures());
    k.bytes = TensorBytes({&aggregated, &y}) + layer.ParameterBytes();
    k.parallel_items = aggregated.Dim(0) * layer.OutFeatures();
    runtime_.Launch(k);
    return y;
}

Tensor
NnExecutor::GcnWithWeight(const nn::GcnLayer& /*layer*/, const nn::SparseMatrix& a_hat,
                          const Tensor& h, const Tensor& weight)
{
    const Tensor aggregated = Spmm(a_hat, h);
    Tensor y = nn::Apply(nn::Activation::kRelu,
                         ops::MatMulTransposed(aggregated, weight));
    sim::KernelDesc k;
    k.name = "gcn_transform";
    k.flops = ops::MatMulFlops(aggregated.Dim(0), weight.Dim(1), weight.Dim(0));
    k.bytes = TensorBytes({&aggregated, &y, &weight});
    k.parallel_items = aggregated.Dim(0) * weight.Dim(0);
    runtime_.Launch(k);
    return y;
}

Tensor
NnExecutor::TimeEncode(const nn::BochnerTimeEncoder& encoder, const Tensor& deltas)
{
    Tensor y = encoder.Forward(deltas);
    sim::KernelDesc k;
    k.name = "time_encoding";
    k.flops = encoder.ForwardFlops(deltas.Dim(0));
    k.bytes = TensorBytes({&deltas, &y});
    k.parallel_items = deltas.Dim(0) * encoder.Dim();
    runtime_.Launch(k);
    return y;
}

void
NnExecutor::Elementwise(const std::string& name, int64_t flops, int64_t bytes,
                        int64_t items)
{
    sim::KernelDesc k;
    k.name = name;
    k.flops = flops;
    k.bytes = bytes;
    k.parallel_items = std::max<int64_t>(1, items);
    runtime_.Launch(k);
}

std::vector<graph::SampledNeighborhood>
NnExecutor::SampleOnCpu(graph::TemporalNeighborSampler& sampler,
                        const std::vector<int64_t>& nodes,
                        const std::vector<double>& times, int64_t k,
                        Schedule schedule)
{
    std::vector<graph::SampledNeighborhood> result =
        sampler.SampleBatch(nodes, times, k);
    const graph::SamplingCost cost = sampler.TakeCost();
    runtime_.RunHost(SamplingKernel(cost, static_cast<int64_t>(nodes.size()), k,
                                    sampler.Strategy(), schedule));
    return result;
}

std::vector<graph::SampledNeighborhood>
NnExecutor::SampleOnDevice(graph::TemporalNeighborSampler& sampler,
                           const std::vector<int64_t>& nodes,
                           const std::vector<double>& times, int64_t k)
{
    std::vector<graph::SampledNeighborhood> result =
        sampler.SampleBatch(nodes, times, k);
    const graph::SamplingCost cost = sampler.TakeCost();
    runtime_.Launch(
        DeviceSamplingKernel(cost, static_cast<int64_t>(nodes.size()), k));
    return result;
}

sim::KernelDesc
DeviceSamplingKernel(const graph::SamplingCost& cost, int64_t targets, int64_t k)
{
    sim::KernelDesc desc;
    desc.name = "temporal_sampling";
    desc.flops = SamplingFlops(cost);
    // One 32-byte sector per bisection probe, the gathered history entries,
    // and the [targets, k] (neighbor id, time) slots written.
    desc.bytes = cost.bisection_probes * 32 + cost.gathered_bytes + targets * k * 16;
    desc.parallel_items = std::max<int64_t>(1, targets * k);
    desc.irregular = true;
    return desc;
}

sim::KernelDesc
SamplingKernel(const graph::SamplingCost& cost, int64_t targets, int64_t k,
               graph::SamplingStrategy strategy, Schedule schedule)
{
    // Per-target framework overhead expressed as equivalent memory traffic.
    // Uniform temporal sampling (TGAT) performs per-target NumPy calls,
    // index sorting and scattered gathers; most-recent lookup (TGN, DyRep)
    // is a vectorizable tail slice of the history array.
    const bool uniform = strategy == graph::SamplingStrategy::kUniform;
    const int64_t per_target_bytes = uniform ? 32768 : 128;
    // Uniform draws hit scattered history entries (cache-missing, 8x line
    // amplification); the most-recent lookup is a contiguous tail slice.
    const int64_t gather_amplification = uniform ? 8 : 1;
    const int64_t per_candidate_bytes = uniform ? 64 : 8;
    sim::KernelDesc desc;
    desc.name = "temporal_sampling";
    desc.flops = SamplingFlops(cost);
    // Uniform (TGAT-style) sampling materializes padded [targets, k]
    // NumPy arrays, so its traffic scales with the requested k even when
    // node histories are shorter than k.
    const int64_t padded_slot_bytes = uniform ? targets * k * 96 : 0;
    desc.bytes = cost.gathered_bytes * gather_amplification +
                 cost.bisection_probes * 64 + targets * per_target_bytes +
                 cost.candidates_scanned * per_candidate_bytes + padded_slot_bytes;
    // The reference samplers are single-threaded Python/NumPy; staged runs
    // sample each target on its own thread.
    desc.parallel_items =
        schedule == Schedule::kStaged ? std::max<int64_t>(1, targets) : 1;
    desc.irregular = true;
    return desc;
}

void
Checksum::Add(const Tensor& t)
{
    sum_ += t.Sum();
    for (int64_t i = 0; i < t.NumElements(); ++i) {
        abs_sum_ += std::fabs(static_cast<double>(t.Data()[i]));
    }
    count_ += t.NumElements();
}

void
Checksum::Add(double v)
{
    sum_ += v;
    abs_sum_ += std::fabs(v);
    ++count_;
}

double
Checksum::Value() const
{
    if (count_ == 0) {
        return 0.0;
    }
    return sum_ + 1e-3 * abs_sum_ / static_cast<double>(count_);
}

}  // namespace dgnn::models
