// Tests for the hardware-simulator substrate: cost model, streams, PCIe,
// device memory, warm-up, and the batch-issue protocol's two schedules.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/device.hpp"
#include "support/check.hpp"
#include "sim/device_spec.hpp"
#include "sim/kernel.hpp"
#include "sim/pcie.hpp"
#include "sim/runtime.hpp"
#include "sim/runtime_observer.hpp"
#include "sim/staging.hpp"
#include "sim/stream.hpp"
#include "sim/warmup.hpp"

namespace dgnn::sim {
namespace {

TEST(DeviceSpecTest, PresetsAreSane)
{
    const DeviceSpec cpu = DeviceSpec::XeonGold6226R();
    const DeviceSpec gpu = DeviceSpec::RtxA6000();
    EXPECT_EQ(cpu.kind, DeviceKind::kCpu);
    EXPECT_EQ(gpu.kind, DeviceKind::kGpu);
    EXPECT_GT(gpu.peak_gflops, cpu.peak_gflops);
    EXPECT_GT(gpu.mem_bw_gbps, cpu.mem_bw_gbps);
    EXPECT_GT(gpu.launch_overhead_us, cpu.launch_overhead_us);
    EXPECT_GT(gpu.context_init_us, 0.0);
    EXPECT_EQ(cpu.context_init_us, 0.0);
    EXPECT_STREQ(ToString(DeviceKind::kGpu), "GPU");
}

TEST(KernelCostTest, OccupancyClampedToFloorAndOne)
{
    const DeviceSpec gpu = DeviceSpec::RtxA6000();
    KernelDesc tiny{"tiny", 100, 100, 1, false};
    EXPECT_DOUBLE_EQ(Occupancy(gpu, tiny), gpu.occupancy_floor);
    KernelDesc huge{"huge", 100, 100, 100000000, false};
    EXPECT_DOUBLE_EQ(Occupancy(gpu, huge), 1.0);
    KernelDesc mid{"mid", 100, 100, gpu.saturation_items / 2, false};
    EXPECT_NEAR(Occupancy(gpu, mid), 0.5, 1e-9);
}

TEST(KernelCostTest, DurationIncludesLaunchOverhead)
{
    const DeviceSpec gpu = DeviceSpec::RtxA6000();
    KernelDesc empty{"empty", 0, 0, 1, false};
    EXPECT_DOUBLE_EQ(KernelDuration(gpu, empty), gpu.launch_overhead_us);
}

TEST(KernelCostTest, ComputeTimeScalesInverselyWithOccupancy)
{
    const DeviceSpec gpu = DeviceSpec::RtxA6000();
    KernelDesc low{"k", 1000000000, 0, gpu.saturation_items / 10, false};
    KernelDesc high{"k", 1000000000, 0, gpu.saturation_items, false};
    EXPECT_NEAR(ComputeTime(gpu, low) / ComputeTime(gpu, high), 10.0, 1e-6);
}

TEST(KernelCostTest, IrregularAccessIsSlower)
{
    const DeviceSpec gpu = DeviceSpec::RtxA6000();
    KernelDesc regular{"k", 0, 10000000, 1000000, false};
    KernelDesc irregular{"k", 0, 10000000, 1000000, true};
    EXPECT_GT(ComputeTime(gpu, irregular), ComputeTime(gpu, regular));
    EXPECT_NEAR(ComputeTime(gpu, irregular) / ComputeTime(gpu, regular),
                gpu.irregular_penalty, 1e-6);
}

TEST(KernelCostTest, MemoryBoundVsComputeBound)
{
    const DeviceSpec gpu = DeviceSpec::RtxA6000();
    // Enormous bytes, no flops: memory-bound.
    KernelDesc mem{"m", 1, 1000000000, 1000000, false};
    // Enormous flops, no bytes: compute-bound.
    KernelDesc comp{"c", 1000000000000, 1, 1000000, false};
    EXPECT_GT(ComputeTime(gpu, mem), 0.0);
    EXPECT_GT(ComputeTime(gpu, comp), 0.0);
    // Duration is the max of the two terms: adding tiny flops to the
    // memory-bound kernel should not change its time.
    KernelDesc mem2 = mem;
    mem2.flops = 1000;
    EXPECT_DOUBLE_EQ(ComputeTime(gpu, mem), ComputeTime(gpu, mem2));
}

TEST(KernelCostTest, NegativeWorkThrows)
{
    const DeviceSpec gpu = DeviceSpec::RtxA6000();
    KernelDesc bad{"b", -1, 0, 1, false};
    EXPECT_THROW(ComputeTime(gpu, bad), Error);
    KernelDesc bad2{"b", 0, 0, 0, false};
    EXPECT_THROW(Occupancy(gpu, bad2), Error);
}

TEST(StreamTest, EnqueueSerializes)
{
    Stream s("test");
    const auto a = s.Enqueue(0.0, 10.0);
    EXPECT_DOUBLE_EQ(a.start, 0.0);
    EXPECT_DOUBLE_EQ(a.end, 10.0);
    // Earliest start 5 < ready 10: must wait.
    const auto b = s.Enqueue(5.0, 3.0);
    EXPECT_DOUBLE_EQ(b.start, 10.0);
    EXPECT_DOUBLE_EQ(b.end, 13.0);
    // Earliest start after ready: idle gap allowed.
    const auto c = s.Enqueue(20.0, 1.0);
    EXPECT_DOUBLE_EQ(c.start, 20.0);
    EXPECT_DOUBLE_EQ(s.ReadyTime(), 21.0);
    s.Reset();
    EXPECT_DOUBLE_EQ(s.ReadyTime(), 0.0);
}

TEST(PcieTest, TransferTimeLatencyPlusBandwidth)
{
    PcieLink link(10.0, 5.0);  // 10 GB/s, 5 us latency
    EXPECT_DOUBLE_EQ(link.TransferTime(0), 5.0);
    // 10 GB/s == 10000 bytes/us: 1 MB -> ~104.9 us + 5.
    EXPECT_NEAR(link.TransferTime(1 << 20), 5.0 + 104.8576, 1e-3);
    EXPECT_THROW(link.TransferTime(-1), Error);
}

TEST(PcieTest, LinkQueuesTransfers)
{
    PcieLink link(10.0, 5.0);
    const auto a = link.Schedule(0.0, 100000);
    const auto b = link.Schedule(0.0, 100000);
    EXPECT_DOUBLE_EQ(b.start, a.end);
}

TEST(MemoryPoolTest, AllocFreePeak)
{
    MemoryPool pool(1000);
    const int64_t a = pool.Allocate(400, "a");
    EXPECT_EQ(pool.LiveBytes(), 400);
    const int64_t b = pool.Allocate(500, "b");
    EXPECT_EQ(pool.LiveBytes(), 900);
    EXPECT_EQ(pool.PeakBytes(), 900);
    pool.Free(a);
    EXPECT_EQ(pool.LiveBytes(), 500);
    EXPECT_EQ(pool.PeakBytes(), 900);  // peak persists
    pool.ResetPeak();
    EXPECT_EQ(pool.PeakBytes(), 500);
    EXPECT_EQ(pool.TotalAllocatedBytes(), 900);
    pool.Free(b);
    EXPECT_EQ(pool.LiveBytes(), 0);
}

TEST(MemoryPoolTest, OutOfMemoryThrows)
{
    MemoryPool pool(100);
    pool.Allocate(80, "x");
    EXPECT_THROW(pool.Allocate(30, "y"), Error);
}

TEST(MemoryPoolTest, DoubleFreeThrows)
{
    MemoryPool pool(100);
    const int64_t id = pool.Allocate(10, "x");
    pool.Free(id);
    EXPECT_THROW(pool.Free(id), Error);
}

TEST(DeviceTest, BusyAccounting)
{
    Device dev(DeviceSpec::RtxA6000());
    dev.AddBusy(10.0, 0.5);
    dev.AddBusy(10.0, 1.0);
    EXPECT_DOUBLE_EQ(dev.BusyTime(), 20.0);
    EXPECT_DOUBLE_EQ(dev.WeightedBusyTime(), 15.0);
    EXPECT_EQ(dev.KernelCount(), 2);
    EXPECT_DOUBLE_EQ(dev.UtilizationPct(100.0), 20.0);
    EXPECT_DOUBLE_EQ(dev.WeightedUtilizationPct(100.0), 15.0);
    dev.ResetBusy();
    EXPECT_DOUBLE_EQ(dev.BusyTime(), 0.0);
    EXPECT_EQ(dev.KernelCount(), 0);
}

TEST(DeviceTest, InvalidBusyThrows)
{
    Device dev(DeviceSpec::RtxA6000());
    EXPECT_THROW(dev.AddBusy(-1.0, 0.5), Error);
    EXPECT_THROW(dev.AddBusy(1.0, 1.5), Error);
}

TEST(WarmupTest, OneTimeComponentsForGpu)
{
    const DeviceSpec gpu = DeviceSpec::RtxA6000();
    PcieLink link = PcieLink::Gen4x16();
    const OneTimeWarmup w = ComputeOneTimeWarmup(gpu, link, 10 << 20);
    EXPECT_DOUBLE_EQ(w.context_init_us, gpu.context_init_us);
    EXPECT_GT(w.model_init_us, gpu.model_init_fixed_us);
    EXPECT_GT(w.weight_transfer_us, 0.0);
    EXPECT_DOUBLE_EQ(w.TotalUs(),
                     w.context_init_us + w.model_init_us + w.weight_transfer_us);
}

TEST(WarmupTest, CpuHasNoContextOrTransfer)
{
    const DeviceSpec cpu = DeviceSpec::XeonGold6226R();
    PcieLink link = PcieLink::Gen4x16();
    const OneTimeWarmup w = ComputeOneTimeWarmup(cpu, link, 10 << 20);
    EXPECT_DOUBLE_EQ(w.context_init_us, 0.0);
    EXPECT_DOUBLE_EQ(w.weight_transfer_us, 0.0);
    EXPECT_GT(w.model_init_us, 0.0);
}

TEST(WarmupTest, GpuModelInitMuchSlowerThanCpu)
{
    // Paper section 4.4: GPU model init is 40x - 937x the CPU's.
    const DeviceSpec gpu = DeviceSpec::RtxA6000();
    const DeviceSpec cpu = DeviceSpec::XeonGold6226R();
    PcieLink link = PcieLink::Gen4x16();
    const int64_t weights = 5 << 20;
    const double ratio = ComputeOneTimeWarmup(gpu, link, weights).model_init_us /
                         ComputeOneTimeWarmup(cpu, link, weights).model_init_us;
    EXPECT_GT(ratio, 40.0);
    EXPECT_LT(ratio, 2000.0);
}

TEST(WarmupTest, PerRunScalesWithWorkingSet)
{
    const DeviceSpec gpu = DeviceSpec::RtxA6000();
    const PerRunWarmup small = ComputePerRunWarmup(gpu, 1 << 20);
    const PerRunWarmup big = ComputePerRunWarmup(gpu, 100 << 20);
    EXPECT_GT(big.alloc_us, small.alloc_us);
    EXPECT_THROW(ComputePerRunWarmup(gpu, -1), Error);
}

/// Property sweep: kernel duration is monotone in flops, bytes, and
/// inversely monotone in parallelism.
class CostMonotonicity : public ::testing::TestWithParam<int64_t> {};

TEST_P(CostMonotonicity, MoreWorkNeverFaster)
{
    const DeviceSpec gpu = DeviceSpec::RtxA6000();
    const int64_t base = GetParam();
    KernelDesc k1{"k", base, base, 1000, false};
    KernelDesc k2{"k", base * 2, base, 1000, false};
    KernelDesc k3{"k", base, base * 2, 1000, false};
    KernelDesc k4{"k", base, base, 2000, false};
    EXPECT_GE(KernelDuration(gpu, k2), KernelDuration(gpu, k1));
    EXPECT_GE(KernelDuration(gpu, k3), KernelDuration(gpu, k1));
    EXPECT_LE(KernelDuration(gpu, k4), KernelDuration(gpu, k1));
}

INSTANTIATE_TEST_SUITE_P(Scales, CostMonotonicity,
                         ::testing::Values(1000, 100000, 10000000, 1000000000));

/// Logs every runtime action in issue order: copies and kernels by kind,
/// blocking or async, and every synchronization edge.
class IssueLog : public RuntimeObserver {
  public:
    void OnOp(const OpRecord& op) override
    {
        std::string entry = std::string(ToString(op.kind)) + ":" + *op.name;
        if (!op.blocking) {
            entry += ":async";
        }
        entries.push_back(entry);
    }
    void OnEventRecorded(const Event&, StreamId stream) override
    {
        entries.push_back(std::string("record:") + ToString(stream));
    }
    void OnStreamWaitEvent(StreamId stream, const Event&) override
    {
        entries.push_back(std::string("stream_wait:") + ToString(stream));
    }
    void OnHostWaitEvent(const Event&) override { entries.push_back("host_wait"); }
    void OnSynchronize() override { entries.push_back("synchronize"); }

    std::vector<std::string> entries;
};

constexpr int64_t kBatchBytes = 1 << 20;

/// A kernel long enough that the device is still busy when the host
/// returns from issuing it.
KernelDesc
LongKernel()
{
    return KernelDesc{"batch_kernel", 10'000'000'000, 1 << 20, 1 << 20, false};
}

RuntimeConfig
Config(ExecMode mode)
{
    RuntimeConfig config;
    config.mode = mode;
    return config;
}

/// The rest of an admitted batch: build, inputs, kernel, barrier, retire
/// holding a device buffer. Returns the batch's completion.
StagingPipeline::Retired
IssueAdmittedBatch(Runtime& runtime, StagingPipeline& staging)
{
    runtime.RunHostFor("batch_build", 5.0);
    (void)staging.StageInputs(kBatchBytes, "inputs_h2d");
    runtime.Launch(LongKernel());
    staging.Barrier();
    return staging.Retire(kBatchBytes, "results_d2h",
                          runtime.AllocDevice(kBatchBytes, "batch"));
}

/// One whole batch through the pipeline.
StagingPipeline::Retired
RunBatch(Runtime& runtime, StagingPipeline& staging)
{
    (void)staging.Admit();
    return IssueAdmittedBatch(runtime, staging);
}

TEST(StagingPipelineTest, EagerAdmitAlwaysReturnsSlotZeroWithoutWaiting)
{
    Runtime runtime(Config(ExecMode::kHybrid));
    StagingPipeline staging(runtime, Schedule::kEager);
    for (int batch = 0; batch < 3; ++batch) {
        const SimTime before = runtime.Now();
        EXPECT_EQ(staging.Admit().dev_in, "dev_in#0");
        EXPECT_EQ(runtime.Now(), before);
        (void)IssueAdmittedBatch(runtime, staging);
    }
}

TEST(StagingPipelineTest, EagerStageInputsLeavesTheHostAtTheCopysEnd)
{
    Runtime runtime(Config(ExecMode::kHybrid));
    IssueLog log;
    runtime.SetObserver(&log);
    StagingPipeline staging(runtime, Schedule::kEager);
    (void)staging.Admit();
    const SimTime ready = staging.StageInputs(kBatchBytes, "inputs_h2d", [] {
        return AccessSet{};
    }, 3);
    EXPECT_EQ(ready, runtime.Now());
    EXPECT_EQ(runtime.GetTrace().Events().back().end_us, runtime.Now());
    EXPECT_EQ(log.entries,
              (std::vector<std::string>{"copy_h2d:inputs_h2d", "copy_h2d:inputs_h2d",
                                        "copy_h2d:inputs_h2d"}));
    EXPECT_EQ(runtime.BytesToDevice(), 3 * kBatchBytes);
}

TEST(StagingPipelineTest, EagerBarrierSynchronizes)
{
    Runtime runtime(Config(ExecMode::kHybrid));
    IssueLog log;
    runtime.SetObserver(&log);
    StagingPipeline staging(runtime, Schedule::kEager);
    runtime.Launch(LongKernel());
    ASSERT_GT(runtime.StreamReadyTime(StreamId::kCompute), runtime.Now());
    staging.Barrier();
    EXPECT_EQ(runtime.Now(), runtime.StreamReadyTime(StreamId::kCompute));
    EXPECT_EQ(log.entries.back(), "synchronize");
}

TEST(StagingPipelineTest, EagerRetireCopiesBackAndFreesTheBufferBeforeReturning)
{
    Runtime runtime(Config(ExecMode::kHybrid));
    IssueLog log;
    runtime.SetObserver(&log);
    StagingPipeline staging(runtime, Schedule::kEager);
    const MemoryPool& memory = runtime.Gpu().Memory();
    const int64_t live_before = memory.LiveBytes();
    DeviceBuffer held = runtime.AllocDevice(kBatchBytes, "batch");
    EXPECT_EQ(memory.LiveBytes(), live_before + kBatchBytes);
    const SimTime entered = runtime.Now();
    const StagingPipeline::Retired batch =
        staging.Retire(kBatchBytes, "results_d2h", std::move(held));
    EXPECT_EQ(memory.LiveBytes(), live_before);
    EXPECT_EQ(batch.compute_done_us, entered);
    EXPECT_EQ(batch.done_us, runtime.Now());
    EXPECT_EQ(log.entries, std::vector<std::string>{"copy_d2h:results_d2h"});
}

TEST(StagingPipelineTest, EagerDrainIssuesNothing)
{
    Runtime runtime(Config(ExecMode::kHybrid));
    IssueLog log;
    runtime.SetObserver(&log);
    StagingPipeline staging(runtime, Schedule::kEager);
    (void)RunBatch(runtime, staging);
    const size_t issued = log.entries.size();
    const SimTime before = runtime.Now();
    staging.Drain();
    EXPECT_EQ(log.entries.size(), issued);
    EXPECT_EQ(runtime.Now(), before);
    // The whole batch issued blocking copies and one synchronization only.
    EXPECT_EQ(log.entries,
              (std::vector<std::string>{"host_op:batch_build", "copy_h2d:inputs_h2d",
                                        "kernel:batch_kernel:async", "synchronize",
                                        "copy_d2h:results_d2h"}));
}

TEST(StagingPipelineTest, StagedSlotsRotateModuloTwo)
{
    Runtime runtime(Config(ExecMode::kHybrid));
    StagingPipeline staging(runtime, Schedule::kStaged);
    for (int64_t k = 0; k < 5; ++k) {
        EXPECT_EQ(staging.Admit().dev_in, "dev_in#" + std::to_string(k % 2));
        runtime.Launch(LongKernel());
        (void)staging.Retire(kBatchBytes, "results_d2h", DeviceBuffer{});
    }
    staging.Drain();
}

TEST(StagingPipelineTest, StagedThirdAdmitWaitsOnTheFirstBatchsDoneEvent)
{
    Runtime runtime(Config(ExecMode::kHybrid));
    IssueLog log;
    runtime.SetObserver(&log);
    StagingPipeline staging(runtime, Schedule::kStaged);
    const MemoryPool& memory = runtime.Gpu().Memory();
    const int64_t live_before = memory.LiveBytes();
    const StagingPipeline::Retired first = RunBatch(runtime, staging);
    const StagingPipeline::Retired second = RunBatch(runtime, staging);
    EXPECT_EQ(memory.LiveBytes(), live_before + 2 * kBatchBytes);
    EXPECT_LT(runtime.Now(), first.done_us);
    EXPECT_LT(first.done_us, second.done_us);

    const size_t issued = log.entries.size();
    EXPECT_EQ(staging.Admit().dev_in, "dev_in#0");
    EXPECT_EQ(runtime.Now(), first.done_us);
    EXPECT_EQ(memory.LiveBytes(), live_before + kBatchBytes);
    EXPECT_EQ(std::vector<std::string>(log.entries.begin() + issued, log.entries.end()),
              std::vector<std::string>{"host_wait"});

    staging.Drain();
    EXPECT_EQ(runtime.Now(), second.done_us);
    EXPECT_EQ(memory.LiveBytes(), live_before);
}

TEST(StagingPipelineTest, StagedBarrierIssuesNothing)
{
    Runtime runtime(Config(ExecMode::kHybrid));
    IssueLog log;
    runtime.SetObserver(&log);
    StagingPipeline staging(runtime, Schedule::kStaged);
    runtime.Launch(LongKernel());
    const size_t issued = log.entries.size();
    const SimTime before = runtime.Now();
    staging.Barrier();
    EXPECT_EQ(log.entries.size(), issued);
    EXPECT_EQ(runtime.Now(), before);
    EXPECT_LT(runtime.Now(), runtime.StreamReadyTime(StreamId::kCompute));
}

TEST(StagingPipelineTest, CpuOnlySchedulesIssueTheSameTrace)
{
    std::vector<std::vector<TraceEvent>> traces;
    std::vector<SimTime> ends;
    for (const Schedule schedule : {Schedule::kEager, Schedule::kStaged}) {
        Runtime runtime(Config(ExecMode::kCpuOnly));
        StagingPipeline staging(runtime, schedule);
        for (int batch = 0; batch < 3; ++batch) {
            (void)RunBatch(runtime, staging);
        }
        staging.Drain();
        traces.push_back(runtime.GetTrace().Events());
        ends.push_back(runtime.Now());
    }
    ASSERT_EQ(traces[0].size(), traces[1].size());
    ASSERT_FALSE(traces[0].empty());
    for (size_t i = 0; i < traces[0].size(); ++i) {
        EXPECT_EQ(traces[0][i].name, traces[1][i].name) << i;
        EXPECT_EQ(traces[0][i].start_us, traces[1][i].start_us) << i;
        EXPECT_EQ(traces[0][i].end_us, traces[1][i].end_us) << i;
    }
    EXPECT_EQ(ends[0], ends[1]);
}

}  // namespace
}  // namespace dgnn::sim
