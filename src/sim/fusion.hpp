#pragma once

/// @file
/// Kernel fusion over the analytic cost model. A FusedKernelDesc composes a
/// chain of KernelDescs into ONE launch:
///
///   launch_overhead  paid once instead of once per part
///   flops            sum over parts
///   bytes            sum over parts, minus the chain-internal intermediate
///                    tensors each boundary keeps in registers/shared memory
///                    (an intermediate is counted out of BOTH the producer's
///                    write bytes and the consumer's read bytes)
///   parallel_items   max over parts (the chain occupies the device as well
///                    as its widest stage)
///   irregular        any irregular part poisons the whole chain: the fused
///                    kernel inherits the worst access pattern, which is why
///                    fusing a regular GEMM behind a gather can LOSE on
///                    byte-bound chains
///
/// Collapse() is device-independent: the same collapsed descriptor prices on
/// any DeviceSpec via the unchanged KernelDuration(), so fused launches flow
/// through Runtime::Launch, tracing, and profile capture with zero runtime
/// changes. This mirrors the paper's Fig 6/7 diagnosis — many tiny irregular
/// kernels whose launch overhead swamps execution — and the fusion remedies
/// surveyed in PAPERS.md.

#include <cstdint>
#include <string>
#include <vector>

#include "sim/device_spec.hpp"
#include "sim/kernel.hpp"

namespace dgnn::sim {

/// A chain of kernels composed into one launch. parts run in order; the
/// boundary between parts[i] and parts[i+1] keeps intermediate_bytes[i]
/// bytes on-chip (never touching device memory or PCIe).
struct FusedKernelDesc {
    /// Collapsed launch name, e.g. "tgn_memory_fused".
    std::string name;

    /// The unfused kernels, in execution order. Must be non-empty.
    std::vector<KernelDesc> parts;

    /// Bytes of the intermediate tensor at each part boundary; size must be
    /// parts.size() - 1 and every entry non-negative. An entry of 0 models
    /// horizontal fusion (no producer/consumer tensor, just a shared launch).
    std::vector<int64_t> intermediate_bytes;
};

/// Collapse the chain into a single KernelDesc priced by the unchanged cost
/// model. Device-independent; validates the chain (non-empty, boundary count,
/// non-negative intermediates and work, positive parallel_items).
[[nodiscard]] KernelDesc Collapse(const FusedKernelDesc& fused);

/// Duration of the chain as ONE launch: KernelDuration(spec, Collapse(fused)).
[[nodiscard]] SimTime FusedDuration(const DeviceSpec& spec,
                                    const FusedKernelDesc& fused);

/// Duration of the chain launched part by part: sum of KernelDuration over
/// parts, each paying its own launch overhead and full memory traffic.
[[nodiscard]] SimTime UnfusedDuration(const DeviceSpec& spec,
                                      const FusedKernelDesc& fused);

/// UnfusedDuration - FusedDuration. Usually positive (launch overhead and
/// intermediate traffic saved); can be negative when an irregular part
/// poisons a byte-bound regular part's bandwidth.
[[nodiscard]] SimTime FusedSavings(const DeviceSpec& spec,
                                   const FusedKernelDesc& fused);

}  // namespace dgnn::sim
