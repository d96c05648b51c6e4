#pragma once

/// @file
/// The sync-edge mutation schedule: a synthetic double-buffered async
/// pipeline (mirroring the staged serve::Executor's edge structure) in which
/// each happens-before edge can be individually deleted. Running the intact
/// schedule through the HazardChecker must come back clean; deleting any
/// edge must surface a hazard of a known kind on a known resource family.
/// The mutation wall (tests/analysis_test.cpp) and the hazard-audit bench
/// both drive this schedule — it is the checker's own regression fixture:
/// a detector that stops firing on a deleted edge fails the wall.

#include <cstdint>

#include "analysis/hazard_checker.hpp"
#include "analysis/hazard_report.hpp"

namespace dgnn::analysis {

/// Which synchronization edge of the synthetic pipeline to delete.
/// kNone runs the intact (hazard-free) schedule.
enum class SyncEdge {
    kNone,
    kInputFence,     ///< StreamWaitEvent(compute, inputs_ready)
    kComputeFence,   ///< StreamWaitEvent(copy, compute_done)
    kThrottleWait,   ///< WaitEvent on the oldest batch before slot reuse
    kFinalDrain,     ///< WaitEvent sweep before the host reads results
    kExchangeFence,  ///< StreamWaitEvent(compute, exchange_ready) — the
                     ///< alltoall fence ordering the unpack kernel after
                     ///< the peer pulls (RunMutatedExchange only)
};

const char* ToString(SyncEdge edge);

/// Runs the synthetic depth-2 pipeline — build, async H2D, kernel, async
/// D2H per batch staged through slot (batch % 2), then a host op consuming
/// every slot's results — over @p batches seeded batch sizes on a hybrid
/// runtime with a HazardChecker attached, deleting @p drop. Deterministic
/// in (drop, seed, batches).
HazardReport RunMutatedPipeline(SyncEdge drop, uint64_t seed,
                                int64_t batches = 6);

/// The scale-out analogue of RunMutatedPipeline: a 2-device topology
/// runtime where each round pulls seeded row counts from the peer over the
/// peer link into the exchange staging buffer (slot = round % 2), fences
/// the compute stream on the copy-stream exchange event, and launches the
/// unpack kernel scattering the staged rows into device state. Deleting
/// kExchangeFence lets the unpack read exchange_in#<slot> concurrently
/// with the peer pull writing it — the expected RAW on the exchange
/// buffer. Only kNone and kExchangeFence are deletable here; other edges
/// run the intact schedule. Deterministic in (drop, seed, rounds).
HazardReport RunMutatedExchange(SyncEdge drop, uint64_t seed,
                                int64_t rounds = 6);

}  // namespace dgnn::analysis
