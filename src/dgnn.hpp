#pragma once

/// @file
/// Umbrella header: the full public API of the dgnn bottleneck-analysis
/// library. Include this for quick experiments; production users should
/// include the specific subsystem headers they need.

// Support
#include "support/check.hpp"

// Tensor substrate
#include "tensor/ops.hpp"
#include "tensor/random.hpp"
#include "tensor/tensor.hpp"

// Neural substrate
#include "nn/activations.hpp"
#include "nn/attention.hpp"
#include "nn/embedding.hpp"
#include "nn/gcn.hpp"
#include "nn/layer_norm.hpp"
#include "nn/linear.hpp"
#include "nn/mlp.hpp"
#include "nn/module.hpp"
#include "nn/rnn_cell.hpp"
#include "nn/time_encoding.hpp"

// Dynamic-graph substrate
#include "graph/event_stream.hpp"
#include "graph/snapshot.hpp"
#include "graph/snapshot_sequence.hpp"
#include "graph/tbatch.hpp"
#include "graph/temporal_sampler.hpp"

// Device-resident cache
#include "cache/device_cache.hpp"

// Hardware simulator
#include "sim/device.hpp"
#include "sim/device_spec.hpp"
#include "sim/fusion.hpp"
#include "sim/kernel.hpp"
#include "sim/pcie.hpp"
#include "sim/runtime.hpp"
#include "sim/runtime_observer.hpp"
#include "sim/sim_time.hpp"
#include "sim/stream.hpp"
#include "sim/topology.hpp"
#include "sim/trace.hpp"
#include "sim/warmup.hpp"

// Happens-before hazard analysis over the simulated runtime
#include "analysis/hazard_checker.hpp"
#include "analysis/hazard_report.hpp"
#include "analysis/sync_mutations.hpp"

// Profiling / bottleneck-analysis core
#include "core/bench_json_writer.hpp"
#include "core/bottleneck.hpp"
#include "core/breakdown.hpp"
#include "core/csv_writer.hpp"
#include "core/latency_histogram.hpp"
#include "core/model_summary.hpp"
#include "core/profiler.hpp"
#include "core/table_writer.hpp"
#include "core/trace_analysis.hpp"

// Dataset generators
#include "data/molecular_gen.hpp"
#include "data/snapshot_seq_gen.hpp"
#include "data/social_evolution_gen.hpp"
#include "data/temporal_interactions.hpp"
#include "data/traffic_gen.hpp"

// The eight profiled models
#include "models/astgnn.hpp"
#include "models/dgnn_model.hpp"
#include "models/dyrep.hpp"
#include "models/evolvegcn.hpp"
#include "models/fusion_catalog.hpp"
#include "models/jodie.hpp"
#include "models/ldg.hpp"
#include "models/moldgnn.hpp"
#include "models/tgat.hpp"
#include "models/tgn.hpp"

// Online inference serving
#include "serve/arrival_source.hpp"
#include "serve/batch_policy.hpp"
#include "serve/executor.hpp"
#include "serve/model_session.hpp"
#include "serve/observer.hpp"
#include "serve/request.hpp"
#include "serve/server.hpp"
#include "serve/shard_hook.hpp"

// Scale-out sharded serving (partitioned node state across a topology)
#include "shard/exchange.hpp"
#include "shard/partition_book.hpp"
#include "shard/sharded_server.hpp"

// Serving observability (span tracing, metrics, bottleneck attribution)
#include "obs/attribution.hpp"
#include "obs/metrics.hpp"
#include "obs/observability.hpp"
#include "obs/request_timeline.hpp"
#include "obs/windowed_metrics.hpp"

// Adversarial workload scenarios (the serving gauntlet)
#include "scenario/access_patterns.hpp"
#include "scenario/arrival_patterns.hpp"
#include "scenario/scenario.hpp"
