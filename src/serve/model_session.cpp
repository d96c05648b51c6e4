#include "serve/model_session.hpp"

#include <string_view>

#include "support/check.hpp"

namespace dgnn::serve {

namespace {

/// Trace-name markers the runtime's cache-aware helpers attach (see
/// sim::Runtime::GatherToDevice / WriteBackToHost).
constexpr std::string_view kCacheMissSuffix = ":cache_miss_h2d";
constexpr std::string_view kCacheWritebackSuffix = ":cache_writeback_d2h";

}  // namespace

ModelSession::ModelSession(models::DgnnModel& model, sim::ExecMode mode,
                           int64_t num_neighbors,
                           cache::DeviceCacheConfig cache_config,
                           bool fuse_kernels)
    : model_(model),
      mode_(mode),
      num_neighbors_(num_neighbors),
      fuse_kernels_(fuse_kernels)
{
    // Rejected here, not at the first capture: the cache check below would
    // otherwise turn a negative capacity into a silently uncached session.
    DGNN_CHECK(num_neighbors_ >= 0, "num_neighbors must be >= 0, got ",
               num_neighbors_);
    DGNN_CHECK(cache_config.capacity_bytes >= 0,
               "cache_config.capacity_bytes must be >= 0, got ",
               cache_config.capacity_bytes);
    // The cache only exists where it can act honestly: hybrid mode,
    // positive capacity, cacheable per-node state, AND state keyed by the
    // request's own endpoints — the serving loop can only resolve src/dst
    // against the cache, so a model whose gathers reach further (TGAT's
    // sampled-neighbor features) would under-account transfers. Otherwise
    // the session serves uncached — bit-identical to a cache-less session.
    if (mode_ == sim::ExecMode::kHybrid && cache_config.capacity_bytes > 0 &&
        model_.CacheRowBytes() > 0 && model_.CacheKeysAreRequestEndpoints()) {
        cache_config.row_bytes = model_.CacheRowBytes();
        cache_ = cache::DeviceCache(cache_config);
    }
}

const BatchProfile&
ModelSession::Profile(int64_t batch_size)
{
    DGNN_CHECK(batch_size > 0, "batch size must be positive, got ", batch_size);
    auto it = cache_profiles_.find(batch_size);
    if (it == cache_profiles_.end()) {
        it = cache_profiles_.emplace(batch_size, Capture(batch_size)).first;
    }
    return it->second;
}

BatchProfile
ModelSession::Capture(int64_t batch_size)
{
    // Replay the model's batched entry on a scratch runtime of the same
    // mode; the trace then holds every op the batch issues, with enough
    // descriptor detail (flops/bytes/parallelism/irregularity) to re-issue
    // it. Warm-up is off, numerics are capped — cost accounting is
    // identical either way (the numeric_cap contract).
    sim::Runtime scratch = models::MakeRuntime(mode_);
    models::RunConfig probe =
        models::SingleBatchProbe(mode_, batch_size, num_neighbors_);
    probe.fuse_kernels = fuse_kernels_;
    if (CacheEnabled()) {
        // Probe through an unbounded scratch cache: every unique state row
        // misses exactly once and no eviction write-backs occur, so the
        // trace cleanly separates "per-node state" from everything else.
        probe.cache = cache::DeviceCacheConfig::Unbounded(model_.CacheRowBytes(),
                                                          cache_.Eviction());
    }
    model_.RunInference(scratch, probe);

    BatchProfile profile;
    profile.batch_size = batch_size;
    profile.state_row_bytes = CacheEnabled() ? model_.CacheRowBytes() : 0;
    for (const sim::TraceEvent& e : scratch.GetTrace().Events()) {
        if (e.start_us < scratch.MeasureStart()) {
            // One-time set-up (resident tables copied before the probe's
            // measurement window): a live session pays it once, not per
            // batch.
            continue;
        }
        switch (e.kind) {
          case sim::EventKind::kHostOp:
            profile.host_us += e.Duration();
            break;
          case sim::EventKind::kKernel: {
            if (CacheEnabled() && e.name.ends_with(":cache_hit_gather")) {
                // The probe cache is fresh, so hits cannot occur; guard
                // anyway — live gathers are re-issued by the executor.
                break;
            }
            sim::KernelDesc k;
            k.name = e.name;
            k.flops = e.flops;
            k.bytes = e.bytes;
            k.parallel_items = e.parallel_items;
            k.irregular = e.irregular;
            profile.kernels.push_back(std::move(k));
            break;
          }
          case sim::EventKind::kTransfer:
            if (CacheEnabled() && e.name.ends_with(kCacheMissSuffix)) {
                profile.state_rows += e.bytes / profile.state_row_bytes;
            } else if (CacheEnabled() &&
                       e.name.ends_with(kCacheWritebackSuffix)) {
                // End-of-run flush of the probe; the live session keeps its
                // rows resident instead.
            } else if (e.direction == sim::CopyDirection::kHostToDevice) {
                profile.h2d_bytes += e.bytes;
            } else if (e.direction == sim::CopyDirection::kDeviceToHost) {
                profile.d2h_bytes += e.bytes;
            }
            break;
          case sim::EventKind::kSync:
          case sim::EventKind::kMarker:
            break;
        }
    }
    // In CPU-only mode kernels run as synchronous host ops through
    // Launch(); they still surface as kKernel events, so the profile is
    // never empty for a real model.
    DGNN_CHECK(!profile.kernels.empty(),
               "batch capture for ", model_.Name(),
               " recorded no device kernels — is the model issuing work "
               "through the runtime?");
    return profile;
}

}  // namespace dgnn::serve
