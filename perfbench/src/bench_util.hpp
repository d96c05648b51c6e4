#pragma once

/// @file
/// Shared plumbing of the two-clock benchmark: host-clock helpers, exact
/// order statistics, the metric/check report every workload fills, and the
/// in-memory span recorder used by traced runs.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Host seconds elapsed since @p start.
double SecondsSince(Clock::time_point start);

/// Peak resident set size of this process, MiB.
double PeakRssMb();

/// Median of @p values (0 when empty).
double Median(std::vector<double> values);

/// Exact nearest-rank quantile of @p sorted (ascending); 0 when empty.
double SortedQuantile(const std::vector<double>& sorted, double q);

/// Command-line options shared by every workload.
struct Options {
    std::string workload;
    uint64_t seed = 0;
    /// Host seconds the measured phase runs for.
    double seconds = 10.0;
    /// Per-layer run: spans on, replays on, per-layer metrics printed.
    bool trace = false;
    /// Tiny inputs for the benchmark's own tests.
    bool smoke = false;
    /// Where a traced run writes its spans (empty: not written).
    std::string spans_out;
};

/// Everything a workload reports: metrics with units, operation counts,
/// correctness checks and output checksums. Printed as one JSON line.
class Report {
  public:
    /// Records metric @p name; a metric may be set only once.
    void Metric(const std::string& name, double value, const std::string& unit);

    /// Records a checksum the wrapper compares against the pinned values.
    void Checksum(const std::string& name, double value);

    /// Counts @p attempted operations (batches offline, requests in
    /// serving) of which @p failed did not complete.
    void Operations(int64_t attempted, int64_t failed);

    /// Records one correctness check; a failed check counts as a failure.
    void Check(bool ok, const std::string& what);

    /// A human-readable line printed before the result.
    void Note(const std::string& line);

    /// Prints the notes, a metric table and the final JSON line.
    void Print() const;

  private:
    struct Value {
        double value = 0.0;
        std::string unit;
    };
    std::map<std::string, Value> metrics_;
    std::vector<std::string> metric_order_;
    std::map<std::string, double> checksums_;
    std::vector<std::string> notes_;
    std::vector<std::string> failures_;
    int64_t attempted_ = 0;
    int64_t failed_ = 0;
    int64_t checks_ = 0;
};

/// In-memory span log for traced runs. Each span has a name, host start
/// and end, the span open when it began, and the id of the measured
/// repetition it belongs to. Disabled recorders record nothing.
class SpanRecorder {
  public:
    struct Span {
        std::string name;
        double start_s = 0.0;
        double end_s = 0.0;
        int64_t parent = -1;
        int64_t run = 0;
    };

    explicit SpanRecorder(bool enabled);

    void SetRun(int64_t run) { run_ = run; }

    /// Opens a span under the innermost open one; returns its id (-1 when
    /// disabled).
    int64_t Begin(const std::string& name);
    void End(int64_t id);

    /// Writes every span as a JSON array to @p path.
    void WriteTo(const std::string& path) const;

  private:
    bool enabled_;
    Clock::time_point origin_;
    int64_t run_ = 0;
    std::vector<Span> spans_;
    std::vector<int64_t> open_;
};

/// RAII span; a no-op on a disabled recorder.
class ScopedSpan {
  public:
    ScopedSpan(SpanRecorder& recorder, const std::string& name)
        : recorder_(recorder), id_(recorder.Begin(name))
    {
    }
    ~ScopedSpan() { recorder_.End(id_); }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

  private:
    SpanRecorder& recorder_;
    int64_t id_;
};

/// Mean host seconds of one call of @p fn: repeats it for 20 ms (at least
/// three calls), three times over, and keeps the median of the three means.
/// Each round of calls is one span.
double TimePerCall(SpanRecorder& spans, const std::string& name,
                   const std::function<void()>& fn);

/// Lowercase @p text with every run of other characters turned into '_'.
std::string MetricToken(const std::string& text);

/// The workloads.
void RunOfflineCtdg(const Options& options, Report& report);
void RunOfflineDtdg(const Options& options, Report& report);
void RunServeFlashCrowd(const Options& options, Report& report);
void RunServeSharded(const Options& options, Report& report);

}  // namespace perfbench
