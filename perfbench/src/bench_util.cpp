#include "bench_util.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <stdexcept>

namespace perfbench {

double
SecondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
PeakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    // Linux reports ru_maxrss in KiB.
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double
Median(std::vector<double> values)
{
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const size_t mid = values.size() / 2;
    return values.size() % 2 == 1 ? values[mid]
                                   : 0.5 * (values[mid - 1] + values[mid]);
}

double
SortedQuantile(const std::vector<double>& sorted, double q)
{
    if (sorted.empty()) {
        return 0.0;
    }
    const double rank = std::ceil(q * static_cast<double>(sorted.size()));
    const size_t index = static_cast<size_t>(std::max(1.0, rank)) - 1;
    return sorted[std::min(index, sorted.size() - 1)];
}

namespace {

std::string
JsonString(const std::string& text)
{
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
JsonNumber(double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

}  // namespace

void
Report::Metric(const std::string& name, double value, const std::string& unit)
{
    if (metrics_.count(name) > 0) {
        throw std::logic_error("metric reported twice: " + name);
    }
    if (!std::isfinite(value)) {
        Check(false, "metric " + name + " is not finite");
        value = 0.0;
    }
    metrics_[name] = Value{value, unit};
    metric_order_.push_back(name);
}

void
Report::Checksum(const std::string& name, double value)
{
    Check(std::isfinite(value), "checksum " + name + " is finite");
    checksums_[name] = value;
}

void
Report::Operations(int64_t attempted, int64_t failed)
{
    attempted_ += attempted;
    failed_ += failed;
}

void
Report::Check(bool ok, const std::string& what)
{
    ++checks_;
    if (!ok) {
        ++failed_;
        failures_.push_back(what);
    }
}

void
Report::Note(const std::string& line)
{
    notes_.push_back(line);
}

void
Report::Print() const
{
    for (const std::string& line : notes_) {
        std::cout << line << "\n";
    }
    for (const std::string& name : metric_order_) {
        const Value& v = metrics_.at(name);
        std::cout << "metric " << name << " = " << JsonNumber(v.value) << " "
                  << v.unit << "\n";
    }
    for (const std::string& what : failures_) {
        std::cout << "FAILED check: " << what << "\n";
    }
    std::cout << "checks: " << checks_ << ", operations attempted "
              << attempted_ << ", failed " << failed_ << "\n";

    std::string json = "{\"attempted\": " + std::to_string(attempted_) +
                       ", \"failed\": " + std::to_string(failed_) +
                       ", \"failures\": [";
    for (size_t i = 0; i < failures_.size(); ++i) {
        json += (i > 0 ? ", " : "") + JsonString(failures_[i]);
    }
    json += "], \"checksums\": {";
    bool first = true;
    for (const auto& [name, value] : checksums_) {
        json += (first ? "" : ", ") + JsonString(name) + ": " + JsonNumber(value);
        first = false;
    }
    json += "}, \"metrics\": {";
    first = true;
    for (const std::string& name : metric_order_) {
        const Value& v = metrics_.at(name);
        json += (first ? "" : ", ") + JsonString(name) +
                ": {\"value\": " + JsonNumber(v.value) +
                ", \"unit\": " + JsonString(v.unit) + "}";
        first = false;
    }
    json += "}}";
    std::cout << json << std::endl;
}

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), origin_(Clock::now())
{
}

int64_t
SpanRecorder::Begin(const std::string& name)
{
    if (!enabled_) {
        return -1;
    }
    Span span;
    span.name = name;
    span.start_s = SecondsSince(origin_);
    span.parent = open_.empty() ? -1 : open_.back();
    span.run = run_;
    spans_.push_back(std::move(span));
    const int64_t id = static_cast<int64_t>(spans_.size()) - 1;
    open_.push_back(id);
    return id;
}

void
SpanRecorder::End(int64_t id)
{
    if (id < 0) {
        return;
    }
    spans_[static_cast<size_t>(id)].end_s = SecondsSince(origin_);
    if (!open_.empty() && open_.back() == id) {
        open_.pop_back();
    }
}

void
SpanRecorder::WriteTo(const std::string& path) const
{
    std::ofstream out(path);
    out << "[\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        out << "{\"id\": " << i << ", \"name\": " << JsonString(s.name)
            << ", \"start_s\": " << JsonNumber(s.start_s)
            << ", \"end_s\": " << JsonNumber(s.end_s)
            << ", \"parent\": " << s.parent << ", \"run\": " << s.run << "}"
            << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]\n";
}

double
TimePerCall(SpanRecorder& spans, const std::string& name,
            const std::function<void()>& fn)
{
    constexpr double kBudgetS = 0.02;
    constexpr int64_t kMinCalls = 3;
    fn();  // warm caches and lazy allocations before timing
    std::vector<double> means;
    for (int round = 0; round < 3; ++round) {
        ScopedSpan span(spans, name);
        const Clock::time_point start = Clock::now();
        int64_t calls = 0;
        double elapsed = 0.0;
        while (calls < kMinCalls || elapsed < kBudgetS) {
            fn();
            ++calls;
            elapsed = SecondsSince(start);
        }
        means.push_back(elapsed / static_cast<double>(calls));
    }
    return Median(means);
}

std::string
MetricToken(const std::string& text)
{
    std::string out;
    bool pending = false;
    for (const char c : text) {
        if (std::isalnum(static_cast<unsigned char>(c))) {
            if (pending && !out.empty()) {
                out += '_';
            }
            pending = false;
            out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
        } else {
            pending = true;
        }
    }
    return out;
}

}  // namespace perfbench
