/// The two-clock benchmark's entry point. Runs one workload for a fixed
/// host-time budget and prints its metrics, checksums and check counts; the
/// final stdout line is one JSON object (see perfbench/run.py, which builds
/// this binary, compares the checksums against the pinned ones and prints
/// the benchmark's result line).
///
///   perfbench --workload <offline-ctdg|offline-dtdg|serve-flash-crowd|
///                         serve-sharded>
///             --seed <n> --seconds <s> --trace <0|1>
///             [--smoke] [--spans-out <path>]

#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <string>

#include "bench_util.hpp"

namespace {

void
Usage()
{
    std::cerr << "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--smoke] [--spans-out <path>]\n";
}

}  // namespace

int
main(int argc, char** argv)
{
    perfbench::Options options;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--smoke") {
            options.smoke = true;
        } else if (arg == "--workload" && has_value) {
            options.workload = argv[++i];
        } else if (arg == "--seed" && has_value) {
            options.seed = std::strtoull(argv[++i], nullptr, 10);
            have_seed = true;
        } else if (arg == "--seconds" && has_value) {
            options.seconds = std::strtod(argv[++i], nullptr);
        } else if (arg == "--trace" && has_value) {
            options.trace = std::string(argv[++i]) == "1";
        } else if (arg == "--spans-out" && has_value) {
            options.spans_out = argv[++i];
        } else {
            Usage();
            return 2;
        }
    }
    const std::map<std::string, void (*)(const perfbench::Options&,
                                         perfbench::Report&)>
        workloads = {
            {"offline-ctdg", perfbench::RunOfflineCtdg},
            {"offline-dtdg", perfbench::RunOfflineDtdg},
            {"serve-flash-crowd", perfbench::RunServeFlashCrowd},
            {"serve-sharded", perfbench::RunServeSharded},
        };
    const auto it = workloads.find(options.workload);
    if (it == workloads.end() || !have_seed || !(options.seconds > 0.0)) {
        Usage();
        return 2;
    }
    try {
        perfbench::Report report;
        it->second(options, report);
        report.Metric("peak_rss_mb", perfbench::PeakRssMb(), "MB");
        report.Print();
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << options.workload << " failed: " << e.what()
                  << "\n";
        return 1;
    }
    return 0;
}
