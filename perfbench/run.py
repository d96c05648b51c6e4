#!/usr/bin/env python3
"""Builds and runs the two-clock benchmark on one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark binary is built from source
into $CARGO_TARGET_DIR (default .bench_build) with CMake. The binary runs
the workload; this wrapper compares its output checksums against the ones
pinned in perfbench/manifest.json, fills in the per-layer metrics of layers
the workload does not run (0, as the manifest records), and prints the
result as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. Build and run failures exit non-zero without
a result line.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(build_root):
    """Configures and builds the benchmark; returns the binary's path."""
    build_dir = os.path.join(build_root, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs], check=True,
                   stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def relative_error(value, pinned):
    return abs(value - pinned) / max(abs(pinned), 1e-12)


def compare_checksums(output, manifest, workload, seed):
    """Returns the failed checksum comparisons as messages."""
    checksums = manifest["checksums"]
    tolerance = checksums["rel_tolerance"]
    pinned = dict(checksums["canary"].get(workload, {}))
    pinned.update(checksums["seeds"].get(str(seed), {}).get(workload, {}))
    failures = []
    for name, expected in sorted(pinned.items()):
        actual = output["checksums"].get(name)
        if actual is None:
            failures.append(f"checksum {name} missing")
        elif relative_error(actual, expected) > tolerance:
            failures.append(f"checksum {name} = {actual!r}, pinned {expected!r}")
    return failures


def select_metrics(output, spec, manifest, workload, trace):
    """The metrics the result line carries, in BENCHMARK.json order."""
    selected = {}
    layers = manifest["per_layer"]
    for entry in spec["per_layer" if trace else "end_to_end"]:
        name, unit = entry["name"], entry["unit"]
        measured = output["metrics"].get(name)
        if trace and workload not in layers[name]["workloads"]:
            if measured is not None:
                raise RuntimeError(f"{name} is measured on {workload} but the "
                                   "manifest says it is not")
            selected[name] = {"value": 0, "unit": unit}
            continue
        if measured is None:
            raise RuntimeError(f"metric {name} was not reported")
        if measured["unit"] != unit:
            raise RuntimeError(f"metric {name} has unit {measured['unit']}, "
                               f"BENCHMARK.json says {unit}")
        selected[name] = {"value": measured["value"], "unit": unit}
    return selected


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one repetition (for the tests)")
    parser.add_argument("--manifest", default=os.path.join(HERE, "manifest.json"))
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(args.manifest) as f:
        manifest = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"unknown workload {args.workload}")
        return 2

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(build_root)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        command.append("--smoke")
    if args.trace:
        command += ["--spans-out", os.path.join(
            build_root, f"spans-{args.workload}-{args.seed}.json")]
    run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                         timeout=RUN_TIMEOUT_S)
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(run.stdout)
        log(f"benchmark binary failed with exit code {run.returncode}")
        return 1
    output = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)

    failures = output["failures"] + compare_checksums(
        output, manifest, args.workload, args.seed)
    for message in failures[len(output["failures"]):]:
        print(f"FAILED check: {message}")
    failed = output["failed"] + len(failures) - len(output["failures"])
    attempted = max(1, output["attempted"])
    metrics = select_metrics(output, spec, manifest, args.workload, args.trace)
    print(f"failed_frac = {failed / attempted!r} frac "
          f"({failed} failed of {attempted} attempted)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.SubprocessError) as error:
        log(f"perfbench: {error}")
        sys.exit(1)
