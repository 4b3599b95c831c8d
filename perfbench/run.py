#!/usr/bin/env python3
"""The repository benchmark: one command for every GDMP workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --all [--seed <n>] [--seconds <s>]

Run from the root of a checkout. The first run configures and builds
perfbench/ (the simulator sources in src/ plus the benchmark program in
perfbench/src/) into .bench_build/perfbench with CMake.

--trace 0 measures the end-to-end metrics with tracing off. --trace 1 runs
the same workload untraced and then traced, writes the traced repetition's
host spans and the raw report to .bench_build/perfbench/traces/, and
reports the per-layer metrics that perfbench/reduce_trace.py derives from
spans and counts.
--all runs every workload untraced and prints every end-to-end metric.

The last line of stdout is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
The exit code is 0 only when every output check passed.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "gdmp_perfbench")
TRACE_DIR = os.path.join(BUILD_DIR, "traces")

sys.path.insert(0, HERE)
import reduce_trace  # noqa: E402  (lives next to this file)

WORKLOADS = ("wan_sweep", "fluid_grid", "replication", "catalog_mix")

# CPU seconds the calibration loop in perfbench/src/main.cpp takes on the
# reference host (4-core x86-64 VM, 2026). Host times are reported in
# reference-host seconds: measured CPU seconds x REFERENCE_CALIBRATION_S /
# the calibration measured around the same repetition. This cancels the
# host-speed drift a shared machine shows between and within runs.
REFERENCE_CALIBRATION_S = 0.040

# End-to-end metrics: name -> unit. Every workload reports all of them.
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "sim_makespan_s": "s",
    "sim_goodput_mbps": "Mbit/s",
    "sim_op_p50_s": "s",
    "sim_op_p99_s": "s",
}

# The workload-specific names the end-to-end metrics stand for.
ALIASES = {
    "wan_sweep": {"ops_per_s": "transfers_per_s",
                  "sim_op_p50_s": "sim_transfer_p50_s",
                  "sim_op_p99_s": "sim_transfer_p99_s"},
    "fluid_grid": {"ops_per_s": "flows_per_s",
                   "sim_op_p50_s": "sim_flow_p50_s",
                   "sim_op_p99_s": "sim_flow_p99_s"},
    "replication": {"ops_per_s": "replicas_per_s",
                    "sim_op_p50_s": "sim_replica_p50_s",
                    "sim_op_p99_s": "sim_replica_p99_s"},
    "catalog_mix": {"ops_per_s": "catalog_ops_per_s",
                    "sim_op_p50_s": "sim_lookup_p50_s",
                    "sim_op_p99_s": "sim_lookup_p99_s"},
}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    if shutil.which("cmake") is None:
        log("perfbench: cmake not found")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    step = subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                          stdout=sys.stderr)
    return step.returncode == 0 and os.path.exists(BINARY)


def run_binary(workload, seed, seconds, trace, span_file=None):
    """Runs one workload in the benchmark binary; returns its JSON report."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if span_file:
        cmd += ["--span-file", span_file]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=seconds + 150)
    except subprocess.TimeoutExpired:
        log("perfbench: %s timed out" % workload)
        return None
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if not lines:
        log("perfbench: %s printed no report (exit %d)" % (workload, proc.returncode))
        return None
    report = json.loads(lines[-1])
    report["exit_code"] = proc.returncode
    return report


def normalized(times, calibration):
    """Per-repetition host seconds in reference-host seconds."""
    return [t * REFERENCE_CALIBRATION_S / c for t, c in zip(times, calibration)]


def end_to_end(report):
    run_s = statistics.median(normalized(report["run_s"], report["calibration_s"]))
    setup_s = statistics.median(normalized(report["setup_s"], report["calibration_s"]))
    out = report["outcomes"]
    return {
        "setup_s": setup_s,
        "run_s": run_s,
        "ops_per_s": report["ops"] / run_s,
        "peak_rss_mb": report["peak_rss_mb"],
        "sim_makespan_s": out["sim_makespan_s"],
        "sim_goodput_mbps": out["sim_goodput_mbps"],
        "sim_op_p50_s": out["sim_op_p50_s"],
        "sim_op_p99_s": out["sim_op_p99_s"],
    }


def print_end_to_end(workload, report, metrics):
    print("%s: %d timed repetitions, %d checks, %d failed" % (
        workload, len(report["run_s"]), report["checks"], report["failed"]))
    for name, value in metrics.items():
        alias = ALIASES[workload].get(name)
        label = "%s (%s)" % (name, alias) if alias else name
        print("  %-40s %16.6g %s" % (label, value, END_TO_END[name]))
    print("  %-40s %16.6g %s" % ("failed_frac", report["failed"] / max(1, report["checks"]), "1"))


def result_line(correct, attempted, failed, metrics, units):
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    })


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true",
                        help="run every workload untraced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not args.all and args.workload is None:
        parser.error("give --workload or --all")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not build():
        log("perfbench: build failed")
        return 2

    if args.all:
        attempted = failed = 0
        correct = True
        for workload in WORKLOADS:
            report = run_binary(workload, args.seed, args.seconds, False)
            if report is None:
                return 2
            metrics = end_to_end(report)
            print_end_to_end(workload, report, metrics)
            attempted += report["checks"]
            failed += report["failed"]
            correct = correct and report["failed"] == 0 and report["exit_code"] == 0
        print(json.dumps({"correct": correct, "attempted": attempted,
                          "failed": failed, "metrics": {}}))
        return 0 if correct else 1

    span_file = None
    if args.trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        span_file = os.path.join(
            TRACE_DIR, "%s-seed%d.json" % (args.workload, args.seed))
    report = run_binary(args.workload, args.seed, args.seconds, args.trace, span_file)
    if report is None:
        return 2
    correct = report["failed"] == 0 and report["exit_code"] == 0

    if args.trace:
        # Keep the raw report beside the spans so reduce_trace.py can re-run.
        with open(span_file[:-len(".json")] + ".report.json", "w") as f:
            json.dump(report, f)
        metrics, table = reduce_trace.reduce(report, span_file, REFERENCE_CALIBRATION_S)
        print(table)
        units = reduce_trace.UNITS
    else:
        metrics = end_to_end(report)
        print_end_to_end(args.workload, report, metrics)
        units = END_TO_END
    print(result_line(correct, report["checks"], report["failed"], metrics, units))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
