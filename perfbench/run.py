#!/usr/bin/env python3
"""Build and run the massf end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark binary (perfbench/CMakeLists.txt, Release) into
$CARGO_TARGET_DIR or .bench_build at the repository root on first use, runs
it, and prints its result object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The binary checks every pass it makes. In traced runs this script adds
one operation of its own: the Chrome trace-event file must load as JSON
with every span inside its parent, or the operation fails. Any other extra
arguments (such as --small) are passed to the binary.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out_dir):
    """Configure once and build the binary; returns its path."""
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", out_dir, "--target", "perfbench", "-j", jobs],
        check=True, stdout=sys.stderr)
    return os.path.join(out_dir, "perfbench")


def check_trace(path):
    """The trace loads as JSON and every span lies inside its parent."""
    try:
        with open(path) as f:
            events = json.load(f)["traceEvents"]
    except (OSError, ValueError, KeyError) as error:
        log("trace %s is not valid trace-event JSON: %s" % (path, error))
        return False
    ok = True
    for event in events:
        parent = event["args"]["parent"]
        if parent < 0:
            continue
        outer = events[parent]
        # Timestamps are printed in microseconds with 3 decimals.
        slack = 0.002
        if (event["ts"] + slack < outer["ts"] or
                event["ts"] + event["dur"] > outer["ts"] + outer["dur"] + slack):
            log("span %s lies outside %s" % (event["name"], outer["name"]))
            ok = False
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args, extra = parser.parse_known_args()

    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        log("build failed: %s" % error)
        return 1

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace] + extra
    trace_path = None
    if args.trace == "1":
        traces = os.path.join(out_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        trace_path = os.path.join(
            traces, "%s-%d.json" % (args.workload, args.seed))
        command += ["--trace-out", trace_path]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("benchmark exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    if done.returncode != 0:
        log("benchmark exited with code %d" % done.returncode)
        return 1

    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    if trace_path is not None:
        result["attempted"] += 1
        if not check_trace(trace_path):
            result["failed"] += 1
            result["correct"] = False
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
