#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a source checkout. On first use it builds
bench_suite and the graphulo_tsd daemon from the checkout's sources into
.bench_build/perfbench (CMake, Release); later runs rebuild only what
changed. It then runs bench_suite once, checks the result envelope
against the metric lists in BENCHMARK.json, and prints as the last line
of standard output one JSON object:

    {"correct": ..., "attempted": ..., "failed": ...,
     "metrics": {"<name>": {"value": ..., "unit": "..."}, ...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. Every envelope is kept under
.bench_build/results/ (a traced run also leaves its Chrome trace there)
for compare.py. Build output and progress go to standard error. The exit
code is 0 only for a run whose outputs matched the oracles.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD, "perfbench")
RESULTS = os.path.join(BUILD, "results")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds bench_suite + graphulo_tsd."""
    log_path = os.path.join(BUILD, "build.log")
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "bench_suite", "graphulo_tsd"])
    with open(log_path, "a") as log:
        for step in steps:
            log.write("$ " + " ".join(step) + "\n")
            log.flush()
            status = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                    cwd=ROOT).returncode
            if status != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail(f"build step failed: {' '.join(step)}", 3)
    return os.path.join(BUILD_DIR, "bench_suite")


def run_suite(binary, args, out, trace_out, work_dir):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--out", out,
           "--trace-out", trace_out, "--work-dir", work_dir]
    if args.trace:
        cmd.append("--trace")
    # Its own session, so a timeout can kill it and everything it forked.
    proc = subprocess.Popen(cmd, stdout=sys.stderr, cwd=ROOT,
                            start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"bench_suite did not finish within {RUN_TIMEOUT_S}s", 4)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    for needed in (spec_path, os.path.join(ROOT, "CMakeLists.txt"),
                   os.path.join(ROOT, "src")):
        if not os.path.exists(needed):
            fail(f"{needed} is missing: run from a full source checkout")
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]

    binary = build()
    os.makedirs(RESULTS, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S") + f"-{os.getpid()}"
    base = os.path.join(
        RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}")
    out = base + ".json"
    work_dir = os.path.join(BUILD, "work", f"{args.workload}-{os.getpid()}")
    status = run_suite(binary, args, out, base + ".trace.json", work_dir)
    if not os.path.exists(out):
        fail(f"bench_suite exited with {status} and wrote no result", 5)
    with open(out) as f:
        envelope = json.load(f)

    reported = envelope["layers"] if args.trace else envelope["metrics"]
    names = [m["name"] for m in listed]
    missing = [n for n in names if n not in reported]
    if missing:
        fail(f"bench_suite did not report {missing}", 6)
    if args.trace and set(reported) != set(names):
        fail(f"per-layer metrics not in BENCHMARK.json: "
             f"{sorted(set(reported) - set(names))}", 6)
    result = {
        "correct": bool(envelope["correct"]) and status == 0,
        "attempted": int(envelope["attempted"]),
        "failed": int(envelope["failed"]),
        "metrics": {m["name"]: {"value": reported[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }
    for m in listed:
        print(f"  {m['name']:<36} {reported[m['name']]:.6g} {m['unit']}",
              file=sys.stderr)
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
