#!/usr/bin/env python3
"""Compare two sets of bench_suite result envelopes.

    python3 perfbench/compare.py BASE NEW [--spec BENCHMARK.json]

BASE and NEW are directories of envelopes (as run.py leaves them under
.bench_build/results/) or single envelope files. Untraced envelopes are
compared metric by metric against the bounds in BENCHMARK.json; traced
envelopes are listed per layer without a verdict (per-layer metrics
have no bounds). One row per (workload, metric): each side's median and
quartiles, the pairs the new side won, and a verdict:

  improved    at least 10 pairs, the new side wins at least 9/10 of them
              (ties count for neither), and the medians differ by more
              than the base side's interquartile range
  worse       the new median is worse than the base median by more than
              the metric's bound
  unresolved  the base side's own spread (IQR / median) is wider than the
              bound, unless every new run beats every base run
  unchanged   otherwise

Runs are paired in order of (seed, file name) within each workload, so
run both sides on the same seeds, alternating which side runs first. Any
rise in the failed-op fraction, or an incorrect run, is flagged. Exits 1
when a verdict is "worse" or failures rose, else 0. Standard library only.
"""

import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    files = sorted(glob.glob(os.path.join(path, "*.json"))) if os.path.isdir(path) else [path]
    runs = []
    for name in files:
        if name.endswith(".trace.json"):
            continue
        with open(name) as f:
            env = json.load(f)
        if env.get("bench") == "bench_suite" and not env.get("smoke"):
            runs.append((env["seed"], os.path.basename(name), env))
    runs.sort(key=lambda r: (r[0], r[1]))
    return [env for _, _, env in runs]


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, new, better, bound):
    sign = 1.0 if better == "higher" else -1.0  # > 0 means the new side is better
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    b1, bmed, b3 = quartiles(base)
    _, nmed, _ = quartiles(new)
    worse_by = -sign * (nmed - bmed) / bmed if bmed else 0.0
    all_better = all(sign * (n - b) > 0 for b in base for n in new)
    if (len(pairs) >= 10 and wins >= 0.9 * len(pairs)
            and sign * (nmed - bmed) > b3 - b1):
        return "improved", wins, len(pairs)
    if worse_by > bound:
        return "worse", wins, len(pairs)
    if bmed and (b3 - b1) / bmed > bound and not all_better:
        return "unresolved", wins, len(pairs)
    return "unchanged", wins, len(pairs)


def fmt(values):
    q1, med, q3 = quartiles(values)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}]"


def failed_frac(runs):
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--spec", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.spec) as f:
        spec = json.load(f)
    base_runs, new_runs = load(args.base), load(args.new)
    flagged = False
    header = f"{'workload':<16} {'metric':<34} {'base median [q1, q3]':<36} " \
             f"{'new median [q1, q3]':<36} {'won':>6}  verdict"
    print(header)
    print("-" * len(header))
    for workload in [w["name"] for w in spec["workloads"]]:
        for traced, metrics, key in ((False, spec["end_to_end"], "metrics"),
                                     (True, spec["per_layer"], "layers")):
            base = [r for r in base_runs if r["workload"] == workload and r["traced"] == traced]
            new = [r for r in new_runs if r["workload"] == workload and r["traced"] == traced]
            if not base or not new:
                continue
            for m in metrics:
                b = [r[key][m["name"]] for r in base if m["name"] in r[key]]
                n = [r[key][m["name"]] for r in new if m["name"] in r[key]]
                if not b or not n:
                    continue
                if traced:
                    result, won = "(per layer)", ""
                else:
                    result, wins, pairs = verdict(b, n, m["better"], m["bound"])
                    won = f"{wins}/{pairs}"
                    flagged = flagged or result == "worse"
                print(f"{workload:<16} {m['name']:<34} {fmt(b):<36} {fmt(n):<36} "
                      f"{won:>6}  {result}")
            bf, nf = failed_frac(base), failed_frac(new)
            if nf > bf:
                flagged = True
                print(f"{workload:<16} FAILED OPS ROSE: {bf:.4%} -> {nf:.4%}")
            bad = sum(1 for r in base + new if not r["correct"])
            if bad:
                flagged = True
                print(f"{workload:<16} {bad} INCORRECT run(s)")
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
