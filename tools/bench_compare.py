#!/usr/bin/env python3
"""Compare the benchmark of two checkouts in alternating pairs of runs.

Usage, from anywhere:

    python3 tools/bench_compare.py --parent <dir> --change <dir> \\
        [--workload <name>]... [--pairs 10] [--first-seed 601] \\
        [--seconds 30] [--trace 0]

Each checkout must hold perfbench/run.py and BENCHMARK.json; neither is
edited. For every workload (all of BENCHMARK.json's by default) the tool
makes --pairs pairs of runs. Pair i runs both checkouts on seed
--first-seed + i, alternating which one goes first, so that drift in the
host's speed falls on both sides alike. run.py builds each checkout on
its first call.

For every metric of the runs' detail lines it prints each side's median,
Q1 and Q3 (statistics.quantiles, n=4), the fraction of pairs the change
wins, and the parent-IQR test: whether the medians differ by more than
the parent's Q3 - Q1. Each end-to-end metric of BENCHMARK.json is also
checked against its bound: the change's median may be worse than the
parent's by at most bound x the parent's median. A run that exits
non-zero, reports correct=false or a failed job fails the comparison.

Both sides of a pair run the same seed, so the byte counters (shuffle_mb,
disk_mb, wire_mb) of a change that moves no output byte read exactly
equal. For those the table's "equal" column counts the pairs that do. It
is a report, not a gate: some legitimate changes drift by a few bytes.

Exit code: 0 when every run passed and every bound held, 1 otherwise,
2 on a usage error.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

# Deterministic byte counters: equal on both sides of a same-seed pair
# unless the change moves output bytes.
BYTE_COUNTERS = ("shuffle_mb", "disk_mb", "wire_mb")


def load_benchmark(checkout):
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(checkout, workload, seed, seconds, trace):
    """One perfbench run; returns (result line, detail metrics) or None."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    result, detail = None, {}
    for line in proc.stdout.splitlines():
        if not line.startswith("{"):
            continue
        parsed = json.loads(line)
        if "detail" in parsed:
            detail = {name: m["value"]
                      for name, m in parsed["detail"]["metrics"].items()}
        elif "correct" in parsed:
            result = parsed
    if result is None:  # no result line: the build or the driver failed
        return None
    return result, detail


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def compare_workload(args, workload, directions, bounds):
    parent_runs, change_runs = [], []
    ok = True
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = [("parent", args.parent), ("change", args.change)]
        if i % 2 == 1:
            order.reverse()
        for side, checkout in order:
            out = run_once(checkout, workload, seed, args.seconds, args.trace)
            if out is None:
                print(f"  {side} seed {seed}: run failed", flush=True)
                ok = False
                continue
            result, detail = out
            if not result["correct"] or result["failed"] != 0:
                print(f"  {side} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}",
                      flush=True)
                ok = False
            (parent_runs if side == "parent" else change_runs).append(
                (seed, detail))
        print(f"  pair {i + 1}/{args.pairs} (seed {seed}) done", flush=True)

    parent_by_seed = dict(parent_runs)
    change_by_seed = dict(change_runs)
    seeds = [s for s in parent_by_seed if s in change_by_seed]
    names = sorted(set().union(*(d.keys() for _, d in parent_runs),
                               *(d.keys() for _, d in change_runs)))
    print(f"\n{workload}: {len(seeds)} pairs, --seconds {args.seconds}, "
          f"--trace {args.trace}")
    header = ("metric", "parent Q1", "median", "Q3", "change Q1", "median",
              "Q3", "delta", "wins", "IQR test", "bound", "equal")
    print("| " + " | ".join(header) + " |")
    print("|" + "---|" * len(header))
    for name in names:
        pv = [parent_by_seed[s][name] for s in seeds
              if name in parent_by_seed[s]]
        cv = [change_by_seed[s][name] for s in seeds
              if name in change_by_seed[s]]
        if not pv or len(pv) != len(cv):
            continue
        lower = directions.get(name, "lower") == "lower"
        pq1, pmed, pq3 = quartiles(pv)
        cq1, cmed, cq3 = quartiles(cv)
        wins = sum(1 for p, c in zip(pv, cv) if (c < p if lower else c > p))
        beyond_iqr = abs(cmed - pmed) > (pq3 - pq1)
        delta = (cmed - pmed) / pmed if pmed else 0.0
        verdict = ""
        if name in bounds:
            worse = (cmed - pmed) if lower else (pmed - cmed)
            held = worse <= bounds[name] * abs(pmed)
            verdict = "ok" if held else f"WORSE than {bounds[name]:g}"
            ok = ok and held
        equal = ""
        if name in BYTE_COUNTERS:
            same = sum(1 for p, c in zip(pv, cv) if p == c)
            equal = f"{same}/{len(pv)}"
        cells = [name, f"{pq1:.4g}", f"{pmed:.4g}", f"{pq3:.4g}",
                 f"{cq1:.4g}", f"{cmed:.4g}", f"{cq3:.4g}",
                 f"{100 * delta:+.1f}%", f"{wins}/{len(pv)}",
                 "beyond" if beyond_iqr else "within", verdict, equal]
        print("| " + " | ".join(cells) + " |")
    sys.stdout.flush()
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=601)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    for checkout in (args.parent, args.change):
        if not os.path.isfile(os.path.join(checkout, "perfbench", "run.py")):
            parser.error(f"{checkout}: no perfbench/run.py")

    bench = load_benchmark(args.change)
    directions = {m["name"]: m["better"]
                  for m in bench["end_to_end"] + bench["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]

    all_ok = True
    for workload in workloads:
        print(f"{workload}: running {args.pairs} pairs", flush=True)
        ok = compare_workload(args, workload, directions, bounds)
        all_ok = all_ok and ok
    print("\nresult: " + ("ok" if all_ok else "FAILED"))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
