#!/usr/bin/env python3
"""Self-test of the benchmark at tiny scale.

Usage, from the root of the repository:

    python3 perfbench/selftest.py

Builds the driver like run.py does, then, for every workload in
BENCHMARK.json, checks that:

  * every end-to-end and per-layer metric is printed with its declared unit;
  * no layer self time is negative, and the layer self times sum to no more
    than the job's CPU time (bench.unattributed_s >= 0);
  * failed_frac is 0 and the result line says correct;
  * the seed is echoed, and one seed repeats every byte and record count
    exactly (shuffle, disk, encoding mix, partition calls per record);
  * another seed gives other inputs (a different reference output hash);
  * a reducer wrapper that drops one record drives failed_frac above 0 and
    the exit code to 1, which proves the output gate can fail.

Exits 0 when every check passes.
"""
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the build helper next to this file)

SCALE = "0.02"
SECONDS = "0.3"
SEED = 7

# Counts that must repeat exactly for one seed: the e2e byte metrics and
# the per-layer counters of bytes and records.
EXACT = [
    "shuffle_mb", "disk_mb",
    "workloads.map_calls", "workloads.reduce_calls",
    "workloads.combine_in_records", "workloads.combine_out_records",
    "anticombine.eager_records", "anticombine.lazy_records",
    "anticombine.plain_records", "anticombine.remap_calls",
    "anticombine.bytes_ratio", "anticombine.shared_spills",
    "mr.partition_calls_per_record", "mr.emit_calls", "mr.map_spills",
    "io.write_mb", "io.read_mb", "io.files_created",
]

failures = []


def check(ok, what):
    print(("PASS " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def drive(workload, seed, trace, *extra):
    """Run the driver; returns (exit code, result line, detail)."""
    cmd = [run.BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", SECONDS, "--trace", str(trace), "--scale", SCALE,
           *extra]
    proc = subprocess.run(cmd, cwd=run.ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=run.RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])["detail"]
    return proc.returncode, result, detail


def check_declared(name, result, declared):
    metrics = result["metrics"]
    check(set(metrics) == {m["name"] for m in declared},
          f"{name}: result line carries exactly the declared metrics")
    for m in declared:
        got = metrics.get(m["name"], {})
        check(got.get("unit") == m["unit"] and
              isinstance(got.get("value"), (int, float)),
              f"{name}: {m['name']} printed with unit {m['unit']}")


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if not run.build():
        print("FAIL build")
        return 1
    for w in [w["name"] for w in bench["workloads"]]:
        code, result, detail = drive(w, SEED, 0)
        check(code == 0 and result["correct"] and result["failed"] == 0,
              f"{w}: untraced run correct, exit 0")
        check_declared(f"{w} trace 0", result, bench["end_to_end"])

        code, result, first = drive(w, SEED, 1)
        check(code == 0 and result["correct"] and result["failed"] == 0,
              f"{w}: traced run correct, exit 0")
        check_declared(f"{w} trace 1", result, bench["per_layer"])
        metrics = first["metrics"]
        check(metrics["failed_frac"]["value"] == 0, f"{w}: failed_frac is 0")
        check(first["seed"] == SEED, f"{w}: seed echoed")
        negative = [n for n, v in metrics.items()
                    if n.endswith("_s") and v["value"] < 0]
        check(not negative, f"{w}: no negative time {negative}")
        check(metrics["bench.self_sum_s"]["value"] > 0,
              f"{w}: layer self times recorded")
        check(metrics["bench.unattributed_s"]["value"] >= 0,
              f"{w}: layer self times sum to no more than job CPU")

        code, result, second = drive(w, SEED, 1)
        drift = [n for n in EXACT
                 if second["metrics"][n]["value"] != metrics[n]["value"]]
        check(code == 0 and not drift,
              f"{w}: counts repeat exactly for one seed {drift}")

        code, result, other = drive(w, SEED + 1, 0)
        check(code == 0 and other["reference_hash"] != first["reference_hash"],
              f"{w}: another seed gives other inputs")

        code, result, dropped = drive(w, SEED, 0, "--drop-one-record")
        check(code == 1 and not result["correct"] and result["failed"] > 0 and
              dropped["metrics"]["failed_frac"]["value"] > 0,
              f"{w}: dropping one record fails the output gate")
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
