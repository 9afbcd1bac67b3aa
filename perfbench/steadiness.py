#!/usr/bin/env python3
"""Steadiness check: runs every workload once per seed through run.py (trace
off), in one or more sets, and reports per set and per end-to-end metric the
quartiles of the values and the spread (Q3 - Q1) / median next to the
metric's bound; with two or more sets, also how much worse each later set's
median is than the first's.

    python3 perfbench/steadiness.py --seeds 1-10 [--sets 2]
        [--workloads a,b] [--out FILE]

--sets 1 gives a quicker look at the spread alone.

Set i runs the seeds shifted by i times their count (--seeds 1-10 --sets 2
runs seeds 1-10, then 11-20). Within a set the workloads are interleaved,
all workloads for one seed before the next seed, and every other set runs
them in reverse order, so that a slow drift of the machine spreads over all
workloads instead of landing on one.

--out writes the quartiles as JSON (the format of perfbench/spread.json).
Exits 1 when a run fails its checks, a spread exceeds its bound, or a later
set's median is worse than the first set's by more than the bound.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds):
    """One untraced run: the result object, or None when run.py failed."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if done.returncode != 0:
        return None
    return json.loads(done.stdout.strip().splitlines()[-1])


def worse_by(metric, first, later):
    """Share of the first median by which the later one is worse."""
    change = (later - first) / first
    return change if metric["better"] == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--out", default="")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])
    base_seeds = parse_seeds(args.seeds)
    ok = True
    report = {"note": "Quartiles of each end-to-end metric over untraced "
                      "runs, one per seed and workload; spread = (q3 - q1) / "
                      "median; worse_than_set_1 = share of set 1's median by "
                      "which this set's median is worse.",
              "machine": f"{os.cpu_count()}-core {platform.machine()} "
                         f"{platform.system()}",
              "run_seconds": spec["run_seconds"], "sets": []}
    for set_index in range(args.sets):
        seeds = [s + set_index * len(base_seeds) for s in base_seeds]
        order = workloads if set_index % 2 == 0 else workloads[::-1]
        values = {w: {m["name"]: [] for m in spec["end_to_end"]}
                  for w in workloads}
        print(f"set {set_index + 1}: seeds {seeds[0]}-{seeds[-1]}, "
              f"order {', '.join(order)}", flush=True)
        for seed in seeds:
            for workload in order:
                start = time.monotonic()
                result = run_once(workload, seed, spec["run_seconds"])
                if result is None:
                    print(f"{workload} seed {seed}: run.py failed")
                    return 1
                if not result["correct"] or result["failed"]:
                    print(f"{workload} seed {seed}: checks failed")
                    ok = False
                for name, m in result["metrics"].items():
                    values[workload][name].append(m["value"])
                print(f"{workload} seed {seed} "
                      f"({time.monotonic() - start:.0f} s): "
                      + ", ".join(f"{n}={m['value']:.4g}"
                                  for n, m in result["metrics"].items()),
                      flush=True)
        rows = {}
        for workload in workloads:
            print(f"set {set_index + 1} {workload}:")
            rows[workload] = {}
            for m in spec["end_to_end"]:
                q1, median, q3 = statistics.quantiles(
                    values[workload][m["name"]], n=4)
                spread = (q3 - q1) / median
                row = {"q1": q1, "median": median, "q3": q3,
                       "spread": spread, "bound": m["bound"]}
                line = (f"  {m['name']:<12} q1={q1:<10.5g} "
                        f"median={median:<10.5g} q3={q3:<10.5g} "
                        f"spread={spread:.4f}")
                over = spread > m["bound"]
                if set_index > 0:
                    first = report["sets"][0]["workloads"][workload]
                    row["worse_than_set_1"] = worse_by(
                        m, first[m["name"]]["median"], median)
                    line += f" worse_than_set_1={row['worse_than_set_1']:+.4f}"
                    over = over or row["worse_than_set_1"] > m["bound"]
                ok = ok and not over
                rows[workload][m["name"]] = row
                print(f"{line} bound={m['bound']}"
                      f"{'  OVER BOUND' if over else ''}", flush=True)
        report["sets"].append({"seeds": seeds, "order": order,
                               "workloads": rows})
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=2)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
