#!/usr/bin/env python3
"""End-to-end benchmark of bcc: builds the workload binary from source, runs
one workload as a fixed, seeded sequence of ops, checks its outputs and prints
its metrics. The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage (from the repository root):

    python3 perfbench/run.py --workload query-cold --seed 7 --seconds 20 \
        --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 reports
its per-layer metrics, from a run of the same op sequence that traces every
other op (the untraced ops give the tracing overhead). Workloads, metrics and
the reasons behind them are in perfbench/README.md.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "bcc_perfbench")
RUN_TIMEOUT_S = 170

# Ops per second of --seconds. The op count of a run is fixed by (workload,
# --seconds) alone, never by how fast the ops go: two runs of one seed do
# identical work. Set-ups per run are constants of each workload's source.
OPS_PER_SECOND = {
    # 1280 queries in the default 20 s: every host asked once.
    "query-cold": 64,
    # 180 epochs: the tail needs many epochs (see "Run length" in README.md).
    "stream-repair": 9,
    # 100 periods: see "Run length" in README.md for why not more.
    "async-gossip": 5,
}
# Samples a tail percentile must leave beyond it.
TAIL_BEYOND = 10


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds bcc_perfbench; output goes to stderr."""
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)  # compiler scratch stays in the checkout
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "bcc_perfbench",
                  "-j", "4"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              env=env)
        if done.returncode != 0:
            raise SystemExit(f"build step failed: {' '.join(step)}")


def run_workload(workload, seed, ops, trace):
    """Runs bcc_perfbench from the repository root, where a traced run writes
    its spans (under .bench_build/traces)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--ops",
           str(ops), "--trace", "1" if trace else "0"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"bcc_perfbench timed out after {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        raise SystemExit(f"bcc_perfbench exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def ops_per_s(raw):
    """Ops over the summed op time: the op phase's wall time less the
    untimed input generation and output checks between ops."""
    return len(raw["op_ms"]) / (sum(raw["op_ms"]) / 1e3)


def tail(op_ms):
    """Highest percentile with at least TAIL_BEYOND samples beyond it:
    (value, percentile, samples)."""
    ordered = sorted(op_ms)
    n = len(ordered)
    index = max(0, n - TAIL_BEYOND - 1)
    return ordered[index], 100.0 * (index + 1) / n, n


def end_to_end(raw):
    tail_ms, tail_pct, samples = tail(raw["op_ms"])
    print(f"op_tail_ms is p{tail_pct:.2f} of {samples} ops")
    return {
        "setup_s": statistics.median(raw["setup_s"]),
        "op_p50_ms": statistics.median(raw["op_ms"]),
        "op_tail_ms": tail_ms,
        "ops_per_s": ops_per_s(raw),
        "peak_rss_mb": raw["peak_rss_mb"],
        "found_ratio": raw["found"] / raw["queries"],
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(OPS_PER_SECOND))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build()

    ops = max(1, round(args.seconds * OPS_PER_SECOND[args.workload]))
    log(f"{args.workload}: seed {args.seed}, {ops} ops, trace {args.trace}")
    raw = run_workload(args.workload, args.seed, ops, args.trace)
    if args.trace:
        log(f"{'span':<24}{'count':>8}{'total ms':>14}{'self ms':>14}")
        for name, t in raw["spans"].items():
            log(f"{name:<24}{t['count']:>8}{t['total_ms']:>14.3f}"
                f"{t['self_ms']:>14.3f}")
        values = raw["layers"]
        wanted = spec["per_layer"]
    else:
        values = end_to_end(raw)
        wanted = spec["end_to_end"]

    names = {m["name"] for m in wanted}
    if set(values) != names:
        raise SystemExit(f"metric names differ from BENCHMARK.json: "
                         f"{sorted(set(values) ^ names)}")
    for name, ok in raw["checks"].items():
        print(f"check {name}: {'ok' if ok else 'FAILED'}")
    failed = raw["failed"]
    correct = all(raw["checks"].values()) and failed == 0
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": len(raw["op_ms"]),
                      "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
