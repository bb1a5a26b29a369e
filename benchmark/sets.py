#!/usr/bin/env python3
"""Runs sets of benchmark runs and compares them.

A *set* is, for every workload of BENCHMARK.json, RUNS untraced runs (each
with another --seed) followed by one traced run. For every (end-to-end
metric, workload) pair a set yields the median over its runs and the spread:
the distance between the first and the third quartile as a share of the
median, the same figure the driver computes.

  sets.py run [--runs N] [--first-seed S] [--out FILE]   one set, one table
  sets.py compare A.json B.json                          exit 1 on a regression

Run from the root of the repository (run.sh and check.sh do).
"""

import argparse
import json
import statistics
import subprocess
import sys

# Per-layer metrics that are counts of work, not times: two runs with the
# same seed must agree on them exactly.
EXACT = (
    "codegen.exec.",
    "engine-hybrid.staged_",
    "core.plan_cache_hit_rate",
    "core.shed_count",
    "protocol.request_bytes",
    "protocol.bytes_per_row",
)

# Per-layer metrics that depend on the workload the traced run replays; the
# others come from the probes, which are the same in every traced run.
PER_WORKLOAD = ("bench.trace_overhead_share", "core.shed_count")


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    if done.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited with {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} ops failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_set(spec, runs, first_seed):
    out = {"end_to_end": {}, "per_layer": {}}
    for w in (w["name"] for w in spec["workloads"]):
        samples = [run_once(spec, w, first_seed + i, 0) for i in range(runs)]
        out["end_to_end"][w] = {
            m["name"]: {
                "median": statistics.median(s[m["name"]] for s in samples),
                "spread": spread([s[m["name"]] for s in samples]),
            }
            for m in spec["end_to_end"]
        }
        # The traced run repeats the first seed, so that exact counts of two
        # sets can be compared.
        out["per_layer"][w] = run_once(spec, w, first_seed, 1)
        print(f"  {w}: {runs} runs + 1 traced", file=sys.stderr)
    return out


def print_set(spec, result):
    workloads = [w["name"] for w in spec["workloads"]]
    print(f"{'end-to-end (median ±spread)':32}" + "".join(f"{w:>26}" for w in workloads))
    for m in spec["end_to_end"]:
        row = f"{m['name'] + ' [' + m['unit'] + ']':32}"
        for w in workloads:
            cell = result["end_to_end"][w][m["name"]]
            flag = "!" if m["name"] != "setup_s" and cell["spread"] > m["bound"] / 3 else " "
            row += f"{cell['median']:>17.4f} ±{100 * cell['spread']:5.1f}%{flag}"
        print(row)
    print("  (! = spread above a third of the metric's bound)\n")
    # The probes measure the layers, not the workload replayed beside them:
    # their values are printed once, from the first workload's traced run.
    first = result["per_layer"][workloads[0]]
    print(f"{'per layer (traced run of ' + workloads[0] + ')':52}{'value':>16}")
    for m in spec["per_layer"]:
        if m["name"] not in PER_WORKLOAD:
            print(f"{m['name'] + ' [' + m['unit'] + ']':52}{first[m['name']]:>16.4f}")
    print()
    print(f"{'per layer, by workload replayed':44}" + "".join(f"{w:>20}" for w in workloads))
    for name in PER_WORKLOAD:
        row = f"{name:44}"
        for w in workloads:
            row += f"{result['per_layer'][w][name]:>20.4f}"
        print(row)


def compare(spec, a, b):
    bad = []
    for w in a["end_to_end"]:
        for m in spec["end_to_end"]:
            first = a["end_to_end"][w][m["name"]]["median"]
            second = b["end_to_end"][w][m["name"]]["median"]
            worse = (second - first) / first
            if m["better"] == "higher":
                worse = -worse
            if worse > m["bound"]:
                bad.append(f"{w} {m['name']}: {first:.4f} -> {second:.4f} "
                           f"({100 * worse:.1f}% worse, bound {100 * m['bound']:.0f}%)")
        for name, first in a["per_layer"][w].items():
            second = b["per_layer"][w][name]
            if name.startswith(EXACT) and first != second:
                bad.append(f"{w} {name}: exact count changed, {first} -> {second}")
    for line in bad:
        print("REGRESSION " + line)
    print(f"{len(bad)} regressions")
    return 1 if bad else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="verb", required=True)
    run = sub.add_parser("run")
    run.add_argument("--runs", type=int, default=5)
    run.add_argument("--first-seed", type=int, default=1)
    run.add_argument("--out")
    cmp_ = sub.add_parser("compare")
    cmp_.add_argument("a")
    cmp_.add_argument("b")
    args = parser.parse_args()
    spec = load_spec()
    if args.verb == "run":
        result = run_set(spec, args.runs, args.first_seed)
        print_set(spec, result)
        if args.out:
            with open(args.out, "w") as f:
                json.dump(result, f, indent=1)
        return 0
    with open(args.a) as fa, open(args.b) as fb:
        return compare(spec, json.load(fa), json.load(fb))


if __name__ == "__main__":
    sys.exit(main())
