#!/usr/bin/env python3
"""A/A steadiness check: runs one build of the benchmark as two sets of runs
over the same seeds, alternating which set goes first (A B, B A, A B, ...),
and prints for every metric of the workload each set's median and
quartiles, its spread (interquartile distance over median) and the
difference between the two medians:

    python3 perfbench/aa.py --workload pua_chain --runs 10

For the end-to-end metrics of BENCHMARK.json the limits are checked too: a
set's spread must stay below a third of the bound (setup_s excepted) and
the medians may differ by at most the bound. Virtual-clock and exact
metrics must repeat exactly for every seed. Exits 1 when a check fails.
The seed run.HELD_OUT_SEED is never used here.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import benchmath  # noqa: E402
from run import HELD_OUT_SEED, WORKLOADS, build_dir  # noqa: E402


def one_run(workload, seed, seconds):
    """The run's full metric table (from its REPORT line)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:] + proc.stdout[-2000:])
        raise SystemExit("run failed: %s seed %d" % (workload, seed))
    for line in proc.stdout.splitlines():
        if line.startswith("REPORT "):
            return json.loads(line[len("REPORT "):])["metrics"]
    raise SystemExit("no REPORT line: %s seed %d" % (workload, seed))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--runs", type=int, default=10, help="runs per set")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    seeds = [s for s in range(args.first_seed, args.first_seed + args.runs + 1)
             if s != HELD_OUT_SEED][:args.runs]
    sets = {"A": [], "B": []}
    for i, seed in enumerate(seeds):
        for label in (("A", "B") if i % 2 == 0 else ("B", "A")):
            metrics = one_run(args.workload, seed, args.seconds)
            sets[label].append({"seed": seed, "metrics": metrics})
            print("%s seed %-4d %s" % (label, seed, "  ".join(
                "%s=%.5g" % (k, v["value"]) for k, v in sorted(metrics.items())
                if v["value"] is not None)), flush=True)

    out_dir = os.path.join(build_dir(), "aa")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, args.workload + ".json"), "w") as f:
        json.dump(sets, f, indent=1)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    steady = True
    print("\n%-22s %-4s %11s %11s %11s %8s %8s %4s" % (
        "metric", "set", "q1", "median", "q3", "spread", "limit", "ok"))
    for name in sorted(sets["A"][0]["metrics"]):
        clock = sets["A"][0]["metrics"][name]["clock"]
        if clock in ("virtual", "exact"):
            same = all(a["metrics"][name]["value"] == b["metrics"][name]["value"]
                       for a, b in zip(sorted(sets["A"], key=lambda r: r["seed"]),
                                       sorted(sets["B"], key=lambda r: r["seed"])))
            steady &= same
            print("%-22s %-4s %s" % (name, "A=B", "repeats exactly per seed"
                                     if same else "DIFFERS for one seed"))
            continue
        medians = {}
        bound = bounds.get(name)
        for label in ("A", "B"):
            values = [r["metrics"][name]["value"] for r in sets[label]]
            if None in values:
                print("%-22s %-4s %s" % (name, label, "refused in some runs"))
                break
            q1, med, q3 = benchmath.quartiles(values)
            spread = benchmath.relative_spread(values) or 0.0
            ok = bound is None or name == "setup_s" or spread <= bound / 3
            steady &= ok
            medians[label] = med
            print("%-22s %-4s %11.5g %11.5g %11.5g %7.1f%% %8s %4s" % (
                name, label, q1, med, q3, 100 * spread,
                "-" if bound is None else "%.1f%%" % (100 * bound / 3),
                "yes" if ok else "NO"))
        if len(medians) == 2 and medians["A"]:
            diff = (medians["B"] - medians["A"]) / medians["A"]
            ok = bound is None or abs(diff) <= bound
            steady &= ok
            print("%-22s %-4s %35s %+7.1f%% %8s %4s" % (
                name, "B-A", "", 100 * diff,
                "-" if bound is None else "%.1f%%" % (100 * bound),
                "yes" if ok else "NO"))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
