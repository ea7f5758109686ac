#!/usr/bin/env python3
"""Steadiness self-check: two sets of benchmark runs, compared.

Run from the repository root:

    python3 perfbench/steadiness.py

For every workload in BENCHMARK.json it makes two sets of ten runs, each
run with its own seed. For every end-to-end metric it prints the
interquartile range of a set's per-run values as a share of their median
(statistics.quantiles, n=4), and how far the second set's median moved
from the first's, in the metric's worse direction. Exits 1 when a spread
(setup_s excepted) or a move exceeds the metric's bound. A spread above a
third of the bound is flagged but does not fail the check.
"""

import json
import statistics
import subprocess
import sys

RUNS = 10
SETS = 2


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, check=True,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: output check failed")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ok = True
    seed = 100
    for workload in (w["name"] for w in bench["workloads"]):
        medians = []
        for s in range(SETS):
            runs = []
            for _ in range(RUNS):
                r = run_once(workload, seed, bench["run_seconds"])
                print(f"  {workload} seed {seed}: " + ", ".join(
                    f"{k} {v:.4g}" for k, v in r.items()), flush=True)
                runs.append(r)
                seed += 1
            print(f"{workload} set {s + 1}")
            set_medians = {}
            for m in bench["end_to_end"]:
                name, bound = m["name"], m["bound"]
                values = [r[name] for r in runs]
                med = statistics.median(values)
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med if med else 0.0
                steady = name == "setup_s" or spread <= bound
                ok = ok and steady
                set_medians[name] = med
                flag = ("" if name == "setup_s" or spread <= bound / 3
                        else "  > bound/3" if steady else "  SPREAD > bound")
                print(f"  {name:24s} median {med:14.6g}  q1 {q1:14.6g}  "
                      f"q3 {q3:14.6g}  spread {spread:7.4f}  bound {bound}"
                      f"{flag}")
            medians.append(set_medians)
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a, b = medians[0][name], medians[1][name]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            fine = worse <= bound
            ok = ok and fine
            print(f"  {workload} {name:24s} set 2 vs 1: "
                  f"{worse:+.4f} (bound {bound}){'' if fine else '  DRIFT'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
