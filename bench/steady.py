"""Steadiness check: two independent sets of runs of the same code.

    python3 bench/steady.py --runs 5

Set A uses seeds 1..N and set B seeds 101..100+N.  For each workload
and end-to-end metric it prints both medians, the relative difference
of B against A, and the spread of each set and of all 2N values
(interquartile range over the median), and says whether the medians
agree within the bound that BENCHMARK.json fixes.  Exit code 0 when
every pair agrees.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed: {proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} ops failed")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=5, help="runs per set and workload")
    args = ap.parse_args(argv)

    ok = True
    for workload in names:
        sets = {"A": [], "B": []}
        for i in range(1, args.runs + 1):
            for label, base in (("A", 0), ("B", 100)):
                sets[label].append(run_once(workload, base + i, bench["run_seconds"]))
        print(f"{workload}: {args.runs} runs per set")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [r[name] for r in sets["A"]]
            b = [r[name] for r in sets["B"]]
            ma, mb = statistics.median(a), statistics.median(b)
            worse = (mb - ma) / ma if metric["better"] == "lower" else (ma - mb) / ma
            agree = worse <= bound
            ok &= agree
            print(f"  {name:12s} A {ma:12.6f}  B {mb:12.6f}  B worse by {worse:+.4f}  "
                  f"spread A {spread(a):.4f} B {spread(b):.4f} all {spread(a + b):.4f}  "
                  f"bound {bound}  "
                  f"{'agree' if agree else 'DISAGREE'}")
            print(f"    A {[round(v, 4) for v in a]}  B {[round(v, 4) for v in b]}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
