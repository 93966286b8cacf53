#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each end-to-end
metric's median and spread (IQR over median), next to its bound.

    python3 perfbench/steady.py --workloads compile serve --seeds 1 2 3 4 5

Run from the root of a checkout.  A spread at or above a third of the
metric's bound is marked; setup_s has no spread gate but is shown.
perfbench/selftest.py reuses run(), with its inject argument.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run(workload, seed, seconds, inject=None):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    if inject:
        cmd += ["--inject-delay", inject]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if p.returncode != 0:
        raise SystemExit("run failed: " + " ".join(cmd))
    r = json.loads(p.stdout.strip().splitlines()[-1])
    if not r["correct"] or r["failed"]:
        raise SystemExit("incorrect result: %s" % p.stdout)
    return {k: v["value"] for k, v in r["metrics"].items()}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    a = ap.parse_args()
    spec = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for w in a.workloads:
        runs = [run(w, s, spec["run_seconds"]) for s in a.seeds]
        print("== %s (%d runs)" % (w, len(runs)))
        for name, bound in bounds.items():
            med, sp = spread([r[name] for r in runs])
            flag = "" if name == "setup_s" or sp < bound / 3 else "  <-- spread >= bound/3"
            print("  %-20s median %-14.6g spread %6.2f%%  bound %4.0f%%%s"
                  % (name, med, 100 * sp, 100 * bound, flag))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
