#!/usr/bin/env python3
"""Self-test: does the benchmark see a 20% slowdown in exactly one layer?

    python3 perfbench/selftest.py --seeds 1 2 3 4 5 [--seconds 15]

Run from the root of a checkout.  The benchmark's own code can make
one layer call 20% slower (--inject-delay LAYER spins for a further
fifth of each call's time).  This script runs compile, exec-mesh and
exec-sockets on every seed, plain and with each injection that
concerns them, in alternating order, and compares latency_ms_p50:

  * a delay around Full_sched.finish (core.finish) must flag compile
    and leave exec-mesh and exec-sockets unchanged;
  * a delay around Exec_compiled.run (runtime.call) must flag
    exec-mesh and leave compile unchanged;
  * a delay around Runner.run (dist.call) must flag exec-sockets and
    leave compile unchanged.

A metric is flagged when the injected median is worse than the plain
one by more than the metric's bound in BENCHMARK.json, or when the
injected run is slower in at least 9 of every 10 seed pairs and the
medians differ by more than the plain runs' own interquartile range
(the paired rule for a small, noisy host).  Exits 1 unless both
expectations hold.
"""

import argparse
import json
import statistics
import sys

sys.path.insert(0, "perfbench")
from steady import run  # noqa: E402

METRIC = "latency_ms_p50"
CASES = [
    ("core.finish", {"compile": True, "exec-mesh": False, "exec-sockets": False}),
    ("runtime.call", {"compile": False, "exec-mesh": True}),
    ("dist.call", {"compile": False, "exec-sockets": True}),
]
WORKLOADS = ("compile", "exec-mesh", "exec-sockets")


def flagged(plain, slow, bound):
    pm, sm = statistics.median(plain), statistics.median(slow)
    q1, _, q3 = statistics.quantiles(plain, n=4)
    wins = sum(1 for p, s in zip(plain, slow) if s > p)
    by_bound = sm > pm * (1 + bound)
    by_pairs = wins >= 0.9 * len(plain) and sm - pm > q3 - q1
    return by_bound or by_pairs, pm, sm, wins


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--seconds", type=float, help="run length (default: run_seconds)")
    a = ap.parse_args()
    spec = json.load(open("BENCHMARK.json"))
    seconds = a.seconds or spec["run_seconds"]
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}[METRIC]
    plain = {w: {} for w in WORKLOADS}
    slow = {(l, w): {} for l, expect in CASES for w in expect}
    for i, seed in enumerate(a.seeds):
        for w in WORKLOADS:
            order = [None] + [l for l, expect in CASES if w in expect]
            if i % 2:
                order.reverse()
            for layer in order:
                v = run(w, seed, seconds, layer)[METRIC]
                if layer is None:
                    plain[w][seed] = v
                else:
                    slow[(layer, w)][seed] = v
    ok = True
    for layer, expect in CASES:
        for w, want in expect.items():
            p = [plain[w][s] for s in a.seeds]
            q = [slow[(layer, w)][s] for s in a.seeds]
            got, pm, sm, wins = flagged(p, q, bound)
            verdict = "ok" if got == want else "WRONG"
            ok &= got == want
            print("%-13s %-12s plain %9.3f ms  slowed %9.3f ms  (%+5.1f%%, slower in %d/%d)"
                  "  flagged=%s expected=%s  %s"
                  % (layer, w, pm, sm, 100 * (sm / pm - 1), wins, len(p), got, want, verdict))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
