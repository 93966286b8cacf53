#!/usr/bin/env python3
"""Fail when perfbench's deterministic metrics drift from their baseline.

For each line `WORKLOAD SP_PCT_MEAN MESSAGES_TOTAL CODE_INSTRS_TOTAL` of
test/goldens/perfbench_quality.txt this runs

    python3 perfbench/run.py --workload WORKLOAD --seed 1 --seconds 3 --trace 0

and requires `failed` to be 0 and the three metrics to equal the
baseline (sp_pct_mean to three decimals).  Timings are printed for the
log and never gated.  Run it from anywhere in a checkout:

    python3 scripts/check_perfbench_quality.py
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE = os.path.join(ROOT, "test", "goldens", "perfbench_quality.txt")
TIMINGS = ("setup_s", "latency_ms_p50", "latency_ms_p90", "throughput_ops_s", "peak_rss_mb")


def run(workload):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "1", "--seconds", "3", "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload}: perfbench exited {out.returncode} without a result")
    return json.loads(lines[-1])


def main():
    failures = []
    with open(BASELINE) as f:
        rows = [line.split() for line in f if line.strip() and not line.startswith("#")]
    for workload, sp, messages, instrs in rows:
        result = run(workload)
        m = result["metrics"]
        got = (f"{m['sp_pct_mean']['value']:.3f}",
               str(int(m["messages_total"]["value"])),
               str(int(m["code_instrs_total"]["value"])))
        timings = ", ".join(f"{k} {m[k]['value']:.4g}" for k in TIMINGS if k in m)
        print(f"{workload}: failed {result['failed']}/{result['attempted']}; "
              f"sp_pct_mean {got[0]}, messages_total {got[1]}, code_instrs_total {got[2]}; "
              f"report-only: {timings}")
        if result["failed"] != 0:
            failures.append(f"{workload}: {result['failed']} failed op(s)")
        if got != (sp, messages, instrs):
            failures.append(f"{workload}: got {' / '.join(got)}, "
                            f"baseline {sp} / {messages} / {instrs}")
    for failure in failures:
        print("FAIL", failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
