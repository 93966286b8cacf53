#!/usr/bin/env python3
"""Build and run the layered benchmark from the root of a checkout.

    python3 perfbench/run.py --workload compile --seed 1 --seconds 15 --trace 0

Builds perfbench/bench.exe and bin/mimdloop.exe with dune, runs the
benchmark in its own process group (so nothing it starts can outlive
it) and passes its output through; the last line is the JSON result.
Exits non-zero, printing no result, when the tree cannot be built or
the benchmark fails.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

WORKLOADS = ("compile", "exec-mesh", "exec-sockets", "serve")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
OUT = ".perfbench"


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def source_digest():
    """Digest of the sources the benchmark measures: the 'commit' of a
    checkout that is not a git repository."""
    h = hashlib.sha256()
    for top in ("lib", "bin", "perfbench", "examples"):
        for d, dirs, files in os.walk(top):
            dirs.sort()
            for f in sorted(files):
                p = os.path.join(d, f)
                h.update(p.encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def run_group(cmd, timeout, **kw):
    """Run cmd in its own process group; on timeout kill the whole group."""
    p = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        fail("timed out: " + " ".join(cmd))
    try:
        os.killpg(p.pid, signal.SIGKILL)  # stragglers of a failed run
    except ProcessLookupError:
        pass
    return p.returncode, out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--inject-delay", help="self-test: slow one layer by 20%%")
    a = ap.parse_args()

    for need in ("dune-project", "lib", "bin", os.path.join("examples", "loops")):
        if not os.path.exists(need):
            fail(need + " not found: run from the root of a mimdloop checkout", 2)

    code, _ = run_group(
        ["dune", "build", "--root", ".", "perfbench/bench.exe", "bin/mimdloop.exe"],
        BUILD_TIMEOUT_S,
        stdout=sys.stderr,
    )
    if code != 0:
        fail("build failed", code or 1)

    cmd = [
        os.path.join("_build", "default", "perfbench", "bench.exe"),
        "--workload", a.workload,
        "--seed", str(a.seed),
        "--seconds", str(a.seconds),
        "--trace", a.trace,
        "--mimdloop", os.path.join("_build", "default", "bin", "mimdloop.exe"),
        "--out", OUT,
        "--commit", source_digest(),
    ]
    if a.inject_delay:
        cmd += ["--inject-delay", a.inject_delay]
    code, out = run_group(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE)
    out = out.decode()
    if code != 0:
        sys.stderr.write(out)
        fail("benchmark exited with %d" % code, code)
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
