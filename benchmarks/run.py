"""Benchmark entry point for branchcouple.

    python3 benchmarks/run.py --workload {couple,audit,certify,passage} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout.  The workload runs in a child
process started with ``PYTHONPATH=src`` (so set-up is timed cold, from the
child's start to its first operation) and with one worker.  The last line on
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; see ``benchmarks/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

WORKLOADS = ("couple", "audit", "certify", "passage")
# the child must end well inside the 180 s a run may take
CHILD_TIMEOUT_S = 170.0


def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    args = _args(argv)
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "branchcouple", "__init__.py")):
        print("benchmark: no branchcouple source under %s" % src, file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    t0 = time.monotonic_ns()
    cmd = [
        sys.executable,
        os.path.join(here, "harness.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--root", root,
        "--t0-ns", str(t0),
    ]
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=root, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print("benchmark: workload did not finish in %g s" % CHILD_TIMEOUT_S, file=sys.stderr)
        return 3
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    if proc.returncode != 0 or not lines:
        print("benchmark: workload exited with code %d" % proc.returncode, file=sys.stderr)
        return proc.returncode or 1
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("benchmark: malformed result %r" % lines[-1], file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
