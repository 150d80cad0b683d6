#!/usr/bin/env python3
"""clzeta benchmark: time to an exact, verified answer.

    python3 perfbench/run.py --workload matrix-oracle --seed 1 --seconds 25 --trace 0

Run from the root of a clzeta checkout.  Each run builds the package in
place (``setup.py build_ext --inplace``, which compiles the kernel when the
toolchain allows and is a no-op otherwise), times several fresh-process
set-ups, then runs the workload closed loop (one client, next command only
after the previous returns) in a fresh worker process.  ``CLZETA_BUDGET``
is removed from the worker's environment so every suite runs at its
default budgets.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the ``end_to_end`` list of BENCHMARK.json, with ``--trace 1``
the ``per_layer`` list.  Lines before it give the environment, each metric
with its unit, and every failed operation.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

#: fresh-process set-ups timed before the workload (after one untimed
#: warm-up) and as many again after it, so that the median spans the run
SETUP_PROBES = 4
#: every run, build included, ends within this many seconds
RUN_LIMIT_S = 175.0


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def build() -> str | None:
    """Build in place; returns an error message, or None on success."""
    try:
        proc = subprocess.run(
            [sys.executable, "setup.py", "-q", "build_ext", "--inplace"],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
    except subprocess.TimeoutExpired:
        return "build timed out"
    if proc.returncode != 0:
        return f"build failed:\n{proc.stderr}"
    return None


def time_setup(args, env, warm_up: bool) -> list[float]:
    """Wall times from starting a fresh worker to its ``ready`` line."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--probe"]
    times = []
    for i in range(SETUP_PROBES + warm_up):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            rc = proc.wait(timeout=60)
        if rc != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {rc}")
        if i or not warm_up:  # a warm-up only fills the bytecode and file caches
            times.append(t1 - t0)
    return times


def declared_metrics(trace: int) -> list[dict]:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="clzeta end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (ROOT / "src" / "clzeta" / "cli.py").is_file() or not (ROOT / "setup.py").is_file():
        return fail(f"no clzeta sources under {ROOT}; run from a clzeta checkout")
    error = build()
    if error:
        return fail(error)

    env = dict(os.environ)
    budget_was = env.pop("CLZETA_BUDGET", None)
    try:
        setup_times = [] if args.trace else time_setup(args, env, warm_up=True)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return fail(str(exc))

    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    timeout = max(RUN_LIMIT_S - (time.perf_counter() - started), 10.0)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return fail(f"worker did not finish within {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return fail(f"worker exited with code {proc.returncode}")
    res = json.loads(lines[-1])
    try:
        setup_times += [] if args.trace else time_setup(args, env, warm_up=False)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return fail(str(exc))

    environment = dict(res["environment"])
    environment["CLZETA_BUDGET"] = {"cleared_for_run": True, "was": budget_was}
    print("environment " + json.dumps(environment))

    attempted, failed = res["attempted"], len(res["failures"])
    for f in res["failures"]:
        print(f"FAILED {f['op']}: {'; '.join(f['problems'])}")
    if args.trace:
        measured = res["layers"]
        print(f"trace file {res['trace_file']}")
    else:
        walls = res["walls"]
        measured = {
            # the mean follows the machine's slow speed drifts more smoothly
            # than the median of a handful of passes
            "wall_s": statistics.fmean(walls),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        print(f"passes {len(walls)}: " + " ".join(f"{w:.3f}" for w in walls) + " s")
        print(f"setups {len(setup_times)}: " + " ".join(f"{t:.3f}" for t in setup_times) + " s")
    print(f"ops_failed_frac = {failed / attempted:.6g} ratio ({failed} of {attempted})")

    declared = declared_metrics(args.trace)
    if {m["name"] for m in declared} != set(measured):
        return fail("measured metrics differ from those declared in BENCHMARK.json: "
                    f"{sorted({m['name'] for m in declared} ^ set(measured))}")
    metrics = {}
    for m in declared:
        metrics[m["name"]] = {"value": measured[m["name"]], "unit": m["unit"]}
        print(f"{m['name']} = {measured[m['name']]:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
