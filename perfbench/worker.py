"""One workload in one fresh process; started by ``run.py``.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload W --seed N --probe

``--probe`` stops once set-up is done (import ``clzeta.cli``, kernel
selection, input generation) and prints ``ready``; ``run.py`` times it.
Otherwise the worker runs closed-loop passes over the workload's plan and
prints one JSON line with the pass times, the failures and its peak RSS.
With ``--trace 1`` it runs one untraced pass, then one pass with spans
around every layer, and reports the per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import workloads
from spans import Tracer, install

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

#: whole passes run until --seconds have gone by and at least this many are
#: done: CPU speed on a shared machine drifts over tens of seconds, so even
#: the longest pass is averaged over more than one
MIN_PASSES = 2

#: the traced pass fails its coverage check when spans leave more than this
#: share of its wall time unaccounted for
MAX_UNACCOUNTED_FRAC = 0.1


def setup(workload: str, seed: int):
    sys.path.insert(0, str(ROOT / "src"))
    import clzeta.cli  # noqa: F401  (the import users pay before any command)
    from clzeta.oracle import kernel_name

    return workloads.build_plan(workload, seed), workloads.load_expected(), kernel_name()


def environment(workload: str, seed: int, kernel: str) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "kernel": kernel,
        "compiled_kernel": "missing" if workloads.compiled_kernel() is None else "imports",
        "CLZETA_FORCE_PY": os.environ.get("CLZETA_FORCE_PY"),
        "CLZETA_BUDGET": os.environ.get("CLZETA_BUDGET"),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(tracer, plan, traced, untraced) -> dict:
    """Per-layer numbers from one traced pass (see README.md for what each
    should move, and where)."""
    busy, calls, counts = tracer.busy, tracer.calls, tracer.counts
    self_time = tracer.self_time
    scanned = counts["kernel.a_scanned"]
    admitted = scanned - counts["kernel.rejected"]
    m = {
        "relations.parse.calls": calls["relations.parse"],
        "relations.parse.busy_s": busy["relations.parse"],
        "matrix_points.compile.busy_s": busy["matrix_points.compile"],
        "kernel.a_scanned": scanned,
        "kernel.busy_s": busy["kernel.nullity_histogram"],
        "kernel.ns_per_a.p2": _ratio(counts["kernel.busy.p2"], counts["kernel.a_scanned.p2"], 1e9),
        "kernel.ns_per_a.p3": _ratio(counts["kernel.busy.p3"], counts["kernel.a_scanned.p3"], 1e9),
        "kernel.reject_frac": _ratio(counts["kernel.rejected"], scanned),
        "kernel.inconsistent_frac": _ratio(counts["kernel.inconsistent"], admitted),
        "matrix_points.assemble.self_s": self_time["matrix_points.count"]
        + self_time["matrix_points.series"],
        "matrix_points.full.busy_s": busy["matrix_points.full"],
        "matrix_points.shard_speedup": _shard_speedup(plan, traced.durations),
        "series.mul.calls": calls["series.mul"],
        "series.mul.busy_s": busy["series.mul"],
        "series.mul.dense_frac": _ratio(calls["series.mul_dense"], calls["series.mul"]),
        "series.add.calls": calls["series.add"],
        "series.add.busy_s": busy["series.add"],
        "series.inverse.calls": calls["series.inverse"],
        "series.inverse.busy_s": busy["series.inverse"],
        "series.pochhammer.busy_s": busy["series.pochhammer"],
        "series.specialize.busy_s": busy["series.specialize"],
        "partitions.busy_s": tracer.layer_busy["partitions"],
        "endomorphisms.enum.busy_s": busy["endomorphisms.enum"],
        "endomorphisms.enum.ns_per_map": _ratio(
            busy["endomorphisms.enum"], counts["endomorphisms.maps"], 1e9
        ),
        "endomorphisms.surj.busy_s": busy["endomorphisms.surj"],
        "endomorphisms.surj.ns_per_tuple": _ratio(
            busy["endomorphisms.surj"], counts["endomorphisms.surj_tuples"], 1e9
        ),
        "endomorphisms.conj.busy_s": busy["endomorphisms.conj"],
        "endomorphisms.groupoid.busy_s": busy["endomorphisms.groupoid"],
        "framing.stats.busy_s": busy["framing.stats"],
        "permutations.busy_s": tracer.layer_busy["permutations"],
        "dirichlet.busy_s": tracer.layer_busy["dirichlet"],
        "dirichlet.us_per_coeff": _ratio(
            tracer.layer_busy["dirichlet"], counts["dirichlet.coeffs"], 1e6
        ),
    }
    import clzeta.verify

    for suite in clzeta.verify.SUITES:
        m[f"verify.{suite}.s"] = busy[f"verify.{suite}"]
        m[f"verify.{suite}.checks"] = counts[f"verify.{suite}.checks"]
    for layer, t in tracer.layer_self().items():
        m[f"{layer}.self_s"] = t
    m["trace.wall_s"] = traced.wall
    m["trace.unaccounted_s"] = traced.wall - tracer.root_time
    m["trace.overhead_frac"] = traced.wall / untraced.wall - 1.0
    m["trace.spans"] = sum(calls.values())
    return m


def _shard_speedup(plan, durations) -> float:
    """shards=1 time over shards=2 time of the paired oracle command, or 0
    when the workload has no such pair."""
    by_shards = {}
    for i, op in enumerate(plan):
        if op.kind == "cli" and "--shards" in op.argv:
            by_shards[op.argv[op.argv.index("--shards") + 1]] = durations[i]
    if "1" in by_shards and "2" in by_shards:
        return by_shards["1"] / by_shards["2"]
    return 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)

    plan, expected, kernel = setup(args.workload, args.seed)
    if args.probe:
        print("ready", flush=True)
        return 0

    env = environment(args.workload, args.seed, kernel)
    result = {"environment": env}
    if args.trace == 0:
        passes = []
        deadline = time.perf_counter() + args.seconds
        while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
            passes.append(workloads.run_pass(plan, expected))
        result["walls"] = [p.wall for p in passes]
    else:
        passes = [workloads.run_pass(plan, expected)]
        tracer = Tracer()
        restore = install(tracer)
        try:
            passes.append(workloads.run_pass(plan, expected, tracer))
        finally:
            restore()
        layers = layer_metrics(tracer, plan, passes[1], passes[0])
        # the coverage check counts as one more operation of the traced pass
        passes[1].attempted += 1
        if layers["trace.unaccounted_s"] > MAX_UNACCOUNTED_FRAC * layers["trace.wall_s"]:
            passes[1].failures.append(
                {"op": "trace coverage",
                 "problems": [f"{layers['trace.unaccounted_s']:.3f} s outside every span"]}
            )
        result["layers"] = layers
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(trace_path, {"environment": env, "layers": layers})
        result["trace_file"] = str(trace_path.relative_to(ROOT))

    result["attempted"] = sum(p.attempted for p in passes)
    result["failures"] = [f for p in passes for f in p.failures]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
