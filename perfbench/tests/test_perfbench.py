"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

The end-to-end tests start ``run.py`` on the cheapest workload and take
about half a minute together.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXPECTED = workloads.load_expected()


def op_for(workload, label):
    (op,) = [op for op in workloads.fixed_core(workload) if op.label == label]
    return op


def small_plan():
    """A few cheap operations that between them touch every layer."""
    return [
        op_for("closed-forms", "verify --suite euler"),
        op_for("module-oracle", "verify --suite conjugacy"),
        op_for("module-oracle", "verify --suite permutations"),
        op_for("module-oracle", "verify --suite framing"),
        workloads.Op("cli", ("oracle", "--relations", "A*B - B*A", "--q", "2", "--n", "2",
                             "--shards", "1"), seeded=True),
        workloads.Op("cli", ("oracle", "--relations", "A*B - B*A", "--q", "3", "--n", "2",
                             "--shards", "2"), seeded=True),
        workloads.Op("cli", ("dirichlet", "--which", "cl-poly", "--ring", "Z", "--length", "64"),
                     seeded=True),
        workloads.Op("agree", params=workloads.AGREEMENT_CASES[0]),
        workloads.Op("module", params=(2, (2, 1), 2), seeded=True),
    ]


def traced_pass(plan):
    untraced = workloads.run_pass(plan, EXPECTED)
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        traced = workloads.run_pass(plan, EXPECTED, tracer)
    finally:
        restore()
    return tracer, traced, untraced


def test_layer_metrics_match_benchmark_json():
    plan = small_plan()
    tracer, traced, untraced = traced_pass(plan)
    assert traced.failures == [] and untraced.failures == []
    layers = worker.layer_metrics(tracer, plan, traced, untraced)
    assert set(layers) == {m["name"] for m in SPEC["per_layer"]}


def test_every_layer_metric_has_a_predicted_effect():
    effects = json.loads((BENCH / "layer_effects.json").read_text())
    assert list(effects) == [m["name"] for m in SPEC["per_layer"]]
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    names = {w["name"] for w in SPEC["workloads"]}
    for effect in effects.values():
        assert set(effect["moves"]) <= e2e
        assert set(effect["on"]) | set(effect["steady_on"]) <= names
        assert not set(effect["on"]) & set(effect["steady_on"])


def test_trace_accounts_for_the_wall_time():
    plan = small_plan()
    tracer, traced, untraced = traced_pass(plan)
    layers = worker.layer_metrics(tracer, plan, traced, untraced)
    self_total = sum(layers[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert self_total + layers["trace.unaccounted_s"] == pytest.approx(traced.wall)
    assert layers["trace.unaccounted_s"] < worker.MAX_UNACCOUNTED_FRAC * traced.wall
    assert layers["kernel.a_scanned"] == 2**4 + 3**4 + 5
    assert layers["verify.euler.checks"] == EXPECTED["checks"]["euler"]


def test_install_restores_every_attribute():
    import clzeta.verify
    from clzeta.oracle import matrix_points
    from clzeta.series import TruncSeries

    before = (TruncSeries.__mul__, matrix_points._kernels.nullity_histogram,
              clzeta.verify.count_matrix_points, dict(clzeta.verify.SUITES))
    spans.install(spans.Tracer())()
    after = (TruncSeries.__mul__, matrix_points._kernels.nullity_histogram,
             clzeta.verify.count_matrix_points, dict(clzeta.verify.SUITES))
    assert before == after


def test_expected_check_counts_per_workload():
    core = {w: [op.expect["suite"] for op in workloads.fixed_core(w) if "suite" in op.expect]
            for w in workloads.WORKLOADS}
    totals = {w: sum(EXPECTED["checks"][s] for s in suites) for w, suites in core.items()}
    assert totals == {"matrix-oracle": 75, "closed-forms": 48, "module-oracle": 512}


def test_corrupted_digest_is_a_failed_op():
    op = op_for("closed-forms", "verify --suite euler")
    corrupted = json.loads(json.dumps(EXPECTED))
    corrupted["digests"][op.label] = "0" * 64
    assert workloads.run_pass([op], EXPECTED).failures == []
    res = workloads.run_pass([op], corrupted)
    assert len(res.failures) / res.attempted > 0
    assert "digest" in res.failures[0]["problems"][0]


def test_lowered_check_count_is_a_failed_op(monkeypatch):
    import clzeta.verify

    op = op_for("closed-forms", "verify --suite durfee")
    full = clzeta.verify.suite_durfee_identities
    # a suite that skips work returns fewer checks, every one of them passing
    monkeypatch.setitem(clzeta.verify.SUITES, "durfee", lambda **kw: full(**kw)[:-1])
    res = workloads.run_pass([op], EXPECTED)
    assert len(res.failures) / res.attempted > 0
    assert any("42 checks, expected 43" in p for p in res.failures[0]["problems"])


def test_kernel_disagreement_is_a_failed_op(monkeypatch):
    from clzeta.oracle import _kernels_py

    op = workloads.Op("agree", params=workloads.AGREEMENT_CASES[1])
    assert workloads.run_agree(op) == []
    real = _kernels_py.nullity_histogram

    def off_by_one(*args):
        hist, rej, inc = real(*args)
        return [hist[0] + 1] + list(hist[1:]), rej, inc

    monkeypatch.setattr(_kernels_py, "nullity_histogram", off_by_one)
    assert workloads.run_agree(op)


def test_wrong_count_is_a_failed_op():
    op = workloads.seeded_part("matrix-oracle", 5)[0]
    op.expect = {"value": op.expect["value"] + 1}
    res = workloads.run_pass([op], EXPECTED)
    assert "closed form" in res.failures[0]["problems"][0]


def test_rank_windows_must_agree():
    partitions, hyper = workloads.seeded_part("closed-forms", 3)[:2]
    assert workloads.run_pass([partitions, hyper], EXPECTED).failures == []
    other = workloads.Op("cli", hyper.argv[:-1] + (str(int(hyper.argv[-1]) + 1),),
                         expect=hyper.expect, seeded=True)
    res = workloads.run_pass([partitions, other], EXPECTED)
    assert "partner" in res.failures[0]["problems"][0]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seeds_change_only_the_seeded_part(workload):
    one, two = workloads.build_plan(workload, 1), workloads.build_plan(workload, 2)
    core = len(workloads.fixed_core(workload))
    assert one[:core] == two[:core] == workloads.fixed_core(workload)
    assert [op.label for op in one[core:]] != [op.label for op in two[core:]]
    assert workloads.build_plan(workload, 1) == one
    assert all(op.seeded for op in one[core:]) and not any(op.seeded for op in one[:core])


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=170,
    )


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_the_declared_metrics(trace, section):
    proc = run_bench(ROOT, "--workload", "closed-forms", "--seed", "7", "--seconds", "1",
                     "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout.strip().splitlines()
    result = json.loads(out[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    env = json.loads(next(line for line in out if line.startswith("environment "))[12:])
    assert env["seed"] == 7 and env["CLZETA_BUDGET"]["cleared_for_run"]
    assert env["kernel"] in ("python", "cython") and env["compiled_kernel"] in ("missing", "imports")
    assert any(line.startswith("ops_failed_frac = 0 ") for line in out)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench(tmp_path, "--workload", "closed-forms", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""
