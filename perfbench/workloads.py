"""The benchmark's workloads and the gate that checks every answer.

A workload is a fixed core plus a part drawn from the seed.  The program
sees only the generated argv (or, for the module draws, the generated
arguments); the seed never reaches it.  Every operation is judged exactly:

* a CLI command fails on a nonzero exit, a ``fail`` verdict, an answer whose
  digest differs from ``expected.json``, a verify suite that reports fewer
  checks than ``expected.json`` lists, or a count that differs from its
  closed form;
* a kernel-agreement operation fails when the Python kernel, the compiled
  kernel (when it imports) and the ``full`` strategy disagree;
* a module draw fails when an enumeration differs from its closed form.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import shlex
import time
from dataclasses import dataclass, field
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")

WORKLOADS = ("matrix-oracle", "closed-forms", "module-oracle")

COMMUTING = "A*B - B*A"

#: instances on which the kernels and the full strategy must agree (n <= 2)
AGREEMENT_CASES = (
    (COMMUTING, 1, 5),
    (COMMUTING, 2, 2),
    (f"{COMMUTING}, A^2", 2, 2),
    (f"{COMMUTING}, A^2*B", 2, 2),
)

#: cap on the summed A-space size q^(n^2) of the seeded oracle draws
MATRIX_DRAW_CAP = 1024
MATRIX_DRAWS = 8
RANK_WINDOWS = 2
MODULE_DRAWS = 6


@dataclass
class Op:
    """One operation of a pass.  ``kind`` is "cli", "agree" or "module"."""

    kind: str
    argv: tuple = ()
    params: tuple = ()
    expect: dict = field(default_factory=dict)
    seeded: bool = False

    @property
    def label(self) -> str:
        if self.kind == "cli":
            return shlex.join(self.argv)
        return f"{self.kind} {self.params}"


def _verify(suite):
    return Op("cli", ("verify", "--suite", suite), expect={"suite": suite})


def fixed_core(workload: str) -> list[Op]:
    if workload == "matrix-oracle":
        ops = [_verify(s) for s in ("feit-fine", "fat-line", "nonred-node", "strategies")]
        for shards in (1, 2):
            ops.append(
                Op(
                    "cli",
                    ("oracle", "--relations", COMMUTING, "--q", "3", "--n", "3",
                     "--shards", str(shards)),
                )
            )
        ops += [Op("agree", params=case) for case in AGREEMENT_CASES]
        return ops
    if workload == "closed-forms":
        ops = [_verify(s) for s in ("rank-series", "u-collapse", "euler", "durfee")]
        ops.append(
            Op("cli", ("series", "--id", "rank-series-hyper", "--trunc", "12",
                       "--u-trunc", "12", "--q-trunc", "40"))
        )
        ops.append(
            Op("cli", ("dirichlet", "--which", "cl-poly", "--ring", "Z", "--length", "2048"))
        )
        return ops
    if workload == "module-oracle":
        return [
            _verify(s)
            for s in ("aut-end", "zt-dirichlet", "surjection", "framing", "conjugacy",
                      "permutations")
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def _matrix_draws(rng: random.Random) -> list[Op]:
    from clzeta import formulas as fb
    from clzeta.oracle import gl_order

    cells = ((2, 2), (2, 3), (3, 2))
    ops, total = [], 0
    while len(ops) < MATRIX_DRAWS:
        fits = [(n, q) for n, q in cells if total + q ** (n * n) <= MATRIX_DRAW_CAP]
        if not fits:
            break
        n, q = rng.choice(fits)
        total += q ** (n * n)
        family = rng.choice(("commuting", "fat-line", "nonred-node"))
        b = rng.randint(1, 3)
        power = "A" if b == 1 else f"A^{b}"
        if family == "commuting":
            rel, formula = COMMUTING, fb.feit_fine_series(q, n + 1)
        elif family == "fat-line":
            rel, formula = f"{COMMUTING}, {power}", fb.fat_line_series(b, q, n + 1)
        else:
            rel = f"{COMMUTING}, {power}*B"
            formula = fb.nonreduced_node_plane_series(b, q, n + 1)
        value = formula.coeff((n,)) * gl_order(n, q)
        if value.denominator != 1:
            raise ValueError(f"closed form for {rel!r} n={n} q={q} is not an integer count")
        argv = ("oracle", "--relations", rel, "--q", str(q), "--n", str(n))
        ops.append(Op("cli", argv, expect={"value": int(value)}, seeded=True))
    return ops


def _rank_windows(rng: random.Random) -> list[Op]:
    ops = []
    for _ in range(RANK_WINDOWS):
        t = rng.randint(5, 6)
        window = ("--trunc", str(t), "--u-trunc", str(rng.randint(3, t)),
                  "--q-trunc", str(rng.randint(10, 14)))
        ops.append(Op("cli", ("series", "--id", "rank-series-partitions") + window, seeded=True))
        ops.append(
            Op("cli", ("series", "--id", "rank-series-hyper") + window,
               expect={"same_as_previous": True}, seeded=True)
        )
    return ops


def _module_draws(rng: random.Random) -> list[Op]:
    from clzeta.oracle import PGroupModule
    from clzeta.partitions import partitions_up_to

    pool = [
        (p, lam.parts)
        for p in (2, 3)
        for lam in partitions_up_to(4)
        if 1 < p ** lam.size <= 27 and PGroupModule(p, lam).endo_count_bound() <= 1024
    ]
    return [
        Op("module", params=(p, parts, rng.randint(1, 3)), seeded=True)
        for p, parts in (rng.choice(pool) for _ in range(MODULE_DRAWS))
    ]


def seeded_part(workload: str, seed: int) -> list[Op]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "matrix-oracle":
        ops = _matrix_draws(rng)
    elif workload == "closed-forms":
        ops = _rank_windows(rng)
    elif workload == "module-oracle":
        ops = _module_draws(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return ops


def build_plan(workload: str, seed: int) -> list[Op]:
    return fixed_core(workload) + seeded_part(workload, seed)


def load_expected(path: Path = EXPECTED_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


# -- running and judging ------------------------------------------------------


def answer(report: dict):
    """The part of a JSON report that is the exact answer.  The envelope
    (echoed command, timings, any diagnostics added later) is left out."""
    sub = report["command"]["subcommand"]
    if sub == "verify":
        return {
            "verdict": report["verdict"],
            "checks": [[c["name"], c["passed"], c["lhs"], c["rhs"]] for c in report["checks"]],
        }
    result = report["result"]
    if sub == "oracle" and "value" in result:
        return {"value": result["value"], "strategy": result["strategy"]}
    return result


def digest(ans) -> str:
    return hashlib.sha256(json.dumps(ans, sort_keys=True).encode()).hexdigest()


def run_cli(argv, tracer=None):
    """``clzeta.cli.main(argv)`` with stdout and stderr captured."""
    from clzeta import cli

    out, err = io.StringIO(), io.StringIO()
    span = tracer.open("cli.main") if tracer else None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(list(argv))
            except SystemExit as exc:  # argparse usage errors
                rc = exc.code if isinstance(exc.code, int) else 2
    finally:
        if span is not None:
            tracer.close(span)
    return rc, out.getvalue(), err.getvalue()


def judge_cli(op: Op, rc: int, out: str, expected: dict, previous=None):
    """Problems found with one command's output, and its answer.
    ``previous`` is the answer of the command run just before."""
    if rc != 0:
        return [f"exit code {rc}"], None
    try:
        report = json.loads(out)
        ans = answer(report)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report: {exc}"], None
    problems = []
    if report.get("verdict") == "fail":
        problems.append("verdict fail")
    if not op.seeded:
        want = expected["digests"].get(op.label)
        if want is None:
            problems.append("no expected digest")
        elif digest(ans) != want:
            problems.append("answer digest differs from expected.json")
    if "suite" in op.expect:
        got = len(report["checks"])
        want = expected["checks"][op.expect["suite"]]
        if got < want:
            problems.append(f"{got} checks, expected {want}")
    if "value" in op.expect and int(report["result"]["value"]) != op.expect["value"]:
        problems.append(f"count {report['result']['value']} != closed form {op.expect['value']}")
    if op.expect.get("same_as_previous") and ans != previous:
        problems.append("series differs from its partner window")
    return problems, ans


def compiled_kernel():
    """The compiled kernel module, or None when it does not import."""
    try:
        from clzeta.oracle import _kernels  # type: ignore[attr-defined]
    except ImportError:
        return None
    return _kernels


def run_agree(op: Op) -> list[str]:
    from clzeta.oracle import _kernels_py, count_matrix_points, parse_relations
    from clzeta.oracle.matrix_points import _compile_for_kernel

    rel, n, p = op.params
    args = (n, p, 0, p ** (n * n)) + _compile_for_kernel(parse_relations(rel), p)
    hist, rej, inc = _kernels_py.nullity_histogram(*args)
    py = (tuple(hist), rej, inc)
    problems = []
    compiled = compiled_kernel()
    if compiled is not None:
        hist_c, rej_c, inc_c = compiled.nullity_histogram(*args)
        if (tuple(hist_c), rej_c, inc_c) != py:
            problems.append(f"compiled kernel {hist_c, rej_c, inc_c} != python {py}")
    linear = sum(c * p**d for d, c in enumerate(hist))
    full = count_matrix_points(rel, n, p, strategy="full").value
    if full != linear:
        problems.append(f"full strategy {full} != python kernel {linear}")
    return problems


def run_module(op: Op) -> list[str]:
    from clzeta.oracle import PGroupModule, enumerate_endomorphisms, surj_prob
    from clzeta.partitions import Partition, aut_order, end_order, end_torsion_order

    p, parts, d = op.params
    lam = Partition(parts)
    module = PGroupModule(p, lam)
    pairs = [
        ("|End|", enumerate_endomorphisms(module, "all"), end_order(lam, p)),
        ("|Aut|", enumerate_endomorphisms(module, "invertible"), aut_order(lam, p)),
        ("|End[pi]|", enumerate_endomorphisms(module, "torsion", b=1),
         end_torsion_order(lam, 1, p)),
    ]
    surj = surj_prob(module, d)
    pairs.append((f"surj d={d}", surj.enumerated, surj.closed_form))
    return [f"{name}: {got} != {want}" for name, got, want in pairs if got != want]


@dataclass
class PassResult:
    wall: float
    attempted: int
    failures: list
    durations: list


def run_pass(plan: list[Op], expected: dict, tracer=None) -> PassResult:
    """Run every operation of the plan once, closed loop, and judge it."""
    answer_before = None
    failures, durations = [], []
    start = time.perf_counter()
    for op in plan:
        t0 = time.perf_counter()
        try:
            if op.kind == "cli":
                rc, out, _ = run_cli(op.argv, tracer)
                problems, answer_before = judge_cli(op, rc, out, expected, answer_before)
            elif op.kind == "agree":
                problems = run_agree(op)
            else:
                problems = run_module(op)
        except Exception as exc:  # one failed operation must not end the pass
            problems = [f"{type(exc).__name__}: {exc}"]
        durations.append(time.perf_counter() - t0)
        if problems:
            failures.append({"op": op.label, "problems": problems})
    return PassResult(time.perf_counter() - start, len(plan), failures, durations)
