"""Command-line interface.

Subcommands: series (closed-form generating functions), oracle (exhaustive
counts), dirichlet (zeta prefixes), verify (named verification suites), and
conj (conjugacy-class counts).  Reports echo the resolved parameters and are
bit-for-bit reproducible apart from the top-level elapsed_ms field and, in
oracle and verify reports, the kernel field naming the counting kernel that
ran; both live outside the comparison payload.  Exit codes: 0 success,
1 verification mismatch, 2 usage or infeasible-budget error.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import sys
import time

from . import dirichlet as dd
from . import formulas as fb
from . import verify as vf
from .oracle import (
    BudgetExceededError,
    count_matrix_points,
    kernel_name,
    matrix_point_series,
)
from .oracle.endomorphisms import PGroupModule, conj_classes_aut
from .oracle.matrix_points import KERNEL_IMPORT_ERROR
from .partitions import Partition
from .series import TruncSeries


def _series_tsv(series: TruncSeries) -> str:
    lines = []
    for exps, c in series.terms():
        degree = ",".join(str(e) for e in exps)
        lines.append(f"{degree}\t{c.numerator}\t{c.denominator}")
    return "\n".join(lines)


def _dirichlet_tsv(series: dd.DirichletSeries) -> str:
    lines = []
    for n in range(1, series.length + 1):
        c = series[n]
        lines.append(f"{n}\t{c.numerator}\t{c.denominator}")
    return "\n".join(lines)


def _emit(args, result, checks=None, started=None, kernel=None) -> int:
    elapsed_ms = round((time.monotonic() - started) * 1000.0, 3) if started else None
    failed = [c for c in (checks or []) if not c.passed]
    if args.format == "json":
        command = {key: value for key, value in vars(args).items() if key != "func"}
        report = {"command": command, "result": result}
        if checks is not None:
            report["checks"] = [c.to_json_dict() for c in checks]
            report["verdict"] = "pass" if not failed else "fail"
        if elapsed_ms is not None:
            report["elapsed_ms"] = elapsed_ms
        if kernel is not None:
            report["kernel"] = kernel
        print(json.dumps(report))
    else:
        if isinstance(result, str):
            print(result)
        else:
            print(json.dumps(result))
        for c in checks or []:
            status = "pass" if c.passed else "FAIL"
            print(f"{status}\t{c.name}\t{c.lhs}\t{c.rhs}")
    return 1 if failed else 0


def _announce_fallback() -> None:
    """One stderr line when the compiled kernel failed to import."""
    if KERNEL_IMPORT_ERROR is not None:
        reason = KERNEL_IMPORT_ERROR.splitlines()[0]
        print(
            f"note: compiled kernel unavailable ({reason}); "
            "counting with the Python fallback kernel",
            file=sys.stderr,
        )


def _cmd_series(args) -> int:
    started = time.monotonic()
    if args.id in fb.SPECIALIZED_FORMULAS:
        if args.q is None:
            raise SystemExit2("--q is required for this formula")
        series = fb.SPECIALIZED_FORMULAS[args.id](
            args.q, args.trunc, b=1 if args.b is None else args.b
        )
    elif args.id in fb.FORMAL_FORMULAS:
        series = fb.FORMAL_FORMULAS[args.id](
            args.trunc,
            args.trunc if args.u_trunc is None else args.u_trunc,
            20 if args.q_trunc is None else args.q_trunc,
        )
    else:
        known = sorted(fb.SPECIALIZED_FORMULAS) + sorted(fb.FORMAL_FORMULAS)
        raise SystemExit2(f"unknown formula id {args.id!r}; known ids: {known}")
    payload = series.to_json_dict() if args.format == "json" else _series_tsv(series)
    return _emit(args, payload, started=started)


def _cmd_oracle(args) -> int:
    started = time.monotonic()
    _announce_fallback()
    if (args.n is None) == (args.nmax is None):
        raise SystemExit2("exactly one of --n or --nmax is required")
    if args.n is not None:
        res = count_matrix_points(
            args.relations, args.n, args.q, shards=args.shards, budget=args.budget
        )
        payload = res.to_json_dict(
            "count_matrix_points",
            {"relations": args.relations, "n": args.n, "q": args.q},
        )
        if args.format == "tsv":
            payload = f"{args.n}\t{res.value}\t1"
        return _emit(args, payload, started=started, kernel=kernel_name())
    series = matrix_point_series(
        args.relations, args.q, args.nmax, shards=args.shards, budget=args.budget
    )
    payload = series.to_json_dict() if args.format == "json" else _series_tsv(series)
    return _emit(args, payload, started=started, kernel=kernel_name())


_RINGS = {
    "Z": lambda args: dd.ring_Z(),
    "Zp": lambda args: dd.ring_Zp(_require(args.p, "--p")),
    "FqPoly": lambda args: dd.ring_FqPoly(_require(args.qparam, "--qparam")),
    "FqPowerSeries": lambda args: dd.ring_FqPowerSeries(_require(args.qparam, "--qparam")),
}


def _require(value, flag):
    if value is None:
        raise SystemExit2(f"{flag} is required for this ring")
    return value


def _cmd_dirichlet(args) -> int:
    started = time.monotonic()
    if args.which == "an-local":
        if args.p is None or args.k is None:
            raise SystemExit2("an-local needs --p and --k")
        value = dd.local_cl_coefficient(args.p, args.k)
        payload = {"value": f"{value.numerator}/{value.denominator}"}
        if args.format == "tsv":
            payload = f"{args.k}\t{value.numerator}\t{value.denominator}"
        return _emit(args, payload, started=started)
    ring = _RINGS[args.ring](args)
    if args.which == "zeta":
        series = dd.dedekind_zeta(ring, args.length)
    elif args.which == "cl-local":
        series = dd.cohen_lenstra_local_zeta(ring, args.length)
    elif args.which == "cl-poly":
        series = dd.polynomial_ring_cl_zeta(ring, args.length)
    else:
        raise SystemExit2(f"unknown computation {args.which!r}")
    payload = series.to_json_dict() if args.format == "json" else _dirichlet_tsv(series)
    return _emit(args, payload, started=started)


def _cmd_verify(args) -> int:
    started = time.monotonic()
    _announce_fallback()
    ac_map = {ac.lower(): suite for ac, suite in vf.ACCEPTANCE_ORDER}
    names = list(vf.SUITES) if args.suite == "all" else [ac_map.get(args.suite, args.suite)]
    given = {
        "--q": ("q_values", None if args.q is None else (args.q,)),
        "--b": ("b_values", None if args.b is None else (args.b,)),
        "--nmax": ("n_max", args.nmax),
        "--shards": ("shards", args.shards),
        "--budget": ("budget", args.budget),
    }
    given = {flag: kv for flag, kv in given.items() if kv[1] is not None}
    taken = [inspect.signature(vf.SUITES[name]).parameters for name in names]
    unused = [flag for flag, (key, _) in given.items() if not any(key in t for t in taken)]
    if unused:
        raise SystemExit2(f"suite {args.suite!r} takes no {', '.join(unused)}")
    checks = []
    for name, params in zip(names, taken):
        kwargs = {key: value for key, value in given.values() if key in params}
        checks += vf.run_suite(name, **kwargs)
    if not checks:
        raise SystemExit2(f"suite {args.suite!r} ran no check with these options")
    summary = {
        "suites": names,
        "checks": len(checks),
        "failed": sum(1 for c in checks if not c.passed),
    }
    return _emit(args, summary, checks=checks, started=started, kernel=kernel_name())


def _cmd_conj(args) -> int:
    started = time.monotonic()
    lam = Partition(int(x) for x in args.type.split(",") if x.strip())
    value = conj_classes_aut(PGroupModule(args.p, lam), budget=args.budget)
    payload = {"classes": value}
    if args.format == "tsv":
        payload = f"{args.type}\t{value}\t1"
    return _emit(args, payload, started=started)


class SystemExit2(Exception):
    """Usage-level error, mapped to exit code 2."""


@functools.cache  # one parser per process; parse_args keeps no state between calls
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clzeta",
        description="Exact Cohen-Lenstra series and brute-force counting oracles",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, shards=True, budget=True):
        p.add_argument("--format", choices=("json", "tsv"), default="json")
        if shards:
            p.add_argument("--shards", type=int, default=1)
        if budget:
            p.add_argument("--budget", type=int, default=None)

    p = sub.add_parser("series", help="evaluate a closed-form series by id")
    p.add_argument("--id", required=True)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--b", type=int, default=None)
    p.add_argument("--trunc", type=int, default=6, help="t truncation order")
    p.add_argument("--u-trunc", type=int, default=None)
    p.add_argument("--q-trunc", type=int, default=None)
    common(p, shards=False, budget=False)
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("oracle", help="count matrix points exhaustively")
    p.add_argument("--relations", required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--nmax", type=int, default=None)
    common(p)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("dirichlet", help="Dirichlet series prefixes")
    p.add_argument(
        "--which",
        choices=("zeta", "cl-local", "cl-poly", "an-local"),
        required=True,
    )
    p.add_argument("--ring", choices=tuple(_RINGS), default="Z")
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--qparam", type=int, default=None)
    p.add_argument("--length", type=int, default=32)
    p.add_argument("--k", type=int, default=None)
    common(p, shards=False, budget=False)
    p.set_defaults(func=_cmd_dirichlet)

    p = sub.add_parser("verify", help="run a named verification suite")
    suite_choices = (
        ("all",)
        + tuple(sorted(vf.SUITES))
        + tuple(ac.lower() for ac, _ in vf.ACCEPTANCE_ORDER)
    )
    p.add_argument("--suite", required=True, choices=suite_choices)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--b", type=int, default=None)
    p.add_argument("--nmax", type=int, default=None)
    p.add_argument("--shards", type=int, default=None)
    common(p, shards=False)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("conj", help="conjugacy classes of Aut of a module")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--type", required=True, help="partition, e.g. 2,1")
    common(p, shards=False)
    p.set_defaults(func=_cmd_conj)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SystemExit2, BudgetExceededError, ValueError, KeyError, dd.DirichletError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
