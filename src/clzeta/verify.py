"""Named verification suites: every closed form against its oracle.

Each suite returns a list of :class:`Check` records with both sides of every
comparison rendered exactly; the CLI and the acceptance tests share these.
All comparisons are exact equalities of rationals or of series windows,
except the two probabilistic tail bounds, which are inequalities against a
transcendental constant and are evaluated in floating point with exact left
sides.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from . import dirichlet as dd
from . import formulas as fb
from .arith import primes_up_to
from .oracle import (
    BudgetExceededError,
    PGroupModule,
    commuting_perm_count,
    conj_classes_aut,
    count_matrix_points,
    enumerate_endomorphisms,
    gl_order,
    matrix_point_series,
    module_groupoid_count,
    parse_relations,
    stable_framing_stats_per_rank,
    surj_probs,
)
from .partitions import (
    Partition,
    aut_order,
    end_order,
    end_torsion_order,
    partition_count,
    partitions_up_to,
)
from .series import INF, TruncSeries, VarSpec, inverse_pochhammer, pochhammer


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    lhs: str
    rhs: str

    def to_json_dict(self):
        return {
            "name": self.name,
            "passed": self.passed,
            "lhs": self.lhs,
            "rhs": self.rhs,
        }


def _eq(name: str, lhs, rhs) -> Check:
    return Check(name, lhs == rhs, str(lhs), str(rhs))


def _le(name: str, lhs: float, rhs: float) -> Check:
    return Check(name, lhs <= rhs, str(lhs), f"<= {rhs}")


def _series_eq(name: str, a: TruncSeries, b: TruncSeries) -> Check:
    if a == b:
        return Check(name, True, "equal on window", "equal on window")
    diff = (a - b).terms()
    e, c = diff[0]
    return Check(name, False, f"difference {c} at {e}", "0")


def _coeff_checks(name, formula: TruncSeries, oracle: TruncSeries, degrees) -> list[Check]:
    out = []
    for n in degrees:
        out.append(
            _eq(f"{name}[t^{n}]", formula.coeff((n,)), oracle.coeff((n,)))
        )
    return out


# -- AC-1 -------------------------------------------------------------------

def suite_feit_fine(q_values=(2, 3), n_max=3, shards=1, budget=None) -> list[Check]:
    """Commuting-pair series equals the double-product closed form."""
    checks = []
    for q in q_values:
        formula = fb.feit_fine_series(q, n_max + 1)
        oracle = matrix_point_series("A*B - B*A", q, n_max, shards=shards, budget=budget)
        checks += _coeff_checks(f"feit-fine q={q}", formula, oracle, range(n_max + 1))
    if 2 in q_values and n_max >= 3:
        formula = fb.feit_fine_series(2, 5)
        c4 = count_matrix_points("A*B - B*A", 4, 2, shards=shards, budget=budget)
        checks.append(
            Check(
                "feit-fine q=2 [t^4] strategy",
                c4.strategy == "linear-in-B",
                c4.strategy,
                "linear-in-B",
            )
        )
        checks.append(
            _eq(
                "feit-fine q=2 [t^4] linear-in-B",
                formula.coeff((4,)),
                Fraction(c4.value, gl_order(4, 2)),
            )
        )
    return checks


# -- AC-2 -------------------------------------------------------------------

def suite_fat_line(q_values=(2, 3), b_values=(1, 2, 3), n_max=3, shards=1, budget=None):
    checks = []
    for q in q_values:
        for b in b_values:
            formula = fb.fat_line_series(b, q, n_max + 1)
            oracle = matrix_point_series(
                f"A*B - B*A, A^{b}" if b > 1 else "A*B - B*A, A",
                q,
                n_max,
                shards=shards,
                budget=budget,
            )
            checks += _coeff_checks(
                f"fat-line q={q} b={b}", formula, oracle, range(n_max + 1)
            )
    return checks


# -- AC-3 -------------------------------------------------------------------

def suite_nonred_node(q_values=(2, 3), b_values=(1, 2, 3), n_max=3, shards=1, budget=None):
    checks = []
    for q in q_values:
        for b in b_values:
            formula = fb.nonreduced_node_plane_series(b, q, n_max + 1)
            rel = f"A*B - B*A, A^{b}*B" if b > 1 else "A*B - B*A, A*B"
            oracle = matrix_point_series(rel, q, n_max, shards=shards, budget=budget)
            checks += _coeff_checks(
                f"nonred-node q={q} b={b}", formula, oracle, range(n_max + 1)
            )
    return checks


# -- AC-4 -------------------------------------------------------------------

def suite_rank_series(t_order=8, u_order=8, q_order=20) -> list[Check]:
    a = fb.rank_series_partition_sum(t_order, u_order, q_order)
    b = fb.rank_series_hypergeometric(t_order, u_order, q_order)
    return [
        _series_eq(
            f"rank series: partition sum vs hypergeometric on t<{t_order},"
            f" u<{u_order}, q<{q_order}",
            a,
            b,
        )
    ]


# -- AC-5 -------------------------------------------------------------------

def suite_u_collapse(t_order=10, q_order=20) -> list[Check]:
    u_order = t_order
    spec2 = VarSpec(("t", "q"), (t_order, q_order))
    tq = TruncSeries.monomial(spec2, (1, 1))
    target = inverse_pochhammer(tq, "q", INF)
    checks = []
    for label, builder in (
        ("partition sum", fb.rank_series_partition_sum),
        ("hypergeometric", fb.rank_series_hypergeometric),
    ):
        collapsed = builder(t_order, u_order, q_order).specialize("u", 1)
        checks.append(
            _series_eq(f"rank series ({label}) at u=1 vs 1/(tq;q)_inf", collapsed, target)
        )
    h1 = fb.normalized_rank_series(t_order, u_order, q_order).specialize("u", 1)
    checks.append(
        _series_eq("normalized rank series at u=1 vs 1", h1, TruncSeries.one(spec2))
    )
    return checks


# -- AC-6 -------------------------------------------------------------------

def suite_euler_identity(t_order=12, q_order=20) -> list[Check]:
    spec = VarSpec(("t", "q"), (t_order, q_order))
    tv = TruncSeries.variable(spec, "t")
    qv = TruncSeries.variable(spec, "q")
    lhs = TruncSeries.zero(spec)
    for n in range(t_order):
        lhs = lhs + TruncSeries.monomial(spec, (n, 0)) * inverse_pochhammer(qv, "q", n)
    rhs = inverse_pochhammer(tv, "q", INF)
    return [_series_eq(f"Euler identity on t<{t_order}, q<{q_order}", lhs, rhs)]


# -- AC-7 -------------------------------------------------------------------

def suite_durfee_identities(k_max=5, window=20) -> list[Check]:
    checks = []
    qspec = VarSpec(("q",), (window,))
    qv = TruncSeries.variable(qspec, "q")
    for k in range(k_max + 1):
        parts = partitions_up_to(window - 1, max_len=k)
        lhs = TruncSeries(qspec, Counter((lam.size,) for lam in parts))
        rhs = inverse_pochhammer(qv, "q", k)
        checks.append(_series_eq(f"durfee (i): length<={k} vs 1/(q;q)_{k}", lhs, rhs))

    tqspec = VarSpec(("t", "q"), (window, window))
    parts = partitions_up_to(window - 1)
    lhs = TruncSeries(tqspec, Counter((lam.length, lam.size) for lam in parts))
    tq = TruncSeries.monomial(tqspec, (1, 1))
    rhs = inverse_pochhammer(tq, "q", INF)
    checks.append(
        _series_eq("durfee (ii): all partitions vs 1/(tq;q)_inf", lhs, rhs)
    )

    for k in range(k_max + 1):
        for l in range(k_max + 1):
            parts = partitions_up_to(window - 1, max_part=k, max_len=l)
            lhs = TruncSeries(qspec, Counter((lam.size,) for lam in parts))
            rhs = (
                pochhammer(qv, "q", k + l)
                * inverse_pochhammer(qv, "q", k)
                * inverse_pochhammer(qv, "q", l)
            )
            checks.append(
                _series_eq(f"durfee (iii): parts<={k}, length<={l} vs Gaussian", lhs, rhs)
            )
    return checks


# -- AC-8 -------------------------------------------------------------------

def suite_aut_end(p_values=(2, 3), max_size=4, torsion_max=3, budget=None) -> list[Check]:
    checks = []
    for p in p_values:
        for lam in partitions_up_to(max_size):
            module = PGroupModule(p, lam)
            try:
                n_all = enumerate_endomorphisms(module, "all", budget=budget)
            except BudgetExceededError:
                continue
            checks.append(
                _eq(f"|End| lam={lam.parts} p={p}", n_all, end_order(lam, p))
            )
            n_inv = enumerate_endomorphisms(module, "invertible", budget=budget)
            checks.append(
                _eq(f"|Aut| lam={lam.parts} p={p}", n_inv, aut_order(lam, p))
            )
            for b in range(1, torsion_max + 1):
                n_tor = enumerate_endomorphisms(module, "torsion", b=b, budget=budget)
                checks.append(
                    _eq(
                        f"|End[pi^{b}]| lam={lam.parts} p={p}",
                        n_tor,
                        end_torsion_order(lam, b, p),
                    )
                )
    return checks


# -- AC-9 -------------------------------------------------------------------

def suite_zt_dirichlet(length=64, p_values=(2, 3), budget=None) -> list[Check]:
    checks = []
    zt = dd.polynomial_ring_cl_zeta(dd.ring_Z(), length)
    for m in range(2, length + 1):
        for n in range(2, length // m + 1):
            if math.gcd(m, n) == 1:
                checks.append(
                    Check(
                        f"multiplicative a_{m * n} = a_{m} a_{n}",
                        zt[m * n] == zt[m] * zt[n],
                        str(zt[m * n]),
                        f"{zt[m]} * {zt[n]}",
                    )
                )
    for p in primes_up_to(length):
        k = 1
        while p**k <= length:
            checks.append(
                _eq(
                    f"a_{p ** k} vs local coefficient",
                    zt[p**k],
                    dd.local_cl_coefficient(p, k),
                )
            )
            k += 1
        checks.append(_eq(f"a_{p} = p/(p-1)", zt[p], Fraction(p, p - 1)))
    for p in p_values:
        checks.append(
            _eq(
                f"a_{p} vs groupoid count p={p}",
                zt[p],
                module_groupoid_count(p, 1, budget=budget),
            )
        )
        checks.append(
            _eq(
                f"a_{p ** 2} vs groupoid count p={p}",
                zt[p**2],
                module_groupoid_count(p, 2, budget=budget),
            )
        )
    return checks


# -- AC-10 ------------------------------------------------------------------

def suite_surjection(p_values=(2, 3), max_size=4, d_max=4, budget=None) -> list[Check]:
    checks = []
    for p in p_values:
        for lam in partitions_up_to(max_size):
            module = PGroupModule(p, lam)
            for d, res in enumerate(surj_probs(module, range(d_max + 1), budget=budget)):
                if res.enumerated is not None:
                    checks.append(
                        _eq(
                            f"surj enumerated vs closed lam={lam.parts} p={p} d={d}",
                            res.enumerated,
                            res.closed_form,
                        )
                    )
                size = module.size
                if size > 1:
                    bound = 2 * size * math.log(size) * 2.0 ** (-d)
                    checks.append(
                        _le(
                            f"surj tail bound lam={lam.parts} p={p} d={d}",
                            float(1 - res.closed_form),
                            bound,
                        )
                    )
    return checks


# -- AC-11 ------------------------------------------------------------------

def suite_framing(d_max=8, budget=None) -> list[Check]:
    checks = []
    module = PGroupModule(2, Partition((1, 1)))
    system = parse_relations("A*B - B*A")
    size = module.size
    per_rank = stable_framing_stats_per_rank(
        system, module, range(d_max + 1), budget=budget
    )
    coh = Fraction(per_rank[0].points, per_rank[0].aut_order)
    last_gap = None
    for d, stats in enumerate(per_rank[1:], start=1):
        checks.append(
            Check(
                f"freeness divisibility d={d}",
                stats.stable % stats.aut_order == 0,
                f"{stats.stable} mod {stats.aut_order}",
                "0",
            )
        )
        approx = Fraction(stats.quot_count, size**d)
        gap = coh - approx
        checks.append(
            Check(
                f"0 <= gap d={d}",
                gap >= 0,
                str(gap),
                ">= 0",
            )
        )
        bound = 2 * size * math.log(size) * float(coh) * 2.0 ** (-d)
        checks.append(_le(f"gap bound d={d}", float(gap), bound))
        last_gap = gap
    checks.append(
        Check(
            f"d={d_max} gap below coh/8",
            last_gap < coh / 8,
            str(last_gap),
            f"< {coh / 8}",
        )
    )
    return checks


# -- AC-12 ------------------------------------------------------------------

def suite_conjugacy(p_values=(2, 3, 5), budget=None) -> list[Check]:
    checks = []
    for p in p_values:
        c1 = conj_classes_aut(PGroupModule(p, Partition((1,))), budget=budget)
        checks.append(_eq(f"classes lam=(1) p={p}", c1, p - 1))
        c2 = conj_classes_aut(PGroupModule(p, Partition((2,))), budget=budget)
        checks.append(_eq(f"classes lam=(2) p={p}", c2, p * p - p))
    values = {
        p: conj_classes_aut(PGroupModule(p, Partition((1, 1))), budget=budget)
        for p in p_values
    }
    checks.append(_eq("classes lam=(1,1) q=2", values[2], 3))
    # monic quadratic through q=2,3; q=5 confirms the polynomial pattern
    a = values[3] - values[2] - (9 - 4)
    b = values[2] - 4 - 2 * a
    predicted = 25 + 5 * a + b
    checks.append(
        Check(
            "classes lam=(1,1) on one quadratic",
            values[5] == predicted,
            f"q=5 value {values[5]}",
            f"quadratic predicts {predicted} (q^2 + {a} q + {b})",
        )
    )
    return checks


# -- AC-13 ------------------------------------------------------------------

def suite_permutations(n_max=5) -> list[Check]:
    checks = []
    for n in range(n_max + 1):
        count = commuting_perm_count(n, 2)
        expected = partition_count(n) * math.factorial(n)
        checks.append(_eq(f"commuting pairs in S_{n}", count, expected))
    return checks


# -- AC-14 ------------------------------------------------------------------

def suite_strategies(budget=None) -> list[Check]:
    checks = []
    instances = [
        ("A*B - B*A", 1, 2),
        ("A*B - B*A", 1, 3),
        ("A*B - B*A", 1, 5),
        ("A*B - B*A", 2, 2),
        ("A*B - B*A, A^2", 2, 2),
        ("A*B - B*A, A*B", 2, 2),
        ("A*B - B*A, A^2*B", 2, 2),
    ]
    for rel, n, q in instances:
        lin = count_matrix_points(rel, n, q, strategy="linear", budget=budget)
        full = count_matrix_points(rel, n, q, strategy="full", budget=budget)
        checks.append(
            _eq(f"linear vs full: {rel!r} n={n} q={q}", lin.value, full.value)
        )
    shard_instances = [
        ("A*B - B*A", 2, 2),
        ("A*B - B*A", 2, 3),
        ("A*B - B*A, A^2", 2, 3),
        ("A*B - B*A, A^2*B", 2, 3),
        ("A*B - B*A", 3, 2),
    ]
    for rel, n, q in shard_instances:
        base = count_matrix_points(rel, n, q, shards=1, budget=budget).value
        for shards in (2, 8):
            got = count_matrix_points(rel, n, q, shards=shards, budget=budget).value
            checks.append(
                _eq(f"shards={shards} invariance: {rel!r} n={n} q={q}", got, base)
            )
    return checks


SUITES = {
    "feit-fine": suite_feit_fine,
    "fat-line": suite_fat_line,
    "nonred-node": suite_nonred_node,
    "rank-series": suite_rank_series,
    "u-collapse": suite_u_collapse,
    "euler": suite_euler_identity,
    "durfee": suite_durfee_identities,
    "aut-end": suite_aut_end,
    "zt-dirichlet": suite_zt_dirichlet,
    "surjection": suite_surjection,
    "framing": suite_framing,
    "conjugacy": suite_conjugacy,
    "permutations": suite_permutations,
    "strategies": suite_strategies,
}

#: (acceptance criterion id, suite name), in the spec order of SUITES
ACCEPTANCE_ORDER = [(f"AC-{i}", name) for i, name in enumerate(SUITES, 1)]


def run_suite(name: str, **kwargs) -> list[Check]:
    try:
        suite = SUITES[name]
    except KeyError:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}") from None
    return suite(**kwargs)
