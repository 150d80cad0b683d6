"""Closed-form generating functions for module counts, as executable series.

Two modes:

* specialized: q is pinned to an exact rational > 1 and the result is a
  univariate series in t.  Infinite products over q-powers are resummed
  exactly through Euler's identity
  prod_{j>=0} 1/(1 - x q^-j) = sum_m x^m / (1/q; 1/q)_m,
  so no numeric cutoff enters anywhere.
* formal: t, u, q are all formal and the result is a trivariate series
  (used for the rank-refined series and its hypergeometric form, which live
  in Z[[t,u,q]]).

Identity checks against brute-force enumeration live in the test suite and
in clzeta.verify.
"""

from __future__ import annotations

from fractions import Fraction

from .arith import is_prime_power, mobius, smallest_prime_factors
from .partitions import partitions_up_to
from .series import INF, TruncSeries, VarSpec, _exact, inverse_pochhammer, pochhammer, qpoch_value


def _t_spec(t_order: int) -> VarSpec:
    return VarSpec(("t",), (t_order,))


def _as_q(q):
    if _exact(q) <= 1:
        raise ValueError("q must exceed 1")
    return q


def euler_inverse_pochhammer(c: Fraction, r: Fraction, step: int, t_order: int) -> TruncSeries:
    """prod_{j>=0} 1/(1 - c * t^step * r^j) as a series in t, via Euler's
    identity: the t^(step*m) coefficient is c^m / (r; r)_m."""
    spec = _t_spec(t_order)
    coeffs = {}
    m = 0
    while step * m < t_order:
        coeffs[(step * m,)] = c**m / qpoch_value(r, r, m)
        m += 1
    return TruncSeries(spec, coeffs)


def pochhammer_inf_specialized(c: Fraction, r: Fraction, t_order: int) -> TruncSeries:
    """(c*t; r)_infinity as a series in t, via Euler's second identity: the
    t^m coefficient is (-c)^m r^(m(m-1)/2) / (r; r)_m."""
    coeffs = {
        (m,): (-c) ** m * r ** (m * (m - 1) // 2) / qpoch_value(r, r, m)
        for m in range(t_order)
    }
    return TruncSeries(_t_spec(t_order), coeffs)


def line_series(q, t_order: int) -> TruncSeries:
    """Module count series of the affine line: prod_{j>=0} 1/(1 - t q^-j)."""
    return euler_inverse_pochhammer(1, Fraction(1, _as_q(q)), 1, t_order)


def fat_line_series(b: int, q, t_order: int) -> TruncSeries:
    """Module count series of the thickened line x^b = 0:
    prod_{i=1..b} prod_{j>=0} 1/(1 - t^i q^-j)."""
    if b < 1:
        raise ValueError("b must be >= 1")
    r = Fraction(1, _as_q(q))
    out = TruncSeries.one(_t_spec(t_order))
    for i in range(1, b + 1):
        out = out * euler_inverse_pochhammer(1, r, i, t_order)
    return out


def dvr_polynomial_local_series(q, t_order: int) -> TruncSeries:
    """Module count series of a polynomial ring over a local base with
    residue cardinality q: prod_{i>=1, j>=1} 1/(1 - q^(1-j) t^i)."""
    r = Fraction(1, _as_q(q))
    out = TruncSeries.one(_t_spec(t_order))
    for i in range(1, t_order):
        out = out * euler_inverse_pochhammer(1, r, i, t_order)
    return out


def count_irreducibles(q: int, d: int) -> int:
    """Number of monic irreducible polynomials of degree d over F_q."""
    spf = smallest_prime_factors(d)
    total = sum(mobius(e, spf) * q ** (d // e) for e in range(1, d + 1) if d % e == 0)
    assert total % d == 0
    return total // d


def plane_series_from_points(q: int, t_order: int) -> TruncSeries:
    """Module count series of the affine plane over F_q, assembled as the
    product over closed points of the line of local polynomial-ring factors:
    a degree-d point contributes prod_{i,j>=1} 1/(1 - q^(d(1-j)) t^(d*i)).
    Must agree with the re-indexed closed form :func:`feit_fine_series`."""
    if not (isinstance(q, int) and is_prime_power(q)):
        raise ValueError(f"point counting needs an integer prime power q, got {q}")
    out = TruncSeries.one(_t_spec(t_order))
    d = 1
    while d < t_order:
        qd = q**d
        local = TruncSeries.one(_t_spec(t_order))
        i = 1
        while d * i < t_order:
            local = local * euler_inverse_pochhammer(1, Fraction(1, qd), d * i, t_order)
            i += 1
        out = out * local ** count_irreducibles(q, d)
        d += 1
    return out


def feit_fine_series(q, t_order: int) -> TruncSeries:
    """Commuting-pair series of the affine plane:
    prod_{i>=1, j>=1} 1/(1 - t^i q^(2-j))."""
    r = Fraction(1, _as_q(q))
    out = TruncSeries.one(_t_spec(t_order))
    for i in range(1, t_order):
        out = out * euler_inverse_pochhammer(q, r, i, t_order)
    return out


def rank_series_at_powers(b: int, q, t_order: int) -> TruncSeries:
    """The rank-refined series with u set to t^b and q inverted:
    sum_k r^(k^2) t^((b+1)k) / ((r; r)_k (t r; r)_k) with r = 1/q."""
    if b < 1:
        raise ValueError("b must be >= 1")
    r = Fraction(1, _as_q(q))
    spec = _t_spec(t_order)
    out = TruncSeries.zero(spec)
    k = 0
    while (b + 1) * k < t_order:
        term = TruncSeries.monomial(
            spec, ((b + 1) * k,), r ** (k * k) / qpoch_value(r, r, k)
        )
        cur = r
        for _ in range(k):
            term = term.divide_by_binomial(cur, (1,))
            cur *= r
        out = out + term
        k += 1
    return out


def normalized_rank_series_at_powers(b: int, q, t_order: int) -> TruncSeries:
    """The entire normalization at u = t^b, q inverted:
    sum_k r^(k^2) t^((b+1)k) / (r; r)_k * (t r^(k+1); r)_infinity."""
    if b < 1:
        raise ValueError("b must be >= 1")
    r = Fraction(1, _as_q(q))
    spec = _t_spec(t_order)
    out = TruncSeries.zero(spec)
    k = 0
    while (b + 1) * k < t_order:
        head = TruncSeries.monomial(
            spec, ((b + 1) * k,), r ** (k * k) / qpoch_value(r, r, k)
        )
        out = out + head * pochhammer_inf_specialized(r ** (k + 1), r, t_order)
        k += 1
    return out


def nonreduced_node_local_series(b: int, q, t_order: int) -> TruncSeries:
    """Module count series of the local nonreduced node (pi^b T = 0 over a
    local base): the thickened-line factor times the rank-refined series at
    u = t^b, q inverted."""
    return fat_line_series(b, q, t_order) * rank_series_at_powers(b, q, t_order)


def nonreduced_node_plane_series(b: int, q, t_order: int) -> TruncSeries:
    """Commuting-pair series of the plane curve x^b y = 0:
    1/((t; r)_inf prod_{i<=b} (t^i; r)_inf) * sum_k r^(k^2) t^((b+1)k) /
    (r; r)_k * (t r^(k+1); r)_inf, with r = 1/q."""
    return (
        line_series(q, t_order)
        * fat_line_series(b, q, t_order)
        * normalized_rank_series_at_powers(b, q, t_order)
    )


# -- formal trivariate mode ----------------------------------------------


def _tuq_spec(t_order: int, u_order: int, q_order: int) -> VarSpec:
    return VarSpec(("t", "u", "q"), (t_order, u_order, q_order))


def rank_series_partition_sum(t_order: int, u_order: int, q_order: int) -> TruncSeries:
    """sum over partitions lam of q^(sum of squared transpose parts) /
    prod_i (q; q)_{m_i(lam)} * t^|lam| u^len(lam), all three variables
    formal."""
    spec = _tuq_spec(t_order, u_order, q_order)
    qv = TruncSeries.variable(spec, "q")
    max_mult = t_order - 1
    inv_poch = [inverse_pochhammer(qv, "q", m) for m in range(max_mult + 1)]
    out = TruncSeries.zero(spec)
    for lam in partitions_up_to(t_order - 1):
        if lam.length >= u_order:
            continue
        weight = sum(c * c for c in lam.transpose().parts)
        if weight >= q_order:
            continue
        term = TruncSeries.monomial(spec, (lam.size, lam.length, weight))
        for m in lam.multiplicities().values():
            term = term * inv_poch[m]
        out = out + term
    return out


def rank_series_hypergeometric(t_order: int, u_order: int, q_order: int) -> TruncSeries:
    """The same series as :func:`rank_series_partition_sum`, as the
    one-variable sum over Durfee sides k:
    sum_k q^(k^2) t^k u^k / ((q; q)_k (t q; q)_k)."""
    spec = _tuq_spec(t_order, u_order, q_order)
    qv = TruncSeries.variable(spec, "q")
    tq = TruncSeries.monomial(spec, (1, 0, 1))
    out = TruncSeries.zero(spec)
    k = 0
    while k < t_order and k < u_order and k * k < q_order:
        term = TruncSeries.monomial(spec, (k, k, k * k))
        term = term * inverse_pochhammer(qv, "q", k)
        term = term * inverse_pochhammer(tq, "q", k)
        out = out + term
        k += 1
    return out


def normalized_rank_series(t_order: int, u_order: int, q_order: int) -> TruncSeries:
    """(t q; q)_infinity times the rank-refined series, computed from its own
    sum: sum_k q^(k^2) t^k u^k / (q; q)_k * (t q^(k+1); q)_infinity.
    Specializing u to 1 collapses it to 1."""
    spec = _tuq_spec(t_order, u_order, q_order)
    qv = TruncSeries.variable(spec, "q")
    out = TruncSeries.zero(spec)
    k = 0
    while k < t_order and k < u_order and k * k < q_order:
        term = TruncSeries.monomial(spec, (k, k, k * k))
        term = term * inverse_pochhammer(qv, "q", k)
        term = term * pochhammer(
            TruncSeries.monomial(spec, (1, 0, k + 1)), "q", INF
        )
        out = out + term
        k += 1
    return out


# -- stable formula ids for the command line -------------------------------

SPECIALIZED_FORMULAS = {
    "line": lambda q, T, b=None: line_series(q, T),
    "fat-line": lambda q, T, b=1: fat_line_series(b, q, T),
    "dvr-poly": lambda q, T, b=None: plane_series_from_points(q, T),
    "dvr-poly-local": lambda q, T, b=None: dvr_polynomial_local_series(q, T),
    "feit-fine": lambda q, T, b=None: feit_fine_series(q, T),
    "nonred-node-local": lambda q, T, b=1: nonreduced_node_local_series(b, q, T),
    "nonred-node-plane": lambda q, T, b=1: nonreduced_node_plane_series(b, q, T),
}

FORMAL_FORMULAS = {
    "rank-series-partitions": rank_series_partition_sum,
    "rank-series-hyper": rank_series_hypergeometric,
    "rank-series-normalized": normalized_rank_series,
}
