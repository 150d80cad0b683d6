"""Exhaustive counting of matrix points of a relation system over F_p.

The count |C_n| is the number of pairs (A, B) of n x n matrices over F_p
satisfying every relation.  Two strategies exist:

* linear-in-B: enumerate A only; relations that omit B filter A, relations
  affine-linear in B stack into one linear system whose solution count is
  p^nullity.  This is the hot loop; it runs in the compiled C kernel
  when available and in a pure-Python mirror otherwise.  Both the filter
  verdict and the nullity are constant on each GL_n(F_q) conjugation orbit
  of A, so the compiled kernel solves one representative per orbit and
  weights it by the orbit's size (see ``_kernels.c``); the Python mirror
  solves every A.
* full: enumerate both A and B and evaluate every relation literally.  Only
  feasible at tiny sizes; it exists to cross-check the linear strategy and
  to handle relations that are not linear in B.

The A space is an odometer over residue digits (entry (0,0) least
significant, row-major).  Sharding splits the odometer range into contiguous
pieces whose histograms are added, so the result is independent of the shard
count.  The compiled kernel counts only the orbit members inside a shard's
range, but it walks every orbit that touches the range, so shards repeat
some walking.  Orbits are walked in a bitmap of q^(n^2) bits while
q^(n^2) <= 2^32; larger spaces are scanned A by A.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import asdict, dataclass
from fractions import Fraction

from ..arith import is_prime
from ..series import TruncSeries, VarSpec
from . import budget as _budget
from ._kernels_py import _mat_mul, _powers
from .relations import RelationSystem, parse_relations

#: Why the compiled kernel failed to import, or None when it imported or
#: CLZETA_FORCE_PY chose the Python kernel on purpose.
KERNEL_IMPORT_ERROR: str | None = None

if os.environ.get("CLZETA_FORCE_PY"):
    from . import _kernels_py as _kernels
else:
    try:
        from . import _kernels  # type: ignore[attr-defined]
    except ImportError as exc:
        from . import _kernels_py as _kernels

        KERNEL_IMPORT_ERROR = f"{type(exc).__name__}: {exc}"

#: True when the compiled kernel is in use.
KERNEL_COMPILED = bool(getattr(_kernels, "COMPILED", False))

#: The linear strategy refuses q at or above this bound whichever kernel runs:
#: the compiled kernel keeps residue products in 64 bits, and the Python
#: kernel would start a scan of q^(n^2) matrices.
KERNEL_Q_LIMIT = 2**31

#: The linear strategy refuses an A space of q^(n^2) matrices at or above this
#: bound whichever kernel runs: the compiled kernel indexes the odometer with
#: signed 64-bit integers and packs a row of n^2 + 1 bits at q = 2.
KERNEL_SPACE_LIMIT = 2**63


def kernel_name() -> str:
    return "cython" if KERNEL_COMPILED else "python"


def gl_order(n: int, q: int) -> int:
    """|GL_n(F_q)| = prod_{k<n} (q^n - q^k)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n and q < 2:
        raise ValueError("q must be at least 2")
    out = 1
    for k in range(n):
        out *= q**n - q**k
    return out


@dataclass(frozen=True)
class CountResult:
    value: int
    strategy: str  # "linear-in-B" or "full"
    scanned: int  # size of the enumerated space
    rejected: int  # A matrices failing an A-only relation
    inconsistent: int  # A matrices whose affine system had no solution
    # histogram[d]: consistent A whose B-solutions have dimension d; None for
    # the full strategy, which does not solve for B
    histogram: tuple[int, ...] | None

    def to_json_dict(self, op: str, params: dict):
        return {"op": op, "params": params, **asdict(self), "value": str(self.value)}


def _compile_for_kernel(system: RelationSystem, p: int):
    """Flatten the relation system into the kernel's integer tuples."""
    a_filters = []
    b_relations = []
    for rel in system.relations:
        if rel.kind == "a_only":
            terms = []
            for t in rel.terms:
                exp = t.word.a_degree() if t.word is not None else 0
                terms.append((t.coeff % p, exp))
            a_filters.append(tuple(terms))
        elif rel.kind == "b_linear":
            linear = []
            const = []
            for t in rel.terms:
                if t.b_degree() == 0:
                    exp = t.word.a_degree() if t.word is not None else 0
                    const.append((t.coeff % p, exp))
                else:
                    pre, post = t.word.linear_split()
                    linear.append((t.coeff % p, pre, post))
            b_relations.append((tuple(linear), tuple(const)))
        else:
            raise ValueError("relation system is not linear in B")
    max_pow = max(system.max_a_power(), 0)
    return tuple(a_filters), tuple(b_relations), max_pow


def _shard_ranges(total: int, shards: int):
    """At most ``shards`` contiguous, nonempty pieces of range(total)."""
    shards = min(shards, total)
    step, extra = divmod(total, shards)
    lo = 0
    for s in range(shards):
        hi = lo + step + (1 if s < extra else 0)
        yield lo, hi
        lo = hi


def _count_linear(system: RelationSystem, n: int, p: int, shards: int):
    a_filters, b_relations, max_pow = _compile_for_kernel(system, p)
    nn = n * n
    total_hist = [0] * (nn + 1)
    rejected = 0
    inconsistent = 0
    for lo, hi in _shard_ranges(p**nn, shards):
        hist, rej, inc = _kernels.nullity_histogram(
            n, p, lo, hi, a_filters, b_relations, max_pow
        )
        for d in range(nn + 1):
            total_hist[d] += hist[d]
        rejected += rej
        inconsistent += inc
    value = sum(c * p**d for d, c in enumerate(total_hist) if c)
    return CountResult(
        value, "linear-in-B", p**nn, rejected, inconsistent, tuple(total_hist)
    )


def _relation_pairs(system: RelationSystem, space, n: int, moduli):
    """Yield every pair (A, B) drawn from ``space`` at which each relation
    of the system vanishes.

    ``space`` is a list of flat row-major n x n matrices whose row i lives
    mod ``moduli[i]``: all of M_n(F_p) for the full strategy, or the
    endomorphisms of a module (``clzeta.oracle.framing``).  A word is the
    product of its generators' power tables, the constant word is A^0, and a
    relation vanishes when its row i is 0 mod ``moduli[i]``.
    """
    nn = n * n
    rels = [
        [(t.coeff, t.word.factors if t.word else (("A", 0),)) for t in rel.terms]
        for rel in system.relations
    ]
    top = {"A": 0, "B": 0}
    for rel in rels:
        for _, factors in rel:
            for g, e in factors:
                top[g] = max(top[g], e)
    b_tables = [(b, _powers(b, n, moduli, top["B"])) for b in space]
    for a in space:
        a_pows = _powers(a, n, moduli, top["A"])
        for b, b_pows in b_tables:
            pows = {"A": a_pows, "B": b_pows}
            for rel in rels:
                acc = [0] * nn
                for coeff, factors in rel:
                    (g, e), *rest = factors
                    w = pows[g][e]
                    for g, e in rest:
                        w = _mat_mul(w, pows[g][e], n, moduli)
                    for i in range(nn):
                        acc[i] += coeff * w[i]
                if any(v % moduli[i // n] for i, v in enumerate(acc)):
                    break
            else:
                yield a, b


def _count_full(system: RelationSystem, n: int, p: int):
    space = list(itertools.product(range(p), repeat=n * n))
    count = sum(1 for _ in _relation_pairs(system, space, n, (p,) * n))
    return CountResult(count, "full", p ** (2 * n * n), 0, 0, None)


def count_matrix_points(
    system: RelationSystem | str,
    n: int,
    q: int,
    *,
    strategy: str = "auto",
    shards: int = 1,
    budget: int | None = None,
) -> CountResult:
    """Number of n x n matrix pairs (A, B) over F_q satisfying the system.

    ``strategy`` is "auto", "linear" or "full".  q must be prime.  Raises
    :class:`clzeta.oracle.budget.BudgetExceededError` when the enumeration
    space exceeds the budget.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    if isinstance(system, str):
        system = parse_relations(system)
    uses_kernel = strategy in ("auto", "linear") and system.is_b_linear()
    if uses_kernel and not 2 <= q < KERNEL_Q_LIMIT:
        raise ValueError(f"the linear strategy needs 2 <= q < 2^31, got q = {q}")
    if not is_prime(q):
        raise ValueError("the matrix oracle supports prime q only")
    if n < 0:
        raise ValueError("n must be nonnegative")
    nn = n * n
    if uses_kernel and q**nn >= KERNEL_SPACE_LIMIT:
        raise ValueError(
            f"the linear strategy needs q^(n^2) < 2^63, got q = {q}, n = {n}"
        )

    if strategy == "auto":
        strategy = "linear" if system.is_b_linear() else "full"
    if strategy == "linear":
        if not system.is_b_linear():
            raise ValueError("relation system is not linear in B")
        _budget.check(
            "count_matrix_points", q**nn, budget, _budget.DEFAULT_MATRIX_BUDGET
        )
        return _count_linear(system, n, q, shards)
    if strategy == "full":
        _budget.check(
            "count_matrix_points[full]",
            q ** (2 * nn),
            budget,
            _budget.DEFAULT_FULL_BUDGET,
        )
        return _count_full(system, n, q)
    raise ValueError(f"unknown strategy {strategy!r}")


def matrix_point_series(
    system: RelationSystem | str,
    q: int,
    n_max: int,
    *,
    shards: int = 1,
    budget: int | None = None,
) -> TruncSeries:
    """The generating series sum_n |C_n| / |GL_n(F_q)| t^n up to t^n_max,
    with exact rational coefficients."""
    if isinstance(system, str):
        system = parse_relations(system)
    spec = VarSpec(("t",), (n_max + 1,))
    coeffs = {}
    for n in range(n_max + 1):
        c = count_matrix_points(system, n, q, shards=shards, budget=budget)
        coeffs[(n,)] = Fraction(c.value, gl_order(n, q))
    return TruncSeries(spec, coeffs)
