"""Framed counting: matrix/endomorphism points together with generator
tuples, and the induced submodule ("Quot") counts.

A framing of rank d of a module structure (N, A, B) is a d-tuple of elements
of N; it is stable when the elements generate N over the twisted action,
i.e. when the closure of the tuple under addition and under applying A and B
is all of N.  The automorphism group of N acts freely on stable framed
points, so their number divided by |Aut(N)| is an integer, the number of
finite-index submodules of the rank-d free module with quotient N.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import budget as _budget
from .endomorphisms import PGroupModule, _size_profile, enumerate_endomorphisms
from .matrix_points import _relation_pairs
from .relations import RelationSystem, parse_relations


@dataclass(frozen=True)
class FramingStats:
    total: int  # |C_N(R)| * |N|^d
    stable: int  # framed points whose framing generates
    aut_order: int
    quot_count: int  # stable / aut_order; the division is exact
    points: int  # |C_N(R)|


def relation_points(
    system: RelationSystem | str, module: PGroupModule, budget: int | None = None
):
    """All pairs (A, B) of endomorphisms of N satisfying the relations."""
    if isinstance(system, str):
        system = parse_relations(system)
    bound = module.endo_count_bound()
    _budget.check("relation_points", bound * bound, budget, _budget.DEFAULT_ENDO_BUDGET)
    endos = list(module.endomorphisms())
    return list(_relation_pairs(system, endos, len(module.moduli), module.moduli))


def _closure(module: PGroupModule, gens, endos):
    """Smallest subset containing gens, closed under addition and under the
    given endomorphisms (the generated twisted submodule).

    Worklist closure: when an element is processed it is summed with
    everything already reached and pushed through each endomorphism, so every
    pair of reached elements is eventually combined."""
    seen = {module.zero}
    queue = [module.zero]
    for g in gens:
        if g not in seen:
            seen.add(g)
            queue.append(g)
    while queue:
        x = queue.pop()
        new = [module.apply(e, x) for e in endos]
        new.extend(module.add(x, y) for y in list(seen))
        for y in new:
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return frozenset(seen)


def _stable_tuple_count_direct(module: PGroupModule, endos, d: int) -> int:
    """Reference implementation: walk every tuple and test whether its
    closure under addition and ``endos`` is N.  The closure is built one
    element at a time, as closure(S + x) = closure(closure(S) + x)."""
    elems = list(module.elements())
    cache: dict[frozenset, frozenset] = {}

    def close(span, x):
        if x in span:
            return span
        key = span | {x}
        got = cache.get(key)
        if got is None:
            got = cache[key] = _closure(module, key, endos)
        return got

    def walk(span, k):
        if k == d:
            return int(len(span) == module.size)
        return sum(walk(close(span, x), k + 1) for x in elems)

    return walk(_closure(module, (), endos), 0)


def stable_framing_stats_per_rank(
    system: RelationSystem | str,
    module: PGroupModule,
    ds,
    *,
    budget: int | None = None,
) -> list[FramingStats]:
    """``stable_framing_stats`` for each rank d in ``ds``.  The relation
    points, |Aut| and each point's invariant lattice are found once: the
    stable count of a point is the sum of m * s^d over the Moebius size
    profile of its lattice, and the profiles of all points add up."""
    if isinstance(system, str):
        system = parse_relations(system)
    ds = list(ds)
    if any(d < 0 for d in ds):
        raise ValueError("d must be nonnegative")
    points = relation_points(system, module, budget=budget)
    aut_order = enumerate_endomorphisms(module, "invertible", budget=budget)
    profile: dict[int, int] = {}
    for A, B in points:
        for size, m in _size_profile(module, (A, B), budget).items():
            profile[size] = profile.get(size, 0) + m
    results = []
    for d in ds:
        stable = sum(m * size**d for size, m in profile.items())
        if stable % aut_order:
            raise AssertionError(
                "free-action invariant violated: |Aut| does not divide the stable count"
            )
        results.append(
            FramingStats(
                total=len(points) * module.size**d,
                stable=stable,
                aut_order=aut_order,
                quot_count=stable // aut_order,
                points=len(points),
            )
        )
    return results


def stable_framing_stats(
    system: RelationSystem | str,
    module: PGroupModule,
    d: int,
    *,
    budget: int | None = None,
) -> FramingStats:
    """Count framed relation points and the stable ones among them, the
    latter per point by Moebius inversion over its invariant submodules."""
    return stable_framing_stats_per_rank(system, module, (d,), budget=budget)[0]
