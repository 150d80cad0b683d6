"""Brute-force enumeration over finite modules of a discrete valuation ring.

A module of type lam over Z_p is the direct sum N of Z/p^(lam_i).  Elements
are coordinate tuples.  An endomorphism f is stored as a flat row-major
l x l tuple of integers, l = len(lam): entry (i, j) is the i-th coordinate
of f(e_j), and row i lives mod p^(lam_i).  Composition is the matrix product
of ``_kernels_py._mat_mul`` with one modulus per row, the same helper the
matrix oracle uses with every row mod p, since for N = (Z/p)^n End(N) is
M_n(F_p).  The tuple is a well-defined endomorphism exactly when
p^(lam_j) * f_ij = 0 mod p^(lam_i).  The allowed values of each entry are
found by filtering, and endomorphism counts are products of their numbers,
so the counts below are independent of the closed-form orders they are
tested against.

Automorphisms are counted through N/pN: by Nakayama's lemma f is invertible
iff its reduction mod p is.  The lifts of each column f(e_j) are grouped by
their residue vector mod p, and a depth-first walk over residue columns
extends a prefix only by a column outside its F_p-span.  A residue vector is
an integer code in base 2p - 1, so two codes add digit by digit without a
carry and one table of (2p - 1)^l entries reduces the sum mod p; a span is
an int bitmask over these codes plus the list of its codes, grown by the
cosets of each new residue.  Each leaf is a box of lifts, one fiber per
column, so |Aut| is the sum of the products of fiber sizes and
``automorphisms`` expands the same boxes.

Generating tuples are counted by Moebius inversion over the lattice of
submodules invariant under a set of endomorphisms (P. Hall, 1936): the
number of d-tuples generating N is the sum over members H of
mu(H, N) * |H|^d.  This depends on d only through |H|, so one walk gives the
Moebius size profile {|H|: sum of mu(H, N)} and every d is a sum over it
(``surj_probs`` and ``framing.stable_framing_stats_per_rank`` walk once for
all d).  With no endomorphisms the lattice is every subgroup and the count
gives the surjection probability; with a commuting pair (A, B) it gives the
stable framings of ``framing``.  The walk runs on element codes: element x
is its index 0..|N|-1 in ``elements()`` order, addition is one table per
module, an endomorphism is a code -> code table built linearly from the
images of the generators, and a subgroup is an int bitmask with bit x set
for each member x.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from ..arith import is_prime
from ..partitions import Partition, partitions
from ..series import qpoch_value
from . import budget as _budget
from ._kernels_py import _row_reduce
from .permutations import _compose


class PGroupModule:
    """Finite module over Z_p of type ``lam``: the direct sum of
    Z/p^(lam_i).  pi acts as multiplication by p."""

    def __init__(self, p: int, lam):
        if not is_prime(p):
            raise ValueError("p must be prime")
        if not isinstance(lam, Partition):
            lam = Partition(lam)
        self.p = p
        self.type = lam
        self.moduli = tuple(p**e for e in lam.parts)
        self.size = math.prod(self.moduli) if self.moduli else 1
        self._add_table = None

    def __repr__(self):
        return f"PGroupModule(p={self.p}, type={self.type.parts})"

    # -- elements -------------------------------------------------------

    def elements(self):
        """All coordinate tuples, in mixed-radix order."""
        return itertools.product(*(range(m) for m in self.moduli))

    @property
    def zero(self):
        return (0,) * len(self.moduli)

    def add(self, x, y):
        return tuple((a + b) % m for a, b, m in zip(x, y, self.moduli))

    def code(self, x) -> int:
        """The index of x in ``elements()`` order: mixed radix, the last
        coordinate least significant.  The zero element has code 0."""
        c = 0
        for v, m in zip(x, self.moduli):
            c = c * m + v
        return c

    def addition_table(self, budget: int | None = None):
        """Addition on element codes: ``table[x][y]`` is the code of x + y.

        Built once per module and kept.  Its |N|^2 entries are checked
        against the surjection budget first, on every call, and refused with
        BudgetExceededError before anything is allocated.
        """
        _budget.check("addition_table", self.size**2, budget, _budget.DEFAULT_SURJ_BUDGET)
        if self._add_table is None:
            # appending a coordinate mod m turns code c into c * m + a
            rows = [(0,)]
            for m in self.moduli:
                shifted = [[(a + b) % m for b in range(m)] for a in range(m)]
                rows = [
                    tuple(s * m + c for s in row for c in shifted[a])
                    for row in rows
                    for a in range(m)
                ]
            self._add_table = rows
        return self._add_table

    # -- endomorphisms ----------------------------------------------------

    def entry_choices(self) -> list[list[int]]:
        """For each entry (i, j), row-major, the values v mod p^(lam_i) with
        p^(lam_j) * v = 0: the i-th coordinates that e_j may map to."""
        return [
            [v for v in range(mi) if mj * v % mi == 0]
            for mi in self.moduli
            for mj in self.moduli
        ]

    def endo_count_bound(self) -> int:
        """Size of the endomorphism enumeration space,
        p^(sum_ij min(lam_i, lam_j))."""
        parts = self.type.parts
        return self.p ** sum(min(a, b) for a in parts for b in parts)

    def endomorphisms(self):
        """All endomorphisms, as flat row-major tuples."""
        return itertools.product(*self.entry_choices())

    def apply(self, endo, x):
        l = len(x)
        return tuple(
            sum(a * b for a, b in zip(endo[i * l : i * l + l], x)) % m
            for i, m in enumerate(self.moduli)
        )

    def endo_table(self, endo) -> tuple[int, ...]:
        """The map on element codes: entry x is the code of endo(x).

        Built one image coordinate at a time, most significant first:
        coordinate i of endo(x) over all x, in ``elements()`` order, grows
        one generator j at a time by the multiples of entry (i, j), and is
        appended to the codes as one more mixed-radix digit."""
        l = len(self.moduli)
        codes = [0]
        for i, m in enumerate(self.moduli):
            for j, mj in enumerate(self.moduli):
                steps = [endo[i * l + j] * a % m for a in range(mj)]
                vals = steps if j == 0 else [(v + s) % m for v in vals for s in steps]
            codes = vals if i == 0 else [c * m + v for c, v in zip(codes, vals)]
        return tuple(codes)

    def endo_invertible(self, endo) -> bool:
        """Invertibility via the induced map on N/pN (surjective iff
        bijective for a finite module)."""
        p = self.p
        l = len(self.moduli)
        rows = [[v % p for v in endo[i * l : i * l + l]] for i in range(l)]
        return _row_reduce(rows, l, p) == l

    def endo_bijective_bruteforce(self, endo) -> bool:
        """Bijectivity checked by applying the map to every element."""
        images = {self.apply(endo, x) for x in self.elements()}
        return len(images) == self.size


def enumerate_endomorphisms(
    module: PGroupModule,
    mode: str = "all",
    b: int | None = None,
    budget: int | None = None,
) -> int:
    """Count endomorphisms from the enumerated entry lists.

    mode: "all", "invertible", or "torsion" (with b >= 1, counting the maps
    killed by pi^b).  "all" and "torsion" multiply per-entry list sizes,
    since the entries are chosen independently; "invertible" sums the boxes
    of ``_aut_boxes``.
    """
    needed = module.endo_count_bound()
    _budget.check("enumerate_endomorphisms", needed, budget, _budget.DEFAULT_ENDO_BUDGET)
    if mode == "all":
        return math.prod(len(c) for c in module.entry_choices())
    if mode == "invertible":
        return _box_count(_aut_boxes(module))
    if mode == "torsion":
        if b is None or b < 1:
            raise ValueError("torsion mode needs b >= 1")
        # a map is killed by pi^b iff every entry is, row i mod p^(lam_i)
        pb = module.p**b
        row_moduli = [m for m in module.moduli for _ in module.moduli]
        return math.prod(
            sum(1 for v in c if pb * v % m == 0)
            for c, m in zip(module.entry_choices(), row_moduli)
        )
    raise ValueError(f"unknown mode {mode!r}")


def _aut_boxes(module: PGroupModule):
    """Yield the automorphisms as disjoint boxes: lists of column lifts, one
    list per column, whose every product is an automorphism.

    By Nakayama's lemma f is invertible iff f mod p is, i.e. iff the residue
    columns are linearly independent over F_p.  The lifts of column j, the
    products of the filtered entry choices (i, j), are grouped by residue.
    A residue vector is coded in base b = 2p - 1, whose digits hold the
    digitwise sum of two residues without a carry, so the code of r + s is
    ``mod_p[r + s]`` for one table of b^l entries.
    """
    p = module.p
    l = len(module.moduli)
    if l == 0:
        yield []
        return
    b = 2 * p - 1
    mod_p = [0]
    for _ in range(l):
        mod_p = [w * b + a % p for w in mod_p for a in range(b)]
    choices = module.entry_choices()
    fibers = []
    for j in range(l):
        by_residue: dict[int, list] = {}
        for col in itertools.product(*choices[j::l]):
            r = 0
            for v in col:
                r = r * b + v % p
            by_residue.setdefault(r, []).append(col)
        fibers.append(list(by_residue.items()))
    yield from _residue_walk(fibers, p, mod_p, 1, [0], [])


def _residue_walk(fibers, p, mod_p, mask, span, box):
    """Extend ``box``, the lift lists of columns 0..j-1 whose residues span
    the codes ``span`` (bit r of ``mask`` set for each member r), depth
    first: column j takes each residue outside the span in turn, and the
    last column keeps the lifts of all residues outside it."""
    j = len(box)
    if j == len(fibers) - 1:
        last = [col for r, lifts in fibers[j] if not mask >> r & 1 for col in lifts]
        if last:
            yield box + [last]
        return
    for r, lifts in fibers[j]:
        if mask >> r & 1:
            continue
        grown = list(span)
        c = r
        for _ in range(p - 1):  # the cosets span + c for c = r, 2r, ...
            grown += [mod_p[s + c] for s in span]
            c = mod_p[c + r]
        grown_mask = mask | sum(1 << s for s in grown[len(span) :])
        yield from _residue_walk(fibers, p, mod_p, grown_mask, grown, box + [lifts])


def automorphisms(module: PGroupModule, budget: int | None = None):
    """The invertible endomorphisms, as a sorted list (the order of
    ``endomorphisms()``)."""
    needed = module.endo_count_bound()
    _budget.check("automorphisms", needed, budget, _budget.DEFAULT_ENDO_BUDGET)
    return _expand(_aut_boxes(module))


def _box_count(boxes) -> int:
    """The number of maps in ``_aut_boxes``, listing none of them."""
    return sum(math.prod(map(len, box)) for box in boxes)


def _expand(boxes):
    """The maps of ``_aut_boxes``, as a sorted list of flat tuples."""
    return sorted(
        tuple(itertools.chain.from_iterable(zip(*cols)))
        for box in boxes
        for cols in itertools.product(*box)
    )


def module_groupoid_count(p: int, k: int, budget: int | None = None) -> Fraction:
    """Groupoid count of modules over Z_p[T] of size p^k: the sum over
    module types of |End| / |Aut|, both sides enumerated."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    total = Fraction(0)
    for lam in partitions(k):
        module = PGroupModule(p, lam)
        n_all = enumerate_endomorphisms(module, "all", budget=budget)
        n_inv = enumerate_endomorphisms(module, "invertible", budget=budget)
        total += Fraction(n_all, n_inv)
    return total


def conj_classes_aut(module: PGroupModule, budget: int | None = None) -> int:
    """Number of conjugacy classes of Aut(N), by walking the orbits of the
    conjugation action on the ``endo_table`` permutations.

    A set closed under conjugation by each member of a generating set is
    closed under the whole group, so an orbit is walked under
    ``_generating_set`` alone, 2 compositions per member and generator.

    |Aut| is counted from the boxes before any map is listed, and refused
    when it, or the |Aut| * |N| entries of the tables, exceed the budget.
    """
    needed = module.endo_count_bound()
    _budget.check("automorphisms", needed, budget, _budget.DEFAULT_ENDO_BUDGET)
    boxes = list(_aut_boxes(module))
    order = _box_count(boxes)
    _budget.check("conj_classes_aut", order, budget, _budget.DEFAULT_CONJ_BUDGET)
    tables = order * module.size
    _budget.check("conj_classes_aut tables", tables, budget, _budget.DEFAULT_SURJ_BUDGET)

    # one int object per code, shared by every table and composition, so
    # that each of the |Aut| * |N| entries costs one pointer
    codes = list(range(module.size))
    perms = [
        tuple(map(codes.__getitem__, module.endo_table(a))) for a in _expand(boxes)
    ]
    assert len(set(perms)) == len(perms)
    conjugators = []
    for g in _generating_set(perms, tuple(range(module.size))):
        inverse = [0] * len(g)
        for i, v in enumerate(g):
            inverse[v] = i
        conjugators.append((g, tuple(inverse)))

    seen: set[tuple[int, ...]] = set()
    classes = 0
    for x in perms:
        if x in seen:
            continue
        classes += 1
        seen.add(x)
        orbit = [x]
        for y in orbit:
            for g, g_inv in conjugators:
                z = _compose(_compose(g, y), g_inv)
                if z not in seen:
                    seen.add(z)
                    orbit.append(z)
    return classes


def _generating_set(perms, identity):
    """A generating set of the group of permutations ``perms``, chosen
    greedily: a member joins only when it lies outside the group generated
    by those chosen before it."""
    gens = []
    closure = {identity}
    for g in perms:
        if g in closure:
            continue
        gens.append(g)
        queue = list(closure)
        for x in queue:
            for h in gens:
                y = _compose(x, h)
                if y not in closure:
                    closure.add(y)
                    queue.append(y)
    return gens


def _join(add, maps, mask, elems, x):
    """The least submodule containing the invariant submodule H, given as
    its bitmask and its list of element codes, and the element x: H plus
    the additive span of the orbit of x under the code tables ``maps``.
    Each orbit element g outside the span so far adds the cosets
    span + c*g for c below its order modulo the span."""
    orbit = [x]
    seen = 1 << x
    for y in orbit:
        for t in maps:
            z = t[y]
            if not seen >> z & 1:
                seen |= 1 << z
                orbit.append(z)
    for g in orbit:
        if mask >> g & 1:
            continue
        new = []
        shift = g
        while not mask >> shift & 1:
            row = add[shift]
            new += [row[h] for h in elems]
            shift = row[g]
        elems = elems + new
        mask |= sum(1 << y for y in new)
    return mask, elems


def _invariant_lattice(module: PGroupModule, endos, budget: int | None = None):
    """All submodules of N invariant under ``endos``, as bitmasks over
    element codes, smallest first (so N is last).

    Walk from {0}: each member H is joined with one representative x of
    every coset x + H, since all of a coset give the same join, which is
    again invariant.  The Moebius pass over the result is quadratic in its
    length L, so the walk stops with BudgetExceededError once L^2 exceeds
    the surjection budget, as does the addition table when |N|^2 does.
    """
    limit = _budget.resolve(budget, _budget.DEFAULT_SURJ_BUDGET)
    add = module.addition_table(limit)
    maps = [module.endo_table(e) for e in endos]
    members = {1: [0]}  # bitmask -> element codes
    queue = [1]
    while queue:
        h = queue.pop()
        elems = members[h]
        covered = h
        for x in range(module.size):
            if covered >> x & 1:
                continue
            row = add[x]
            covered |= sum(1 << row[y] for y in elems)
            join, join_elems = _join(add, maps, h, elems, x)
            if join not in members:
                members[join] = join_elems
                if len(members) ** 2 > limit:
                    raise _budget.BudgetExceededError(
                        "invariant_lattice", len(members) ** 2, limit
                    )
                queue.append(join)
    return sorted(members, key=int.bit_count)


def _size_profile(
    module: PGroupModule, endos, budget: int | None = None
) -> dict[int, int]:
    """The Moebius size profile of the invariant submodules: for each size
    s, the sum of mu(H, N) over the members H with |H| = s.  Members of
    mu zero are left out."""
    lattice = _invariant_lattice(module, endos, budget)
    mu = [0] * len(lattice)
    mu[-1] = 1  # mu(N, N)
    for i in range(len(lattice) - 2, -1, -1):
        h = lattice[i]
        # members after h are at least as large, so h & k == h means h < k
        mu[i] = -sum(
            m for k, m in zip(lattice[i + 1 :], mu[i + 1 :]) if m and h & k == h
        )
    profile: dict[int, int] = {}
    for h, m in zip(lattice, mu):
        if m:
            size = h.bit_count()
            profile[size] = profile.get(size, 0) + m
    return profile


def generating_tuple_count(
    module: PGroupModule, endos, d: int, budget: int | None = None
) -> int:
    """Number of d-tuples of elements whose closure under addition and
    ``endos`` is all of N: the sum over invariant submodules H of
    mu(H, N) * |H|^d, since |H|^d counts the tuples lying in H.  It depends
    on d only through |H|, so it is summed over ``_size_profile``."""
    profile = _size_profile(module, endos, budget)
    return sum(m * size**d for size, m in profile.items())


@dataclass(frozen=True)
class SurjProbResult:
    enumerated: Fraction | None  # None when the enumeration exceeded budget
    closed_form: Fraction
    sample_space: int


def surj_probs(
    module: PGroupModule, ds, budget: int | None = None
) -> list[SurjProbResult]:
    """``surj_prob`` for each d in ``ds``, with one lattice walk for all of
    them: the subgroup lattice and its size profile do not depend on d."""
    ds = list(ds)
    if any(d < 0 for d in ds):
        raise ValueError("d must be nonnegative")
    p = module.p
    r = module.type.length
    limit = _budget.resolve(budget, _budget.DEFAULT_SURJ_BUDGET)
    spaces = [module.size**d for d in ds]
    profile = None
    if any(space <= limit for space in spaces):
        try:
            profile = _size_profile(module, (), limit)
        except _budget.BudgetExceededError:
            pass  # the lattice outgrew the budget: no d is enumerated
    results = []
    for d, space in zip(ds, spaces):
        if d < r:
            closed = Fraction(0)
        else:
            closed = qpoch_value(Fraction(1, p ** (d - r + 1)), Fraction(1, p), r)
        enumerated = None
        if space <= limit and profile is not None:
            generating = sum(m * size**d for size, m in profile.items())
            enumerated = Fraction(generating, space)
        results.append(SurjProbResult(enumerated, closed, space))
    return results


def surj_prob(module: PGroupModule, d: int, budget: int | None = None) -> SurjProbResult:
    """Probability that d uniformly random elements generate the module.

    The closed form is (q^-(d-r+1); q^-1)_r with r the minimal number of
    generators (the length of the type), and 0 when d < r.  The enumerated
    value is ``generating_tuple_count`` over the lattice of all subgroups,
    divided by |N|^d; it is skipped (None) when |N|^d exceeds the budget or
    the lattice outgrows it.
    """
    return surj_probs(module, (d,), budget)[0]
