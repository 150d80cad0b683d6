"""Endomorphism oracle: counts, automorphisms, torsion, surjectivity,
conjugacy classes, module groupoid counts."""

import hashlib
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from clzeta.oracle import (
    BudgetExceededError,
    PGroupModule,
    automorphisms,
    conj_classes_aut,
    enumerate_endomorphisms,
    module_groupoid_count,
    relation_points,
    surj_prob,
    surj_probs,
)
from clzeta.oracle._kernels_py import _mat_mul
from clzeta.oracle.endomorphisms import _invariant_lattice, generating_tuple_count
from clzeta.oracle.framing import _closure, _stable_tuple_count_direct
from clzeta.partitions import (
    Partition,
    aut_order,
    end_order,
    end_torsion_order,
    partitions_up_to,
)


class TestModuleBasics:
    def test_size_and_elements(self):
        m = PGroupModule(2, Partition((2, 1)))
        assert m.size == 8
        assert len(list(m.elements())) == 8

    def test_flat_maps_compose_apply_and_enumerate(self):
        # f, g run over all of End when it has at most 32 maps and over 16
        # sampled pairs otherwise (up to 3^9 maps for (Z/3)^3)
        rng = random.Random(0)
        for p in (2, 3):
            for lam in partitions_up_to(3):
                m = PGroupModule(p, lam)
                endos = list(m.endomorphisms())
                assert len(set(endos)) == len(endos) == end_order(lam, p)
                if len(endos) <= 32:
                    pairs = [(f, g) for f in endos for g in endos]
                else:
                    pairs = [(rng.choice(endos), rng.choice(endos)) for _ in range(16)]
                elems = list(m.elements())
                l = len(m.moduli)
                for f, g in pairs:
                    fg = _mat_mul(f, g, l, m.moduli)
                    for x in elems:
                        assert m.apply(fg, x) == m.apply(f, m.apply(g, x))
                for f in {f for f, _ in pairs}:
                    for x in elems:
                        for y in elems:
                            assert m.apply(f, m.add(x, y)) == m.add(
                                m.apply(f, x), m.apply(f, y)
                            )

    @pytest.mark.parametrize(
        ("p", "lam"),
        [(2, (2, 1)), (3, (2, 1)), (2, (3, 1)), (5, (1, 1)), (2, (2, 2, 1)), (3, (1,)), (2, ())],
    )
    def test_endo_table_is_apply_then_code(self, p, lam):
        m = PGroupModule(p, Partition(lam))
        for e in m.endomorphisms():
            assert m.endo_table(e) == tuple(m.code(m.apply(e, x)) for x in m.elements())


class TestCounts:
    def test_all_block_count(self):
        m = PGroupModule(2, Partition((2, 1)))
        assert enumerate_endomorphisms(m, "all") == 32

    def test_invertible_prime_field(self):
        m = PGroupModule(5, Partition((1,)))
        assert enumerate_endomorphisms(m, "invertible") == 4

    def test_invertible_matches_formula(self):
        m = PGroupModule(2, Partition((2, 1)))
        assert enumerate_endomorphisms(m, "invertible") == aut_order(
            Partition((2, 1)), 2
        )

    def test_invertible_equals_bruteforce_bijectivity(self):
        for p, lam in [(2, (2, 1)), (3, (1, 1)), (2, (2, 2))]:
            m = PGroupModule(p, Partition(lam))
            by_rank = [e for e in m.endomorphisms() if m.endo_invertible(e)]
            by_image = [
                e for e in m.endomorphisms() if m.endo_bijective_bruteforce(e)
            ]
            assert by_rank == by_image

    def test_torsion_counts(self):
        m = PGroupModule(2, Partition((2, 1)))
        assert enumerate_endomorphisms(m, "torsion", b=1) == 16
        assert enumerate_endomorphisms(m, "torsion", b=2) == 32
        m2 = PGroupModule(2, Partition((1, 1)))
        assert enumerate_endomorphisms(m2, "torsion", b=1) == 16

    def test_full_sweep_against_formulas(self):
        for p in (2, 3):
            for lam in partitions_up_to(4):
                m = PGroupModule(p, lam)
                if m.endo_count_bound() > 2**16:
                    continue
                assert enumerate_endomorphisms(m, "all") == end_order(lam, p)
                assert enumerate_endomorphisms(m, "invertible") == aut_order(lam, p)
                for b in (1, 2, 3):
                    assert enumerate_endomorphisms(
                        m, "torsion", b=b
                    ) == end_torsion_order(lam, b, p)

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            enumerate_endomorphisms(PGroupModule(3, Partition((1,) * 4)), "all")

    @staticmethod
    def _dfs_gate_modules():
        for p in (2, 3):
            for lam in partitions_up_to(4):
                m = PGroupModule(p, lam)
                if m.endo_count_bound() <= 3**8:
                    yield m
        for lam in ((1,), (2,), (1, 1)):
            yield PGroupModule(5, Partition(lam))

    def test_residue_walk_matches_per_map_tests(self):
        # the N/pN walk against the per-map rank test and brute-force
        # bijectivity, on every map of End
        for m in self._dfs_gate_modules():
            by_rank = [e for e in m.endomorphisms() if m.endo_invertible(e)]
            by_image = [e for e in m.endomorphisms() if m.endo_bijective_bruteforce(e)]
            auts = automorphisms(m)
            assert enumerate_endomorphisms(m, "invertible") == len(by_rank), m
            assert by_rank == by_image, m
            assert len(set(auts)) == len(auts), m
            assert auts == by_rank, m
        # (Z/5)^3 has 5^9 maps, too many to test one at a time: its count
        # against |GL_3(F_5)|
        m = PGroupModule(5, Partition((1, 1, 1)))
        assert enumerate_endomorphisms(m, "invertible") == 124 * 120 * 100

    def test_automorphism_lists_are_pinned(self):
        # sha256 over (p, type, automorphisms(m)) of every gate module, as
        # listed by the tuple-coded residue walk that preceded the
        # integer-coded one
        digest = hashlib.sha256()
        for m in self._dfs_gate_modules():
            digest.update(repr((m.p, m.type.parts, automorphisms(m))).encode())
        assert digest.hexdigest() == (
            "7bdcb092c4cbc407fd0ee8202460b498995399853a42c7931bec37b0749874c9"
        )

    def test_torsion_needs_b(self):
        with pytest.raises(ValueError):
            enumerate_endomorphisms(PGroupModule(2, Partition((1,))), "torsion")


class TestGroupoidCount:
    def test_base_cases(self):
        assert module_groupoid_count(2, 0) == 1
        for p in (2, 3, 5):
            assert module_groupoid_count(p, 1) == Fraction(p, p - 1)

    def test_order_p2(self):
        assert module_groupoid_count(2, 2) == Fraction(14, 3)
        assert module_groupoid_count(3, 2) == Fraction(3, 2) + Fraction(81, 48)


class TestConjClasses:
    def test_abelian_cases(self):
        for p in (2, 3, 5):
            assert conj_classes_aut(PGroupModule(p, Partition((1,)))) == p - 1
            assert conj_classes_aut(PGroupModule(p, Partition((2,)))) == p * p - p

    def test_gl2(self):
        assert conj_classes_aut(PGroupModule(2, Partition((1, 1)))) == 3
        assert conj_classes_aut(PGroupModule(3, Partition((1, 1)))) == 8

    def test_mixed_type(self):
        # Aut(Z/4 + Z/2) is dihedral of order 8, hence 5 classes
        assert conj_classes_aut(PGroupModule(2, Partition((2, 1)))) == 5

    def test_table_budget(self):
        # Aut(Z/9) has 6 maps, whose tables hold 6 * 9 = 54 entries
        m = PGroupModule(3, Partition((2,)))
        assert conj_classes_aut(m, budget=54) == 6
        with pytest.raises(BudgetExceededError, match="54 exceeds budget 53"):
            conj_classes_aut(m, budget=53)

    @pytest.mark.parametrize("n, p", [(2, 2), (2, 3), (2, 5), (3, 2)])
    def test_gl_class_numbers(self, n, p):
        # GL_n(F_p) has as many conjugacy classes as the x^n coefficient of
        # prod_{i >= 1} (1 - x^i) / (1 - p x^i) (Feit and Fine, 1960)
        coeffs = [1] + [0] * n
        for i in range(1, n + 1):
            coeffs = [c - (coeffs[k - i] if k >= i else 0) for k, c in enumerate(coeffs)]
            for k in range(i, n + 1):  # divide by 1 - p x^i
                coeffs[k] += p * coeffs[k - i]
        assert conj_classes_aut(PGroupModule(p, (1,) * n)) == coeffs[n]


class TestSurjProb:
    def test_single_generator(self):
        for p in (2, 3, 5):
            res = surj_prob(PGroupModule(p, Partition((1,))), 1)
            assert res.enumerated == res.closed_form == 1 - Fraction(1, p)

    def test_gl2_fraction(self):
        res = surj_prob(PGroupModule(2, Partition((1, 1))), 2)
        assert res.enumerated == res.closed_form == Fraction(3, 8)

    def test_mixed_module(self):
        res = surj_prob(PGroupModule(2, Partition((2, 1))), 2)
        assert res.enumerated == res.closed_form == Fraction(3, 8)

    def test_too_few_generators(self):
        res = surj_prob(PGroupModule(2, Partition((1, 1))), 1)
        assert res.closed_form == 0
        assert res.enumerated == 0

    def test_zero_module(self):
        res = surj_prob(PGroupModule(2, Partition(())), 0)
        assert res.enumerated == res.closed_form == 1

    def test_budget_skips_enumeration(self):
        res = surj_prob(PGroupModule(3, Partition((1,) * 4)), 4)
        assert res.enumerated is None
        assert res.closed_form > 0

    def test_addition_table_budget_skips_enumeration(self):
        # |N|^1 = 2^13 fits the default budget 2^24, but the addition table
        # would hold |N|^2 = 2^26 entries: refused before any allocation
        m = PGroupModule(2, Partition((1,) * 13))
        tracemalloc.start()
        try:
            res = surj_prob(m, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.enumerated is None
        assert m._add_table is None
        assert peak < 2**20
        with pytest.raises(BudgetExceededError):
            m.addition_table()

    def test_lattice_budget_skips_enumeration(self):
        # |N|^1 = 256 fits the budget, but (Z/2)^8 has far more than
        # 2^5 subgroups, so the lattice walk stops early
        res = surj_prob(PGroupModule(2, Partition((1,) * 8)), 1, budget=2**10)
        assert res.enumerated is None

    def test_tail_bound(self):
        for p in (2, 3):
            for lam in partitions_up_to(3):
                m = PGroupModule(p, lam)
                if m.size == 1:
                    continue
                for d in range(5):
                    res = surj_prob(m, d, budget=2**14)
                    bound = 2 * m.size * math.log(m.size) * 2.0 ** (-d)
                    assert float(1 - res.closed_form) <= bound

    @pytest.mark.parametrize("budget", [None, 2**6, 2**10, 2**14])
    def test_all_d_call_is_the_one_d_calls(self, budget):
        # 2^6 and 2^10 refuse |N|^d from d = 2 or 3 on, and the addition
        # tables or lattices of the larger modules outgrow them
        ds = range(6)
        skips = {"space": 0, "lattice": 0}
        for p in (2, 3):
            for lam in partitions_up_to(4):
                m = PGroupModule(p, lam)
                results = surj_probs(m, ds, budget=budget)
                assert results == [surj_prob(m, d, budget=budget) for d in ds]
                limit = budget or 2**24
                for r in results:
                    if r.enumerated is None:
                        skips["space" if r.sample_space > limit else "lattice"] += 1
        if budget in (2**6, 2**10):
            assert skips["space"] and skips["lattice"], skips

    def test_all_d_call_refuses_negative_d(self):
        with pytest.raises(ValueError):
            surj_probs(PGroupModule(2, Partition((1,))), [1, -1])


class TestGeneratingTupleCount:
    def test_lattice_sum_matches_per_tuple_closure(self):
        for p in (2, 3):
            for lam in partitions_up_to(3):
                m = PGroupModule(p, lam)
                for d in range(4):
                    assert generating_tuple_count(m, (), d) == _stable_tuple_count_direct(
                        m, (), d
                    )


class TestInvariantLattice:
    @staticmethod
    def _members(m, lattice):
        return [frozenset(x for x in range(m.size) if h >> x & 1) for h in lattice]

    @pytest.mark.parametrize(
        ("p", "lam", "count"),
        [
            (2, (1, 1), 5),
            (2, (1, 1, 1), 16),
            (2, (1, 1, 1, 1), 67),
            (3, (1, 1), 6),
            (3, (1, 1, 1), 28),
            (3, (1, 1, 1, 1), 212),
            (2, (2, 1), 8),
        ],
    )
    def test_subgroup_counts_and_closure(self, p, lam, count):
        m = PGroupModule(p, Partition(lam))
        add = m.addition_table()
        members = self._members(m, _invariant_lattice(m, ()))
        assert len(members) == len(set(members)) == count
        assert members[0] == {0} and len(members[-1]) == m.size
        for h in members:
            assert all(add[x][y] in h for x in h for y in h)

    def test_addition_table_is_addition_on_codes(self):
        for p, lam in [(2, (2, 1)), (3, (1, 1)), (2, (3, 2, 1))]:
            m = PGroupModule(p, Partition(lam))
            elems = list(m.elements())
            assert [m.code(x) for x in elems] == list(range(m.size))
            add = m.addition_table()
            for x in elems:
                for y in elems:
                    assert elems[add[m.code(x)][m.code(y)]] == m.add(x, y)

    def test_invariant_members_are_the_closures(self):
        # every member is closed under addition and each endomorphism table,
        # and the members are exactly the closures of all subsets of N
        for p, lam in [(2, (2, 1)), (3, (1, 1))]:
            m = PGroupModule(p, Partition(lam))
            add = m.addition_table()
            elems = list(m.elements())
            for a, b in relation_points("A*B - B*A", m)[::97]:
                tables = [m.endo_table(a), m.endo_table(b)]
                members = self._members(m, _invariant_lattice(m, (a, b)))
                for h in members:
                    assert all(add[x][y] in h for x in h for y in h)
                    assert all(t[x] in h for t in tables for x in h)
                subsets = (
                    [x for i, x in enumerate(elems) if s >> i & 1]
                    for s in range(2**m.size)
                )
                closures = {
                    frozenset(map(m.code, _closure(m, gens, (a, b)))) for gens in subsets
                }
                assert set(members) == closures
