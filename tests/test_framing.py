"""Framed counting: stability, freeness, Quot counts."""

from fractions import Fraction

import pytest

from clzeta.oracle import (
    PGroupModule,
    count_matrix_points,
    relation_points,
    stable_framing_stats,
    stable_framing_stats_per_rank,
)
from clzeta.oracle.endomorphisms import generating_tuple_count
from clzeta.oracle.framing import _stable_tuple_count_direct
from clzeta.partitions import Partition


class TestRelationPoints:
    def test_commuting_pairs_on_vector_space(self):
        m = PGroupModule(2, Partition((1, 1)))
        points = relation_points("A*B - B*A", m)
        assert len(points) == 88

    def test_scalar_case(self):
        m = PGroupModule(2, Partition((1,)))
        assert len(relation_points("A*B - B*A", m)) == 4
        assert len(relation_points("A*B - B*A, A*B", m)) == 3

    def test_mixed_module_torsion_relation(self):
        # pairs (A, B) with AB = BA and 2B = 0 inside End(Z/4 + Z/2)
        m = PGroupModule(2, Partition((2, 1)))
        points = relation_points("A*B - B*A, 2*B", m)
        assert len(points) == 176
        for a, b in points:
            for x in m.elements():
                assert m.apply(b, m.add(x, x)) == m.zero

    @pytest.mark.parametrize(
        ("rel", "n", "q"),
        [
            ("A*B - B*A", 1, 2),
            ("A*B - B*A", 1, 3),
            ("A*B - B*A", 1, 5),
            ("A*B - B*A", 2, 2),
            ("A*B - B*A, A^2", 2, 2),
            ("A*B - B*A, A*B", 2, 2),
            ("A*B - B*A, A^2*B", 2, 2),
        ],
    )
    def test_vector_space_matches_linear_kernel(self, rel, n, q):
        # End((Z/q)^n) is M_n(F_q): the module oracle and the independent
        # linear-in-B kernel count the same pairs
        points = relation_points(rel, PGroupModule(q, Partition((1,) * n)))
        assert len(points) == count_matrix_points(rel, n, q, strategy="linear").value

    @pytest.mark.parametrize(
        ("p", "lam", "counts"),
        [
            (2, (2, 1), (352, 176, 6, 32)),
            (3, (1, 1), (945, 81, 110, 81)),
            (3, (2,), (81, 9, 2, 9)),
        ],
    )
    def test_counts_on_mixed_and_cyclic_modules(self, p, lam, counts):
        m = PGroupModule(p, Partition(lam))
        rels = ("A*B - B*A", "A*B - B*A, 2*B", "A^2 - 1, B*A - 2*A*B", "B*B - A")
        assert tuple(len(relation_points(r, m)) for r in rels) == counts


class TestStability:
    def test_rank_zero_framing(self):
        m = PGroupModule(2, Partition((1,)))
        stats = stable_framing_stats("A*B - B*A", m, 0)
        assert stats.stable == 0
        assert stats.total == 4

    def test_scalar_rank_one(self):
        # 1x1 commuting pairs with one framing vector: v must be nonzero
        m = PGroupModule(2, Partition((1,)))
        stats = stable_framing_stats("A*B - B*A", m, 1)
        assert stats.total == 8
        assert stats.stable == 4
        assert stats.aut_order == 1
        assert stats.quot_count == 4

    @staticmethod
    def _assert_lattice_sum_is_direct(m, ds):
        points = relation_points("A*B - B*A", m)
        for d in ds:
            lattice = sum(generating_tuple_count(m, (a, b), d) for a, b in points)
            direct = sum(_stable_tuple_count_direct(m, (a, b), d) for a, b in points)
            assert lattice == direct
            assert stable_framing_stats("A*B - B*A", m, d).stable == lattice

    def test_methods_agree(self):
        self._assert_lattice_sum_is_direct(PGroupModule(2, Partition((1, 1))), (1, 2, 3))

    def test_methods_agree_mixed_module(self):
        self._assert_lattice_sum_is_direct(PGroupModule(2, Partition((2,))), (1, 2))

    def test_tuple_counters_agree_per_point(self):
        for p, lam in [(2, (1, 1)), (2, (2, 1)), (3, (1, 1))]:
            m = PGroupModule(p, Partition(lam))
            for a, b in relation_points("A*B - B*A", m)[:20]:
                for d in (1, 2):
                    assert generating_tuple_count(
                        m, (a, b), d
                    ) == _stable_tuple_count_direct(m, (a, b), d)

    @pytest.mark.parametrize("lam", [(1, 1), (2, 1)])
    def test_all_rank_call(self, lam):
        # the all-d call against the one-d calls for d <= 5, and for d <= 3
        # against the per-tuple closure at every point
        m = PGroupModule(2, Partition(lam))
        ds = range(6)
        per_rank = stable_framing_stats_per_rank("A*B - B*A", m, ds)
        assert per_rank == [stable_framing_stats("A*B - B*A", m, d) for d in ds]
        points = relation_points("A*B - B*A", m)
        for d in range(4):
            direct = [_stable_tuple_count_direct(m, (a, b), d) for a, b in points]
            assert [generating_tuple_count(m, (a, b), d) for a, b in points] == direct
            assert per_rank[d].stable == sum(direct)

    def test_freeness_divisibility(self):
        m = PGroupModule(2, Partition((1, 1)))
        for d in range(1, 6):
            stats = stable_framing_stats("A*B - B*A", m, d)
            assert stats.stable % stats.aut_order == 0

    def test_quot_counts_converge_from_below(self):
        m = PGroupModule(2, Partition((1, 1)))
        coh = Fraction(88, 6)
        previous = Fraction(0)
        for d in range(1, 7):
            stats = stable_framing_stats("A*B - B*A", m, d)
            ratio = Fraction(stats.quot_count, m.size**d)
            assert previous <= ratio <= coh
            previous = ratio


class TestInvalid:
    def test_negative_rank(self):
        m = PGroupModule(2, Partition((1,)))
        with pytest.raises(ValueError):
            stable_framing_stats("A*B - B*A", m, -1)
        with pytest.raises(ValueError):
            stable_framing_stats_per_rank("A*B - B*A", m, [2, -1])
