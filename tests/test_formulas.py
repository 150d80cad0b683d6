"""Formula bank: closed forms against independent recomputations.

The oracle comparisons at matrix scale live in the acceptance suite; here
the constructors are checked against direct partition sums, against each
other, and on their stated low-degree values.
"""

from fractions import Fraction

import pytest

from clzeta.formulas import (
    dvr_polynomial_local_series,
    euler_inverse_pochhammer,
    fat_line_series,
    feit_fine_series,
    line_series,
    nonreduced_node_local_series,
    nonreduced_node_plane_series,
    normalized_rank_series,
    normalized_rank_series_at_powers,
    plane_series_from_points,
    pochhammer_inf_specialized,
    rank_series_at_powers,
    rank_series_hypergeometric,
    rank_series_partition_sum,
    count_irreducibles,
)
from clzeta import verify
from clzeta.partitions import partitions_up_to
from clzeta.series import TruncSeries, VarSpec, qpoch_value


def t_coeffs(series, upto):
    return [series.coeff((n,)) for n in range(upto)]


class TestEulerResummation:
    def test_coefficients_are_complete_homogeneous_sums(self):
        c, r, T = Fraction(1), Fraction(1, 3), 8
        euler = euler_inverse_pochhammer(c, r, 1, T)
        for m in range(T):
            assert euler.coeff((m,)) == Fraction(1) / qpoch_value(r, r, m)

    def test_finite_prefix_splits_off(self):
        # prod_{j<J}(1 - c t r^j) * prod_{j>=0} 1/(1 - c t r^j) equals the
        # resummed tail prod_{j>=0} 1/(1 - (c r^J) t r^j), an exact identity
        # the window sees in full
        c, r, T, J = Fraction(2), Fraction(1, 3), 8, 3
        spec = VarSpec(("t",), (T,))
        prefix = TruncSeries.one(spec)
        cur = c
        for _ in range(J):
            prefix = prefix * (1 - TruncSeries.monomial(spec, (1,), cur))
            cur *= r
        lhs = prefix * euler_inverse_pochhammer(c, r, 1, T)
        rhs = euler_inverse_pochhammer(c * r**J, r, 1, T)
        assert lhs == rhs

    def test_geometric_case(self):
        # with r = 0 the product degenerates to a single factor
        s = euler_inverse_pochhammer(Fraction(2), Fraction(0), 1, 5)
        assert t_coeffs(s, 5) == [1, 2, 4, 8, 16]


class TestLowDegreeValues:
    def test_line(self):
        for q in (2, 3, 5):
            s = line_series(q, 3)
            assert s.coeff((0,)) == 1
            assert s.coeff((1,)) == Fraction(q, q - 1)

    def test_fat_line_linear_independent_of_b(self):
        for q in (2, 3):
            for b in (1, 2, 3, 5):
                assert fat_line_series(b, q, 2).coeff((1,)) == Fraction(q, q - 1)

    def test_fat_line_b1_is_line(self):
        assert fat_line_series(1, 3, 7) == line_series(3, 7)

    def test_fat_line_stabilizes_to_local(self):
        # parts <= b is no constraint once b >= the window
        for q in (2, 3):
            local = dvr_polynomial_local_series(q, 6)
            for b in (5, 6, 9):
                assert fat_line_series(b, q, 6) == local

    def test_dvr_local_linear_term(self):
        for q in (2, 3, 5):
            assert dvr_polynomial_local_series(q, 2).coeff((1,)) == Fraction(q, q - 1)

    def test_plane_linear_term(self):
        for q in (2, 3, 5):
            assert plane_series_from_points(q, 2).coeff((1,)) == Fraction(
                q * q, q - 1
            )

    def test_feit_fine_values(self):
        assert feit_fine_series(3, 2).coeff((1,)) == Fraction(9, 2)
        assert feit_fine_series(2, 1).coeff((0,)) == 1

    def test_nonred_node_linear_term(self):
        for q in (2, 3, 5):
            for b in (1, 2):
                s = nonreduced_node_plane_series(b, q, 2)
                assert s.coeff((1,)) == Fraction(2 * q - 1, q - 1)

    def test_local_node_linear_term(self):
        for q in (2, 3, 5):
            for b in (1, 2):
                s = nonreduced_node_local_series(b, q, 2)
                assert s.coeff((0,)) == 1
                assert s.coeff((1,)) == Fraction(q, q - 1)


class TestReindexingAssembly:
    def test_points_assembly_equals_feit_fine(self):
        for q in (2, 3):
            assert plane_series_from_points(q, 6) == feit_fine_series(q, 6)

    def test_points_assembly_at_prime_powers(self):
        # the necklace identity behind the assembly holds for any integer
        # base, prime powers included
        for q in (4, 5, 8):
            assert plane_series_from_points(q, 7) == feit_fine_series(q, 7)

    def test_irreducible_counts(self):
        assert [count_irreducibles(2, d) for d in (1, 2, 3, 4)] == [2, 1, 2, 3]
        assert [count_irreducibles(3, d) for d in (1, 2, 3)] == [3, 3, 8]


class TestLocalNodePartitionSum:
    def test_against_direct_partition_sum(self):
        # sum over lam of q^(-sum_{i>b} lam'_i^2) / prod (1/q;1/q)_{m_i}
        # t^|lam|, computed directly from partition statistics
        T = 6
        spec = VarSpec(("t",), (T,))
        for q in (2, 3):
            r = Fraction(1, q)
            for b in (1, 2, 3):
                direct = TruncSeries.zero(spec)
                for lam in partitions_up_to(T - 1):
                    weight = Fraction(q) ** (
                        -sum(c * c for c in lam.transpose().parts[b:])
                    )
                    for m in lam.multiplicities().values():
                        weight /= qpoch_value(r, r, m)
                    direct = direct + TruncSeries.monomial(spec, (lam.size,), weight)
                assert nonreduced_node_local_series(b, q, T) == direct, (q, b)

    def test_factorization(self):
        for q in (2, 3):
            for b in (1, 2):
                lhs = nonreduced_node_local_series(b, q, 5)
                rhs = fat_line_series(b, q, 5) * rank_series_at_powers(b, q, 5)
                assert lhs == rhs

    def test_rank_series_at_powers_vs_partition_definition(self):
        # the k-sum over Durfee sides must match the defining sum over
        # partitions with u set to t^b and q inverted
        T = 7
        spec = VarSpec(("t",), (T,))
        for q in (2, 3):
            r = Fraction(1, q)
            for b in (1, 2):
                direct = TruncSeries.zero(spec)
                for lam in partitions_up_to(T - 1):
                    degree = lam.size + b * lam.length
                    if degree >= T:
                        continue
                    weight = r ** sum(c * c for c in lam.transpose().parts)
                    for m in lam.multiplicities().values():
                        weight /= qpoch_value(r, r, m)
                    direct = direct + TruncSeries.monomial(spec, (degree,), weight)
                assert rank_series_at_powers(b, q, T) == direct, (q, b)


class TestRatioIdentity:
    def test_plane_over_line_and_fat_line(self):
        for q in (2, 3):
            for b in (1, 2):
                plane = nonreduced_node_plane_series(b, q, 5)
                denom = line_series(q, 5) * fat_line_series(b, q, 5)
                ratio = plane * denom.inverse()
                assert ratio == normalized_rank_series_at_powers(b, q, 5)


class TestPositivity:
    def test_all_coefficients_positive(self):
        for q in (2, 3, Fraction(5, 2)):
            for series in (
                line_series(q, 6),
                fat_line_series(2, q, 6),
                dvr_polynomial_local_series(q, 6),
                feit_fine_series(q, 6),
                nonreduced_node_local_series(2, q, 6),
                nonreduced_node_plane_series(2, q, 6),
            ):
                assert series.coeff((0,)) == 1
                for n in range(6):
                    assert series.coeff((n,)) > 0


class TestRankSeries:
    def test_leading_terms(self):
        z = rank_series_partition_sum(4, 4, 10)
        assert z.coeff((0, 0, 0)) == 1
        # t^1 u^1 coefficient is q/(1-q) as a q-series: q + q^2 + ...
        assert z.coeff((1, 1, 0)) == 0
        for k in range(1, 10):
            assert z.coeff((1, 1, k)) == 1

    def test_forms_agree_small(self):
        assert rank_series_partition_sum(6, 6, 12) == rank_series_hypergeometric(
            6, 6, 12
        )

    def test_normalized_leading(self):
        h = normalized_rank_series(5, 5, 12)
        assert h.coeff((0, 0, 0)) == 1

    def test_normalized_is_product(self):
        from clzeta.series import INF, pochhammer

        t_order, u_order, q_order = 6, 6, 14
        spec = VarSpec(("t", "u", "q"), (t_order, u_order, q_order))
        tq = TruncSeries.monomial(spec, (1, 0, 1))
        lhs = normalized_rank_series(t_order, u_order, q_order)
        rhs = pochhammer(tq, "q", INF) * rank_series_partition_sum(
            t_order, u_order, q_order
        )
        assert lhs == rhs


class TestDivisionAgainstGenericInverse:
    """The one-pass divisions in the formulas against the generic inverse."""

    @pytest.mark.parametrize(
        "c, r, t_order",
        [(1, Fraction(1, 2), 8), (Fraction(1, 3), Fraction(1, 3), 6),
         (Fraction(-2, 5), Fraction(1, 7), 5), (3, Fraction(2, 3), 4), (1, Fraction(1, 2), 1)],
    )
    def test_euler_second_identity(self, c, r, t_order):
        assert pochhammer_inf_specialized(c, r, t_order) == (
            euler_inverse_pochhammer(c, r, 1, t_order).inverse()
        )

    @pytest.mark.parametrize("b, q", [(1, 2), (2, 3), (3, Fraction(5, 2))])
    def test_rank_series_at_powers(self, b, q):
        t_order = 7
        spec = VarSpec(("t",), (t_order,))
        r = 1 / Fraction(q)
        expected = TruncSeries.zero(spec)
        for k in range(t_order // (b + 1) + 1):
            finite = TruncSeries.one(spec)
            for j in range(1, k + 1):
                finite = finite * (1 - TruncSeries.monomial(spec, (1,), r**j))
            head = TruncSeries.monomial(
                spec, ((b + 1) * k,), r ** (k * k) / qpoch_value(r, r, k)
            )
            expected = expected + head * finite.inverse()
        assert rank_series_at_powers(b, q, t_order) == expected


class TestNoGenericInverse:
    """The rank series and the identity suites divide by q-Pochhammer factors
    one binomial at a time; none of them may fall back on the generic
    :meth:`TruncSeries.inverse`."""

    @pytest.fixture(autouse=True)
    def no_inverse(self, monkeypatch):
        def refuse(self):
            raise AssertionError("generic TruncSeries.inverse called")

        monkeypatch.setattr(TruncSeries, "inverse", refuse)

    def test_rank_series(self):
        for build in (
            rank_series_partition_sum,
            rank_series_hypergeometric,
            normalized_rank_series,
        ):
            assert build(5, 5, 10).coeff((0, 0, 0)) == 1

    def test_specialized_rank_series(self):
        assert rank_series_at_powers(2, 3, 6).coeff((0,)) == 1
        assert normalized_rank_series_at_powers(2, 3, 6).coeff((0,)) == 1

    @pytest.mark.parametrize(
        "suite, kwargs",
        [
            (verify.suite_u_collapse, {"t_order": 6, "q_order": 10}),
            (verify.suite_euler_identity, {"t_order": 6, "q_order": 10}),
            (verify.suite_durfee_identities, {"k_max": 3, "window": 10}),
        ],
    )
    def test_identity_suites(self, suite, kwargs):
        checks = suite(**kwargs)
        assert checks and all(c.passed for c in checks)


class TestDepthFourOracle:
    """Degree-4 comparisons at q=2 (beyond the acceptance window); the scan
    over 2^16 matrices runs only when the compiled kernel is present."""

    @pytest.fixture(autouse=True)
    def _needs_kernel(self):
        from clzeta.oracle import KERNEL_COMPILED

        if not KERNEL_COMPILED:
            pytest.skip("compiled kernel not built")

    def test_fat_line_t4(self):
        from clzeta.oracle import count_matrix_points, gl_order

        for b in (1, 2, 3):
            formula = fat_line_series(b, 2, 5)
            count = count_matrix_points(f"A*B - B*A, A^{b}", 4, 2)
            assert formula.coeff((4,)) == Fraction(count.value, gl_order(4, 2)), b

    def test_nonred_node_t4(self):
        from clzeta.oracle import count_matrix_points, gl_order

        for b in (1, 2, 3):
            formula = nonreduced_node_plane_series(b, 2, 5)
            count = count_matrix_points(f"A*B - B*A, A^{b}*B", 4, 2)
            assert formula.coeff((4,)) == Fraction(count.value, gl_order(4, 2)), b


class TestValidation:
    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            fat_line_series(0, 2, 4)
        with pytest.raises(ValueError):
            line_series(1, 4)
        with pytest.raises(ValueError):
            plane_series_from_points(Fraction(5, 2), 4)
        for q in (1, 6, 12):
            with pytest.raises(ValueError, match="prime power"):
                plane_series_from_points(q, 4)
