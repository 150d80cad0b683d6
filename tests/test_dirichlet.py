"""Dirichlet-core: prefixes, zeta factories, Euler products, and the
polynomial-ring Cohen-Lenstra zeta."""

import hashlib
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clzeta.arith import (
    factorize,
    is_prime,
    is_prime_power,
    primes_up_to,
    smallest_prime_factors,
)
from clzeta.dirichlet import (
    LOCAL_K_MAX,
    _convolve,
    _max_exponent,
    _t_coefficients,
    _zeta_tower,
    _zeta_tower_factor,
    DirichletSeries,
    NonUnitFactorError,
    UnsupportedRingError,
    cohen_lenstra_local_zeta,
    dedekind_zeta,
    euler_product,
    local_cl_coefficient,
    polynomial_ring_cl_zeta,
    ring_FqPoly,
    ring_FqPowerSeries,
    ring_Z,
    ring_Zp,
    shift,
)
from clzeta.partitions import aut_order, partitions
from clzeta.formulas import euler_inverse_pochhammer, plane_series_from_points


@st.composite
def sparse_prefixes(draw):
    """A prefix of 1..60 int or Fraction entries with 0-90% forced zeros."""
    entry = st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=7))
    values = draw(st.lists(entry, min_size=1, max_size=60))
    zero_share = draw(st.integers(0, 9)) / 10
    rng = draw(st.randoms(use_true_random=False))
    return [0 if rng.random() < zero_share else v for v in values]


def _schoolbook(a, b, length):
    """Dirichlet convolution over every pair (d, e) with d*e <= length."""
    out = [0] * length
    for d in range(1, length + 1):
        for e in range(1, length + 1):
            if d * e <= length:
                out[d * e - 1] += a[d - 1] * b[e - 1]
    return out


class TestRings:
    def test_prime_powers(self):
        assert [n for n in range(1, 33) if is_prime_power(n)] == [
            2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32
        ]
        assert is_prime_power(2**31 - 1) and is_prime_power(3**19)
        assert not is_prime_power(2 * (2**31 - 1))
        # refused at the first divisor, with no search up to sqrt(n)
        assert not is_prime_power(2 * (2**61 - 1))
        assert not is_prime(2 * (2**61 - 1))

    def test_factorize(self):
        spf = smallest_prime_factors(600)
        for n in range(1, 600):
            fs = factorize(n, spf)
            assert [p for p, _ in fs] == sorted({p for p, _ in fs})
            assert all(is_prime(p) and e >= 1 for p, e in fs)
            assert math.prod(p**e for p, e in fs) == n

    def test_validation(self):
        with pytest.raises(ValueError):
            ring_Zp(4)
        with pytest.raises(ValueError):
            ring_FqPoly(6)
        ring_FqPoly(9)  # prime powers allowed
        with pytest.raises(UnsupportedRingError):
            ring_Z().residue_cardinality


class TestMul:
    def test_divisor_count(self):
        z = dedekind_zeta(ring_Z(), 12)
        zz = z * z
        assert zz[6] == 4
        assert zz[12] == 6

    def test_unit_identity(self):
        z = dedekind_zeta(ring_Z(), 10)
        assert z * DirichletSeries.unit(10) == z

    def test_zeta_times_shifted_square(self):
        z = dedekind_zeta(ring_Z(), 8)
        g = z * shift(z, 2, 0)
        assert g[4] == 2  # (1,4) and (4,1)

    @settings(max_examples=30)
    @given(
        st.lists(st.integers(-3, 3), min_size=6, max_size=6),
        st.lists(st.integers(-3, 3), min_size=6, max_size=6),
        st.lists(st.integers(-3, 3), min_size=6, max_size=6),
    )
    def test_commutative_associative(self, a, b, c):
        f, g, h = DirichletSeries(a), DirichletSeries(b), DirichletSeries(c)
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)

    @settings(max_examples=30)
    @given(
        st.lists(st.fractions(-3, 3, max_denominator=4), min_size=16, max_size=16),
        st.integers(1, 3),
        st.integers(-2, 2),
        st.integers(1, 3),
        st.integers(-2, 2),
    )
    def test_shift_composition(self, coeffs, m1, n1, m2, n2):
        # substituting s -> m1 s + n1 then s -> m2 s + n2 equals the single
        # substitution s -> m1 m2 s + (m1 n2 + n1)
        f = DirichletSeries(coeffs)
        lhs = shift(shift(f, m1, n1), m2, n2)
        rhs = shift(f, m1 * m2, m1 * n2 + n1)
        assert lhs == rhs


    @settings(max_examples=100)
    @given(sparse_prefixes(), sparse_prefixes(), st.data())
    def test_support_convolution_matches_schoolbook(self, a, b, data):
        n = min(len(a), len(b))
        length = data.draw(st.integers(1, n))
        assert _convolve(a, b, length) == _schoolbook(a, b, length)
        assert _convolve(b, a, length) == _schoolbook(a, b, length)
        assert DirichletSeries(a) * DirichletSeries(b) == DirichletSeries(
            _schoolbook(a, b, n)
        )


class TestConstructor:
    def test_values_are_kept_as_given_and_inexact_ones_refused(self):
        x = Fraction(2, 3)
        f = DirichletSeries([x, 1, Fraction(1, 3)])
        assert f.coefficients()[0] is x
        assert [type(c) for c in f.coefficients()] == [Fraction, int, Fraction]
        assert DirichletSeries(iter([1, 2])).coefficients() == (1, 2)
        for bad in (0.1, 1.0, "1/3"):
            with pytest.raises(TypeError):
                DirichletSeries([1, bad])
            with pytest.raises(TypeError):
                euler_product({2: [1, bad]}, 3)

    def test_empty_prefix_is_refused(self):
        with pytest.raises(ValueError):
            DirichletSeries([])
        with pytest.raises(ValueError):
            DirichletSeries(iter(()))


class TestShift:
    def test_inverse_weights(self):
        z = dedekind_zeta(ring_Z(), 10)
        g = shift(z, 1, 1)
        assert [g[n] for n in range(1, 6)] == [
            Fraction(1),
            Fraction(1, 2),
            Fraction(1, 3),
            Fraction(1, 4),
            Fraction(1, 5),
        ]

    def test_square_support(self):
        z = dedekind_zeta(ring_Z(), 10)
        g = shift(z, 2, 0)
        assert g[4] == 1
        assert g[2] == 0

    def test_combined(self):
        z = dedekind_zeta(ring_Z(), 10)
        g = shift(z, 2, 1)
        assert g[4] == Fraction(1, 2)

    def test_negative_shift(self):
        z = dedekind_zeta(ring_Z(), 10)
        g = shift(z, 1, -2)
        assert [g[n] for n in (1, 2, 3)] == [1, 4, 9]

    def test_identity_shift(self):
        z = dedekind_zeta(ring_Z(), 16)
        assert shift(z, 1, 0) == z

    def test_zero_shift_keeps_the_entries(self):
        # s -> m*s multiplies by j^0 = 1, so the entries are copied, not rebuilt
        f = DirichletSeries([Fraction(k, 3) for k in range(1, 17)])
        for m in (1, 2, 4):
            g = shift(f, m, 0)
            for j in range(1, 5):
                if j**m <= 16:
                    assert g.coefficients()[j**m - 1] is f.coefficients()[j - 1]


class TestDedekindZeta:
    def test_integers(self):
        z = dedekind_zeta(ring_Z(), 6)
        assert z.coefficients() == (1, 1, 1, 1, 1, 1)

    def test_p_adic(self):
        z = dedekind_zeta(ring_Zp(2), 10)
        assert [z[n] for n in range(1, 11)] == [1, 1, 0, 1, 0, 0, 0, 1, 0, 0]

    def test_polynomial_ring_counts_monics(self):
        z = dedekind_zeta(ring_FqPoly(3), 30)
        assert z[1] == 1
        assert z[3] == 3
        assert z[9] == 9
        assert z[27] == 27
        assert z[2] == 0 and z[6] == 0

    def test_power_series_ring(self):
        z = dedekind_zeta(ring_FqPowerSeries(4), 20)
        assert z[1] == 1 and z[4] == 1 and z[16] == 1
        assert z[2] == 0 and z[8] == 0


class TestEulerProduct:
    @staticmethod
    def _compact_local(series, p, length):
        """Extract [c_0, c_1, ...] in p^(-s) from a p-power-supported prefix."""
        out = [series[1]]
        n = p
        while n <= length:
            out.append(series[n])
            n *= p
        return out

    def test_rebuilds_riemann_zeta(self):
        # the product of the local zetas of Z_p over all primes is zeta_Z
        length = 30
        factors = {
            p: self._compact_local(dedekind_zeta(ring_Zp(p), length), p, length)
            for p in primes_up_to(length)
        }
        assert euler_product(factors, length) == dedekind_zeta(ring_Z(), length)

    def test_single_factor_support(self):
        series = euler_product({2: [Fraction(1), Fraction(5), Fraction(7)]}, 6)
        assert [series[n] for n in range(1, 7)] == [1, 5, 0, 7, 0, 0]

    def test_feit_fine_factors_match_polynomial_ring_zeta(self):
        length = 32
        factors = {}
        for p in primes_up_to(length):
            kmax = 0
            while p ** (kmax + 1) <= length:
                kmax += 1
            factors[p] = [local_cl_coefficient(p, k) for k in range(kmax + 1)]
        assert euler_product(factors, length) == polynomial_ring_cl_zeta(
            ring_Z(), length
        )

    def test_non_unit_factor(self):
        with pytest.raises(NonUnitFactorError):
            euler_product({2: [Fraction(2)]}, 4)
        with pytest.raises(ValueError):
            euler_product({4: [Fraction(1)]}, 4)

    def test_short_local_factor(self):
        with pytest.raises(ValueError):
            euler_product({2: [Fraction(1), Fraction(1)]}, 8)


class TestCohenLenstraLocal:
    def test_leading(self):
        z = cohen_lenstra_local_zeta(ring_Zp(3), 9)
        assert z[1] == 1

    def test_weight_of_order_p(self):
        for p in (2, 3, 5):
            z = cohen_lenstra_local_zeta(ring_Zp(p), p)
            assert z[p] == Fraction(1, p - 1)

    def test_order_p2_weight_is_partition_sum(self):
        for p in (2, 3):
            z = cohen_lenstra_local_zeta(ring_Zp(p), p * p)
            expected = sum(
                (1 / aut_order(lam, p) for lam in partitions(2)), Fraction(0)
            )
            assert z[p * p] == expected
            assert z[p * p] == Fraction(1, p * p - p) + Fraction(
                1, (p * p - 1) * (p * p - p)
            )

    def test_all_sizes_match_partition_sums(self):
        z = cohen_lenstra_local_zeta(ring_FqPowerSeries(2), 64)
        for k in range(1, 7):
            expected = sum(
                (1 / aut_order(lam, 2) for lam in partitions(k)), Fraction(0)
            )
            assert z[2**k] == expected

    def test_needs_local_ring(self):
        with pytest.raises(UnsupportedRingError):
            cohen_lenstra_local_zeta(ring_Z(), 10)


class TestPolynomialRingZeta:
    def test_leading_and_prime(self):
        zt = polynomial_ring_cl_zeta(ring_Z(), 16)
        assert zt[1] == 1
        for p in (2, 3, 5, 7, 11, 13):
            assert zt[p] == Fraction(p, p - 1)

    def test_multiplicativity(self):
        zt = polynomial_ring_cl_zeta(ring_Z(), 64)
        for m in range(2, 65):
            for n in range(2, 64 // m + 1):
                if math.gcd(m, n) == 1:
                    assert zt[m * n] == zt[m] * zt[n]

    def test_matches_local_coefficients(self):
        zt = polynomial_ring_cl_zeta(ring_Z(), 64)
        for p in primes_up_to(64):
            k = 1
            while p**k <= 64:
                assert zt[p**k] == local_cl_coefficient(p, k)
                k += 1

    @pytest.mark.parametrize("length", [1, 2, 3, 64, 300, 2048])
    def test_block_satisfies_the_zeta_recursion(self, length):
        # g = prod_{j >= 0} zeta_Z(s + j) satisfies g(s) = zeta_Z(s) g(s + 1),
        # which fixes g from a_1 = 1
        g = _zeta_tower(length)
        assert g == dedekind_zeta(ring_Z(), length) * shift(g, 1, 1)

    def test_two_term_tail_factors_match_the_series(self):
        length = 2048
        for p in primes_up_to(length):
            r = Fraction(1, p)
            series = euler_inverse_pochhammer(1, r, 1, _max_exponent(p, length) + 1)
            assert _zeta_tower_factor(p, length) == _t_coefficients(series)

    def test_prefix_digest_is_pinned(self):
        # sha256 of the prefix's JSON at 512 and at the benchmark's 2048
        pinned = {
            512: "6b0e5c11e68a4307add213a485b429ca8491c1d36780c3a432feabd1c06bd744",
            2048: "2f53ea6e5fd5040300d5e6556a2216b4e960c9f96d24e7d6027351fdd4d39cbd",
        }
        for length, digest in pinned.items():
            text = polynomial_ring_cl_zeta(ring_Z(), length).to_json()
            assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_function_field_case_is_feit_fine(self):
        # the prefix reads the Feit-Fine closed form; compare it with the
        # product over the closed points of the line
        for q in (2, 3):
            zt = polynomial_ring_cl_zeta(ring_FqPoly(q), q**4)
            ff = plane_series_from_points(q, 5)
            for k in range(5):
                if q**k <= q**4:
                    assert zt[q**k] == ff.coeff((k,))
            # indices that are not powers of q vanish
            assert all(
                zt[n] == 0
                for n in range(2, q**4 + 1)
                if not _is_q_power(n, q)
            )

    def test_unsupported_ring(self):
        with pytest.raises(UnsupportedRingError):
            polynomial_ring_cl_zeta(ring_Zp(2), 8)

    def test_weighted_partial_sums_grow_logarithmically(self):
        # Tauberian sanity check only: the simple pole at s=1 with residue
        # C = prod_{j>=2} zeta(j)^j makes the weighted sums sum a_n/n grow
        # like C log N; dyadic increments must increase monotonically toward
        # C log 2 while staying below it.
        length = 256
        zt = polynomial_ring_cl_zeta(ring_Z(), length)
        acc = Fraction(0)
        weighted = [Fraction(0)]
        for n in range(1, length + 1):
            acc += zt[n] / n
            weighted.append(acc)
        increments = [
            float(weighted[2 * m] - weighted[m]) for m in (8, 16, 32, 64, 128)
        ]
        constant = 1.0
        for j in range(2, 40):
            constant *= sum(1.0 / k**j for k in range(1, 2000)) ** j
        limit = constant * math.log(2)
        assert all(a < b for a, b in zip(increments, increments[1:]))
        assert all(0 < v < limit for v in increments)


def _is_q_power(n: int, q: int) -> bool:
    while n % q == 0:
        n //= q
    return n == 1


class TestLocalCoefficient:
    def test_base_cases(self):
        assert local_cl_coefficient(5, 0) == 1
        for p in (2, 3, 5):
            assert local_cl_coefficient(p, 1) == Fraction(p, p - 1)

    def test_against_module_enumeration(self):
        from clzeta.oracle import module_groupoid_count

        assert local_cl_coefficient(2, 2) == module_groupoid_count(2, 2)
        assert local_cl_coefficient(3, 2) == module_groupoid_count(3, 2)
        assert local_cl_coefficient(2, 3) == module_groupoid_count(2, 3)

    def test_bounds(self):
        # the largest admitted k for p = 2^61 - 1 still prints in decimal
        value = local_cl_coefficient(2305843009213693951, 20)
        assert len(str(value.denominator)) < 4300
        for p, k in [(2305843009213693951, 21), (2, LOCAL_K_MAX + 1), (101, 100)]:
            with pytest.raises(ValueError, match="too large"):
                local_cl_coefficient(p, k)


class TestNonpositiveLength:
    @pytest.mark.parametrize("length", [0, -3])
    def test_nonpositive_length_is_refused(self, length):
        z = dedekind_zeta(ring_Z(), 4)
        for build in (
            *(
                lambda r=r: dedekind_zeta(r, length)
                for r in (ring_Z(), ring_Zp(3), ring_FqPoly(4), ring_FqPowerSeries(2))
            ),
            lambda: cohen_lenstra_local_zeta(ring_Zp(2), length),
            lambda: euler_product({2: [1, 1]}, length),
            lambda: polynomial_ring_cl_zeta(ring_Z(), length),
            lambda: polynomial_ring_cl_zeta(ring_FqPoly(2), length),
            lambda: DirichletSeries.unit(length),
            lambda: shift(z, 1, 0, length=length),
        ):
            with pytest.raises(ValueError, match="length"):
                build()


class TestSerialization:
    def test_json_round_trip(self):
        z = polynomial_ring_cl_zeta(ring_Z(), 6)
        d = z.to_json_dict()
        assert d["N"] == 6
        assert d["a"][0] == "1/1"
        assert d["a"][1] == "2/1"
        assert DirichletSeries.from_json_dict(d) == z

    def test_index_contract(self):
        z = dedekind_zeta(ring_Z(), 4)
        with pytest.raises(IndexError):
            z[0]
        with pytest.raises(IndexError):
            z[5]
