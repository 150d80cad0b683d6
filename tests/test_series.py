"""Series-core: exact truncated multivariate arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clzeta.series import (
    ALLOWED_VARS,
    INF,
    DivergentProductError,
    IncompatibleSpecError,
    NotInvertibleError,
    OutOfWindowError,
    TruncSeries,
    VarSpec,
    inverse_pochhammer,
    pochhammer,
    qpoch_value,
)

T10 = VarSpec(("t",), (10,))
TQ = VarSpec(("t", "q"), (6, 8))


def t_series(spec, *pairs):
    return TruncSeries(spec, {e: Fraction(c) for e, c in pairs})


def naive_poly_mul(a: dict, b: dict, orders) -> dict:
    """Independent convolution oracle over plain dicts."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            if all(x < o for x, o in zip(e, orders)):
                out[e] = out.get(e, Fraction(0)) + ca * cb
    return {e: c for e, c in out.items() if c}


class TestVarSpec:
    def test_rejects_bad_names(self):
        with pytest.raises(ValueError):
            VarSpec(("x",), (5,))
        with pytest.raises(ValueError):
            VarSpec(("t", "t"), (5, 5))
        with pytest.raises(ValueError):
            VarSpec(("t",), (0,))

    def test_window(self):
        assert TQ.window_size() == 48
        assert TQ.in_window((5, 7))
        assert not TQ.in_window((6, 0))


class TestMul:
    def test_telescoping(self):
        one_minus_t = t_series(T10, ((0,), 1), ((1,), -1))
        geom = TruncSeries(T10, {(n,): Fraction(1) for n in range(10)})
        assert one_minus_t * geom == TruncSeries.one(T10)

    def test_two_factor_expansion(self):
        t = TruncSeries.variable(TQ, "t")
        q = TruncSeries.variable(TQ, "q")
        prod = (1 - t) * (1 - t * q)
        assert prod == t_series(
            TQ, ((0, 0), 1), ((1, 0), -1), ((1, 1), -1), ((2, 1), 1)
        )

    def test_feit_fine_factors_against_naive_convolution(self):
        # product of the (i, j <= 2) factors of the commuting-pair formula,
        # truncated at t^3, against an independent dict-convolution oracle
        spec = VarSpec(("t", "q"), (4, 8))
        factors = []
        for i in (1, 2):
            for j in (1, 2):
                # 1/(1 - t^i q^(2-j)) as a geometric series; for j=2 the
                # factor is 1/(1 - t^i), for j=1 it is 1/(1 - t^i q)
                qexp = 2 - j
                acc = {(0, 0): Fraction(1)}
                cur = (0, 0)
                while True:
                    cur = (cur[0] + i, cur[1] + qexp)
                    if cur[0] >= 4 or cur[1] >= 8:
                        break
                    acc[cur] = Fraction(1)
                factors.append(acc)
        naive = {(0, 0): Fraction(1)}
        for f in factors:
            naive = naive_poly_mul(naive, f, (4, 8))
        prod = TruncSeries.one(spec)
        for f in factors:
            prod = prod * TruncSeries(spec, f)
        assert prod == TruncSeries(spec, naive)

    def test_spec_mismatch(self):
        with pytest.raises(IncompatibleSpecError):
            TruncSeries.one(T10) * TruncSeries.one(TQ)

    def test_dense_and_sparse_agree(self):
        spec = VarSpec(("t", "q"), (4, 4))
        a = TruncSeries(spec, {e: Fraction(1 + e[0] + 2 * e[1]) for e in spec.iter_window()})
        b = TruncSeries(spec, {e: Fraction(3 - e[0] + e[1]) for e in spec.iter_window() if (e[0] + e[1]) % 2 == 0})
        dense = a._mul_dense(b)
        sparse = a._mul_sparse(b)
        assert dense == sparse
        assert a.density() > 0.5


class TestInverse:
    def test_geometric(self):
        one_minus_t = t_series(T10, ((0,), 1), ((1,), -1))
        geom = TruncSeries(T10, {(n,): Fraction(1) for n in range(10)})
        assert one_minus_t.inverse() == geom

    def test_identity(self):
        assert TruncSeries.one(T10).inverse() == TruncSeries.one(T10)

    def test_euler_identity_window(self):
        # 1/(t;q)_inf coefficientwise equals sum_n t^n / (q;q)_n
        spec = VarSpec(("t", "q"), (6, 10))
        t = TruncSeries.variable(spec, "t")
        q = TruncSeries.variable(spec, "q")
        lhs = pochhammer(t, "q", INF).inverse()
        rhs = TruncSeries.zero(spec)
        for n in range(6):
            rhs = rhs + TruncSeries.monomial(spec, (n, 0)) * pochhammer(q, "q", n).inverse()
        assert lhs == rhs

    def test_zero_constant_term(self):
        with pytest.raises(NotInvertibleError):
            TruncSeries.variable(T10, "t").inverse()


class TestPochhammer:
    def test_empty_product(self):
        t = TruncSeries.variable(TQ, "t")
        assert pochhammer(t, "q", 0) == TruncSeries.one(TQ)

    def test_two_factors(self):
        t = TruncSeries.variable(TQ, "t")
        assert pochhammer(t, "q", 2) == t_series(
            TQ, ((0, 0), 1), ((1, 0), -1), ((1, 1), -1), ((2, 1), 1)
        )

    def test_infinite_linear_coefficient(self):
        spec = VarSpec(("t", "q"), (3, 12))
        tq = TruncSeries.monomial(spec, (1, 1))
        prod = pochhammer(tq, "q", INF)
        for k in range(1, 12):
            assert prod.coeff((1, k)) == -1
        assert prod.coeff((1, 0)) == 0

    def test_infinite_needs_zero_constant(self):
        with pytest.raises(DivergentProductError):
            pochhammer(TruncSeries.one(TQ), "q", INF)

    def test_splitting(self):
        spec = VarSpec(("t", "q"), (5, 9))
        a = t_series(spec, ((1, 0), 1), ((0, 1), 2))
        q = TruncSeries.variable(spec, "q")
        for m, n in [(0, 3), (2, 2), (1, 4)]:
            lhs = pochhammer(a, "q", m + n)
            rhs = pochhammer(a, "q", m) * pochhammer(a * q**m, "q", n)
            assert lhs == rhs


class TestCoeff:
    def test_geometric_coeff(self):
        geom = t_series(T10, ((0,), 1), ((1,), -1)).inverse()
        assert geom.coeff((5,)) == 1

    def test_euler_t1_prefix(self):
        spec = VarSpec(("t", "q"), (3, 10))
        q = TruncSeries.variable(spec, "q")
        rhs = TruncSeries.zero(spec)
        for n in range(3):
            rhs = rhs + TruncSeries.monomial(spec, (n, 0)) * pochhammer(q, "q", n).inverse()
        # the t^1 coefficient is 1/(1-q) as a q-series prefix
        for k in range(10):
            assert rhs.coeff((1, k)) == 1

    def test_out_of_window(self):
        s = TruncSeries.one(T10)
        with pytest.raises(OutOfWindowError):
            s.coeff((10,))
        with pytest.raises(ValueError):
            s.coeff((-1,))

    def test_absent_variable(self):
        s = TruncSeries.one(T10)
        with pytest.raises(IncompatibleSpecError):
            s.specialize("q", 2)
        with pytest.raises(IncompatibleSpecError):
            pochhammer(s, "q", 2)


class TestSpecialize:
    def test_pochhammer_value(self):
        spec = VarSpec(("q",), (8,))
        q = TruncSeries.variable(spec, "q")
        val = pochhammer(q, "q", 2).specialize("q", Fraction(1, 2))
        assert val.coeff(()) == Fraction(3, 8)
        assert qpoch_value(Fraction(1, 2), Fraction(1, 2), 2) == Fraction(3, 8)

    def test_linear(self):
        s = t_series(TQ, ((0, 0), 1), ((1, 1), -1))  # 1 - t q
        out = s.specialize("q", 2)
        assert out.spec.names == ("t",)
        assert out.coeff((0,)) == 1
        assert out.coeff((1,)) == -2

    def test_feit_fine_t1_at_q2(self):
        from clzeta.formulas import feit_fine_series

        s = feit_fine_series(2, 2)
        assert s.coeff((1,)) == Fraction(4)


class TestSerialization:
    def test_round_trip_and_term_order(self):
        s = t_series(TQ, ((1, 1), Fraction(-3, 7)), ((0, 0), 2), ((2, 1), 5))
        d = s.to_json_dict()
        assert d["vars"] == ["t", "q"]
        assert d["trunc"] == [6, 8]
        assert d["terms"] == [
            [[0, 0], "2/1"],
            [[1, 1], "-3/7"],
            [[2, 1], "5/1"],
        ]
        assert TruncSeries.from_json(s.to_json()) == s


# -- randomized ring laws ---------------------------------------------------

small_spec = VarSpec(("t", "q"), (4, 4))


@st.composite
def series(draw, unit_constant=False):
    coeffs = {}
    for e in small_spec.iter_window():
        if draw(st.booleans()):
            coeffs[e] = Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
    if unit_constant:
        coeffs[(0, 0)] = Fraction(draw(st.integers(1, 5)))
    return TruncSeries(small_spec, coeffs)


@settings(max_examples=40)
@given(series(), series(), series())
def test_ring_laws(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a


@settings(max_examples=40)
@given(series(unit_constant=True))
def test_inverse_is_right_inverse(a):
    assert a * a.inverse() == TruncSeries.one(small_spec)


# Specialization commutes with multiplication and inversion exactly when the
# truncation in the specialized variable loses nothing, i.e. when every
# monomial's q-degree is bounded by its t-degree (the windows being equal).
# That is the regime in which the package specializes: setting u = 1 on the
# rank-refined series, where the u-degree (partition length) never exceeds
# the t-degree (partition size).


@st.composite
def graded_series(draw, unit_constant=False):
    coeffs = {}
    for e in small_spec.iter_window():
        if e[1] <= e[0] and draw(st.booleans()):
            coeffs[e] = Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
    if unit_constant:
        coeffs[(0, 0)] = Fraction(draw(st.integers(1, 5)))
    return TruncSeries(small_spec, coeffs)


@settings(max_examples=40)
@given(graded_series(), graded_series(), st.integers(1, 5))
def test_specialize_is_ring_homomorphism(a, b, qval):
    assert (a * b).specialize("q", qval) == a.specialize("q", qval) * b.specialize(
        "q", qval
    )
    assert (a + b).specialize("q", qval) == a.specialize("q", qval) + b.specialize(
        "q", qval
    )


@settings(max_examples=30)
@given(graded_series(unit_constant=True), st.integers(1, 5))
def test_specialize_commutes_with_inverse(a, qval):
    assert a.inverse().specialize("q", qval) == a.specialize("q", qval).inverse()


# -- one-pass division against the generic inverse ---------------------------


@st.composite
def windows(draw):
    names = draw(st.permutations(ALLOWED_VARS))[: draw(st.integers(1, 3))]
    return VarSpec(names, [draw(st.integers(1, 5)) for _ in names])


rationals = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def series_on(draw, spec):
    coeffs = {e: draw(rationals) for e in spec.iter_window() if draw(st.booleans())}
    return TruncSeries(spec, coeffs)


def nonzero_exps(spec, in_window=False):
    """Nonzero exponent vectors, reaching one past the window unless ``in_window``."""
    top = [o - 1 if in_window else o for o in spec.orders]
    return st.tuples(*(st.integers(0, t) for t in top)).filter(any)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_divide_by_binomial_matches_generic_inverse(data):
    spec = data.draw(windows())
    s = data.draw(series_on(spec))
    c = data.draw(rationals)
    m = data.draw(nonzero_exps(spec))
    binomial = 1 - TruncSeries(spec, {m: c})
    assert s.divide_by_binomial(c, m) == s * binomial.inverse()


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_inverse_pochhammer_matches_generic_inverse(data):
    spec = data.draw(windows())
    m = data.draw(nonzero_exps(spec, in_window=True))
    c = data.draw(rationals.filter(bool))
    a = TruncSeries.monomial(spec, m, c)
    qvar = data.draw(st.sampled_from(spec.names))
    n = data.draw(st.sampled_from([0, 1, 2, 3, 4, 5, INF]))
    assert inverse_pochhammer(a, qvar, n) == pochhammer(a, qvar, n).inverse()


class TestDivisionRefusals:
    def test_zero_exponent_vector(self):
        with pytest.raises(ValueError):
            TruncSeries.one(TQ).divide_by_binomial(2, (0, 0))

    def test_malformed_exponent_vector(self):
        with pytest.raises(ValueError):
            TruncSeries.one(TQ).divide_by_binomial(1, (1,))
        with pytest.raises(ValueError):
            TruncSeries.one(TQ).divide_by_binomial(1, (1, -1))

    def test_constant_monomial(self):
        with pytest.raises(ValueError):
            inverse_pochhammer(TruncSeries.constant(TQ, 3), "q", 2)

    def test_non_monomial(self):
        t = TruncSeries.variable(TQ, "t")
        q = TruncSeries.variable(TQ, "q")
        with pytest.raises(ValueError):
            inverse_pochhammer(t + q, "q", INF)
        with pytest.raises(ValueError):
            inverse_pochhammer(TruncSeries.zero(TQ), "q", 1)

    def test_bad_n(self):
        q = TruncSeries.variable(TQ, "q")
        with pytest.raises(ValueError):
            inverse_pochhammer(q, "q", -1)


# -- results of ring operations are stored clean -----------------------------
# Ring operations build their result without the public constructor's checks;
# re-running those checks on the result must change nothing.


def assert_clean(r):
    assert TruncSeries(r.spec, r._coeffs)._coeffs == r._coeffs
    assert all(type(c) is Fraction for c in r._coeffs.values())


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_ring_operations_store_clean_results(data):
    spec = data.draw(windows())
    a = data.draw(series_on(spec))
    b = data.draw(series_on(spec))
    k = data.draw(rationals)
    for r in (a + b, a + (-a), a - b, -a, a * k, a._mul_sparse(b), a._mul_dense(b)):
        assert_clean(r)
    if len(spec.names) > 1:
        var = data.draw(st.sampled_from(spec.names))
        assert_clean(a.specialize(var, data.draw(rationals)))
    assert_clean(a.divide_by_binomial(data.draw(rationals), data.draw(nonzero_exps(spec))))


# -- int coefficients stay int until a division --------------------------------

nonzero_ints = st.integers(-4, 4).filter(bool)


@st.composite
def int_series_on(draw, spec, dense):
    """Nonzero int coefficients on every cell when ``dense``, else on at most
    half of them, so ``dense`` decides the side of the density switch."""
    cells = list(spec.iter_window())
    if not dense:
        cells = draw(st.lists(st.sampled_from(cells), max_size=len(cells) // 2, unique=True))
    return TruncSeries(spec, {e: draw(nonzero_ints) for e in cells})


def as_fractions(s):
    return TruncSeries(s.spec, {e: Fraction(c) for e, c in s._coeffs.items()})


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_int_store_matches_fraction_store(data):
    spec = data.draw(windows())
    dense = data.draw(st.booleans())
    a = data.draw(int_series_on(spec, dense))
    b = data.draw(int_series_on(spec, dense))
    assert (a.density() > 0.5) == (b.density() > 0.5) == dense
    fa, fb = as_fractions(a), as_fractions(b)
    n = data.draw(st.integers(0, 3))
    c = data.draw(nonzero_ints)
    m = data.draw(nonzero_exps(spec))
    pairs = [
        (a * b, fa * fb),
        (a + b, fa + fb),
        (a - b, fa - fb),
        (a**n, fa**n),
        (a * c, fa * c),
        (a.divide_by_binomial(c, m), fa.divide_by_binomial(c, m)),
    ]
    if len(spec.names) > 1:
        var = data.draw(st.sampled_from(spec.names))
        v = data.draw(st.integers(-3, 3))
        pairs.append((a.specialize(var, v), fa.specialize(var, v)))
    for r, fr in pairs:
        assert r == fr
        assert all(type(x) is int for x in r._coeffs.values())
    unit = a + (c - a.constant_term())
    assert unit.inverse() == as_fractions(unit).inverse()


@pytest.mark.parametrize("bad", [0.5, 1.0, "1/3"])
def test_inexact_coefficients_are_refused(bad):
    builds = (
        lambda: TruncSeries(T10, {(1,): bad}),
        lambda: TruncSeries(T10, {(20,): bad}),
        lambda: TruncSeries.monomial(T10, (1,), bad),
        lambda: TruncSeries.one(T10) * bad,
        lambda: TruncSeries.one(T10).divide_by_binomial(bad, (1,)),
        lambda: TruncSeries.one(TQ).specialize("q", bad),
        lambda: qpoch_value(Fraction(1, 2), bad, 2),
    )
    for build in builds:
        with pytest.raises(TypeError):
            build()
