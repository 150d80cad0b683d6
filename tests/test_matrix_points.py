"""Matrix-point oracle: strategies, kernels, shards, budgets."""

import importlib.util
import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clzeta.oracle import (
    BudgetExceededError,
    _kernels_py,
    count_matrix_points,
    gl_order,
    matrix_point_series,
    parse_relations,
)
from clzeta.oracle.matrix_points import KERNEL_COMPILED, _compile_for_kernel
from clzeta.partitions import partitions

if KERNEL_COMPILED:
    from clzeta.oracle import _kernels  # type: ignore[attr-defined]

ROOT = Path(__file__).resolve().parent.parent


class TestGlOrder:
    def test_values(self):
        assert gl_order(0, 2) == 1
        assert gl_order(1, 7) == 6
        assert gl_order(2, 2) == 6
        assert gl_order(3, 2) == 168


class TestCounts:
    def test_scalar_pairs(self):
        assert count_matrix_points("A*B - B*A", 1, 3).value == 9

    def test_forced_zero_matrix(self):
        # A = 0 is forced, B is free
        assert count_matrix_points("A*B - B*A, A", 2, 2).value == 16

    def test_both_strategies_at_n2(self):
        lin = count_matrix_points("A*B - B*A", 2, 2, strategy="linear")
        full = count_matrix_points("A*B - B*A", 2, 2, strategy="full")
        assert lin.value == full.value == 88
        assert lin.strategy == "linear-in-B"
        assert full.strategy == "full"

    def test_empty_dimension(self):
        assert count_matrix_points("A*B - B*A", 0, 2).value == 1

    def test_empty_dimension_resolves_the_strategy(self):
        res = count_matrix_points("B*B", 0, 2)
        assert (res.value, res.strategy) == (1, "full")

    def test_empty_dimension_refuses_linear_on_nonlinear(self):
        with pytest.raises(ValueError, match="not linear in B"):
            count_matrix_points("B*B", 0, 2, strategy="linear")

    def test_empty_dimension_refuses_unknown_strategy(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            count_matrix_points("A*B - B*A", 0, 2, strategy="bogus")

    def test_empty_system_counts_all_pairs(self):
        assert count_matrix_points("", 1, 3).value == 9
        assert count_matrix_points("", 2, 2).value == 256

    def test_nonlinear_falls_back_to_full(self):
        res = count_matrix_points("A*B*A*B - B*A", 1, 2)
        assert res.strategy == "full"
        # scalars over F_2: (ab)^2 - ba = ab - ab = 0 always
        assert res.value == 4

    def test_affine_relation(self):
        # A*B = 1 over F_q scalars: solutions need a invertible, b = 1/a
        res = count_matrix_points("A*B - 1", 1, 5)
        assert res.value == 4
        full = count_matrix_points("A*B - 1", 1, 5, strategy="full")
        assert full.value == 4

    def test_inconsistent_affine_counts(self):
        # over scalars, A*B - 1 is inconsistent exactly when a = 0
        res = count_matrix_points("A*B - 1", 1, 5)
        assert res.inconsistent == 1

    def test_composite_q_rejected(self):
        with pytest.raises(ValueError):
            count_matrix_points("A*B - B*A", 2, 4)

    def test_forcing_linear_on_nonlinear_fails(self):
        with pytest.raises(ValueError):
            count_matrix_points("B^2 - A", 1, 2, strategy="linear")


class TestShards:
    def test_shard_invariance(self):
        base = count_matrix_points("A*B - B*A, A^2*B", 2, 3).value
        for shards in (2, 3, 8, 16):
            got = count_matrix_points("A*B - B*A, A^2*B", 2, 3, shards=shards)
            assert got.value == base

    def test_shards_beyond_space(self):
        # more shards than points in the A space
        got = count_matrix_points("A*B - B*A", 1, 2, shards=64)
        assert got.value == 4

    @pytest.mark.parametrize("strategy", ["auto", "linear", "full"])
    def test_nonpositive_shards_are_refused(self, strategy):
        with pytest.raises(ValueError, match="shards"):
            count_matrix_points("A*B - B*A", 1, 2, strategy=strategy, shards=0)


class TestBudget:
    def test_budget_exceeded(self):
        with pytest.raises(BudgetExceededError):
            count_matrix_points("A*B - B*A", 3, 3, budget=100)

    def test_full_budget_exceeded(self):
        with pytest.raises(BudgetExceededError):
            count_matrix_points("B^2 - A", 2, 3, budget=1000)

    def test_env_override(self):
        env = dict(os.environ, CLZETA_BUDGET="10")
        code = (
            "from clzeta.oracle import count_matrix_points\n"
            "count_matrix_points('A*B - B*A', 2, 2)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert proc.returncode != 0
        assert "exceeds budget 10" in proc.stderr


class TestSeries:
    def test_leading_terms(self):
        s = matrix_point_series("A*B - B*A", 2, 2)
        assert s.coeff((0,)) == 1
        assert s.coeff((1,)) == 4

    def test_node_linear_term(self):
        s = matrix_point_series("A*B - B*A, A*B", 2, 1)
        assert s.coeff((1,)) == 3


def _kernel_args(text, n, p, start=0, stop=None):
    total = p ** (n * n)
    return (n, p, start, total if stop is None else stop) + _compile_for_kernel(
        parse_relations(text), p
    )


@pytest.mark.skipif(not KERNEL_COMPILED, reason="compiled kernel not built")
class TestKernelParity:
    def test_pure_python_matches_compiled(self):
        cases = [
            ("A*B - B*A", 2, 3),
            ("A*B - B*A, A^2", 2, 3),
            ("A*B - B*A, A^2*B", 2, 2),
            ("A*B - 1", 1, 5),
            ("A*B - B*A", 3, 2),
            # every conjugation orbit of the 3^9 A at n = 3, q = 3
            ("A*B - B*A, A^2*B", 3, 3),
            ("A*B - B*A, A^3", 3, 3),
            ("A^2*B - B*A - 1", 3, 3),  # consistent for some A only
        ]
        for text, n, p in cases:
            args = _kernel_args(text, n, p)
            got_c = _kernels.nullity_histogram(*args)
            got_py = _kernels_py.nullity_histogram(*args)
            assert tuple(got_c[0]) == tuple(got_py[0])
            assert got_c[1:] == got_py[1:]

    @pytest.mark.parametrize("n, q", [(n, q) for n in range(4) for q in (2, 3, 5)] + [(4, 2)])
    def test_orbit_walk_finds_the_similarity_classes(self, n, q):
        # M_n(F_q) has sum_{lam |- n} q^len(lam) similarity classes, the
        # coefficients of prod_{i >= 1} 1 / (1 - q x^i); a generator set that
        # misses part of GL_n(F_q) splits some of them
        classes = sum(q**lam.length for lam in partitions(n))
        assert _kernels._orbit_count(n, q) == classes
        assert (n, q) != (4, 2) or classes == 34

    @pytest.mark.parametrize("n, p", [(6, 2), (3, 12), (2, 2**31)])
    def test_orbit_count_refuses_spaces_above_2_32(self, n, p):
        with pytest.raises(ValueError, match="2\\^32"):
            _kernels._orbit_count(n, p)

    def test_partial_ranges_match(self):
        args = _kernel_args("A*B - B*A", 2, 3, 17, 61)
        got_c = _kernels.nullity_histogram(*args)
        got_py = _kernels_py.nullity_histogram(*args)
        assert tuple(got_c[0]) == tuple(got_py[0])

    def test_largest_prime_in_range_matches(self):
        # 2^31 - 1 is prime; the residues of this range have 31 bits, so any
        # unreduced product or sum of products would overflow 63 bits
        args = _kernel_args("A^2*B*A - 5*B*A + 3*A^2, A*B - B*A - 7", 2, 2**31 - 1)
        args = args[:2] + (10**17, 10**17 + 500) + args[4:]
        assert _kernels.nullity_histogram(*args) == _kernels_py.nullity_histogram(*args)

    @pytest.mark.parametrize("p", [0, 1, 2**31, 2**31 + 11, 2**64])
    def test_p_outside_the_c_range_is_refused(self, p):
        with pytest.raises(ValueError, match="2 <= p < 2\\^31"):
            _kernels.nullity_histogram(1, p, 0, 1, (), ((((1, 0, 0),), ()),), 0)

    def test_malformed_terms_are_refused(self):
        for a_filters, b_relations, message in [
            ((((1, 5),),), (), "exponent 5 out of range"),  # above max_pow
            ((((1, -1),),), (), "exponent -1 out of range"),
            ((((1,),),), (), "tuple of 2 ints"),
            ((), ((((1, 0),), ()),), "tuple of 3 ints"),  # no post exponent
        ]:
            with pytest.raises(ValueError, match=message):
                _kernels.nullity_histogram(1, 3, 0, 3, a_filters, b_relations, 1)


@st.composite
def _b_linear_systems(draw, ns=(1, 2), ps=(2, 3, 5), max_exp=2, max_linear=2):
    """Relation text of a random system of A-only filters and up to
    ``max_linear`` B-linear relations with constant terms, with every power of
    A at most ``max_exp``, and n drawn from ``ns``, p from ``ps``."""
    coeff = st.integers(-6, 6)
    exp = st.integers(0, max_exp)

    def term(c, word):  # word "" is the constant term
        body = f"{abs(c)}*{word}" if word else str(abs(c))
        return (" - " if c < 0 else " + ") + body

    def a_word(e):
        return f"A^{e}" if e else ""

    def b_word(i, j):
        return "*".join([f"A^{i}"] * bool(i) + ["B"] + [f"A^{j}"] * bool(j))

    filters = draw(st.lists(st.lists(st.tuples(coeff, exp), min_size=1, max_size=2), max_size=1))
    linear = draw(
        st.lists(
            st.tuples(
                st.lists(st.tuples(coeff, exp, exp), min_size=1, max_size=2),
                st.lists(st.tuples(coeff, exp), max_size=2),
            ),
            min_size=1,
            max_size=max_linear,
        )
    )
    relations = [[term(c, a_word(e)) for c, e in rel] for rel in filters]
    for lin, con in linear:
        relations.append(
            [term(c, b_word(i, j)) for c, i, j in lin] + [term(c, a_word(e)) for c, e in con]
        )
    text = ", ".join("0" + "".join(rel) for rel in relations)
    return text, draw(st.sampled_from(ns)), draw(st.sampled_from(ps))


class TestKernelDifferential:
    """The Python kernel, the compiled kernel (when it imports) and the full
    strategy agree on random B-linear systems and random odometer ranges.
    The full strategy is checked where its (A, B) space has at most 3^8
    points; at n = 2, p = 5 it has 5^8 and only the kernels are compared."""

    @settings(max_examples=60, deadline=None)
    @given(_b_linear_systems(), st.data())
    def test_kernels_and_full_strategy_agree(self, system, data):
        text, n, p = system
        assert parse_relations(text).is_b_linear()
        total = p ** (n * n)
        start = data.draw(st.integers(0, total))
        stop = data.draw(st.integers(start, total))
        pieces = [_kernels_py.nullity_histogram(*_kernel_args(text, n, p, lo, hi))
                  for lo, hi in ((0, start), (start, stop), (stop, total))]
        if KERNEL_COMPILED:
            args = _kernel_args(text, n, p, start, stop)
            assert _kernels.nullity_histogram(*args) == pieces[1]
        whole = _kernels_py.nullity_histogram(*_kernel_args(text, n, p))
        assert [sum(col) for col in zip(*(h for h, _, _ in pieces))] == whole[0]
        assert sum(r for _, r, _ in pieces) == whole[1]
        assert sum(i for _, _, i in pieces) == whole[2]
        linear = sum(c * p**d for d, c in enumerate(whole[0]))
        assert count_matrix_points(text, n, p, strategy="linear").value == linear
        if p ** (2 * n * n) <= 3**8:
            assert count_matrix_points(text, n, p, strategy="full").value == linear


# every feature of the packed p = 2 rows, one case each: A-only filters, an
# affine system that is inconsistent for some A, more B-linear relations than
# one (more rows than columns) and powers of A up to 3
PACKED_EDGE_SYSTEMS = [
    "A*B - B*A, A^2 - A",
    "A*B - 1",
    "A*B - B*A - A, A^3*B + B*A^2 - 1",
    "A*B - B*A, A^2*B + B, A^3*B*A^3 - A^2",
    "A*B*A - B, A^3 + A, B*A^3 + A^2*B - A^3",
]


@pytest.mark.skipif(not KERNEL_COMPILED, reason="compiled kernel not built")
class TestPackedKernel:
    """At p = 2 the compiled kernel packs each row into one word and
    eliminates by XOR; the Python kernel is the mod-p reference."""

    @settings(max_examples=40, deadline=None)
    @given(
        _b_linear_systems(ns=(1, 2, 3, 4), ps=(2,), max_exp=3, max_linear=3),
        st.data(),
    )
    def test_packed_rows_match_the_python_kernel(self, system, data):
        text, n, p = system
        total = p ** (n * n)
        start = data.draw(st.integers(0, total))
        stop = data.draw(st.integers(start, min(total, start + 2000)))
        args = _kernel_args(text, n, p, start, stop)
        assert _kernels.nullity_histogram(*args) == _kernels_py.nullity_histogram(*args)

    @pytest.mark.parametrize("text", PACKED_EDGE_SYSTEMS)
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_edge_systems_match_the_python_kernel(self, text, n):
        total = 2 ** (n * n)
        start = total // 3
        args = _kernel_args(text, n, 2, start, min(total, start + 600))
        assert _kernels.nullity_histogram(*args) == _kernels_py.nullity_histogram(*args)

    def test_widest_packed_rows_match_the_python_kernel(self):
        # n = 7 puts the right-hand side in bit 49; n = 8 would need 65 bits
        for text in ("A*B - B*A", "A*B - 1, A*B*A - B*A^2"):
            args = _kernel_args(text, 7, 2, 3**30, 3**30 + 12)
            assert _kernels.nullity_histogram(*args) == _kernels_py.nullity_histogram(*args)

    def test_rows_wider_than_a_word_are_refused(self):
        with pytest.raises(ValueError, match="64 bits"):
            _kernels.nullity_histogram(8, 2, 0, 1, (), ((((1, 0, 0),), ()),), 0)

    def test_commuting_histogram_at_n4_q2_is_pinned(self):
        # recorded with the mod-p elimination, before rows were packed at p = 2
        res = count_matrix_points("A*B - B*A", 4, 2)
        assert res.histogram == (0, 0, 0, 0, 50832, 0, 13160, 0, 1092, 0, 450, 0, 0, 0, 0, 0, 2)
        assert res.value == sum(c * 2**d for d, c in enumerate(res.histogram))
        assert (res.scanned, res.rejected, res.inconsistent) == (65536, 0, 0)


def test_full_strategy_has_no_histogram():
    res = count_matrix_points("A*B - B*A", 1, 2, strategy="full")
    assert res.histogram is None
    assert res.to_json_dict("op", {})["histogram"] is None


@pytest.mark.parametrize("kernel", ["compiled", "python"])
@pytest.mark.parametrize("n, q", [(8, 2), (7, 3), (5, 2147483647)])
def test_a_space_of_2_63_or_more_is_refused_before_the_kernel(kernel, n, q):
    # without the refusal the compiled kernel raised OverflowError on the
    # odometer bound and the Python kernel started a scan of q^(n^2) matrices
    if kernel == "compiled" and not KERNEL_COMPILED:
        pytest.skip("compiled kernel not built")
    env = dict(os.environ)
    env.pop("CLZETA_FORCE_PY", None)
    if kernel == "python":
        env["CLZETA_FORCE_PY"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    code = (
        "import sys\n"
        "from clzeta.oracle import count_matrix_points\n"
        "try:\n"
        f"    count_matrix_points('A*B - B*A', {n}, {q}, budget=10**40)\n"
        "except ValueError as exc:\n"
        "    sys.exit(str(exc))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 1
    assert "q^(n^2) < 2^63" in proc.stderr


@pytest.mark.parametrize("n, q", [(7, 2), (6, 3)])
def test_a_space_below_2_63_reaches_the_budget_check(n, q):
    with pytest.raises(BudgetExceededError):
        count_matrix_points("A*B - B*A", n, q, budget=100)


def _c_toolchain() -> bool:
    cc = (sysconfig.get_config_var("CC") or "").split()
    header = Path(sysconfig.get_paths()["include"]) / "Python.h"
    return bool(cc) and shutil.which(cc[0]) is not None and header.is_file()


@pytest.mark.skipif(not _c_toolchain(), reason="no C compiler or Python headers")
def test_setup_builds_the_compiled_kernel(tmp_path):
    # the extension is optional, so a C file that does not compile would
    # otherwise pass unnoticed: the build succeeds and the kernel is skipped
    # and a warning fails the compile, so it fails this test too
    proc = subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext",
         "--build-lib", str(tmp_path / "lib"), "--build-temp", str(tmp_path / "tmp")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
        env=dict(os.environ, CFLAGS="-Wall -Wextra -Werror"),
    )
    assert proc.returncode == 0, proc.stderr
    built = list((tmp_path / "lib" / "clzeta" / "oracle").glob("_kernels.*"))
    assert len(built) == 1, proc.stderr
    spec = importlib.util.spec_from_file_location("_kernels", built[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.COMPILED is True
    args = _kernel_args("A*B - B*A, A^2*B - 1", 2, 3)
    assert module.nullity_histogram(*args) == _kernels_py.nullity_histogram(*args)
