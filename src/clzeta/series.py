"""Exact truncated power series in the formal variables t, u, q.

Coefficients are ``int`` or ``fractions.Fraction``, as computed: ring
operations on ``int`` coefficients keep ``int``, and only a division makes
a ``Fraction``, so :meth:`TruncSeries.coeff` may return either.  Floats and
every other type are refused with ``TypeError``.  Truncation is an
exclusive bound per variable and every operation truncates eagerly, so a
series is always exact on its stated window.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from typing import Iterable, Mapping

ALLOWED_VARS = ("t", "u", "q")

#: Sentinel accepted by :func:`pochhammer` for the infinite product.
INF = math.inf

# When both factors fill more than this fraction of their window, multiplication
# switches from the sparse dict walk to flat-array convolution.
_DENSE_THRESHOLD = 0.5


class SeriesError(Exception):
    """Base class for series-arithmetic errors."""


class IncompatibleSpecError(SeriesError):
    """Two operands do not share the same variable specification."""


class NotInvertibleError(SeriesError):
    """Inversion of a series whose constant term is zero."""


class OutOfWindowError(SeriesError):
    """A coefficient at or beyond the truncation order was requested."""


class DivergentProductError(SeriesError):
    """Infinite Pochhammer product of a series with nonzero constant term."""


def _exact(x):
    """``x`` unchanged if it is an ``int`` or a ``Fraction``; TypeError otherwise."""
    if isinstance(x, (int, Fraction)):
        return x
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


class VarSpec:
    """Ordered formal variables with per-variable exclusive truncation orders."""

    __slots__ = ("names", "orders")

    def __init__(self, names: Iterable[str], orders: Iterable[int]):
        names = tuple(names)
        orders = tuple(int(o) for o in orders)
        if len(names) != len(orders):
            raise ValueError("names and orders must have equal length")
        if len(set(names)) != len(names):
            raise ValueError("variable names must be distinct")
        for n in names:
            if n not in ALLOWED_VARS:
                raise ValueError(f"unknown variable {n!r}; allowed: {ALLOWED_VARS}")
        if any(o < 1 for o in orders):
            raise ValueError("truncation orders must be >= 1")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "orders", orders)

    def __setattr__(self, *_):
        raise AttributeError("VarSpec is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, VarSpec)
            and self.names == other.names
            and self.orders == other.orders
        )

    def __hash__(self):
        return hash((self.names, self.orders))

    def __repr__(self):
        inner = ", ".join(f"{n}<{o}" for n, o in zip(self.names, self.orders))
        return f"VarSpec({inner})"

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise IncompatibleSpecError(f"variable {name!r} not in {self!r}") from None

    def window_size(self) -> int:
        return math.prod(self.orders)

    def in_window(self, exps: tuple[int, ...]) -> bool:
        return all(0 <= e < o for e, o in zip(exps, self.orders))

    def iter_window(self):
        """All exponent vectors inside the window, in lexicographic order."""
        return itertools.product(*(range(o) for o in self.orders))

    def drop(self, name: str) -> "VarSpec":
        i = self.index(name)
        return VarSpec(
            self.names[:i] + self.names[i + 1 :], self.orders[:i] + self.orders[i + 1 :]
        )


def _strides(orders: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """Row-major strides of a window (last variable fastest) and its size."""
    strides = []
    s = 1
    for o in reversed(orders):
        strides.append(s)
        s *= o
    return tuple(reversed(strides)), s


class TruncSeries:
    """Sparse truncated power series over a :class:`VarSpec` window.

    Instances are immutable value objects: every operation returns a new
    series, and no stored coefficient is zero.
    """

    __slots__ = ("spec", "_coeffs")

    def __init__(
        self, spec: VarSpec, coeffs: Mapping[tuple[int, ...], int | Fraction] | None = None
    ):
        clean: dict[tuple[int, ...], int | Fraction] = {}
        if coeffs:
            nvars = len(spec.names)
            for exps, c in coeffs.items():
                exps = tuple(int(e) for e in exps)
                if len(exps) != nvars:
                    raise ValueError(f"exponent vector {exps} has wrong arity")
                if any(e < 0 for e in exps):
                    raise ValueError(f"negative exponent in {exps}")
                if _exact(c) and spec.in_window(exps):
                    clean[exps] = c
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "_coeffs", clean)

    @classmethod
    def _trusted(cls, spec: VarSpec, clean: dict) -> "TruncSeries":
        """A series that takes ``clean`` as its store without checking it.

        Only for ring operations whose output already holds nothing but
        nonzero ``int`` or :class:`Fraction` values at in-window exponent
        vectors.
        """
        out = object.__new__(cls)
        object.__setattr__(out, "spec", spec)
        object.__setattr__(out, "_coeffs", clean)
        return out

    def __setattr__(self, *_):
        raise AttributeError("TruncSeries is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, spec: VarSpec) -> "TruncSeries":
        return cls(spec)

    @classmethod
    def one(cls, spec: VarSpec) -> "TruncSeries":
        return cls.constant(spec, 1)

    @classmethod
    def constant(cls, spec: VarSpec, value) -> "TruncSeries":
        return cls(spec, {(0,) * len(spec.names): value})

    @classmethod
    def monomial(cls, spec: VarSpec, exps: Iterable[int], coeff=1) -> "TruncSeries":
        return cls(spec, {tuple(exps): coeff})

    @classmethod
    def variable(cls, spec: VarSpec, name: str) -> "TruncSeries":
        i = spec.index(name)
        exps = tuple(1 if j == i else 0 for j in range(len(spec.names)))
        return cls.monomial(spec, exps)

    # -- inspection ---------------------------------------------------

    def terms(self):
        """Nonzero (exponent vector, coefficient) pairs, lexicographically."""
        return sorted(self._coeffs.items())

    def is_zero(self) -> bool:
        return not self._coeffs

    def constant_term(self) -> int | Fraction:
        return self._coeffs.get((0,) * len(self.spec.names), 0)

    def coeff(self, exps: Iterable[int]) -> int | Fraction:
        """Coefficient at an exponent vector inside the window.

        Raises :class:`OutOfWindowError` for exponents at or beyond the
        truncation order; unknown coefficients are never silently zero.
        """
        exps = self._exponents(exps)
        if not self.spec.in_window(exps):
            raise OutOfWindowError(f"{exps} outside window {self.spec!r}")
        return self._coeffs.get(exps, 0)

    def _exponents(self, exps: Iterable[int]) -> tuple[int, ...]:
        exps = tuple(int(e) for e in exps)
        if len(exps) != len(self.spec.names):
            raise ValueError(f"exponent vector {exps} has wrong arity")
        if any(e < 0 for e in exps):
            raise ValueError(f"negative exponent in {exps}")
        return exps

    def density(self) -> float:
        return len(self._coeffs) / self.spec.window_size()

    def __eq__(self, other):
        if isinstance(other, TruncSeries):
            return self.spec == other.spec and self._coeffs == other._coeffs
        if isinstance(other, (int, Fraction)):
            return self == TruncSeries.constant(self.spec, other)
        return NotImplemented

    def __hash__(self):
        return hash((self.spec, frozenset(self._coeffs.items())))

    def __repr__(self):
        if self.is_zero():
            return "TruncSeries(0)"
        bits = []
        for exps, c in self.terms()[:8]:
            mono = "*".join(
                f"{n}^{e}" for n, e in zip(self.spec.names, exps) if e
            )
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        tail = " + ..." if len(self._coeffs) > 8 else ""
        return f"TruncSeries({' + '.join(bits)}{tail})"

    # -- ring operations ----------------------------------------------

    def _check_spec(self, other: "TruncSeries"):
        if self.spec != other.spec:
            raise IncompatibleSpecError(f"{self.spec!r} vs {other.spec!r}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TruncSeries.constant(self.spec, other)
        if not isinstance(other, TruncSeries):
            return NotImplemented
        self._check_spec(other)
        out = dict(self._coeffs)
        for e, c in other._coeffs.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return TruncSeries._trusted(self.spec, out)

    __radd__ = __add__

    def __neg__(self):
        return TruncSeries._trusted(self.spec, {e: -c for e, c in self._coeffs.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TruncSeries.constant(self.spec, other)
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return TruncSeries.zero(self.spec)
            out = {e: c * other for e, c in self._coeffs.items()}
            return TruncSeries._trusted(self.spec, out)
        if not isinstance(other, TruncSeries):
            return NotImplemented
        self._check_spec(other)
        if (
            self.density() > _DENSE_THRESHOLD
            and other.density() > _DENSE_THRESHOLD
        ):
            return self._mul_dense(other)
        return self._mul_sparse(other)

    __rmul__ = __mul__

    def _mul_sparse(self, other: "TruncSeries") -> "TruncSeries":
        orders = self.spec.orders
        out: dict[tuple[int, ...], int | Fraction] = {}
        a, b = self._coeffs, other._coeffs
        if len(a) > len(b):
            a, b = b, a
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                if any(x >= o for x, o in zip(e, orders)):
                    continue
                s = out.get(e)
                s = ca * cb if s is None else s + ca * cb
                if s:
                    out[e] = s
                else:
                    del out[e]
        return TruncSeries._trusted(self.spec, out)

    def _mul_dense(self, other: "TruncSeries") -> "TruncSeries":
        # Flat-array convolution in mixed-radix index space; same result as
        # the sparse walk, cheaper when both operands are nearly full.
        orders = self.spec.orders
        strides, size = _strides(orders)
        exps_of = list(self.spec.iter_window())
        flat_a = [0] * size
        flat_b = [0] * size
        for e, c in self._coeffs.items():
            flat_a[sum(x * st for x, st in zip(e, strides))] = c
        for e, c in other._coeffs.items():
            flat_b[sum(x * st for x, st in zip(e, strides))] = c
        out = [0] * size
        for ia, ca in enumerate(flat_a):
            if not ca:
                continue
            ea = exps_of[ia]
            room = tuple(o - 1 - x for x, o in zip(ea, orders))
            for ib, cb in enumerate(flat_b):
                if not cb:
                    continue
                eb = exps_of[ib]
                if any(y > r for y, r in zip(eb, room)):
                    continue
                out[ia + ib] += ca * cb
        return TruncSeries._trusted(
            self.spec, {exps_of[i]: c for i, c in enumerate(out) if c}
        )

    def __pow__(self, n: int) -> "TruncSeries":
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers are supported")
        result = TruncSeries.one(self.spec)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def inverse(self) -> "TruncSeries":
        """Multiplicative inverse on the window; constant term must be nonzero."""
        a0 = self.constant_term()
        if not a0:
            raise NotInvertibleError("constant term is zero")
        inv_a0 = Fraction(1, a0)
        zero_vec = (0,) * len(self.spec.names)
        supp = [(e, c) for e, c in self._coeffs.items() if e != zero_vec]
        out: dict[tuple[int, ...], Fraction] = {}
        for e in self.spec.iter_window():
            acc = 1 if e == zero_vec else 0
            for f, cf in supp:
                g = tuple(x - y for x, y in zip(e, f))
                if any(x < 0 for x in g):
                    continue
                bg = out.get(g)
                if bg:
                    acc -= cf * bg
            val = acc * inv_a0
            if val:
                out[e] = val
        return TruncSeries(self.spec, out)

    def divide_by_binomial(self, c, exps: Iterable[int]) -> "TruncSeries":
        """self / (1 - c * x^exps) on the window, for a nonzero exponent vector.

        One prefix pass over the cells e >= exps in lexicographic order,
        out[e] += c * out[e - exps] (Knuth, TAOCP vol. 2, section 4.7).
        """
        exps = self._exponents(exps)
        if not any(exps):
            raise ValueError("dividing by 1 - c needs a nonzero exponent vector")
        return self._divide_by_binomials([(_exact(c), exps)])

    def _divide_by_binomials(self, factors) -> "TruncSeries":
        # All divisions run on one flat mixed-radix array.  A cell e >= m sits
        # at a fixed flat offset past e - m, and lexicographic order is flat
        # order, so each factor is one increasing pass over a sub-box whose
        # innermost axis is a contiguous run.
        orders = self.spec.orders
        strides, size = _strides(orders)
        flat = [0] * size
        for e, v in self._coeffs.items():
            flat[sum(x * st for x, st in zip(e, strides))] = v
        for c, m in factors:
            if not c or not self.spec.in_window(m):
                continue
            off = sum(x * st for x, st in zip(m, strides))
            inner = range(m[-1], orders[-1])
            for outer in itertools.product(*map(range, m[:-1], orders[:-1])):
                base = sum(x * st for x, st in zip(outer, strides))
                for i in inner:
                    prev = flat[base + i - off]
                    if prev:
                        flat[base + i] += c * prev
        return TruncSeries._trusted(
            self.spec, {e: v for e, v in zip(self.spec.iter_window(), flat) if v}
        )

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * Fraction(1, other)
        if isinstance(other, TruncSeries):
            return self * other.inverse()
        return NotImplemented

    # -- substitution --------------------------------------------------

    def specialize(self, var: str, value) -> "TruncSeries":
        """Substitute an exact rational for one variable and re-collect."""
        value = _exact(value)
        i = self.spec.index(var)
        new_spec = self.spec.drop(var)
        out: dict[tuple[int, ...], int | Fraction] = {}
        for e, c in self._coeffs.items():
            ne = e[:i] + e[i + 1 :]
            s = out.get(ne, 0) + c * value**e[i]
            if s:
                out[ne] = s
            else:
                out.pop(ne, None)
        return TruncSeries._trusted(new_spec, out)

    # -- serialization ---------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "vars": list(self.spec.names),
            "trunc": list(self.spec.orders),
            "terms": [
                [list(e), f"{c.numerator}/{c.denominator}"] for e, c in self.terms()
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, d: dict) -> "TruncSeries":
        spec = VarSpec(d["vars"], d["trunc"])
        coeffs = {tuple(e): Fraction(c) for e, c in d["terms"]}
        return cls(spec, coeffs)

    @classmethod
    def from_json(cls, s: str) -> "TruncSeries":
        return cls.from_json_dict(json.loads(s))


def pochhammer(a: TruncSeries, qvar: str, n) -> TruncSeries:
    """q-Pochhammer product (a;q)_n = prod_{k<n} (1 - a*q^k).

    ``n`` is a nonnegative integer, or :data:`INF` for the infinite product.
    The infinite product requires ``a`` to have zero constant term; it then
    terminates because multiplying by q eventually pushes every term of
    ``a*q^k`` past the q-truncation.
    """
    spec = a.spec
    q = TruncSeries.variable(spec, qvar)
    result = TruncSeries.one(spec)
    if n is INF:
        if a.constant_term():
            raise DivergentProductError(
                "infinite Pochhammer of a series with nonzero constant term"
            )
        cur = a
        while not cur.is_zero():
            result = result * (1 - cur)
            cur = cur * q
        return result
    if not isinstance(n, int) or n < 0:
        raise ValueError("n must be a nonnegative integer or INF")
    cur = a
    for _ in range(n):
        result = result * (1 - cur)
        cur = cur * q
    return result


def inverse_pochhammer(a: TruncSeries, qvar: str, n) -> TruncSeries:
    """1/(a;q)_n for a monomial a = c*x^m with m nonzero, one binomial
    division per factor (1 - c*x^m*q^k).

    ``n`` is a nonnegative integer or :data:`INF`; the divisions stop once
    a*q^k leaves the window, where every further factor truncates to 1.
    """
    if len(a._coeffs) != 1:
        raise ValueError("inverse_pochhammer needs a monomial a")
    ((m, c),) = a._coeffs.items()
    if not any(m):
        raise ValueError("inverse_pochhammer needs a nonconstant monomial a")
    if n is not INF and (not isinstance(n, int) or n < 0):
        raise ValueError("n must be a nonnegative integer or INF")
    spec = a.spec
    i = spec.index(qvar)
    last = spec.orders[i] - m[i]
    factors = [
        (c, m[:i] + (m[i] + k,) + m[i + 1 :])
        for k in range(last if n is INF else min(n, last))
    ]
    return TruncSeries.one(spec)._divide_by_binomials(factors)


def qpoch_value(a: Fraction, r: Fraction, n: int) -> Fraction:
    """Rational value of the finite Pochhammer (a;r)_n = prod_{k<n}(1 - a*r^k),
    always a ``Fraction``, since callers divide by it."""
    out = 1
    cur = _exact(a)
    r = _exact(r)
    for _ in range(n):
        out *= 1 - cur
        cur *= r
    return Fraction(out)
