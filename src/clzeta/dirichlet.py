"""Formal Dirichlet series prefixes with exact rational coefficients.

A prefix stores a_1..a_N of sum a_n n^(-s).  As in :mod:`clzeta.series`,
each coefficient is an ``int`` or a ``Fraction``, kept as given or as
computed, and a float or any other type is refused with ``TypeError``.  On
top of the ring operations (convolution product and the substitution
s -> m*s + n) this module builds the Dedekind zeta prefixes of Z, Z_p,
F_q[T] and F_q[[T]], Euler products over primes, the Cohen-Lenstra zeta of a
local base, and the Cohen-Lenstra zeta of a polynomial ring over Z or F_q[T].
Every multiplicative prefix is an :func:`euler_product`, and every prefix
supported on the powers of a single q is written from its coefficients at 1,
q, q^2, ....  Local factors are series in t from :mod:`clzeta.formulas`, read
at t = q^(-s).

The polynomial-ring zeta over Z is an infinite double product of shifted
zetas.  Each of its blocks is one multiplicative prefix
g = prod_{j >= 0} zeta_Z(s + j), built by one Euler product whose factor at p
is resummed exactly: its p^(-ms) coefficient is the complete homogeneous sum
of the geometric sequence p^(-j), j >= 0, which telescopes to
1 / (1/p; 1/p)_m.  The i-th block is g pushed to i-th powers, and the blocks
are convolved.  Products loop over the sparser operand's nonzero support.
No numeric cutoff is involved; every coefficient of the returned prefix is
exact.  It is checked against the local factors, which are the
polynomial-ring series of :mod:`clzeta.formulas`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from . import arith
from .formulas import (
    dvr_polynomial_local_series,
    euler_inverse_pochhammer,
    feit_fine_series,
)
from .series import TruncSeries, _exact


class DirichletError(Exception):
    pass


class UnsupportedRingError(DirichletError):
    """The base ring does not support the requested construction."""


class NonUnitFactorError(DirichletError):
    """An Euler factor whose leading coefficient is not 1."""


def _check_length(length: int) -> None:
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")


@dataclass(frozen=True)
class BaseRing:
    """Descriptor for a base ring with a well-defined Dedekind zeta.

    kind is one of "Z", "Zp", "FqPoly", "FqPowerSeries"; ``param`` is the
    prime p for Zp and the residue cardinality q (a prime power) for the
    function-field rings.
    """

    kind: str
    param: int | None = None

    def __post_init__(self):
        if self.kind == "Z":
            if self.param is not None:
                raise ValueError("Z takes no parameter")
        elif self.kind == "Zp":
            if not (isinstance(self.param, int) and arith.is_prime(self.param)):
                raise ValueError("Zp requires a prime parameter")
        elif self.kind in ("FqPoly", "FqPowerSeries"):
            if not (isinstance(self.param, int) and arith.is_prime_power(self.param)):
                raise ValueError(f"{self.kind} requires a prime-power parameter")
        else:
            raise ValueError(f"unknown ring kind {self.kind!r}")

    @property
    def is_local(self) -> bool:
        return self.kind in ("Zp", "FqPowerSeries")

    @property
    def residue_cardinality(self) -> int:
        if not self.is_local:
            raise UnsupportedRingError(f"{self.kind} is not local")
        return self.param


def ring_Z() -> BaseRing:
    return BaseRing("Z")


def ring_Zp(p: int) -> BaseRing:
    return BaseRing("Zp", p)


def ring_FqPoly(q: int) -> BaseRing:
    return BaseRing("FqPoly", q)


def ring_FqPowerSeries(q: int) -> BaseRing:
    return BaseRing("FqPowerSeries", q)


def _convolve(a: Sequence, b: Sequence, length: int) -> list:
    """Dirichlet convolution up to ``length`` of coefficient lists (a[0] at n = 1)."""
    sa = [(d, x) for d, x in enumerate(a[:length], 1) if x]
    sb = [(e, y) for e, y in enumerate(b[:length], 1) if y]
    if len(sa) > len(sb):
        sa, sb = sb, sa
    out = [0] * length
    for d, x in sa:
        top = length // d
        for e, y in sb:
            if e > top:
                break
            out[d * e - 1] += x * y
    return out


class DirichletSeries:
    """Finite prefix a_1..a_N of a formal Dirichlet series."""

    __slots__ = ("_a",)

    def __init__(self, coeffs: Sequence):
        a = tuple(map(_exact, coeffs))
        if not a:
            raise ValueError("length must be >= 1")
        object.__setattr__(self, "_a", a)

    def __setattr__(self, *_):
        raise AttributeError("DirichletSeries is immutable")

    @classmethod
    def unit(cls, length: int) -> "DirichletSeries":
        _check_length(length)
        return cls([1] + [0] * (length - 1))

    @property
    def length(self) -> int:
        return len(self._a)

    def __getitem__(self, n: int) -> int | Fraction:
        """1-indexed coefficient a_n."""
        if not 1 <= n <= len(self._a):
            raise IndexError(f"index {n} outside prefix 1..{len(self._a)}")
        return self._a[n - 1]

    def coefficients(self) -> tuple[int | Fraction, ...]:
        return self._a

    def __eq__(self, other):
        if not isinstance(other, DirichletSeries):
            return NotImplemented
        return self._a == other._a

    def __hash__(self):
        return hash(self._a)

    def __repr__(self):
        head = ", ".join(str(c) for c in self._a[:8])
        tail = ", ..." if len(self._a) > 8 else ""
        return f"DirichletSeries([{head}{tail}])"

    def __mul__(self, other):
        if not isinstance(other, DirichletSeries):
            return NotImplemented
        n = min(self.length, other.length)
        return DirichletSeries(_convolve(self._a, other._a, n))

    def to_json_dict(self) -> dict:
        return {
            "N": self.length,
            "a": [f"{c.numerator}/{c.denominator}" for c in self._a],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, d: dict) -> "DirichletSeries":
        if d["N"] != len(d["a"]):
            raise ValueError("inconsistent length")
        return cls([Fraction(c) for c in d["a"]])


def shift(
    f: DirichletSeries, m: int, n: int, length: int | None = None
) -> DirichletSeries:
    """The substitution s -> m*s + n: a_k of the result is a_j(f) * j^(-n)
    when k = j^m and zero otherwise."""
    if m < 1:
        raise ValueError("m must be a positive integer")
    if length is None:
        length = f.length
    out = [0] * length
    j = 1
    while j**m <= length:
        aj = f[j] if j <= f.length else None
        if aj is None:
            raise ValueError(f"prefix of f too short for index {j}^{m}")
        if aj and n:
            aj = aj * Fraction(1, j**n) if n > 0 else aj * j ** (-n)
        out[j**m - 1] = aj
        j += 1
    return DirichletSeries(out)


def _max_exponent(q: int, length: int) -> int:
    """Largest k with q^k <= length."""
    k = 0
    while q ** (k + 1) <= length:
        k += 1
    return k


def _t_coefficients(series: TruncSeries) -> list[int | Fraction]:
    """Every coefficient of a series in t, t^0 first."""
    return [series.coeff((k,)) for k in range(series.spec.orders[0])]


def _at_powers(q: int, cs: Sequence[int | Fraction], length: int) -> DirichletSeries:
    """The prefix with cs[k] at q^k and zero elsewhere; ``cs`` holds one
    coefficient for each q^k <= length."""
    _check_length(length)
    a = [0] * length
    for k, c in enumerate(cs):
        a[q**k - 1] = c
    return DirichletSeries(a)


def dedekind_zeta(ring: BaseRing, length: int) -> DirichletSeries:
    """Prefix of the Dedekind zeta function of the base ring.

    Z: all ones.  Zp: 1 at powers of p.  FqPoly: q^k at q^k (monic
    polynomials of degree k).  FqPowerSeries: 1 at powers of q.
    """
    if ring.kind == "Z":
        return DirichletSeries([1] * length)
    q = ring.param
    kmax = _max_exponent(q, length)
    if ring.kind == "FqPoly":
        return _at_powers(q, [q**k for k in range(kmax + 1)], length)
    return _at_powers(q, [1] * (kmax + 1), length)


def euler_product(
    factors: Mapping[int, Sequence[int | Fraction]], length: int
) -> DirichletSeries:
    """Product over primes of local factors given in p^(-s).

    ``factors`` maps a prime p to the list [c_0, c_1, ...] of coefficients of
    its local factor sum_k c_k p^(-ks); c_0 must be 1.  Primes not present
    contribute the unit factor.  The result's a_n multiplies the local
    coefficients along the factorization of n.
    """
    _check_length(length)
    locals_: dict[int, list[int | Fraction]] = {}
    for p, cs in factors.items():
        if not arith.is_prime(p):
            raise ValueError(f"Euler factor index {p} is not prime")
        cs = list(map(_exact, cs))
        if not cs or cs[0] != 1:
            raise NonUnitFactorError(f"local factor at {p} does not start with 1")
        locals_[p] = cs
    spf = arith.smallest_prime_factors(length)
    out = [0] * length
    out[0] = 1
    for n in range(2, length + 1):
        val = 1
        for p, e in arith.factorize(n, spf):
            cs = locals_.get(p)
            if cs is None:
                # an absent prime acts as the unit factor, killing a_{p^e}
                val = 0
                break
            if e >= len(cs):
                raise ValueError(f"local factor at {p} too short for exponent {e}")
            val *= cs[e]
            if not val:
                break
        out[n - 1] = val
    return DirichletSeries(out)


def cohen_lenstra_local_zeta(ring: BaseRing, length: int) -> DirichletSeries:
    """Cohen-Lenstra zeta of a local base: the product over i >= 1 of
    zeta_S(s + i), resummed exactly per coefficient.

    The q^(-ks) coefficient is the degree-k complete homogeneous sum of the
    geometric values q^(-i), i >= 1, which equals q^(-k) / (1/q; 1/q)_k by
    Euler's identity.  It also equals the sum of 1/|Aut| over all module
    types of size k.
    """
    if not ring.is_local:
        raise UnsupportedRingError("Cohen-Lenstra local zeta needs Zp or FqPowerSeries")
    q = ring.residue_cardinality
    r = Fraction(1, q)
    series = euler_inverse_pochhammer(r, r, 1, _max_exponent(q, length) + 1)
    return _at_powers(q, _t_coefficients(series), length)


#: ``local_cl_coefficient`` refuses k above this.  The k series products
#: take about 0.8 s at k = 100 and 5 s at k = 150 for p = 2.
LOCAL_K_MAX = 100
#: It also refuses coefficients of more bits than this.  The t^k coefficient
#: has a denominator of about p^(k^2 / 2); past 13000 bits it would not print
#: in decimal under Python's default limit of 4300 digits.
LOCAL_BITS_MAX = 13_000


def local_cl_coefficient(p: int, k: int) -> Fraction:
    """The p^(-ks) coefficient of the polynomial-ring Cohen-Lenstra zeta
    over Z, computed purely locally: the t^k coefficient of the module
    count series of Z_p[T].  Raises ValueError for k > LOCAL_K_MAX, or when
    k^2 log2(p) / 2 exceeds LOCAL_BITS_MAX, before any series work."""
    if not arith.is_prime(p):
        raise ValueError("p must be prime")
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k > LOCAL_K_MAX or k * k * math.log2(p) / 2 > LOCAL_BITS_MAX:
        raise ValueError(
            f"k = {k} is too large for p = {p}: need k <= {LOCAL_K_MAX} and "
            f"k^2 log2(p) / 2 <= {LOCAL_BITS_MAX}"
        )
    return dvr_polynomial_local_series(p, k + 1).coeff((k,))


def _zeta_tower_factor(p: int, length: int) -> list[int | Fraction]:
    """Local factor at p of prod_{j >= 0} zeta_Z(s + j), one coefficient per
    p^m <= length.  Above sqrt(length) only 1 and 1 / (1 - 1/p) fit."""
    if p * p > length:
        return [1, Fraction(p, p - 1)]
    r = Fraction(1, p)
    return _t_coefficients(euler_inverse_pochhammer(1, r, 1, _max_exponent(p, length) + 1))


def _zeta_tower(length: int) -> DirichletSeries:
    """Exact prefix of prod_{j >= 0} zeta_Z(s + j), one Euler product."""
    factors = {p: _zeta_tower_factor(p, length) for p in arith.primes_up_to(length)}
    return euler_product(factors, length)


def polynomial_ring_cl_zeta(ring: BaseRing, length: int) -> DirichletSeries:
    """Cohen-Lenstra zeta prefix of S[T] for a global base S (Z or F_q[T]):
    the double product over i, j >= 1 of zeta_S(i*s + j - 1).

    For S = Z every i-block prod_{j >= 0} zeta_Z(i*s + j) is one prefix
    g = prod_{j >= 0} zeta_Z(s + j) pushed to i-th powers by s -> i*s, and
    the blocks are convolved.  g is multiplicative: grouped per prime p, its
    p^(-ms) coefficient is the complete homogeneous sum of the geometric
    sequence 1, 1/p, 1/p^2, ..., which resums to 1 / (1/p; 1/p)_m, so g is one
    exact :func:`euler_product`.  Only blocks with 2^i <= length can touch
    the window.  For S = F_q[T] the product is the Feit-Fine series at
    t = q^(-s), supported on powers of q.
    """
    if ring.kind == "Z":
        g = _zeta_tower(length)
        result = DirichletSeries.unit(length)
        # blocks i >= 2 live on i-th powers: multiply them before the dense i = 1
        for i in reversed(range(1, length.bit_length())):
            result = result * shift(g, i, 0, length=length)
        return result
    if ring.kind == "FqPoly":
        q = ring.param
        series = feit_fine_series(q, _max_exponent(q, length) + 1)
        return _at_powers(q, _t_coefficients(series), length)
    raise UnsupportedRingError("polynomial-ring zeta needs a global base (Z or FqPoly)")
