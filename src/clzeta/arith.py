"""Elementary number theory, importing nothing from the package: a prime
test, integer roots, and one smallest-prime-factor sieve behind prime lists,
factorizations and the Moebius function.  :func:`is_prime` is Miller-Rabin
over the first 13 prime bases, proven exact below :data:`PSI_13` (Sorenson
and Webster, Math. Comp. 86, 2017); larger n are refused, not guessed."""

from __future__ import annotations

BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

#: The least strong pseudoprime to every base in BASES.
PSI_13 = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Exact primality; ValueError for n >= PSI_13 with no factor in BASES."""
    if n < 2:
        return False
    for a in BASES:
        if n % a == 0:
            return n == a
    if n >= PSI_13:
        raise ValueError(f"primality is decided exactly only below {PSI_13}, got {n}")
    s = ((n - 1) & (1 - n)).bit_length() - 1
    for a in BASES:
        chain = [pow(a, (n - 1) >> s, n)]  # a^d, a^(2d), ..., a^(2^(s-1) d)
        for _ in range(s - 1):
            chain.append(chain[-1] ** 2 % n)
        if chain[0] != 1 and n - 1 not in chain:
            return False
    return True


def int_root(n: int, k: int) -> int:
    """Largest m with m^k <= n, by integer Newton steps from above."""
    if n < 0 or k < 1:
        raise ValueError("int_root needs n >= 0 and k >= 1")
    if n < 2:
        return n
    m = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * m + n // m ** (k - 1)) // k
        if y >= m:
            return m
        m = y


def is_prime_power(n: int) -> bool:
    """n = p^e with p prime and e >= 1: the root of largest exact degree is
    the only candidate p."""
    if n < 2:
        return False
    for k in range(n.bit_length() - 1, 0, -1):
        r = int_root(n, k)
        if r**k == n:
            return is_prime(r)


def smallest_prime_factors(n: int) -> list[int]:
    """The sieve: entry m is the smallest prime factor of m for 2 <= m <= n."""
    spf = [0] * (n + 1)
    for p in range(2, n + 1):
        if not spf[p]:
            spf[p] = p
            for m in range(p * p, n + 1, p):
                if not spf[m]:
                    spf[m] = p
    return spf


def primes_up_to(n: int) -> list[int]:
    return [p for p, f in enumerate(smallest_prime_factors(n)) if p > 1 and f == p]


def factorize(n: int, spf: list[int]) -> list[tuple[int, int]]:
    """(p, e) pairs of n >= 1, p ascending, read off a sieve reaching n."""
    out = []
    while n > 1:
        p, e = spf[n], 0
        while n % p == 0:
            n, e = n // p, e + 1
        out.append((p, e))
    return out


def mobius(n: int, spf: list[int]) -> int:
    fs = factorize(n, spf)
    return 0 if any(e > 1 for _, e in fs) else (-1) ** len(fs)
