"""The arithmetic leaf module: the Miller-Rabin prime test against trial
division, exact integer roots, the sieve, and CLI commands on primes too
large for trial division."""

import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import clzeta
from clzeta import arith
from clzeta.arith import (
    BASES,
    PSI_13,
    factorize,
    int_root,
    is_prime,
    is_prime_power,
    mobius,
    primes_up_to,
    smallest_prime_factors,
)

LIMIT = 10**5
M61 = 2**61 - 1
M89 = 2**89 - 1  # prime, above PSI_13


def _trial_factorize(n):
    """Reference factorization by trial division."""
    out, d = [], 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n, e = n // d, e + 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def _strong_probable_prime(n, a):
    s = ((n - 1) & (1 - n)).bit_length() - 1
    x = pow(a, (n - 1) >> s, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def test_agrees_with_trial_division_below_limit():
    spf = smallest_prime_factors(LIMIT - 1)
    primes = []
    for n in range(1, LIMIT):
        ref = _trial_factorize(n)
        prime = ref == [(n, 1)]
        assert is_prime(n) == prime, n
        if prime:
            primes.append(n)
        assert factorize(n, spf) == ref, n
        squarefree = all(e == 1 for _, e in ref)
        assert mobius(n, spf) == ((-1) ** len(ref) if squarefree else 0), n
    assert primes_up_to(LIMIT - 1) == primes
    assert not is_prime(0) and not is_prime(-7)
    assert primes_up_to(1) == [] and primes_up_to(-3) == []


@pytest.mark.parametrize(
    "n, factors",
    [
        (3215031751, (151, 751, 28351)),
        (3825123056546413051, (149491, 747451, 34233211)),
        (318665857834031151167461, (399165290221, 798330580441)),
    ],
)
def test_strong_pseudoprimes_are_composite(n, factors):
    assert n == math.prod(factors)
    assert not is_prime(n)


def test_psi12_is_caught_only_by_the_thirteenth_base():
    psi12 = 318665857834031151167461
    assert all(_strong_probable_prime(psi12, a) for a in BASES[:12])
    assert not _strong_probable_prime(psi12, BASES[12])


def test_large_primes_and_the_refusal_bound():
    assert is_prime(2**31 - 1) and is_prime(M61)
    assert not is_prime(2 * M61) and not is_prime(M61 * (2**19 - 1))
    # PSI_13 fools every base; it and everything above it are refused
    assert all(_strong_probable_prime(PSI_13, a) for a in BASES)
    for n in (PSI_13, M89):
        with pytest.raises(ValueError, match="primality"):
            is_prime(n)
    # a factor among the bases still decides at any size
    assert not is_prime(2 * M89)


def test_int_root_is_exact():
    for k in range(1, 7):
        for n in range(0, 2000):
            m = int_root(n, k)
            assert m**k <= n < (m + 1) ** k, (n, k)
    big = 10**400
    assert int_root(big, 400) == 10 and int_root(big - 1, 400) == 9
    assert int_root(big, 2) == 10**200 and int_root(big - 1, 2) == 10**200 - 1
    assert int_root(M61**3, 3) == M61
    with pytest.raises(ValueError):
        int_root(-1, 2)
    with pytest.raises(ValueError):
        int_root(4, 0)


def test_prime_powers_without_overflow():
    assert is_prime_power(2**100)
    assert is_prime_power(M61**2)
    assert not is_prime_power(10**400)
    assert not is_prime_power(2 * M61)
    with pytest.raises(ValueError):
        is_prime_power(M89)


def test_arith_imports_nothing_from_the_package():
    tree = ast.parse(Path(arith.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and not (node.module or "").startswith("clzeta")
        elif isinstance(node, ast.Import):
            assert not any(a.name.startswith("clzeta") for a in node.names)


def _python(*argv):
    src = str(Path(clzeta.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True, text=True, timeout=60
    )


def test_oracle_does_not_import_dirichlet():
    proc = _python("-c", "import sys, clzeta.oracle; print('clzeta.dirichlet' in sys.modules)")
    assert proc.returncode == 0 and proc.stdout.strip() == "False"


@pytest.mark.parametrize(
    "argv, code",
    [
        (("dirichlet", "--which", "zeta", "--ring", "Zp", "--p", str(M61), "--length", "4"), 0),
        (("oracle", "--relations", "B*B", "--q", str(M61), "--n", "1"), 2),
        (("conj", "--p", str(M61), "--type", "1"), 2),
        (("dirichlet", "--which", "an-local", "--p", str(M61), "--k", "1"), 0),
        (("dirichlet", "--which", "zeta", "--ring", "FqPoly", "--qparam", str(M61**2),
          "--length", "4"), 0),
        (("dirichlet", "--which", "zeta", "--ring", "Zp", "--p", str(M89), "--length", "4"), 2),
    ],
)
def test_large_primes_on_the_command_line(argv, code):
    # trial division up to sqrt(2^61 - 1) would not finish within the timeout;
    # the oracle and conj commands get past the prime test to the budget
    proc = _python(
        "-c", "import sys; from clzeta.cli import main; sys.exit(main(sys.argv[1:]))", *argv
    )
    assert proc.returncode == code, proc.stderr
    if code == 2:
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
