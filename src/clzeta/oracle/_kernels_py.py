"""Pure-Python counting kernel and the mod-p matrix helpers of both oracles.

``nullity_histogram`` has the same contract as the compiled C module
``_kernels``; the package picks whichever is importable (see
``clzeta.oracle.matrix_points``).  The kernel walks a contiguous odometer
range of the A-matrix space, filters A by the A-only relations, assembles the
stacked affine system the B-linear relations impose on B, and histograms the
nullity of that system.  It solves every A and eliminates mod p for every
p, so it is the reference the compiled kernel's orbit weighting and its
packed XOR elimination at p = 2 are tested against.

Its helpers ``_mat_mul``, ``_powers`` and ``_row_reduce`` serve the module
oracle too.  A matrix is a flat row-major list of n*n integers whose row i is
reduced mod ``moduli[i]``: every row is mod p for a matrix over F_p, and row
i is mod p^(lam_i) for an endomorphism of the sum of Z/p^(lam_i) (see
``clzeta.oracle.endomorphisms``).
"""

from __future__ import annotations

COMPILED = False


def _mat_mul(x, y, n, moduli):
    """The product x*y, with row i reduced mod ``moduli[i]``."""
    out = [0] * (n * n)
    for i in range(n):
        base = i * n
        m = moduli[i]
        for k in range(n):
            a = x[base + k]
            if a:
                kb = k * n
                for j in range(n):
                    out[base + j] = (out[base + j] + a * y[kb + j]) % m
    return out


def _powers(a, n, moduli, max_pow):
    """[a^0, a^1, ..., a^max_pow], row i reduced mod ``moduli[i]``."""
    eye = [0] * (n * n)
    for i in range(n):
        eye[i * n + i] = 1 % moduli[i]
    pows = [eye]
    cur = eye
    for _ in range(max_pow):
        cur = _mat_mul(cur, a, n, moduli)
        pows.append(cur)
    return pows


def _row_reduce(rows, pivot_cols, p):
    """Gauss-Jordan elimination mod the prime p, in place, pivoting in the
    first ``pivot_cols`` columns; entries must already be reduced mod p.

    Returns the rank.  Afterwards rows[rank:] are zero in the pivot columns,
    so a later column of them holds what is left of an affine right-hand
    side.
    """
    rank = 0
    nrows = len(rows)
    for col in range(pivot_cols):
        piv = -1
        for r in range(rank, nrows):
            if rows[r][col]:
                piv = r
                break
        if piv < 0:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        ncols = len(prow)
        inv = pow(prow[col], p - 2, p)
        if inv != 1:
            for c in range(col, ncols):
                prow[c] = prow[c] * inv % p
        for r in range(nrows):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rr = rows[r]
                for c in range(col, ncols):
                    rr[c] = (rr[c] - f * prow[c]) % p
        rank += 1
        if rank == nrows:
            break
    return rank


def nullity_histogram(n, p, start, stop, a_filters, b_relations, max_pow):
    """Scan A-odometer indices in [start, stop).

    a_filters: tuple of relations, each a tuple of (coeff, exp) meaning the
        matrix sum coeff * A^exp must vanish for A to be admitted.
    b_relations: tuple of (linear_terms, const_terms) with linear_terms a
        tuple of (coeff, pre_exp, post_exp) standing for coeff * A^pre * B *
        A^post and const_terms a tuple of (coeff, exp) standing for
        coeff * A^exp.
    max_pow: highest power of A needed by any term.

    Returns (hist, rejected, inconsistent): hist[d] counts admitted A whose
    consistent stacked system has nullity d (p**d solutions for B);
    ``rejected`` counts A failing a filter; ``inconsistent`` counts admitted
    A whose affine system has no solution.
    """
    nn = n * n
    hist = [0] * (nn + 1)
    rejected = 0
    inconsistent = 0
    if nn == 0:
        # the empty matrix satisfies every relation; one point, B-space size 1
        for _ in range(start, stop):
            hist[0] += 1
        return hist, rejected, inconsistent

    # decode the starting odometer state (digit 0 = entry (0,0), least
    # significant; row-major)
    digits = [0] * nn
    idx = start
    for d in range(nn):
        digits[d] = idx % p
        idx //= p

    a = list(digits)  # row-major entries, a[i*n+j]
    row_moduli = (p,) * n
    ncols = nn + 1  # augmented column holds the affine right-hand side

    for _ in range(start, stop):
        pows = _powers(a, n, row_moduli, max_pow)

        ok = True
        for rel in a_filters:
            for i in range(nn):
                v = 0
                for coeff, exp in rel:
                    v += coeff * pows[exp][i]
                if v % p:
                    ok = False
                    break
            if not ok:
                break

        if not ok:
            rejected += 1
        else:
            rows = []
            for linear_terms, const_terms in b_relations:
                for i in range(n):
                    for j in range(n):
                        row = [0] * ncols
                        for coeff, pre, post in linear_terms:
                            pre_m = pows[pre]
                            post_m = pows[post]
                            base = i * n
                            for k in range(n):
                                f = coeff * pre_m[base + k]
                                if f % p:
                                    kb = k * n
                                    for l in range(n):
                                        row[kb + l] = (
                                            row[kb + l] + f * post_m[l * n + j]
                                        ) % p
                        rhs = 0
                        for coeff, exp in const_terms:
                            rhs -= coeff * pows[exp][i * n + j]
                        row[nn] = rhs % p
                        rows.append(row)

            rank = _row_reduce(rows, nn, p)
            if any(row[nn] for row in rows[rank:]):
                inconsistent += 1
            else:
                hist[nn - rank] += 1

        # advance the odometer
        for d in range(nn):
            a[d] += 1
            if a[d] < p:
                break
            a[d] = 0

    return hist, rejected, inconsistent
