/* Compiled counting kernel for the matrix-point oracle.

   Same contract as clzeta/oracle/_kernels_py.py, the plain-scan mod-p
   reference mirror: over the A-odometer indices in [start, stop), filter A by
   the A-only relations, stack the affine system the B-linear relations impose
   on B, and histogram its nullity.  Only the rank matters, so elimination
   runs forward only, on the rows below each pivot.

   One elimination per conjugation orbit.  Every relation is a
   noncommutative integer polynomial in A and B whose constants are
   multiples of I, so R(gAg^-1, gBg^-1) = g R(A, B) g^-1 for g in GL_n(F_q).
   Hence the filter verdict and the nullity are constant on the orbit of A,
   and the kernel adds one verdict per orbit, weighted by the number of the
   orbit's members in [start, stop).  This is exact, and it is the class sum
   Feit and Fine (Duke Math. J. 27, 1960) evaluate in closed form.  The orbit
   of each unmarked code in the range is walked depth first under
   I + E01, the n-cycle permutation matrix and diag(omega, 1, .., 1) (Holt,
   Eick and O'Brien, Handbook of Computational Group Theory, 2005, ch. 4);
   members outside the range are marked but not counted, so a shard walks
   every orbit that touches its range.  Memory is a bitmap of q^(n*n) bits
   (8 KiB at n = 4, q = 2; 4 MiB at n = 5, q = 2) and a stack of uint32_t
   codes that grows as needed and never holds more than one orbit.  Above
   ORBIT_CAP = 2^32 codes, and at n = 1 where conjugation is trivial, every
   A is its own representative, as in the plain scan.

   At p = 2 each stacked row is one uint64_t: bit k*n + l is the coefficient
   of B[k, l] and bit n*n the right-hand side, and rows are eliminated by XOR
   (after M4RI, Albrecht, Bard and Hart, ACM TOMS 36(3), 2010).  So p = 2 is
   refused for n*n + 1 > 64; every such n has 2^(n*n) >= 2^63 A matrices,
   which clzeta.oracle.matrix_points refuses before either kernel runs.

   Every other p runs over flat long long arrays mod p.  p is refused outside
   [2, 2^31), so a residue plus the product of two residues fits in a long
   long; each such sum is reduced mod p before the next. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

typedef long long ll;

/* A space of at most ORBIT_CAP codes is walked by orbits: a code fits in a
   uint32_t, and the bitmap of marked codes in 512 MiB. */
#define ORBIT_CAP ((ll)1 << 32)

/* A list of relations, flattened: relation r owns the terms off[r] to
   off[r + 1] - 1, and term t of a list with nexp exponents per term is
   term[t * (nexp + 1)] = coeff (reduced mod p), followed by its exponents. */
typedef struct {
    Py_ssize_t nrel, *off;
    ll *term;
} Terms;

typedef struct {
    int n, max_pow;
    Py_ssize_t nn;
    ll p;
    Terms filt, lin, con; /* A-only filters (coeff, exp); B-linear relations:
                             linear (coeff, pre, post), constant (coeff, exp) */
    ll *a;                /* odometer digits = entries of A, row-major */
    ll *pows;             /* pows + e * nn holds A^e */
    ll *rows;             /* p != 2: stacked augmented rows, nn + 1 columns each */
    uint64_t *bits;       /* p == 2: stacked rows, one word each */
    uint64_t *cols;       /* p == 2: cols[e * n + j] has bit l set when (A^e)[l, j] = 1 */
    ll *counts;           /* counts[d]: admitted A of nullity d */
    ll rejected, inconsistent;
} Scan;

/* Flatten rels into T.  The terms of a relation are the relation itself when
   item < 0, else its part number item (the linear or the constant part of a
   B-linear relation).  Each term is a tuple (coeff, exp_1, .., exp_nexp) with
   every exponent in [0, max_pow].  Returns 0, or -1 with an exception set. */
static int parse_terms(PyObject *rels, int item, int nexp, PyObject *pyp, int max_pow, Terms *T)
{
    PyObject *fr = PySequence_Fast(rels, "relations must be a sequence"), *seq = NULL;
    Py_ssize_t pos = 0;
    if (fr == NULL)
        return -1;
    T->nrel = PySequence_Fast_GET_SIZE(fr);
    if ((T->off = PyMem_New(Py_ssize_t, T->nrel + 1)) == NULL)
        goto nomem;
    T->off[0] = 0;
    for (Py_ssize_t r = 0; r < T->nrel; r++) {
        PyObject *rel = PySequence_Fast_GET_ITEM(fr, r);
        PyObject *part = item < 0 ? (Py_INCREF(rel), rel) : PySequence_GetItem(rel, item);
        seq = part ? PySequence_Fast(part, "relation terms must be a sequence") : NULL;
        Py_XDECREF(part);
        if (seq == NULL)
            goto fail;
        Py_ssize_t size = PySequence_Fast_GET_SIZE(seq);
        ll *grown = PyMem_Realloc(T->term, (pos + size) * (nexp + 1) * sizeof(ll));
        if (grown == NULL)
            goto nomem;
        T->term = grown;
        for (Py_ssize_t k = 0; k < size; k++, pos++) {
            PyObject *term = PySequence_Fast_GET_ITEM(seq, k);
            ll *out = T->term + pos * (nexp + 1);
            if (!PyTuple_Check(term) || PyTuple_GET_SIZE(term) != nexp + 1) {
                PyErr_Format(PyExc_ValueError, "a term must be a tuple of %d ints", nexp + 1);
                goto fail;
            }
            PyObject *c = PyNumber_Remainder(PyTuple_GET_ITEM(term, 0), pyp);
            out[0] = c == NULL ? -1 : PyLong_AsLongLong(c);
            Py_XDECREF(c);
            if (out[0] == -1 && PyErr_Occurred())
                goto fail;
            for (int x = 1; x <= nexp; x++) {
                out[x] = PyLong_AsLongLong(PyTuple_GET_ITEM(term, x));
                if (out[x] < 0 || out[x] > max_pow) {
                    if (!PyErr_Occurred())
                        PyErr_Format(PyExc_ValueError, "exponent %lld out of range", out[x]);
                    goto fail;
                }
            }
        }
        T->off[r + 1] = pos;
        Py_CLEAR(seq);
    }
    Py_DECREF(fr);
    return 0;
nomem:
    PyErr_NoMemory();
fail:
    Py_XDECREF(seq);
    Py_DECREF(fr);
    return -1;
}

/* A zeroed array of a * b * c 8-byte words (ll or uint64_t), or NULL with
   MemoryError set when the size overflows or the allocation fails. */
static void *zeros(Py_ssize_t a, Py_ssize_t b, Py_ssize_t c)
{
    const Py_ssize_t lim = PY_SSIZE_T_MAX / 8;
    void *out = NULL;
    if ((b == 0 || a <= lim / b) && (c == 0 || a * b <= lim / c))
        out = PyMem_Calloc((size_t)(a * b * c), 8);
    return out != NULL ? out : PyErr_NoMemory();
}

static ll power(ll x, ll e, ll p) /* x^e mod p, for x < p < 2^31 */
{
    ll acc = 1;
    for (; e; e >>= 1, x = x * x % p)
        if (e & 1)
            acc = acc * x % p;
    return acc;
}

static ll inverse(ll x, ll p) /* x^(p-2) mod p, the inverse of x for prime p */
{
    return power(x, p - 2, p);
}

/* A^1, .., A^max_pow; scan() writes A^0 = I once. */
static void powers(Scan *S)
{
    const int n = S->n;
    if (S->max_pow >= 1)
        memcpy(S->pows + S->nn, S->a, S->nn * sizeof(ll));
    for (int e = 2; e <= S->max_pow; e++) {
        const ll *prev = S->pows + (e - 1) * S->nn;
        ll *cur = S->pows + e * S->nn;
        for (int i = 0; i < n; i++)
            for (int j = 0; j < n; j++) {
                ll acc = 0;
                for (int k = 0; k < n; k++)
                    acc = (acc + prev[i * n + k] * S->a[k * n + j]) % S->p;
                cur[i * n + j] = acc;
            }
    }
}

/* Whether A passes every A-only filter: sum coeff * A^exp == 0. */
static int admitted(const Scan *S)
{
    const Terms *F = &S->filt;
    for (Py_ssize_t r = 0; r < F->nrel; r++)
        for (Py_ssize_t i = 0; i < S->nn; i++) {
            ll acc = 0;
            for (const ll *t = F->term + 2 * F->off[r]; t < F->term + 2 * F->off[r + 1]; t += 2)
                acc = (acc + t[0] * S->pows[t[1] * S->nn + i]) % S->p;
            if (acc)
                return 0;
        }
    return 1;
}

/* Stack one row per B-linear relation and entry (i, j), the equation
   sum coeff * (A^pre B A^post)[i, j] = -sum coeff * (A^exp)[i, j], and
   eliminate mod p.  Returns the rank, or -1 when the system is
   inconsistent. */
static Py_ssize_t rank_of_system(Scan *S)
{
    const int n = S->n;
    const Py_ssize_t nn = S->nn, ncols = nn + 1, nrows = S->lin.nrel * nn;
    const ll p = S->p, *pw = S->pows;
    const Terms *L = &S->lin, *C = &S->con;
    ll *rows = S->rows;
    Py_ssize_t rank = 0;
    memset(rows, 0, nrows * ncols * sizeof(ll));
    for (Py_ssize_t r = 0; r < L->nrel; r++)
        for (int i = 0; i < n; i++)
            for (int j = 0; j < n; j++) {
                ll *w = rows + ((r * n + i) * n + j) * ncols, rhs = 0;
                for (const ll *t = L->term + 3 * L->off[r]; t < L->term + 3 * L->off[r + 1]; t += 3)
                    for (int k = 0; k < n; k++) {
                        ll f = t[0] * pw[t[1] * nn + i * n + k] % p;
                        for (int l = 0; f && l < n; l++)
                            w[k * n + l] = (w[k * n + l] + f * pw[t[2] * nn + l * n + j]) % p;
                    }
                for (const ll *t = C->term + 2 * C->off[r]; t < C->term + 2 * C->off[r + 1]; t += 2)
                    rhs = (rhs + t[0] * pw[t[1] * nn + i * n + j]) % p;
                w[nn] = (p - rhs) % p;
            }
    for (Py_ssize_t col = 0; col < nn && rank < nrows; col++) {
        Py_ssize_t piv = rank;
        while (piv < nrows && rows[piv * ncols + col] == 0)
            piv++;
        if (piv == nrows)
            continue;
        ll *prow = rows + rank * ncols;
        /* rows from rank down are zero left of col, so swap from col on */
        for (Py_ssize_t t = col; piv != rank && t < ncols; t++) {
            ll tmp = prow[t];
            prow[t] = rows[piv * ncols + t];
            rows[piv * ncols + t] = tmp;
        }
        ll inv = inverse(prow[col], p);
        for (Py_ssize_t t = col; inv != 1 && t < ncols; t++)
            prow[t] = prow[t] * inv % p;
        for (Py_ssize_t rr = rank + 1; rr < nrows; rr++) {
            ll *w = rows + rr * ncols, f = p - w[col];
            for (Py_ssize_t t = col; f != p && t < ncols; t++)
                w[t] = (w[t] + f * prow[t]) % p;
        }
        rank++;
    }
    for (Py_ssize_t rr = rank; rr < nrows; rr++)
        if (rows[rr * ncols + nn])
            return -1;
    return rank;
}

/* rank_of_system at p = 2, on one word per row.  A term with an odd coeff
   adds the row cols[post * n + j] << (k * n) for each k with
   (A^pre)[i, k] = 1, and the right-hand side is the parity of the constant
   terms.  Elimination XORs the pivot row into the rows below it that have
   the pivot bit, without a branch on that bit. */
static Py_ssize_t rank_gf2(Scan *S)
{
    const int n = S->n;
    const Py_ssize_t nn = S->nn, nrows = S->lin.nrel * nn;
    const ll *pw = S->pows;
    const Terms *L = &S->lin, *C = &S->con;
    uint64_t *rows = S->bits, *cols = S->cols;
    Py_ssize_t rank = 0;
    for (int e = 1; e <= S->max_pow; e++)
        for (int j = 0; j < n; j++) {
            uint64_t m = 0;
            for (int l = 0; l < n; l++)
                m |= (uint64_t)pw[e * nn + l * n + j] << l;
            cols[e * n + j] = m;
        }
    for (Py_ssize_t r = 0; r < L->nrel; r++)
        for (int i = 0; i < n; i++)
            for (int j = 0; j < n; j++) {
                uint64_t w = 0;
                ll rhs = 0;
                for (const ll *t = L->term + 3 * L->off[r]; t < L->term + 3 * L->off[r + 1]; t += 3)
                    for (int k = 0; t[0] && k < n; k++)
                        w ^= cols[t[2] * n + j] << (k * n) & -(uint64_t)pw[t[1] * nn + i * n + k];
                for (const ll *t = C->term + 2 * C->off[r]; t < C->term + 2 * C->off[r + 1]; t += 2)
                    rhs ^= t[0] & pw[t[1] * nn + i * n + j];
                rows[(r * n + i) * n + j] = w | (uint64_t)rhs << nn;
            }
    for (Py_ssize_t col = 0; col < nn && rank < nrows; col++) {
        Py_ssize_t piv = rank;
        while (piv < nrows && !(rows[piv] >> col & 1))
            piv++;
        if (piv == nrows)
            continue;
        const uint64_t prow = rows[piv];
        rows[piv] = rows[rank];
        rows[rank] = prow;
        for (Py_ssize_t rr = piv + 1; rr < nrows; rr++)
            rows[rr] ^= prow & -(rows[rr] >> col & 1);
        rank++;
    }
    for (Py_ssize_t rr = rank; rr < nrows; rr++)
        if (rows[rr])
            return -1;
    return rank;
}

/* Conjugation orbits of GL_n(F_q) on codes.  A code is the odometer index
   sum_k a_k q^k of A, digit k = i*n + j holding A[i, j]. */

typedef struct {
    int n, nn, ngen;      /* ngen: generators used, 0 for n < 2, no diag at q = 2 */
    uint32_t q, omega, omega_inv; /* omega a primitive root mod q */
    uint32_t pv[32];      /* pv[k] = q^k, the place value of digit k */
    uint32_t cyc[32];     /* cyc[i*n + j] = pv[(i+1)%n * n + (j+1)%n] */
    uint32_t d[32];       /* the digits of the code being expanded */
    uint64_t *seen;       /* bit c set once code c is marked */
    uint32_t *stack;      /* codes marked but not yet expanded */
    size_t cap;
} Orbits;

/* The number of codes, q^nn, or ORBIT_CAP + 1 when that is larger. */
static ll space_size(ll q, Py_ssize_t nn)
{
    ll total = 1;
    for (Py_ssize_t k = 0; k < nn && total <= ORBIT_CAP; k++)
        total *= q; /* total <= 2^32 and q < 2^31, so no overflow */
    return total <= ORBIT_CAP ? total : ORBIT_CAP + 1;
}

/* A primitive root mod the prime q: g whose power (q-1)/r is not 1 for any
   prime r dividing q - 1. */
static uint32_t primitive_root(uint32_t q)
{
    for (uint32_t g = 2; g < q; g++) {
        int ok = 1;
        ll m = q - 1;
        for (ll r = 2; ok && m > 1; r++) {
            if (r * r > m)
                r = m;
            if (m % r == 0)
                ok = power(g, (q - 1) / r, q) != 1;
            while (m % r == 0)
                m /= r;
        }
        if (ok)
            return g;
    }
    return 1;
}

/* Set up W for n x n matrices over F_q with total = q^(n*n) <= ORBIT_CAP
   codes.  Returns 0, or -1 with MemoryError set. */
static int orbits_init(Orbits *W, int n, ll q, ll total)
{
    W->n = n;
    W->nn = n * n;
    W->q = (uint32_t)q;
    W->omega = q == 2 ? 1 : primitive_root(W->q);
    W->omega_inv = (uint32_t)inverse(W->omega, q);
    W->ngen = n < 2 ? 0 : q == 2 ? 2 : 3;
    for (int k = 0; k < W->nn; k++)
        W->pv[k] = k ? W->pv[k - 1] * W->q : 1;
    for (int i = 0; i < n; i++)
        for (int j = 0; j < n; j++)
            W->cyc[i * n + j] = W->pv[(i + 1) % n * n + (j + 1) % n];
    W->cap = 64;
    if ((W->seen = zeros((total + 63) / 64, 1, 1)) == NULL)
        return -1;
    if ((W->stack = PyMem_New(uint32_t, W->cap)) == NULL)
        return PyErr_NoMemory(), -1;
    return 0;
}

static void orbits_free(Orbits *W)
{
    PyMem_Free(W->seen);
    PyMem_Free(W->stack);
}

/* Mark the orbit of the unmarked code c, depth first under the generators
   I + E01, the n-cycle permutation matrix and diag(omega, 1, .., 1).  Each
   image is found from the digits of its preimage and the place values of
   the digits it changes.  Returns how many members lie in [start, stop),
   or -1 with MemoryError set. */
static ll walk(Orbits *W, uint32_t c, ll start, ll stop)
{
    const int n = W->n, nn = W->nn;
    const uint32_t q = W->q, *pv = W->pv, *d = W->d;
    size_t depth = 0;
    ll inside = 0;
    W->seen[c >> 6] |= (uint64_t)1 << (c & 63);
    W->stack[depth++] = c;
    while (depth) {
        const uint32_t x = W->stack[--depth];
        uint32_t img[3], row0[2] = {0, 0};
        int64_t y = x;
        uint64_t z = 0;
        inside += start <= x && x < stop;
        if (W->ngen == 0)
            continue;
        for (int k = 0; q == 2 && k < nn; k++)
            W->d[k] = x >> k & 1;
        for (uint32_t k = 0, v = x; q != 2 && k < (uint32_t)nn; k++, v /= q)
            W->d[k] = v % q;
        /* (I + E01) A (I - E01): add row 1 to row 0, then subtract column 0
           from column 1 */
        for (int j = 0; j < n; j++) {
            uint32_t v = d[j] + d[n + j];
            v -= v >= q ? q : 0;
            y += ((int64_t)v - d[j]) * pv[j];
            if (j < 2)
                row0[j] = v;
        }
        for (int i = 0; i < n; i++) {
            uint32_t c0 = i ? d[i * n] : row0[0], c1 = i ? d[i * n + 1] : row0[1];
            uint32_t v = c1 + q - c0;
            v -= v >= q ? q : 0;
            y += ((int64_t)v - c1) * pv[i * n + 1];
        }
        img[0] = (uint32_t)y;
        /* the n-cycle: entry (i, j) moves to (i+1, j+1) mod n */
        for (int k = 0; k < nn; k++)
            z += (uint64_t)d[k] * W->cyc[k];
        img[1] = (uint32_t)z;
        /* diag(omega, 1, .., 1): row 0 times omega, column 0 times omega^-1 */
        y = x;
        for (int k = 1; W->ngen == 3 && k < n; k++) {
            y += ((int64_t)(d[k] * W->omega % q) - d[k]) * pv[k];
            y += ((int64_t)(d[k * n] * W->omega_inv % q) - d[k * n]) * pv[k * n];
        }
        img[2] = (uint32_t)y;
        if (depth + 3 > W->cap) {
            uint32_t *grown = PyMem_Resize(W->stack, uint32_t, 2 * W->cap);
            if (grown == NULL)
                return PyErr_NoMemory(), -1;
            W->stack = grown;
            W->cap *= 2;
        }
        for (int g = 0; g < W->ngen; g++) {
            const uint32_t e = img[g];
            if (!(W->seen[e >> 6] >> (e & 63) & 1)) {
                W->seen[e >> 6] |= (uint64_t)1 << (e & 63);
                W->stack[depth++] = e;
            }
        }
    }
    return inside;
}

/* Histogram the codes in [start, stop).  With W, each unmarked code is the
   representative of its orbit and weighs the orbit's members in the range;
   without W every code is its own representative.  Returns 0, or -1 with
   MemoryError set. */
static int scan(Scan *S, Orbits *W, ll start, ll stop)
{
    if (S->nn == 0) { /* the empty matrix satisfies every relation */
        S->counts[0] = stop - start;
        return 0;
    }
    for (int i = 0; i < S->n; i++)
        S->pows[i * (S->n + 1)] = 1; /* A^0 = identity */
    for (int j = 0; S->p == 2 && j < S->n; j++)
        S->cols[j] = (uint64_t)1 << j; /* the columns of A^0 */
    for (ll code = start; code < stop; code++) {
        ll weight = 1, idx = code;
        Py_ssize_t rank;
        if (W != NULL) {
            if (W->seen[code >> 6] >> (code & 63) & 1)
                continue;
            if ((weight = walk(W, (uint32_t)code, start, stop)) < 0)
                return -1;
        }
        for (Py_ssize_t d = 0; d < S->nn; d++, idx /= S->p)
            S->a[d] = idx % S->p;
        powers(S);
        if (!admitted(S))
            S->rejected += weight;
        else if ((rank = S->p == 2 ? rank_gf2(S) : rank_of_system(S)) < 0)
            S->inconsistent += weight;
        else
            S->counts[S->nn - rank] += weight;
    }
    return 0;
}

static PyObject *nullity_histogram(PyObject *Py_UNUSED(self), PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"n", "p", "start", "stop", "a_filters", "b_relations",
                             "max_pow", NULL};
    PyObject *pyp, *a_filters, *b_relations, *hist = NULL;
    ll start, stop, total;
    int overflow;
    Scan S = {0};
    Orbits W = {0};
    Terms *parsed[] = {&S.filt, &S.lin, &S.con};
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "iOLLOOi:nullity_histogram", kwlist,
                                     &S.n, &pyp, &start, &stop, &a_filters, &b_relations,
                                     &S.max_pow))
        return NULL;
    S.p = PyLong_AsLongLongAndOverflow(pyp, &overflow);
    if (overflow || S.p < 2 || S.p >= (1LL << 31))
        return PyErr_Format(PyExc_ValueError,
                            "the compiled kernel needs 2 <= p < 2^31, got p = %S", pyp);
    if (S.n < 0 || S.max_pow < 0 || start < 0)
        return PyErr_Format(PyExc_ValueError, "n, start and max_pow must be nonnegative");
    S.nn = (Py_ssize_t)S.n * S.n;
    if (S.p == 2 && S.nn + 1 > 64)
        return PyErr_Format(PyExc_ValueError,
                            "the compiled kernel packs a row into 64 bits at p = 2, "
                            "so it needs n*n + 1 <= 64, got n = %d", S.n);
    stop = stop < start ? start : stop;
    total = space_size(S.p, S.nn);
    /* at n = 1 conjugation is trivial, so orbits are single codes; a range
       past the last code wraps around, as in the Python mirror */
    const int by_orbit = S.n >= 2 && total <= ORBIT_CAP && start < stop && stop <= total;
    if (parse_terms(a_filters, -1, 1, pyp, S.max_pow, &S.filt) < 0
        || parse_terms(b_relations, 0, 2, pyp, S.max_pow, &S.lin) < 0
        || parse_terms(b_relations, 1, 1, pyp, S.max_pow, &S.con) < 0
        || (S.counts = zeros(S.nn + 1, 1, 1)) == NULL
        || (S.a = zeros(S.nn, 1, 1)) == NULL
        || (S.pows = zeros(S.max_pow + 1, S.nn, 1)) == NULL
        || (S.p == 2 ? (S.bits = zeros(S.lin.nrel, S.nn, 1)) == NULL
                         || (S.cols = zeros(S.max_pow + 1, S.n, 1)) == NULL
                     : (S.rows = zeros(S.lin.nrel, S.nn, S.nn + 1)) == NULL)
        || (by_orbit && orbits_init(&W, S.n, S.p, total) < 0)
        || scan(&S, by_orbit ? &W : NULL, start, stop) < 0)
        goto done;
    hist = PyList_New(S.nn + 1);
    for (Py_ssize_t d = 0; hist != NULL && d <= S.nn; d++) {
        PyObject *c = PyLong_FromLongLong(S.counts[d]);
        if (c == NULL)
            Py_CLEAR(hist);
        else
            PyList_SET_ITEM(hist, d, c);
    }
done:
    for (int k = 0; k < 3; k++) {
        PyMem_Free(parsed[k]->off);
        PyMem_Free(parsed[k]->term);
    }
    PyMem_Free(S.counts);
    PyMem_Free(S.a);
    PyMem_Free(S.pows);
    PyMem_Free(S.rows);
    PyMem_Free(S.bits);
    PyMem_Free(S.cols);
    orbits_free(&W);
    return hist == NULL ? NULL : Py_BuildValue("(NLL)", hist, S.rejected, S.inconsistent);
}

/* _orbit_count(n, p): the number of conjugation orbits the walk finds on
   all of M_n(F_p), for tests of its generator set. */
static PyObject *orbit_count(PyObject *Py_UNUSED(self), PyObject *args)
{
    int n;
    ll p, total, orbits = 0;
    Orbits W = {0};
    if (!PyArg_ParseTuple(args, "iL:_orbit_count", &n, &p))
        return NULL;
    if (n < 0 || p < 2 || p >= (1LL << 31)
        || (total = space_size(p, (Py_ssize_t)n * n)) > ORBIT_CAP)
        return PyErr_Format(PyExc_ValueError, "_orbit_count needs n >= 0, 2 <= p < 2^31 "
                            "and p^(n*n) <= 2^32");
    if (orbits_init(&W, n, p, total) == 0)
        for (ll code = 0; code < total && orbits >= 0; code++)
            if (!(W.seen[code >> 6] >> (code & 63) & 1))
                orbits = walk(&W, (uint32_t)code, 0, 0) < 0 ? -1 : orbits + 1;
    orbits_free(&W);
    return orbits < 0 || PyErr_Occurred() ? NULL : PyLong_FromLongLong(orbits);
}

static PyMethodDef methods[] = {
    {"nullity_histogram", (PyCFunction)(void (*)(void))nullity_histogram,
     METH_VARARGS | METH_KEYWORDS,
     "nullity_histogram(n, p, start, stop, a_filters, b_relations, max_pow)\n--\n\n"
     "Same contract as clzeta.oracle._kernels_py.nullity_histogram."},
    {"_orbit_count", orbit_count, METH_VARARGS,
     "_orbit_count(n, p)\n--\n\nNumber of GL_n(F_p) conjugation orbits on M_n(F_p)."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernels_module = {
    PyModuleDef_HEAD_INIT, "_kernels", "Compiled counting kernel for the matrix-point oracle.",
    -1, methods, NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC PyInit__kernels(void)
{
    PyObject *m = PyModule_Create(&kernels_module);
    if (m != NULL && PyModule_AddObjectRef(m, "COMPILED", Py_True) < 0)
        Py_CLEAR(m);
    return m;
}
