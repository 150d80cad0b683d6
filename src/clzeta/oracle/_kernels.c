/* Compiled counting kernel for the matrix-point oracle.

   Same contract as clzeta/oracle/_kernels_py.py, the mod-p reference mirror:
   scan the A-odometer indices in [start, stop), filter A by the A-only
   relations, stack the affine system the B-linear relations impose on B, and
   histogram its nullity.  Only the rank matters, so elimination runs forward
   only, on the rows below each pivot.

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

static ll inverse(ll x, ll p) /* x^(p-2) mod p, the inverse of x for prime p */
{
    ll acc = 1;
    for (ll e = p - 2; e; e >>= 1, x = x * x % p)
        if (e & 1)
            acc = acc * x % p;
    return acc;
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

static void scan(Scan *S, ll start, ll stop)
{
    ll idx = start;
    if (S->nn == 0) { /* the empty matrix satisfies every relation */
        S->counts[0] = stop - start;
        return;
    }
    for (Py_ssize_t d = 0; d < S->nn; d++, idx /= S->p)
        S->a[d] = idx % S->p;
    for (int i = 0; i < S->n; i++)
        S->pows[i * (S->n + 1)] = 1; /* A^0 = identity */
    for (int j = 0; S->p == 2 && j < S->n; j++)
        S->cols[j] = (uint64_t)1 << j; /* the columns of A^0 */
    for (ll step = start; step < stop; step++) {
        Py_ssize_t rank;
        powers(S);
        if (!admitted(S))
            S->rejected++;
        else if ((rank = S->p == 2 ? rank_gf2(S) : rank_of_system(S)) < 0)
            S->inconsistent++;
        else
            S->counts[S->nn - rank]++;
        for (Py_ssize_t d = 0; d < S->nn && ++S->a[d] == S->p; d++)
            S->a[d] = 0;
    }
}

static PyObject *nullity_histogram(PyObject *Py_UNUSED(self), PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"n", "p", "start", "stop", "a_filters", "b_relations",
                             "max_pow", NULL};
    PyObject *pyp, *a_filters, *b_relations, *hist = NULL;
    ll start, stop;
    int overflow;
    Scan S = {0};
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
    if (parse_terms(a_filters, -1, 1, pyp, S.max_pow, &S.filt) < 0
        || parse_terms(b_relations, 0, 2, pyp, S.max_pow, &S.lin) < 0
        || parse_terms(b_relations, 1, 1, pyp, S.max_pow, &S.con) < 0
        || (S.counts = zeros(S.nn + 1, 1, 1)) == NULL
        || (S.a = zeros(S.nn, 1, 1)) == NULL
        || (S.pows = zeros(S.max_pow + 1, S.nn, 1)) == NULL
        || (S.p == 2 ? (S.bits = zeros(S.lin.nrel, S.nn, 1)) == NULL
                         || (S.cols = zeros(S.max_pow + 1, S.n, 1)) == NULL
                     : (S.rows = zeros(S.lin.nrel, S.nn, S.nn + 1)) == NULL))
        goto done;
    scan(&S, start, stop);
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
    return hist == NULL ? NULL : Py_BuildValue("(NLL)", hist, S.rejected, S.inconsistent);
}

static PyMethodDef methods[] = {
    {"nullity_histogram", (PyCFunction)(void (*)(void))nullity_histogram,
     METH_VARARGS | METH_KEYWORDS,
     "nullity_histogram(n, p, start, stop, a_filters, b_relations, max_pow)\n--\n\n"
     "Same contract as clzeta.oracle._kernels_py.nullity_histogram."},
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
