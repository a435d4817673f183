"""Similarity classes of matrices over finite fields.

Matrices are square numpy arrays of field element indices for some
FieldCtx.  The classification data for a matrix A is the multiset of
elementary divisors of tI - A, organized as a list of
(irreducible polynomial, partition) pairs: for each irreducible p(t)
dividing the characteristic polynomial, the partition records the
exponents of p in the invariant-factor chain, which are the sizes of
the p-blocks of the generalized Jordan form.  Two matrices are
conjugate under GL_n(F_q) iff this data agrees, and every similarity
type is realized by a block-diagonal generalized Jordan form built
from companion matrices.  The data is read off the factored
characteristic polynomial and the ranks of p(A)^k, with no Smith form
over F_q[t].
"""

import itertools
import math
from functools import reduce

import numpy as np

from . import poly
from .errors import (DerivativeVanishes, Singular, SizeExceeded, SizeMismatch,
                     VerificationFailed)
from .repcore import orbits

MAX_ENUM = 1 << 20


# ---------------------------------------------------------------------------
# matrix arithmetic over a FieldCtx (index-valued numpy arrays)

def mat_mul(ctx, A, B):
    # contract over the inner axis with field ops; n is tiny here
    prods = ctx.mul(A[..., :, :, None], B[..., None, :, :])
    out = prods[..., 0, :]
    for k in range(1, prods.shape[-2]):
        out = ctx.add(out, prods[..., k, :])
    return out


def mat_eye(ctx, n):
    return np.where(np.eye(n, dtype=np.int64) == 1, 1, 0).astype(np.int64)


def mat_det(ctx, A):
    """Determinant by permutation expansion; A may have leading batch axes."""
    n = A.shape[-1]
    if A.shape[-2] != n:
        raise SizeMismatch("square matrix required")
    if n > 5:
        raise SizeExceeded("permutation expansion capped at n=5")
    total = np.zeros(A.shape[:-2], dtype=np.int64)
    for perm in itertools.permutations(range(n)):
        term = A[..., 0, perm[0]]
        for i in range(1, n):
            term = ctx.mul(term, A[..., i, perm[i]])
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        if sign < 0:
            term = ctx.neg(term)
        total = ctx.add(total, term)
    return total


def random_matrix(ctx, n, rng):
    return rng.integers(0, ctx.q, size=(n, n)).astype(np.int64)


def mat_inv(ctx, A):
    """Gauss-Jordan inverse over the field; Singular if A is not invertible."""
    n = A.shape[0]
    R, pivots = _row_reduce(ctx, np.concatenate([A, mat_eye(ctx, n)], axis=1))
    if pivots != list(range(n)):
        raise Singular("matrix is not invertible")
    return np.array(R, dtype=np.int64).reshape(n, 2 * n)[:, n:]


# ---------------------------------------------------------------------------
# linear algebra over F_q: Gaussian elimination on indices

def _row_reduce(ctx, M):
    """Reduced row echelon form of the matrix M over the field, as a
    list of lists of Python ints, and its pivot columns.  Every step
    runs on ctx.scalar."""
    s = ctx.scalar
    R = np.asarray(M, dtype=np.int64).tolist()
    pivots = []
    for c in range(np.shape(M)[1]):
        r = len(pivots)
        piv = next((i for i in range(r, len(R)) if R[i][c]), None)
        if piv is None:
            continue
        R[r], R[piv] = R[piv], R[r]
        inv = s.inv(R[r][c])
        R[r] = [s.mul(x, inv) for x in R[r]]
        for i, row in enumerate(R):
            if i != r and row[c]:
                R[i] = [s.sub(x, s.mul(y, row[c])) for x, y in zip(row, R[r])]
        pivots.append(c)
    return R, pivots


def fq_nullspace(ctx, M):
    """Basis (list of 1-d arrays) of the right kernel of M over the field."""
    R, pivots = _row_reduce(ctx, M)
    cols = np.shape(M)[1]
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = np.zeros(cols, dtype=np.int64)
        v[fc] = 1
        for i, pc in enumerate(pivots):
            v[pc] = ctx.scalar.neg(R[i][fc])
        basis.append(v)
    return basis


# ---------------------------------------------------------------------------
# characteristic polynomial and similarity types

def charpoly(ctx, a):
    """det(tI - A) of the square list-of-lists a, low degree first.

    Berkowitz's division-free recursion over the leading blocks:
    for A_k = [[A_{k-1}, col], [row, x]], the coefficients of chi_{A_k},
    high degree first, are T chi_{A_{k-1}}, with T lower triangular
    Toeplitz of first column (1, -x, -row col, -row A_{k-1} col, ...,
    -row A_{k-1}^{k-2} col).  Every step runs on ctx.scalar.
    """
    n = len(a)
    if any(len(row) != n for row in a):
        raise SizeMismatch("square matrix required")
    plus, times, neg = ctx.scalar.add, ctx.scalar.mul, ctx.scalar.neg

    def dot(u, v):
        acc = 0
        for x, y in zip(u, v):
            acc = plus(acc, times(x, y))
        return acc

    C = [1]
    for k in range(n):
        row = a[k][:k]
        col = [a[i][k] for i in range(k)]
        T = [1, neg(a[k][k])]
        for j in range(k):
            T.append(neg(dot(row, col)))
            if j < k - 1:
                col = [dot(a[i][:k], col) for i in range(k)]
        C = [reduce(plus, (times(T[i - j], C[j])
                           for j in range(min(i, k) + 1)))
             for i in range(k + 2)]
    return tuple(reversed(C))


def _list_mul(s, a, b):
    """The product of the lists of lists a and b on the ScalarOps s."""
    cols = list(zip(*b))
    return [[reduce(s.add, map(s.mul, row, col), 0) for col in cols]
            for row in a]


def _poly_at(s, f, a):
    """f(A) by Horner on the list of lists a, on the ScalarOps s."""
    out = [[int(i == j) for j in range(len(a))] for i in range(len(a))]
    for c in reversed(f[:-1]):
        out = _list_mul(s, out, a)
        for i in range(len(a)):
            out[i][i] = s.add(out[i][i], c)
    return out


def _partition(ctx, a, f, e):
    """Partition of the f-primary part of the list of lists a, f
    irreducible of multiplicity e in chi_A; every step runs on
    ctx.scalar.

    For e = 1 that part has dimension deg f, so it is one block.
    Otherwise r_k = rank f(A)^k falls to n - e deg f, and
    (r_{k-1} - r_k) / deg f blocks have size >= k.
    """
    if e == 1:
        return [1]
    n, d = len(a), poly.deg(f)
    fA = _poly_at(ctx.scalar, f, a)
    power = fA
    ranks = [n]
    while ranks[-1] > n - e * d:
        if len(ranks) > 1:
            power = _list_mul(ctx.scalar, power, fA)
        ranks.append(len(_row_reduce(ctx, power)[1]))
        drop = ranks[-2] - ranks[-1]
        if drop <= 0 or drop % d:
            raise VerificationFailed(
                f"rank of f(A)^k falls by {drop}, not a positive multiple "
                f"of deg f = {d}")
    at_least = [(r0 - r1) // d for r0, r1 in zip(ranks, ranks[1:])] + [0]
    return [k for k in range(1, len(at_least))
            for _ in range(at_least[k - 1] - at_least[k])]


class SimilarityType:
    """Canonical conjugacy invariant: ((irreducible, partition), ...).

    Entries are sorted by (degree, coefficient tuple) of the irreducible;
    each partition lists exponents in ascending order.
    """

    def __init__(self, entries):
        self.entries = tuple(sorted(
            (tuple(f), tuple(sorted(part))) for f, part in entries))

    @property
    def dim(self):
        return sum(poly.deg(f) * sum(part) for f, part in self.entries)

    def __eq__(self, other):
        return isinstance(other, SimilarityType) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        bits = ", ".join(f"{f}:{list(part)}" for f, part in self.entries)
        return f"SimilarityType({bits})"


def similarity_type(ctx, A):
    """Similarity type of A: chi_A factored, and for each repeated
    irreducible factor the partition read off kernel ranks."""
    n = A.shape[0]
    if A.shape != (n, n):
        raise SizeMismatch("square matrix required")
    a = A.tolist()
    unit, factors = poly.factor(ctx, charpoly(ctx, a))
    if unit != 1:
        raise VerificationFailed(f"characteristic polynomial has unit {unit}")
    st = SimilarityType((f, _partition(ctx, a, f, e)) for f, e in factors)
    if st.dim != n:
        raise VerificationFailed("similarity type dimension mismatch")
    return st


def conjugation_orbits(ctx, n):
    """Brute-force GL_n orbits on M_n(F_q) under conjugation: a dict from
    every matrix, as the tuple of its entries in row-major order, to the
    index of its orbit.  Meant as a reference for tiny q and n.

    Matrices are indexed by their row-major base-q digits, so orbits are
    numbered in increasing order of their first matrix in that order."""
    places = ctx.q ** np.arange(n * n - 1, -1, -1)
    mats = (np.arange(ctx.q ** (n * n))[:, None] // places % ctx.q
            ).reshape(-1, n, n)
    units = mats[mat_det(ctx, mats) != 0]
    inverses = np.stack([mat_inv(ctx, X) for X in units])
    blocks = orbits(len(mats), lambda a: mat_mul(
        ctx, mat_mul(ctx, units, mats[a]), inverses).reshape(-1, n * n) @ places)
    return {tuple(int(t) for t in mats[x].ravel()): k
            for k, (_, members) in enumerate(blocks) for x in members}


# ---------------------------------------------------------------------------
# generalized Jordan form

def companion(ctx, f):
    """Companion matrix of a monic polynomial, 1s on the subdiagonal."""
    d = poly.deg(f)
    if d < 1 or not poly.is_monic(f):
        raise SizeMismatch("monic polynomial of positive degree required")
    C = np.zeros((d, d), dtype=np.int64)
    for i in range(d - 1):
        C[i + 1, i] = 1
    for i in range(d):
        coeff = f[i] if i < len(f) else 0
        C[i, d - 1] = ctx.scalar.neg(int(coeff))
    return C


def _jordan_block(ctx, f, r):
    """r-fold block for the irreducible f: companions chained by identities."""
    d = poly.deg(f)
    C = companion(ctx, f)
    B = np.zeros((r * d, r * d), dtype=np.int64)
    for s in range(r):
        B[s * d:(s + 1) * d, s * d:(s + 1) * d] = C
        if s:
            B[s * d:(s + 1) * d, (s - 1) * d:s * d] = mat_eye(ctx, d)
    return B


def jordan_form(ctx, st):
    """Block-diagonal canonical representative of a similarity type.

    Round-trips through similarity_type as a built-in consistency check.
    """
    blocks = []
    for f, part in st.entries:
        for r in part:
            blocks.append(_jordan_block(ctx, f, r))
    n = sum(b.shape[0] for b in blocks)
    J = np.zeros((n, n), dtype=np.int64)
    at = 0
    for b in blocks:
        m = b.shape[0]
        J[at:at + m, at:at + m] = b
        at += m
    if similarity_type(ctx, J) != st:
        raise VerificationFailed("canonical form does not realize its type")
    return J


# ---------------------------------------------------------------------------
# centralizers

def centralizer(ctx, A):
    """(dimension, unit count) of the commutant algebra of A in M_n(F_q).

    The dimension is that of the kernel of X -> AX - XA, gated against
    sum_f deg f sum_i lambda'_i^2 over the similarity type, lambda' the
    conjugate of f's partition lambda.  The units are prod_f a_lambda(Q),
    Q = q^deg f, with a_lambda(Q) the order of the automorphism group of
    the f-primary part (Macdonald, ch. II (1.6)):
    a_lambda(Q) = Q^(sum lambda'_i^2 - sum_i m_i (m_i + 1) / 2)
                  prod_i prod_{k <= m_i} (Q^k - 1),
    m_i the number of parts of lambda equal to i.
    """
    eye = np.eye(A.shape[0], dtype=np.int64)
    # L[i n + j, k n + l] = [j = l] A[i, k] - [i = k] A[l, j]
    dim = len(fq_nullspace(ctx, ctx.sub(np.kron(A, eye), np.kron(eye, A.T))))
    want, units = 0, 1
    for f, part in similarity_type(ctx, A).entries:
        Q = ctx.q ** poly.deg(f)
        squares = sum(sum(r > i for r in part) ** 2 for i in range(max(part)))
        mults = [part.count(i) for i in set(part)]
        want += poly.deg(f) * squares
        units *= Q ** (squares - sum(m * (m + 1) // 2 for m in mults))
        for m in mults:
            units *= math.prod(Q ** k - 1 for k in range(1, m + 1))
    if dim != want:
        raise VerificationFailed(f"commutant dimension {dim} != {want}")
    return dim, units


# ---------------------------------------------------------------------------
# counting

def _mobius(n):
    if n == 1:
        return 1
    m, res = n, 1
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            res = -res
        p += 1
    if m > 1:
        res = -res
    return res


def count_irreducible_monics(q, d):
    """Number of irreducible monic polynomials of degree d over F_q.

    Computed by the necklace formula (1/d) sum_{e|d} mu(e) q^(d/e).
    """
    if d < 1:
        raise SizeMismatch("degree must be positive")
    total = sum(_mobius(e) * q ** (d // e) for e in range(1, d + 1) if d % e == 0)
    if total % d:
        raise VerificationFailed(f"necklace sum {total} is not a multiple "
                                 f"of {d}")
    return total // d


def _partition_counts(n):
    p = [1] + [0] * n
    for part in range(1, n + 1):
        for m in range(part, n + 1):
            p[m] += p[m - part]
    return p


def _series_mul(a, b, n):
    """Product of two power series truncated after x^n.  The zero terms
    of a are skipped, so a should be the sparser operand."""
    out = [0] * (n + 1)
    for i, x in enumerate(a):
        if x:
            for j in range(n + 1 - i):
                out[i + j] += x * b[j]
    return out


def count_similarity_classes(q, n):
    """Number of GL_n(F_q)-conjugacy classes in M_n(F_q).

    Coefficient of x^n in prod_d P(x^d)^{I_d} where P is the partition
    generating function and I_d counts irreducible monics of degree d.
    Each power is taken by repeated squaring, so the cost grows with
    log I_d rather than I_d (about q^d / d).  Every power of P(x^d) has
    at most n/d + 1 nonzero terms up to x^n, so it is the outer operand
    of each product and the dense running series the inner one.
    """
    if n < 1:
        raise SizeMismatch("n must be positive")
    p = _partition_counts(n)
    series = [1] + [0] * n
    for d in range(1, n + 1):
        block = [0] * (n + 1)
        for m in range(0, n // d + 1):
            block[m * d] = p[m]
        e = count_irreducible_monics(q, d)
        while e:
            if e & 1:
                series = _series_mul(block, series, n)
            block = _series_mul(block, block, n)
            e >>= 1
    return series[n]


def cuspidal_count_identity(q, n):
    """Compare two counts attached to the degree-n extension of F_q.

    First: orbits of the q-power map on characters of F_{q^n}^* that do
    not factor through any proper intermediate norm map (size-n orbits).
    Second: irreducible monic polynomials of degree n over F_q.  Returns
    (orbit_count, monic_count, equal).  The counts agree for n >= 2 but
    differ at n = 1, where the primitivity condition is empty.
    """
    order = q ** n - 1
    if order > MAX_ENUM:
        raise SizeExceeded(f"{order} exponents exceed enumeration bound")
    proper = [d for d in range(1, n) if n % d == 0]
    primitive = 0
    # not repcore.orbits: there are about q^n / n orbits of n members
    # each, and one np.unique per orbit made cuspidal_count_identity(1009,
    # 2) take 4.2 s against 0.9 s for this integer loop (2-core Xeon VM)
    seen = set()
    for j in range(order):
        if j in seen:
            continue
        orbit = set()
        x = j
        while x not in orbit:
            orbit.add(x)
            x = (x * q) % order
        seen |= orbit
        if any(j % (order // (q ** d - 1)) == 0 for d in proper):
            continue
        if len(orbit) != n:
            raise VerificationFailed("primitive orbit of unexpected size")
        primitive += 1
    monics = count_irreducible_monics(q, n)
    return primitive, monics, primitive == monics


# ---------------------------------------------------------------------------
# Hensel lifting

def hensel_lift(ctx, f, r):
    """Lift the tautological root t of f to a root of f modulo f^r.

    Requires gcd(f, f') = 1.  Returns q_r with f(q_r) = 0 mod f^r,
    q_r = t mod f, and deg q_r < deg f^r; both congruences are verified
    exactly before returning.
    """
    f = poly.monic(ctx, poly.trim(f))
    if poly.deg(f) < 1:
        raise SizeMismatch("nonconstant polynomial required")
    if r < 1:
        raise SizeMismatch("r must be positive")
    df = poly.derivative(ctx, f)
    if poly.gcd(ctx, f, df) != (1,):
        raise DerivativeVanishes("f and f' share a factor; root is not simple")
    w = poly.inverse_mod(ctx, df, f)
    root = (0, 1)
    fpow = f
    for s in range(1, r):
        # f(root) is divisible by f^s; peel off the exact cofactor
        val = poly.mod(ctx, poly.compose(ctx, f, root), poly.mul(ctx, fpow, f))
        f1, rem = poly.divmod_poly(ctx, val, fpow)
        if rem:
            raise VerificationFailed("lift invariant broken: f(q_s) not in (f^s)")
        h = poly.neg(ctx, poly.mod(ctx, poly.mul(ctx, f1, w), f))
        root = poly.add(ctx, root, poly.mul(ctx, fpow, h))
        fpow = poly.mul(ctx, fpow, f)
    if poly.mod(ctx, poly.compose(ctx, f, root), fpow):
        raise VerificationFailed("f(q_r) != 0 mod f^r")
    if poly.mod(ctx, poly.sub(ctx, root, (0, 1)), f):
        raise VerificationFailed("q_r != t mod f")
    if poly.deg(root) >= poly.deg(fpow) and r > 1:
        raise VerificationFailed("lift not reduced modulo f^r")
    return root
