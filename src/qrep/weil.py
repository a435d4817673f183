"""Heisenberg groups, the oscillator construction, and the cuspidal
representations it produces.

The Heisenberg group H(G) of a finite abelian G has elements (x, chi, z)
with x in G, chi in the dual (identified with G through a fixed
pairing), z a root of unity of order m = exp(G), and multiplication
(x, c, z)(x', c', z') = (x + x', c + c', z z' c(x')).  For G = F_{q^2}
the pairing is chi_y(x) = psi(tr(conj(y) x)), with psi the canonical
additive character of F_q and tr the relative trace.

SL2(F_q) acts on H(F_{q^2}) by automorphisms fixing the center; pushing
that action through the canonical model of the irreducible
representation with tautological central character yields the
normalized operators rho~ on L^2(F_{q^2}):

  rho~(a b; c d) f(x) = psi(d c N(x)) f(d x)                  if b = 0
  rho~(a b; c d) f(x) = -(1/q) sum_y psi((d N(x) - tr(conj(y) x)
                          + a N(y)) / b) f(y)                 if b != 0

which is multiplicative on the nose.  Cuspidal representations are cut
out of this model by a character omega of the norm-one subgroup (SL2)
or of the full F_{q^2}^* (GL2, after extending by an operator for
diag(1, a)).  Every element of SL2 is a word in l(c) = (1 0; c 1),
t(a) = diag(a, 1/a) and w = (0 1; -1 0), built for many elements at
once by _words.  rho~ is monomial on the lower cell, so every letter but
w is restricted to W_omega as a monomial operator, R(w) is read off the
kernel of rho~(w) on the norm fibres (the Bessel function of the
Kirillov model) with no Q x Q operator, and a cuspidal character is
read off the traces of products of restricted letters.
"""

import math
from functools import cached_property, reduce

import numpy as np

from .config import gate, within_tol
from .errors import (EvenExponent, EvenQ, GroupMismatch, NotPrimitive,
                     NotSL2, SizeExceeded, VerificationFailed)
from .ff import MultChar, NormOneChar, dual_pairing, is_primitive
from .parabolic import split_in_two
from .repcore import (ClassFunction, FiniteGroupView, MatrixRep, MixedRadix,
                      MonomialImages, character_table_bruteforce,
                      inner_product, monomial_gap, rep_character, row_chunks)

MAX_H = 1 << 18
# verify_ordinary holds rho~ of every SL2 element at once: q <= 13 fits
MAX_STACK_BYTES = 1 << 30


def check_stack(q):
    """SizeExceeded, from q alone, unless verify_ordinary's complex q^2 x
    q^2 images of all q^3 - q elements of SL2(F_q) fit MAX_STACK_BYTES."""
    n, Q = q ** 3 - q, q * q
    if n * Q * Q * np.dtype(complex).itemsize > MAX_STACK_BYTES:
        raise SizeExceeded(f"{n} images of {Q} x {Q} exceed "
                           f"{MAX_STACK_BYTES} bytes")


class HeisenbergCtx:
    """H(G) for G = Z/n_1 x ... x Z/n_r, indexed little-endian by
    MixedRadix, with the pairing chi_c(x) = zeta_m^(c . form . x) on digit
    vectors, m = lcm(n_i).  Elements are encoded as x + nG (c + nG z)
    with z an exponent mod m.

    The addition (nG x nG), negation (nG) and pairing (nG x nG) tables
    of G are built once, so g_add, g_neg and pair_exp are one gather
    each; symplectic_defect certifies from the addition and pairing
    tables alone that the symplectic presentation carries the group law
    on every pair of H.  heisenberg_group takes the standard form
    diag(m / n_i); heisenberg_from_ext takes the trace form of F_{q^2}.
    SizeExceeded when |H| = nG^2 m exceeds MAX_H."""

    def __init__(self, orders, form):
        self.orders = [int(o) for o in orders]
        radix = MixedRadix(self.orders)
        self.nG = radix.n
        self.m = math.lcm(*self.orders)
        self.nH = self.nG * self.nG * self.m
        if self.nH > MAX_H:
            raise SizeExceeded(f"|H| = {self.nH} exceeds {MAX_H}")
        digits = radix.digits(np.arange(self.nG))
        self._add = radix.index(digits[:, None] + digits[None, :])
        self._neg = radix.index(-digits)
        self._pair = digits @ np.asarray(form, dtype=np.int64) @ digits.T % self.m

    # --- the abelian group G and its self-pairing ---

    def g_add(self, x, y):
        return self._add[x, y]

    def g_neg(self, x):
        return self._neg[x]

    def pair_exp(self, c, x):
        """Exponent e with chi_c(x) = zeta_m^e."""
        return self._pair[c, x]

    # --- H itself ---

    def encode(self, x, c, z):
        return (np.asarray(x) + self.nG * (np.asarray(c)
                + self.nG * (np.asarray(z) % self.m)))

    def decode(self, h):
        h = np.asarray(h)
        return h % self.nG, (h // self.nG) % self.nG, h // (self.nG * self.nG)

    def h_mul(self, h1, h2):
        x1, c1, z1 = self.decode(h1)
        x2, c2, z2 = self.decode(h2)
        return self.encode(self.g_add(x1, x2), self.g_add(c1, c2),
                           (z1 + z2 + self.pair_exp(c1, x2)) % self.m)

    def h_inv_array(self):
        h = np.arange(self.nH)
        x, c, z = self.decode(h)
        return self.encode(self.g_neg(x), self.g_neg(c),
                           (-z + self.pair_exp(c, x)) % self.m)

    @cached_property
    def view(self):
        return FiniteGroupView(self.nH, self.h_mul, inv=self.h_inv_array(),
                               identity=0)


def heisenberg_group(orders):
    """H(prod Z/n_i) with the standard pairing prod zeta_{n_i}^(c_i x_i)."""
    m = math.lcm(*(int(o) for o in orders))
    return HeisenbergCtx(orders, np.diag([m // int(o) for o in orders]))


def heisenberg_from_ext(ectx):
    """H(F_{q^2}) with the trace-form pairing chi_c(x) = psi(tr(conj(c) x)).

    F_{q^2} indices are nested little-endian digit expansions, so they
    are the base-p digits of (Z/p)^(2k) and field addition is digit-wise.
    The pairing is F_p-bilinear, so its form is ff.dual_pairing read on
    the F_p basis p^i."""
    basis = ectx.p ** np.arange(ectx.ext.k)
    form = [dual_pairing(ectx, int(b)).exponents[basis] for b in basis]
    return HeisenbergCtx([ectx.p] * ectx.ext.k, form)


def symplectic_defect(hctx):
    """(failed relations, nH^2): a certificate that the symplectic
    presentation carries the group law on all nH^2 pairs of H.

    With P = pair_exp, m odd and inv2 = (m + 1) / 2, the symplectic
    law is (x1 + x2, c1 + c2, z1 + z2 + inv2 (P(c1, x2) - P(c2, x1))),
    and the bijection phi(x, c, z) = (x, c, z - inv2 P(c, x)) is to
    carry h_mul to it (Weil 1964).  Both sides of phi(h1 h2) =
    phi(h1) phi(h2) take x and c from the same g_add, and their z
    components differ by
      (1 - 2 inv2) P(c1, x2) - inv2 B(c1, c2, x1, x2),
      B = P(c1 + c2, x1 + x2) - P(c1, x1) - P(c1, x2) - P(c2, x1)
          - P(c2, x2),
    whatever z1 and z2 are.  2 inv2 = m + 1 is 1 mod m and inv2 is a
    unit, so a pair holds iff B vanishes mod m at its (c1, c2, x1, x2):
    every pair holds iff P is biadditive on the tables _add and _pair
    the group law reads.  Two families of relations certify that, in
    O(r nG^2) for r cyclic factors:
      (a) _add[x, y] is MixedRadix.index of the digit sum, for every
          pair, so _add is the group law of Z/n_1 x ... x Z/n_r;
      (b) for each unit digit vector e_i and every c and x,
          P(c + e_i, x) = P(c, x) + P(e_i, x) and
          P(c, x + e_i) = P(c, x) + P(c, e_i)  (mod m).
    For fixed x, the a with P(c + a, x) = P(c, x) + P(a, x) for every c
    are closed under addition (for a and b among them, apply b's
    relation at c + a and at a, and a's at c), so by (a) they form a
    subgroup.  By (b) it holds every e_i, which generate G, so it is all
    of G: P is additive in c, likewise in x, and so biadditive.  The
    count is 0 iff every relation of (a) and (b) holds, and 0 certifies
    every pair.  EvenExponent for even m, where 2 has no inverse."""
    if hctx.m % 2 == 0:
        raise EvenExponent("2 is not invertible mod the exponent")
    radix, xs = MixedRadix(hctx.orders), np.arange(hctx.nG)
    P, add = hctx.pair_exp(xs[:, None], xs), hctx.g_add(xs[:, None], xs)
    digits = radix.digits(xs)
    bad = np.count_nonzero(add != radix.index(digits[:, None] + digits))
    for e in radix.places:
        bad += np.count_nonzero((P[add[:, e]] - P - P[e]) % hctx.m)
        bad += np.count_nonzero((P[:, add[:, e]] - P - P[:, e, None]) % hctx.m)
    return int(bad), hctx.nH ** 2


def heisenberg_rep(hctx):
    """The canonical model on L^2(G):
    (eta(x', c', z') f)(x) = zeta^z' chi_c'(x - x') f(x - x').
    Monomial images, row x having its one entry at column x - x', kept
    as a MonomialImages store; |H| is capped at 4096 here."""
    if hctx.nH > 4096:
        raise SizeExceeded("Heisenberg images need |H| <= 4096")
    x1, c1, z1 = (t[:, None] for t in hctx.decode(np.arange(hctx.nH)))
    cols = hctx.g_add(np.arange(hctx.nG), hctx.g_neg(x1))     # x - x'
    e = (z1 + hctx.pair_exp(c1, cols)) % hctx.m
    vals = np.exp(2j * np.pi * e / hctx.m)
    return MatrixRep(hctx.view, MonomialImages(cols, vals))


def svn_check(hctx):
    """Stone-von-Neumann uniqueness by brute force: the canonical model
    is irreducible, and the full character table (class-algebra method)
    contains exactly one irreducible whose central character is the
    tautological z -> z, namely the canonical model's.

    Only for |G| <= 16.  Returns the largest defect its gates measured;
    raises VerificationFailed with the offending datum otherwise."""
    if hctx.nG > 16:
        raise SizeExceeded("svn check is restricted to |G| <= 16")
    view = hctx.view
    rep = heisenberg_rep(hctx)
    hom = gate(rep.check_homomorphism(), "canonical model not multiplicative")
    chi = rep_character(rep)
    ip = inner_product(chi, chi)
    irr = gate(abs(ip - 1), f"canonical model reducible: <chi,chi> = {ip}")

    # central elements act by the tautological scalar
    z0 = int(hctx.encode(0, 0, 1))
    zeta = np.exp(2j * np.pi / hctx.m)
    center = gate(np.max(np.abs(rep.images[z0] - zeta * np.eye(hctx.nG))),
                  "center does not act tautologically")

    table = character_table_bruteforce(view)
    idc = int(view.class_of[view.identity])
    zc = int(view.class_of[z0])
    hits = []
    for r in range(table.shape[0]):
        if within_tol(abs(table[r, zc] / table[r, idc] - zeta)):
            hits.append(r)
    if len(hits) != 1:
        raise VerificationFailed(
            f"{len(hits)} irreducibles with tautological central character")
    same = gate(np.max(np.abs(table[hits[0]] - chi.values)),
                "tautological irreducible != canonical model")
    return max(hom, irr, center, same)


def fourier_intertwines(hctx):
    """Number of tuples (x', c', c, x) at which FT o eta(h) = eta^(h) o FT
    fails, over every h in H, where eta^ is the dual-model action
    (eta^(x', c', z') F)(c) = zeta^z' chi_c(x')^{-1} F(c - c').

    The center scales both sides by the same literal zeta^z' prefactor,
    so checking every (x', c') at z' = 0 covers all of H.

    With FT[c, x] = conj(chi_c(x)), entry (c, x) of the identity at
    (x', c') reads FT[c, x + x'] chi_c'(x) = FT[c - c', x] FT[c, x'].
    Every factor is an m-th root of unity zeta^P at a pair_exp value P,
    and such roots are equal iff their exponents agree mod m, so the
    identity fails iff
      L = P[c', x] + P[c - c', x]  !=  R = P[c, x + x'] - P[c, x']  (mod m).
    For fixed (c, x), L varies with c' alone and R with x' alone, so
    (c, x) contributes nG^2 - sum_e #{c': L = e} #{x': R = e}
    violations.  Both counts are one bincount per chunk of c, each
    chunk's (c, x, .) array at most _CHUNK_BYTES: O(nG^3) integer work,
    and the count is exact."""
    nG, m = hctx.nG, hctx.m
    xs = np.arange(nG)
    P = hctx.pair_exp(xs[:, None], xs)
    shift = hctx.g_add(xs[:, None], xs)                  # [x, x'] = x + x'
    diff = hctx.g_add(xs[:, None], hctx.g_neg(xs))       # [c, c'] = c - c'
    bad = 0
    for rows in row_chunks(nG, nG * nG * P.itemsize):
        c1 = xs[rows]
        # one block of m codes per (c, x)
        base = m * np.arange(len(c1) * nG).reshape(len(c1), nG, 1)
        # [c, x, c'] -> P[c', x] + P[c - c', x]
        left = (P.T + P[diff[c1]].transpose(0, 2, 1)) % m + base
        # [c, x, x'] -> P[c, x + x'] - P[c, x']
        right = (P[c1[:, None, None], shift] - P[c1, None, :]) % m + base
        U = np.bincount(left.ravel(), minlength=base.size * m)
        V = np.bincount(right.ravel(), minlength=base.size * m)
        bad += len(c1) * nG ** 3 - int(U @ V)
    return bad


# --- the normalized SL2 operators on L^2(F_{q^2}) ---

def weil_matrix(ectx, sigma):
    """The operator rho~(sigma) on L^2(F_{q^2}) as a q^2 x q^2 matrix,
    rows indexed by the argument x.  sigma = (a, b, c, d) base-field
    indices with determinant 1."""
    return _weil_stack(ectx, np.array([sigma]))[0]


def _weil_stack(ectx, mats):
    """rho~ of every row (a, b, c, d) of the (n, 4) array mats, as an
    (n, Q, Q) stack: weil_matrix with one field call per step for all
    rows of each Bruhat cell."""
    a, b, c, d = np.asarray(mats, dtype=np.int64).T
    _check_sl2(ectx, a, b, c, d)
    lower = b == 0
    out = np.empty((len(b), ectx.ext.q, ectx.ext.q), dtype=complex)
    out[lower] = _lower_cell(ectx, c[lower], d[lower])[:]
    out[~lower] = _big_cell(ectx, a[~lower], b[~lower], d[~lower])
    return out


def _check_sl2(ectx, a, b, c, d):
    if ectx.q % 2 == 0:
        raise EvenQ("odd q required")
    base = ectx.base
    det = base.sub(base.mul(a, d), base.mul(b, c))
    if np.any(det != 1):
        raise NotSL2(f"det {int(det[det != 1][0])} != 1")


def _lower_cell(ectx, c, d):
    """rho~ of the elements (d^-1, 0; c, d), one per entry of the
    arrays c and d, as MonomialImages: f(x) -> psi(d c N(x)) f(d x)."""
    base, ext = ectx.base, ectx.ext
    cols = ext.mul(d[:, None], np.arange(ext.q))
    vals = ectx.psi.values[base.mul(base.mul(d, c)[:, None], ectx.norm)]
    return MonomialImages(cols, vals)


def _big_cell(ectx, a, b, d):
    """rho~ of the elements (a, b; c, d) with b != 0, one per entry of
    the arrays a, b and d: the kernel
    -(1/q) psi((d N(x) - tr(conj(y) x) + a N(y)) / b)."""
    base = ectx.base
    Nx = ectx.norm
    idx = np.arange(ectx.ext.q)
    # [x, y] -> tr(conj(y) x)
    pairing = ectx.trace[ectx.ext.mul(idx[:, None], ectx.frob[idx])]
    binv = base.inv(b)[:, None, None]
    arg = base.mul(binv, base.sub(
        base.add(base.mul(d[:, None], Nx)[:, :, None],
                 base.mul(a[:, None], Nx)[:, None, :]),
        pairing))
    return (-1.0 / base.q) * ectx.psi.values[arg]


def _words(gctx, mats):
    """Letter ids of every row g of the (n, 4) array mats, as an (n, 5)
    array: diag(1, det g), then the word of sigma = diag(1, 1/det g) g,
    padded with the identity e.  For sigma = (a b; c d) that word is
    t(a) l(ac) e e when b = 0 and l(d/b) w l(ab) t(1/b) otherwise, with
    l(c) = (1 0; c 1), t(a) = diag(a, 1/a) and w = (0 1; -1 0).

    One field call per step over all rows.  gctx.ids_of reads the ids,
    NotInGroup if a letter lies outside gctx; every word is multiplied
    back from gctx.elems of its ids and compared exactly with its row,
    as in gl2.bruhat."""
    F = gctx.field
    g = np.asarray(mats, dtype=np.int64)
    a, b, c, d = g.T
    det = gctx.mat_det(g)
    lower = b == 0
    u, binv = F.inv(np.stack([det, np.where(lower, 1, b)]))
    c, d = F.mul(np.stack([c, d]), u)
    ac, dbinv, ab = F.mul(np.stack([a, d, a]), np.stack([c, binv, b]))
    o, e = np.zeros_like(a), np.ones_like(a)
    w = [o, e, int(F.neg(1)) * e, o]
    letters = np.stack([
        [e, o, o, det],
        np.where(lower, [a, o, o, d], [e, o, dbinv, e]),
        np.where(lower, [e, o, ac, e], w),
        np.where(lower, [e, o, o, e], [e, o, ab, e]),
        np.where(lower, [e, o, o, e], [binv, o, o, b])]).transpose(2, 0, 1)
    ids = gctx.ids_of(letters)
    back = reduce(gctx.mat_mul, gctx.elems[ids].transpose(1, 0, 2))
    bad = int(np.count_nonzero(np.any(back != g, axis=-1)))
    if bad:
        raise VerificationFailed(f"{bad} words do not re-multiply")
    return ids


def verify_ordinary(ectx, slctx):
    """Multiplicativity and normalization checks for rho~ on the SL2
    context slctx over ectx.base.

    Multiplicativity is MatrixRep.check_homomorphism on SL2's view: its
    |G| |S| (element, generator) products bound the defect of every pair.
    Also checks, for every single element, that rho~ equals the
    product of rho~ over its _words word, and pins the normalization:
    rho~(w) 1_0 evaluated at 0 equals -1/q, and
    (rho~(sigma) 1_0)(x) = -(1/q) psi(d b^{-1} N(x)) for b != 0, with
    d b^{-1} read off the word's letter l(d/b).

    The images are filled from _weil_stack, and the words multiplied as
    batched products, over chunks of elements whose stacks are at most
    repcore._CHUNK_BYTES each.

    Returns {"pairs", "word_length", "bound", "word_defect",
    "norm_defect"}: the products checked, the view's word length bound L
    and the certificate's bound B.  SizeExceeded from check_stack, before
    any image is built, when the images exceed MAX_STACK_BYTES.
    """
    if slctx.kind != "sl2" or slctx.field is not ectx.base:
        raise GroupMismatch("need an sl2 context over the extension's base")
    n, q, Q = slctx.n, ectx.q, ectx.ext.q
    check_stack(q)
    chunks = list(row_chunks(n, Q * Q * np.dtype(complex).itemsize))
    images = np.empty((n, Q, Q), dtype=complex)
    for rows in chunks:
        images[rows] = _weil_stack(ectx, slctx.elems[rows])
    bound = MatrixRep(slctx.view, images).check_homomorphism()

    # columns 1-4: det = 1 on SL2, so column 0 is the identity
    words = _words(slctx, slctx.elems)[:, 1:]
    word_worst = 0.0
    for rows in chunks:
        acc = reduce(np.matmul, (images[words[rows, j]] for j in range(4)))
        word_worst = np.maximum(word_worst, np.max(np.abs(acc - images[rows])))

    # normalization: rho~(sigma) 1_0 is column 0 of rho~(sigma)
    big = slctx.elems[:, 1] != 0
    col0 = images[big, :, 0]
    dbinv = slctx.elems[words[big, 0], 2][:, None]
    pred = (-1.0 / q) * ectx.psi.values[ectx.base.mul(dbinv, ectx.norm)]
    norm_worst = np.maximum(np.max(np.abs(col0[:, 0] - (-1.0 / q))),
                            np.max(np.abs(col0 - pred)))

    return {"pairs": n * len(slctx.view.gens),
            "word_length": slctx.view.word_length, "bound": bound,
            "word_defect": float(word_worst), "norm_defect": float(norm_worst)}


# --- the averaging intertwiner, built from the Heisenberg action ---

def _half_psi_exponent(ectx, z):
    """Exponent e (mod p) with psi((1/2) tr z) = zeta_p^e for ext
    indices z."""
    base = ectx.base
    inv2 = (ectx.p + 1) // 2  # 1/2 lies in the prime subfield, indices < p
    return base.trace_to_prime[base.mul(inv2, ectx.trace[z])]


def _nu_stack(ectx, mats):
    """The averaging intertwiner specialized to the induced model, for
    every row sigma = (a, b, c, d) of mats, as an (n, Q, Q) stack:
    (nu(sigma) f~)(x) = (1/q^2) sum_y f(^sigma((-x, y, psi(tr(-conj(y) x)))))
    with f read off through f(x, y, z) = z psi(tr(conj(y) x))^{-1} f~(-x).

    sigma acts on H(F_{q^2}) by (x, y) -> (X, Y) = (a x + b y, c x + d y),
    twisting z by psi((1/2) tr(-conj(y) x + conj(Y) X)).  Each step is
    one field call over the (g, x, y) grid, and the scatter into column
    -X adds each row's terms in increasing y."""
    ext = ectx.ext
    Q, p = ext.q, ectx.p
    psi_exp = ext.trace_to_prime  # absolute trace exponent of psi on the ext
    frob = ectx.frob
    a, b, c, d = (col[:, None, None] for col in np.asarray(mats).T)
    xg = ext.neg(np.arange(Q))[:, None]
    ys = np.arange(Q)[None, :]
    # h = (0, y, 1)(xg, 0, 1) = (xg, y, psi(tr(conj(y) xg)))
    yx = ext.mul(frob[ys], xg)
    z0 = np.exp(2j * np.pi * psi_exp[yx] / p)
    X = ext.add(ext.mul(a, xg), ext.mul(b, ys))
    Y = ext.add(ext.mul(c, xg), ext.mul(d, ys))
    YX = ext.mul(frob[Y], X)
    e = _half_psi_exponent(ectx, ext.add(ext.neg(yx), YX))
    Z = z0 * np.exp(2j * np.pi * e / p)
    # f(X, Y, Z) = Z conj(psi(tr(conj(Y) X))) f~(-X)
    coeff = Z * np.exp(-2j * np.pi * psi_exp[YX] / p)
    M = np.zeros((len(X), Q, Q), dtype=complex)
    np.add.at(M, (np.arange(len(X))[:, None, None], np.arange(Q)[:, None],
                  ext.neg(X)), coeff)
    return M / Q


def _rho_stack(ectx, mats):
    """The un-normalized intertwiner in closed form, for every row
    sigma = (a, b, c, d) of mats, as an (n, Q, Q) stack:
    (rho(sigma) f~)(x) = (1/q^2) sum_y psi((1/2) tr(-conj(y) x
        - conj(c x + a y)(-d x - b y))) f~(d x + b y).
    Each step is one field call over the (g, y, x) grid, and the
    scatter adds each entry's terms in increasing y."""
    ext = ectx.ext
    Q = ext.q
    a, b, c, d = (col[:, None, None] for col in np.asarray(mats).T)
    ys = np.arange(Q)[:, None]
    xs = np.arange(Q)[None, :]
    u = ext.add(ext.mul(c, xs), ext.mul(a, ys))
    tgt = ext.add(ext.mul(d, xs), ext.mul(b, ys))
    z = ext.neg(ext.add(ext.mul(ectx.frob[ys], xs),
                        ext.mul(ectx.frob[u], ext.neg(tgt))))
    coeff = np.exp(2j * np.pi * _half_psi_exponent(ectx, z) / ectx.p)
    M = np.zeros((len(tgt), Q, Q), dtype=complex)
    np.add.at(M, (np.arange(len(tgt))[:, None, None], xs, tgt), coeff)
    return M / Q


def averaging_check(ectx, slctx):
    """Over every element g of the SL2(F_q) context slctx: nu built from
    the Heisenberg action agrees with the closed-form rho at g^{-1}, and
    rho agrees with the normalized rho~ up to the per-element scalar (1
    for b = 0, -q otherwise).  The weil verify suite runs it at q <= 5.

    nu(g), rho(g^-1), rho(g) and rho~(g) are built as (n, Q, Q) stacks
    over chunks of g, each stack no larger than repcore._CHUNK_BYTES.
    Each step is one array-valued field call over the chunk's (g, y, x)
    grid, with one np.add.at scatter per stack, so the number of field
    calls grows with the chunk count, not with |SL2|.  Returns the max
    defects."""
    if slctx.kind != "sl2" or slctx.field is not ectx.base:
        raise GroupMismatch("need an sl2 context over the extension's base")
    Q = ectx.ext.q
    worst_nu = 0.0
    worst_scale = 0.0
    for rows in row_chunks(slctx.n, Q * Q * np.dtype(complex).itemsize):
        mats = slctx.elems[rows]
        inv_mats = slctx.elems[slctx.view.inv[rows]]
        worst_nu = np.maximum(worst_nu, np.max(np.abs(
            _nu_stack(ectx, mats) - _rho_stack(ectx, inv_mats))))
        scal = np.where(mats[:, 1] == 0, 1.0, -float(ectx.q))[:, None, None]
        worst_scale = np.maximum(worst_scale, np.max(np.abs(
            scal * _rho_stack(ectx, mats) - _weil_stack(ectx, mats))))
    return {"nu_vs_rho": float(worst_nu),
            "rho_vs_normalized": float(worst_scale)}


# --- cuspidal modules ---

class CuspidalModule:
    """The omega-isotypic model W_omega inside L^2(F_{q^2}): functions
    with f(y x) = omega(y)^{-1} f(x) for norm-one y, spanned by the
    indicators 1_u of the norm fibres, normalized by 1_u(u~) = 1 at the
    smallest-index point u~ of the fibre over u.  Held as their nonzero
    entries values[u-1, j] = 1_u(F[u-1, j]), F = ExtCtx.norm_fibres."""

    def __init__(self, ectx, omega):
        if ectx.q % 2 == 0:
            raise EvenQ("odd q required")
        if isinstance(omega, MultChar):
            if omega.ctx is not ectx.ext:
                raise GroupMismatch("character lives on the wrong field")
            if not is_primitive(omega):
                raise NotPrimitive("a GL2 cuspidal datum must be primitive")
            self.kind = "gl2"
        elif isinstance(omega, NormOneChar):
            if omega.ectx is not ectx:
                raise GroupMismatch("character lives on the wrong extension")
            if omega.is_trivial:
                raise NotPrimitive("an SL2 cuspidal datum must be nontrivial")
            self.kind = "sl2"
        else:
            raise GroupMismatch("omega must be MultChar or NormOneChar")
        self.ectx = ectx
        self.omega = omega
        fibres = ectx.norm_fibres
        zx = ectx.ext.mul(fibres, ectx.ext.inv_table[fibres[:, :1]])
        self.values = np.conj(omega.values[zx])

    def restrict(self, M):
        """Compress a one-image MonomialImages operator that preserves
        W_omega to the 1_u basis; the invariance is verified to
        tolerance.  The one-module case of _restrict_all."""
        return _restrict_all(self.ectx.norm_fibres, self.values[None], M)[0]


def _restrict_all(fibres, values, M):
    """Every module's restriction of one full-space operator M, a
    one-image MonomialImages, as a (modules, q-1, q-1) array that owns
    its data; fibres is ExtCtx.norm_fibres and values stacks the
    modules' CuspidalModule.values.  Any other M is refused.

    For v = values[m], so that basis[F[r, j], r] = v[r, j], C = M @ basis has
    C[x, u] = sum_j M[x, F[u, j]] v[u, j], and R is C at the rows
    u~ = F[:, 0].  The residual C - basis @ R is checked on every entry:
    row 0 of C must vanish, and C[F[r, j], u] must equal v[r, j] R[r, u].
    Row x of C is zero but for one entry, so the residual is read in
    O(Q) per module."""
    if (not isinstance(M, MonomialImages)
            or M.shape[:2] != (1, fibres.size + 1)):
        raise GroupMismatch("restriction takes a one-image MonomialImages "
                            "on L^2(F_{q^2})")
    m, n_u, n_j = values.shape
    # pos[y] = r (q+1) + j for y = F[r, j]; y = 0 reads a zero after v
    pos = np.full(M.shape[1], n_u * n_j)
    pos[fibres] = np.arange(n_u * n_j).reshape(fibres.shape)
    pos = pos[M.cols[0]]
    e = M.vals[0] * np.pad(values.reshape(m, -1), ((0, 0), (0, 1)))[:, pos]
    # row F[r, j] of C: entry on[m, r, j] in column at[r, j]
    at, on = pos[fibres] // n_j, e[:, fibres]
    want = values * on[..., :1]
    defect = np.maximum(np.max(monomial_gap(at, on, at[:, :1], want)),
                        np.max(np.abs(e[:, 0])))
    gate(defect, "W_omega is not preserved")
    return on[..., :1] * (at[:, :1] == np.arange(n_u))


def _restrict_weyl(ectx, values):
    """R(w), w = (0 1; -1 0), on every module whose fibre values values
    stacks, as a (modules, q-1, q-1) array that owns its data.  It is
    read off the kernel K(x, y) = -(1/q) psi(-tr(conj(y) x)) of rho~(w),
    the Bessel function of the Kirillov model, on the norm fibres
    F = ExtCtx.norm_fibres:
      R[m, r, u] = sum_j K(F[r, 0], F[u, j]) v[m, u, j],
    the rows u~ = F[:, 0] of C = rho~(w) basis, as in _restrict_all.
    That is O(q^3) kernel entries and no Q x Q array.  The product keeps
    the layout of the dense restriction's matmul, so with OpenBLAS's
    gemv R equals it bit for bit (an einsum over the same operands
    moves emitted bytes).

    Certificate that W_omega is invariant, so that these rows determine
    all Q rows of C.  Let zeta_0 = norm_one[1], T f(x) = f(zeta_0 x), and
    f_u the basis function with values v[u, j] on the fibre F[u].  Gates:
      (a) norm[F[r, j]] = r + 1, and row r of F is the set
          F[r, 0] norm_one; exact;
      (b) norm_one[t] = zeta_0^t cyclically, N(zeta_0) =
          zeta_0 frob(zeta_0) = 1 and frob(zeta_0 x) = frob(zeta_0) frob(x)
          for every x; exact;
      (c) _restrict_all of T, with its full monomial residual, is a
          scalar c per module, so T f_u = c f_u; its residual also pins
          v[u, 0] = 1;
      (d) sum_j v[m, u, j] = 0 for every module and fibre.
    By (b), conj(zeta_0 y) zeta_0 x = N(zeta_0) conj(y) x, so
    K(zeta_0 x, zeta_0 y) = K(x, y) and K commutes with T.  With (c),
    T (K f_u) = c K f_u, so C[zeta_0^t x, u] = c^t C[x, u].  By (a) and
    (b), each F[r, j] is zeta_0^t F[r, 0] for some t, where f_r takes
    the value c^t v[r, 0] = c^t: so C[F[r, j], u] = v[r, j] R[r, u] on
    every fibre row.  Row 0 is C[0, u] = -(1/q) sum_j v[u, j], zero by
    (d).  So K f_u = sum_r R[r, u] f_r on all Q rows, each of which the
    dense residual read: W_omega is invariant and R is rho~(w) on it."""
    base, ext, q = ectx.base, ectx.ext, ectx.q
    F = ectx.norm_fibres
    zeta, frob = ectx.norm_one, ectx.frob
    z0 = zeta[1]
    orbits = np.sort(ext.mul(F[:, :1], zeta), axis=1)
    gate(np.count_nonzero(ectx.norm[F] != np.arange(1, q)[:, None])
         + np.count_nonzero(orbits != F),
         "norm fibres are not the norm-one orbits")
    idx = np.arange(ext.q)
    gate(np.count_nonzero(ext.mul(z0, zeta) != np.roll(zeta, -1))
         + int(zeta[0] != 1) + int(ext.mul(z0, frob[z0]) != 1)
         + np.count_nonzero(frob[ext.mul(z0, idx)]
                            != ext.mul(frob[z0], frob)),
         "norm_one[1] is not a norm-one generator that frob respects")
    T = MonomialImages(ext.mul(z0, idx)[None], np.ones((1, ext.q)))
    R = _restrict_all(F, values, T)
    gate(np.max(np.abs(R - R[:, :1, :1] * np.eye(q - 1))),
         "norm_one[1] does not act on W_omega by a scalar")
    gate(np.max(np.abs(values.sum(axis=2))),
         "rho~(w) sends W_omega onto the point 0")
    # [u, j, r] -> K(F[r, 0], F[u, j]): rows fastest, as in the dense
    # rho~(w)[:, F], and padded to whole blocks of 4 rows, where each u~
    # sat in that product, so that BLAS rounds every entry alike
    rows = np.pad(F[:, 0], (0, -(q - 1) % 4), mode="edge")
    arg = base.neg(ectx.trace[ext.mul(rows, frob[F][..., None])])
    K = (-1.0 / q) * ectx.psi.values[arg]
    Rt = np.matmul(K.transpose(0, 2, 1), values[..., None])[..., :q - 1, 0]
    return Rt.transpose(0, 2, 1).copy()


def _letter_op(ectx, gctx, lid):
    """The full-space operator of the word letter lid of gctx, any
    letter but w, as a one-image MonomialImages: rho~ of t(a) or l(c),
    and for diag(1, a) E f(x) = f(a~ x), a~ the smallest point over a."""
    a, _, c, d = gctx.mat_of(lid)
    if int(gctx.field.mul(a, d)) == 1:
        return _lower_cell(ectx, np.array([c]), np.array([d]))
    cols = ectx.ext.mul(ectx.norm_fibres[d - 1, 0], np.arange(ectx.ext.q))
    return MonomialImages(cols[None], np.ones((1, ectx.ext.q)))


def _restricted_class_images(modules, gctx):
    """Every module's character from one table of restricted letters,
    as (characters, table, inverse, words): characters[m] is a
    ClassFunction, table maps a letter id to its (distinct modules, q-1,
    q-1) restrictions, module m reads row inverse[m] of each, and words
    are the _words of the class representatives, then the generators.

    For g = diag(1, det g) sigma, pi_omega(g) = omega(a~) E rho~(sigma)
    with E f(x) = f(a~ x), a~ the smallest point over det g (1 for SL2),
    and the restriction of E rho~(sigma) is the product of the table's
    letters over the _words word of g.  The table holds every letter of
    the words of the class representatives and of the certified
    generators, every l(x) and w, each restricted once to the
    distinct CuspidalModule.values (the q^2 - q primitive GL2
    characters give q distinct W_omega) with its invariance certified
    on every module: the monomial letters by _restrict_all's residual,
    w by _restrict_weyl from its kernel on the fibres, so the table
    build forms no Q x Q operator.  W_omega is invariant under a
    product once it is under each factor, and R(AB) = R(A) R(B).  A
    character value is omega(a~) times the trace of its class word's
    product, formed one class at a time and not kept.

    Per module this also checks that the degree is q - 1, and the
    N-fixed gate: w l(c) w = (-1 c; 0 -1), so the upper unipotent u(x)
    is t(-1) w l(-x) w and sum_x R(u(x)) =
    R(t(-1)) R(w) (sum_x R(l(x))) R(w).  t(-1) = -I is central, so it
    acts on W_omega as a scalar of modulus one, and the gate reads
    R(w) (sum_x R(l(x))) R(w) alone.  R(w) is invertible, so the
    gate certifies sum_x R(l(x)) = 0, a property of the lower letters
    alone: sum_x rho~(l(x)) is q times the projection onto the point 0,
    which lies outside every W_omega, so only a wrong lower letter
    fires it.  A wrong R(w) is not seen here (a sign cancels between its
    two factors); gl2_cuspidal_family's anisotropic cross-check and
    chartab.verify_table's row orthonormality catch it."""
    ectx = modules[0].ectx
    for module in modules:
        if gctx.kind != module.kind:
            raise GroupMismatch(f"module is {module.kind}, group is {gctx.kind}")
        if gctx.field is not module.ectx.base:
            raise GroupMismatch("group field != module base field")
        if module.ectx is not ectx:
            raise GroupMismatch("modules live on different extensions")
    q, F, reps = ectx.q, gctx.field, gctx.view.reps
    fibres = ectx.norm_fibres
    values = np.stack([module.values for module in modules])
    keys = {}
    inverse = np.array([keys.setdefault(row.tobytes(), len(keys))
                        for row in values])
    values = values[np.unique(inverse, return_index=True)[1]]
    words = _words(gctx, gctx.elems[np.concatenate([reps, gctx.view.gens])])
    # every l(x) = (1 0; x 1), then w = (0 1; -1 0)
    *lower_ids, w_id = gctx.ids_of([(1, 0, x, 1) for x in range(q)] + [
        (0, 1, int(F.neg(1)), 0)]).tolist()
    needed = set(words.flat) | set(lower_ids)
    table = {lid: _restrict_all(fibres, values, _letter_op(ectx, gctx, lid))
             for lid in sorted(map(int, needed - {w_id}))}
    table[w_id] = _restrict_weyl(ectx, values)

    traces = np.array([np.trace(reduce(np.matmul, map(table.get, word)),
                                axis1=1, axis2=2)
                       for word in words[:len(reps)].tolist()])
    atils = fibres[gctx.mat_det(gctx.elems[reps]) - 1, 0]
    traces = traces.T[inverse] * np.array(
        [module.omega.values[atils] for module in modules])
    ident = gctx.class_index_of((1, 0, 0, 1))
    gate(np.max(np.abs(traces[:, ident] - (q - 1))), "cuspidal degree != q - 1")
    lowers = sum(table[lid] for lid in lower_ids)
    w = table[w_id]
    n_fixed = w @ lowers @ w
    # every distinct W_omega is some module's: inverse reaches each row
    gate(np.max(np.abs(n_fixed / q)), "nonzero N-fixed vectors in W_omega")
    return ([ClassFunction(gctx.view, tr) for tr in traces], table, inverse,
            words)


def pi_omega_characters(modules, gctx):
    """Characters of the cuspidal representations on the given modules,
    with the construction-time checks of _restricted_class_images."""
    if not modules:
        return []
    return _restricted_class_images(modules, gctx)[0]


def pi_omega_character(module, gctx):
    """pi_omega_characters for a single module."""
    return pi_omega_characters([module], gctx)[0]


def gl2_cuspidal_family(ectx, glctx):
    """One cuspidal character per Frobenius orbit {omega, omega^q} of
    primitive characters of F_{q^2}^*; (q^2-q)/2 in total.  The two
    members of each orbit are both computed and checked to give the
    same character, and the anisotropic values are cross-checked
    against -(omega(z) + omega(conj z)) for z a root of the class's
    characteristic polynomial."""
    if glctx.kind != "gl2":
        raise GroupMismatch("need a gl2 context")
    ext = ectx.ext
    q = ectx.q
    Q1 = ext.q - 1
    # omega_j is primitive iff j -> jq mod q^2 - 1 moves j; q^2 = 1 mod
    # q^2 - 1, so its Frobenius orbit is {j, jq}, listed once from j < jq
    frob_orbits = [(j, j * q % Q1) for j in range(Q1) if j < j * q % Q1]
    chars = pi_omega_characters(
        [CuspidalModule(ectx, MultChar(ext, i))
         for orbit in frob_orbits for i in orbit], glctx)
    # the smallest root z of each anisotropic class's x^2 - tr x + det:
    # its roots are the z of trace tr and norm det, two when irreducible
    aniso = [ci for ci, cls in enumerate(glctx.conj_classes)
             if cls.tag == "anisotropic"]
    det, tr = np.array([glctx.conj_classes[ci].params for ci in aniso]).T
    key = ectx.trace * q + ectx.norm
    if np.any(np.bincount(key, minlength=q * q)[tr * q + det] != 2):
        raise VerificationFailed("anisotropic class has no ext roots")
    keys, first = np.unique(key, return_index=True)
    z = first[np.searchsorted(keys, tr * q + det)]
    firsts = np.array([f.values for f in chars[::2]])
    gate(np.max(np.abs(firsts - [f2.values for f2 in chars[1::2]])),
         "omega and omega^q give different characters")
    oms = np.array([MultChar(ext, j).values for j, _ in frob_orbits])
    want = -(oms[:, z] + oms[:, ectx.frob[z]])
    gate(np.max(np.abs(firsts[:, aniso] - want)),
         "anisotropic cuspidal value mismatch")
    out = list(zip(frob_orbits, chars[::2]))
    if len(out) != (q * q - q) // 2:
        raise VerificationFailed("wrong number of cuspidal orbits")
    return out


def sl2_cuspidal_family(ectx, slctx):
    """All cuspidal data for SL2: the (q-1)/2 characters pi_omega of
    degree q-1 for inverse-pairs {omega, omega^{-1}} of nontrivial
    non-quadratic norm-one characters, plus the quadratic omega_0 whose
    module splits into two halves of degree (q-1)/2.

    Returns {"cuspidal": [(j, character), ...],
             "omega0": {"character", "plus", "minus",
                        "sum_traces", "sum_abs_squares"}}."""
    if slctx.kind != "sl2":
        raise GroupMismatch("need an sl2 context")
    q = ectx.q
    js = range(1, (q + 1) // 2)
    oms = [NormOneChar(ectx, j) for j in js]
    module = CuspidalModule(ectx, NormOneChar(ectx, (q + 1) // 2))
    (*chars, chi0), table, inverse, words = _restricted_class_images(
        [CuspidalModule(ectx, w) for om in oms for w in (om, om.conj())]
        + [module], slctx)
    out = []
    for j, f, finv in zip(js, chars[::2], chars[1::2]):
        gate(np.max(np.abs(f.values - finv.values)),
             "omega and omega^{-1} differ")
        ip = inner_product(f, f)
        gate(abs(ip - 1), f"pi_omega reducible: <chi,chi> = {ip}")
        out.append((j, f))
    if len(out) != (q - 1) // 2:
        raise VerificationFailed("wrong number of sl2 cuspidal pairs")

    # omega_0's images of the class representatives, then the generators
    at = inverse[-1]
    mats = np.array([reduce(np.matmul, (table[lid][at] for lid in word))
                     for word in words.tolist()])
    # f -> f o frob preserves W_omega0, as omega0(y^q) = omega0(y^-1) =
    # omega0(y) for norm-one y, and its square is the identity
    frob = module.restrict(MonomialImages([ectx.frob], [np.ones(ectx.ext.q)]))
    k = len(slctx.view.reps)
    plus, minus = split_in_two(slctx, frob, mats[k:], mats[:k], chi0)

    sizes = slctx.view.sizes
    sum_traces = complex(np.sum(sizes * chi0.values))
    sum_abs2 = float(np.sum(sizes * np.abs(chi0.values) ** 2))
    return {"cuspidal": out,
            "omega0": {"character": chi0, "plus": plus, "minus": minus,
                       "sum_traces": sum_traces,
                       "sum_abs_squares": sum_abs2}}
