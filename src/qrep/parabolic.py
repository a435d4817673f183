"""Principal series: characters induced from the Borel subgroup, their
intertwiners, and the even/odd splitting for self-dual inducing data.

The Hecke-algebra side works with kernels on the group: Delta_1 is the
inducing character spread over B, Delta_w its twist over the big Bruhat
cell, and convolution is the plain sum (k1 * k2)(x) = sum_g k1(x g^-1)
k2(g).  With that normalization the kernels satisfy

    Delta_1 * Delta_1 = q(q-1) Delta_1
    Delta_1 * Delta_w = Delta_w * Delta_1 = q(q-1) Delta_w
    Delta_w * Delta_w = q^2 (q-1) chi(-1) Delta_1

and the two idempotents carry q^(-1/2) on the Delta_w part.  All of
these identities are re-verified numerically on every construction.
"""

import numpy as np

from .config import gate
from .errors import (CharMismatch, EvenQ, GroupMismatch, NotSplitting,
                     VerificationFailed)
from .gl2 import bruhat
from .repcore import (ClassFunction, MatrixRep, MonomialImages, hom_dim,
                      induce, inner_product, row_chunks)


class BorelChar:
    """A character of B trivial on N: two multiplicative characters
    (chi1, chi2) acting through the diagonal for GL2, a single chi
    acting through the upper-left entry for SL2."""

    def __init__(self, ctx, chars):
        chars = tuple(chars)
        want = 2 if ctx.kind == "gl2" else 1
        if len(chars) != want:
            raise CharMismatch(f"{ctx.kind} needs {want} inducing character(s)")
        for c in chars:
            if c.ctx is not ctx.field:
                raise GroupMismatch("character field != group field")
        self.ctx = ctx
        self.chars = chars

    def value_on_mats(self, mats):
        """Vectorized value at Borel matrices (..., 4); entry c must be 0."""
        mats = np.asarray(mats, dtype=np.int64)
        if np.any(mats[..., 2] != 0):
            raise GroupMismatch("matrix is not upper triangular")
        if self.ctx.kind == "gl2":
            chi1, chi2 = self.chars
            return chi1.values[mats[..., 0]] * chi2.values[mats[..., 3]]
        return self.chars[0].values[mats[..., 0]]

    def key(self):
        return tuple(c.j for c in self.chars)


def borel_class_function(ctx, bchar):
    bview, bemb = ctx.borel
    reps = bemb.injection[bview.reps]
    return ClassFunction(bview, bchar.value_on_mats(ctx.elems[reps]))


def induced_character(ctx, bchar):
    """Character of Ind_B^G of the given Borel character."""
    bview, bemb = ctx.borel
    return induce(borel_class_function(ctx, bchar), bemb)


def predicted_intertwiner_dim(bchar1, bchar2):
    """e_1 + e_w: one for equality of the inducing data, one for
    equality after the Weyl twist (swap for GL2, inverse for SL2)."""
    if bchar1.ctx is not bchar2.ctx:
        raise GroupMismatch("characters on different groups")
    if bchar1.ctx.kind == "gl2":
        (a1, a2), (b1, b2) = bchar1.key(), bchar2.key()
        return int((a1, a2) == (b1, b2)) + int((a1, a2) == (b2, b1))
    qm1 = bchar1.ctx.q - 1
    (a,), (b,) = bchar1.key(), bchar2.key()
    return int(a == b) + int(a == (-b) % qm1)


def intertwiner_mismatches(ctx, bchars):
    """Number of ordered pairs (b1, b2) of bchars whose dim
    Hom(I(b1), I(b2)), computed from the characters by hom_dim, differs
    from predicted_intertwiner_dim.  Each character is induced once;
    hom_dim raises NonIntegral on any pair."""
    induced = [induced_character(ctx, b) for b in bchars]
    return sum(hom_dim(f1, f2) != predicted_intertwiner_dim(b1, b2)
               for b1, f1 in zip(bchars, induced)
               for b2, f2 in zip(bchars, induced))


def decompose(ctx, bchar):
    """Split I(chi, chi) on GL2 into its linear constituent chi(det) and
    the twisted Steinberg complement, and I(1) on SL2 into the trivial
    character and the Steinberg character; both are verified
    irreducible and disjoint.  On SL2 any other chi is refused: I(chi)
    then has no linear constituent."""
    chi = bchar.chars[0]
    if ctx.kind == "gl2" and bchar.chars[1].j != chi.j:
        raise CharMismatch("the two inducing characters must coincide")
    if ctx.kind == "sl2" and chi.j != 0:
        raise CharMismatch("sl2 decomposes the trivial character's I(1) "
                           "only")
    ind = induced_character(ctx, bchar)
    dets = ctx.mat_det(ctx.elems[ctx.view.reps])
    linear = ClassFunction(ctx.view, chi.values[np.asarray(dets)])
    steinberg = ind - linear
    for f in (linear, steinberg):
        if hom_dim(f, f) != 1:
            raise VerificationFailed("constituent is not irreducible")
    if hom_dim(linear, steinberg) != 0:
        raise VerificationFailed("constituents are not disjoint")
    return linear, steinberg


# --- matrix model of the induced representation (SL2) ---

def build_induced_rep(ctx, bchar):
    """Matrix model of Ind_B^G chi for SL2 with basis indexed by B\\G:
    M(g)[j, i] = chi~(b) where r_j g = b r_i, one entry per row, kept as
    a MonomialImages store.  Verified multiplicative by
    MatrixRep.check_homomorphism, whose bound covers every pair.

    B\\G is the projective line (GroupCtx.borel_coset_reps), so the
    coset of r_j g is read off the bottom row (c_j, d_j) g, four field
    products and two sums per entry, through a (q+1)-entry slot of its
    GroupCtx.line_of.  If that row is lam (c_i, d_i), then
    b = r_j g r_i^-1 has b22 = lam, so b11 = lam^-1 and the entry is
    chi(lam^-1).  Proportionality is checked exactly on every entry,
    which proves b in B whatever the slot says."""
    if ctx.kind != "sl2":
        raise GroupMismatch("matrix model is built for sl2")
    if ctx.q % 2 == 0:
        raise EvenQ("odd q required")
    F, q = ctx.field, ctx.q
    reps = ctx.borel_coset_reps
    k = len(reps)
    if k != q + 1:
        raise VerificationFailed(f"expected {q + 1} cosets, got {k}")
    a, b, c, d = ctx.elems.T
    rc, rd = c[reps], d[reps]
    slot = np.zeros(q + 1, dtype=np.intp)
    slot[ctx.line_of(rc, rd)] = np.arange(k)
    chi = bchar.chars[0].values
    cols = np.empty((ctx.n, k), dtype=np.intp)
    vals = np.empty((ctx.n, k), dtype=complex)
    for j in range(k):
        x = F.add(F.mul(rc[j], a), F.mul(rd[j], c))   # bottom row of r_j g
        y = F.add(F.mul(rc[j], b), F.mul(rd[j], d))
        i = slot[ctx.line_of(x, y)]
        # lam with (x, y) = lam (c_i, d_i), entry by entry
        on_c = rc[i] != 0
        lam = F.mul(np.where(on_c, x, y), F.inv(np.where(on_c, rc[i], rd[i])))
        bad = np.count_nonzero((F.mul(lam, rc[i]) != x)
                               | (F.mul(lam, rd[i]) != y))
        if bad:
            raise VerificationFailed(f"{bad} bottom rows are not proportional "
                                     "to their coset representative's")
        cols[:, j] = i
        vals[:, j] = chi[F.inv(lam)]
    rep = MatrixRep(ctx.view, MonomialImages(cols, vals))
    gate(rep.check_homomorphism(), "induced rep not multiplicative")
    return rep


def two_dim_commutant_projectors(T, gen_mats):
    """The projectors (I + T)/2 and (I - T)/2 of an involution T in the
    commutant of a set of unitary matrices.  Once the character has
    <chi, chi> = 2 the commutant is two-dimensional, so span{I, T} is all
    of it.  Raises NotSplitting unless T^2 = I and T commutes with every
    matrix.  Those two gates certify the projectors: for P+- = (I +- T)/2,
    P^2 - P = (T^2 - I)/4 and [P+-, g] = +-[T, g]/2, and P+ + P- = I by
    construction."""
    eye = np.eye(T.shape[0])
    gate(np.max(np.abs(T @ T - eye)), "T is not an involution", NotSplitting)
    gate(np.max([np.max(np.abs(T @ g - g @ T)) for g in gen_mats]),
         "T does not commute with the action", NotSplitting)
    return (eye + T) / 2, (eye - T) / 2


def split_in_two(ctx, T, gen_mats, class_mats, whole):
    """Split an SL2 representation with character whole, <whole, whole>
    = 2, into two irreducible halves of half its degree by the
    eigenspaces of the involution T in its commutant; gen_mats are its
    images of the certified generators ctx.view.gens and class_mats
    those of the class representatives.  Returns (plus, minus) as
    ClassFunctions; plus has the larger value at the class of (1 1; 0 1),
    by imaginary and then real part, each rounded to 9 places."""
    ip = inner_product(whole, whole)
    gate(abs(ip - 2), f"<chi,chi> = {ip}, expected 2")
    halves = [ClassFunction(ctx.view, np.einsum("ij,nji->n", P, class_mats))
              for P in two_dim_commutant_projectors(T, gen_mats)]
    ident = ctx.class_index_of((1, 0, 0, 1))
    for f in halves:
        gate(abs(f.values[ident] - whole.values[ident] / 2),
             "half has wrong degree")
        gate(abs(inner_product(f, f) - 1), "half is not irreducible")
    f1, f2 = halves
    gate(np.max(np.abs((f1 + f2).values - whole.values)),
         "halves do not sum to the whole character")
    u = ctx.class_index_of((1, 1, 0, 1))
    key = lambda f: (round(f.values[u].imag, 9), round(f.values[u].real, 9))
    return (f1, f2) if key(f1) >= key(f2) else (f2, f1)


def _sign_at_minus_one(ctx, chi):
    """chi(-1) as the integer +-1, read off chi's exponent at -1 (0 or
    (q-1)/2, since (-1)^2 = 1)."""
    return 1 if chi.exponents[int(ctx.field.neg(1))] == 0 else -1


def hecke_involution(ctx, bchar):
    """The normalized Weyl intertwiner T_w of I(chi), chi quadratic, on
    the B\\G coset basis of build_induced_rep:
    T[i, j] = Delta_w(r_i r_j^-1) / sqrt(chi(-1) q), with Delta_w read off
    the Bruhat words of the (q+1)^2 products only.  T^2 = I because
    Delta_w * Delta_w = q^2 (q-1) chi(-1) Delta_1."""
    reps = ctx.borel_coset_reps
    view = ctx.view
    prods = view.mul(np.asarray(reps)[:, None], view.inv[reps][None, :])
    _, dw = _kernels_at(ctx, bchar, ctx.elems[prods])
    return dw / np.sqrt(_sign_at_minus_one(ctx, bchar.chars[0]) * ctx.q + 0j)


def split_rho_pm(ctx, bchar):
    """Split I(chi) for the quadratic character chi of F_q^* into its two
    irreducible halves rho+ and rho- of degree (q+1)/2 by the eigenspaces
    of hecke_involution, ordered as in split_in_two."""
    if ctx.kind != "sl2":
        raise GroupMismatch("rho+- live on sl2")
    chi = bchar.chars[0]
    if not chi.is_quadratic:
        raise CharMismatch("splitting needs the quadratic character")
    rep = build_induced_rep(ctx, bchar)
    gen_mats = rep.images[ctx.view.gens]
    return split_in_two(ctx, hecke_involution(ctx, bchar), gen_mats,
                        rep.images[ctx.view.reps],
                        induced_character(ctx, bchar))


def epsilon_swap_defect(ctx, f_plus, f_minus):
    """max over classes of |f+(m g m^-1) - f-(g)| for m = diag(eps, 1);
    conjugation by m is an outer automorphism of SL2 exchanging the two
    halves."""
    F = ctx.field
    conj = ctx.elems[ctx.view.reps]
    conj[:, 1] = F.mul(ctx.eps, conj[:, 1])
    conj[:, 2] = F.mul(conj[:, 2], F.inv(ctx.eps))
    cj = ctx.view.class_of[ctx.ids_of(conj)]
    return float(np.max(np.abs(f_plus.values[cj] - f_minus.values)))


# --- Hecke kernels on the group ---

def delta_kernels(ctx, bchar):
    """(Delta_1, Delta_w) as length-|G| arrays: the inducing character
    on B, and chi~(b1) chi~(b2) on the cell B w B via the canonical
    Bruhat factorization.

    Delta_w is well defined only when the inducing character equals its
    Weyl twist, so that is required."""
    return _kernels_at(ctx, bchar, ctx.elems)


def _kernels_at(ctx, bchar, mats):
    """(Delta_1, Delta_w) at the (..., 4) matrices mats."""
    if ctx.kind == "sl2":
        chi = bchar.chars[0]
        if chi.j != 0 and not chi.is_quadratic:
            raise CharMismatch("inducing character must be self-dual")
    else:
        if bchar.chars[0] != bchar.chars[1]:
            raise CharMismatch("inducing pair must be Weyl symmetric")
    big, b1, b2 = bruhat(ctx, mats)
    v1 = bchar.value_on_mats(b1)
    d1 = np.where(big, 0, v1)
    dw = np.where(big, v1 * bchar.value_on_mats(b2), 0)
    return d1, dw


def convolve(ctx, pairs):
    """[k1 * k2 for (k1, k2) in pairs], with
    (k1 * k2)(x) = sum_g k1(x g^-1) k2(g).  Each chunk of x forms its
    block of the product table x g^-1 once, for every pair, and its
    gather k1[x g^-1] takes at most _CHUNK_BYTES."""
    view = ctx.view
    inv = view.inv
    outs = [np.empty(ctx.n, dtype=complex) for _ in pairs]
    allg = np.arange(ctx.n)
    for rows in row_chunks(ctx.n, ctx.n * np.dtype(complex).itemsize):
        idx = view.mul(allg[rows, None], inv[None, :])
        for out, (k1, k2) in zip(outs, pairs):
            out[rows] = k1[idx] @ k2
    return outs


def hecke_relations(ctx, bchar):
    """Both checks of the rank-two Hecke algebra of I(chi), chi the
    nontrivial quadratic character of SL2, from one kernel build and one
    convolve over the four kernel pairs.

    Returns (relation_defect, (c1, cw), (c1, -cw), kappa,
    idempotent_defect).  relation_defect is the numerical defect of the
    four convolution identities above, not gated.  The idempotents are
    e+- = c1 Delta_1 +- cw Delta_w with c1 = 1/(2q(q-1)) and
    cw = i^kappa q^(-1/2) c1, where kappa = 0 when chi(-1) = 1 and
    kappa = 1 when chi(-1) = -1; idempotent_defect, passed to
    config.gate, is the worst of e+*e+ = e+, e-*e- = e-, e+*e- = 0,
    e-*e+ = 0 and e+ + e- = Delta_1/(q(q-1)).

    Convolution is bilinear, so for s, t = +-1
        e_s * e_t = c1^2 D11 + c1 t cw D1w + s cw c1 Dw1 + s t cw^2 Dww
    with Dab = Delta_a * Delta_b: the four products are read off the
    four kernel convolutions the relations already form.

    The pure two-term relations hold only for the nontrivial quadratic
    inducing character; for the trivial character Delta_w * Delta_w
    acquires an extra Delta_w term (the classical quadratic Hecke
    relation), so that case is rejected."""
    if ctx.kind != "sl2":
        raise GroupMismatch("hecke relations are stated on sl2")
    chi = bchar.chars[0]
    if not chi.is_quadratic:
        raise CharMismatch("inducing character must be the nontrivial "
                           "quadratic character")
    q = ctx.q
    c = q * (q - 1)
    sign = _sign_at_minus_one(ctx, chi)
    d1, dw = delta_kernels(ctx, bchar)
    d11, d1w, dw1, dww = convolve(ctx, [(d1, d1), (d1, dw), (dw, d1),
                                        (dw, dw)])
    relation = float(np.max([
        np.max(np.abs(d11 - c * d1)),
        np.max(np.abs(d1w - c * dw)),
        np.max(np.abs(dw1 - c * dw)),
        np.max(np.abs(dww - q * q * (q - 1) * sign * d1))]))
    kappa = 0 if sign == 1 else 1
    c1 = 1.0 / (2 * c)
    cw = (1j ** kappa) * c1 / np.sqrt(q)
    e_plus, e_minus = c1 * d1 + cw * dw, c1 * d1 - cw * dw

    def star(s, t):
        return (c1 * c1 * d11 + c1 * t * cw * d1w + s * cw * c1 * dw1
                + s * t * cw * cw * dww)

    idempotent = gate(np.max([
        np.max(np.abs(star(1, 1) - e_plus)),
        np.max(np.abs(star(-1, -1) - e_minus)),
        np.max(np.abs(star(1, -1))),
        np.max(np.abs(star(-1, 1))),
        np.max(np.abs(e_plus + e_minus - d1 / c))]),
        "idempotent identities fail")
    return relation, (c1, cw), (c1, -cw), kappa, idempotent
