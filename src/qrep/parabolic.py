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


def decompose_gl2(ctx, bchar):
    """Split I(chi, chi) on GL2 into its linear constituent chi(det) and
    the twisted Steinberg complement; both are verified irreducible."""
    if ctx.kind != "gl2":
        raise GroupMismatch("decompose_gl2 needs a gl2 context")
    chi1, chi2 = bchar.chars
    if chi1.j != chi2.j:
        raise CharMismatch("the two inducing characters must coincide")
    ind = induced_character(ctx, bchar)
    dets = ctx.mat_det(ctx.elems[ctx.view.reps])
    linear = ClassFunction(ctx.view, chi1.values[np.asarray(dets)])
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
    matrix, and unless the projectors are idempotent, commute with the
    action and sum to the identity."""
    eye = np.eye(T.shape[0])
    gate(np.max(np.abs(T @ T - eye)), "T is not an involution", NotSplitting)
    gate(np.max([np.max(np.abs(T @ g - g @ T)) for g in gen_mats]),
         "T does not commute with the action", NotSplitting)
    P1, P2 = (eye + T) / 2, (eye - T) / 2
    for P in (P1, P2):
        gate(np.max(np.abs(P @ P - P)), "projector is not idempotent",
             NotSplitting)
        for g in gen_mats:
            gate(np.max(np.abs(P @ g - g @ P)),
                 "projector does not commute with the action", NotSplitting)
    gate(np.max(np.abs(P1 + P2 - eye)),
         "projectors do not sum to the identity", NotSplitting)
    return P1, P2


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
    sign = bchar.chars[0].values[int(ctx.field.neg(1))]
    return dw / np.sqrt(sign.real * ctx.q + 0j)


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


def delta_relation_defect(ctx, bchar):
    """Numerical defect of the four convolution identities above.

    The pure two-term relations hold only for the nontrivial quadratic
    inducing character; for the trivial character Delta_w * Delta_w
    acquires an extra Delta_w term (the classical quadratic Hecke
    relation), so that case is rejected."""
    q = ctx.q
    if ctx.kind != "sl2":
        raise GroupMismatch("kernel relations are stated on sl2")
    chi = bchar.chars[0]
    if not chi.is_quadratic:
        raise CharMismatch("inducing character must be the nontrivial "
                           "quadratic character")
    sign = chi.values[int(ctx.field.neg(1))]
    d1, dw = delta_kernels(ctx, bchar)
    c = q * (q - 1)
    d11, d1w, dw1, dww = convolve(ctx, [(d1, d1), (d1, dw), (dw, d1),
                                        (dw, dw)])
    return float(np.max([
        np.max(np.abs(d11 - c * d1)),
        np.max(np.abs(d1w - c * dw)),
        np.max(np.abs(dw1 - c * dw)),
        np.max(np.abs(dww - q * q * (q - 1) * sign * d1))]))


def intertwiner_idempotents(ctx, bchar):
    """The two idempotents of the rank-two Hecke algebra attached to a
    self-dual inducing character.

    Returns ((c1, cw_plus), (c1, cw_minus), kappa, defect): each
    idempotent is c1 Delta_1 + cw Delta_w with
    c1 = 1/(2q(q-1)) and cw = +- i^kappa q^(-1/2) c1, where kappa = 0
    when chi(-1) = 1 and kappa = 1 when chi(-1) = -1."""
    if ctx.kind != "sl2":
        raise GroupMismatch("idempotents are built on sl2")
    chi = bchar.chars[0]
    if not chi.is_quadratic:
        raise CharMismatch("inducing character must be the nontrivial "
                           "quadratic character")
    q = ctx.q
    # chi(-1) = 1 iff its exponent at -1 is 0
    kappa = 0 if chi.exponents[int(ctx.field.neg(1))] == 0 else 1
    d1, dw = delta_kernels(ctx, bchar)
    c1 = 1.0 / (2 * q * (q - 1))
    cw = (1j ** kappa) * c1 / np.sqrt(q)
    e_plus = c1 * d1 + cw * dw
    e_minus = c1 * d1 - cw * dw
    ident = d1 / (q * (q - 1))
    pp, mm, pm, mp = convolve(ctx, [(e_plus, e_plus), (e_minus, e_minus),
                                    (e_plus, e_minus), (e_minus, e_plus)])
    worst = gate(np.max([
        np.max(np.abs(pp - e_plus)),
        np.max(np.abs(mm - e_minus)),
        np.max(np.abs(pm)),
        np.max(np.abs(mp)),
        np.max(np.abs(e_plus + e_minus - ident))]),
        "idempotent identities fail")
    return (c1, cw), (c1, -cw), kappa, worst
