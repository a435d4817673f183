"""GL2 and SL2 over a small finite field: enumeration, Bruhat
decomposition, conjugacy classes with canonical representatives.

A matrix (a b; c d) of field-element indices is packed into the single
integer ((a q + b) q + c) q + d, and the group is enumerated in
increasing packed order straight from the triples (a, b, c): for a != 0
SL2 has the one entry d = (1 + bc)/a and GL2 every d but the root of
ad = bc; on the line a = 0, SL2 needs c = -1/b and GL2 bc != 0, and d is
free.  No q^4 array of matrices is built: an O(|G|) certificate (every
determinant, strictly increasing keys, the group order) proves the list
is the group in the order the ids rely on.  All matrix arithmetic is
vectorized over index arrays; no |G| x |G| multiplication table is ever
built.

Class representatives follow the rational-canonical shapes: scalars,
(lambda v; 0 lambda) with v = 1 (and v = eps for SL2, where the two
unipotent directions are not conjugate), diag(l1, l2) with l1 < l2, and
the companion matrix (0 -a0; 1 a1) of an irreducible quadratic.  The
classes themselves are flooded by conjugation with a certified
generating set of the group (repcore.generating_set), and each
constructed representative is verified to lie in its flooded class, so
the canonical labels are cross-checked against ground truth.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (EvenQ, NotInGroup, SizeExceeded, Singular,
                     VerificationFailed)
from .repcore import FiniteGroupView, perm_orbits, subgroup_view

TAG_RANK = {"central": 0, "nonsemisimple": 1, "split_regular": 2, "anisotropic": 3}
# GroupCtx holds lookup, an int64 array over all q^4 packed keys
# (8 q^4 bytes, 128 MiB at the bound): q <= 61 fits
MAX_GRID = 1 << 24


@dataclass
class ConjClass:
    tag: str
    params: tuple
    rep: tuple          # (a, b, c, d) field indices
    rep_id: int
    size: int
    centralizer_order: int


def check_grid(q):
    """SizeExceeded unless GroupCtx's id lookup, one int64 per packed key
    (8 q^4 bytes), fits MAX_GRID entries; the bound needs q alone, so
    callers can check it before building F_q."""
    if q ** 4 > MAX_GRID:
        raise SizeExceeded(
            f"q^4 = {q ** 4} entries of the 8*q^4-byte id lookup exceed "
            f"{MAX_GRID}")


def _pack(q, m):
    m = np.asarray(m, dtype=np.int64)
    return ((m[..., 0] * q + m[..., 1]) * q + m[..., 2]) * q + m[..., 3]


def _fill(block, shape, *cols):
    """Write the four entry columns of block, viewed as shape + (4,),
    each broadcast over shape."""
    view = block.reshape(shape + (4,))
    for i, col in enumerate(cols):
        view[..., i] = col


def _enumerate(kind, F):
    """Every matrix of kind over F, in increasing packed order, from the
    triples (a, b, c).  The line a = 0 comes first: there det = -bc, so
    SL2 takes c = -1/b and GL2 every b, c != 0, each with every d.  For
    a != 0, SL2 takes the one d = (1 + bc)/a and GL2 every d but the
    root r = bc/a of ad = bc, as k + (k >= r) for k = 0..q-2.  Blocks
    and entries run in lexicographic (a, b, c, d) order."""
    q = F.q
    units, full = np.arange(1, q), np.arange(q)
    a, b, c = units[:, None, None], full[:, None], full
    if kind == "sl2":
        elems = np.empty((q ** 3 - q, 4), dtype=np.int64)
        head = (q - 1) * q
        v = units[:, None]
        _fill(elems[:head], (q - 1, q), 0, v, F.neg(F.inv(v)), full)
        _fill(elems[head:], (q - 1, q, q), a, b, c,
              F.mul(F.add(1, F.mul(b, c)), F.inv(a)))
        return elems
    elems = np.empty(((q * q - 1) * (q * q - q), 4), dtype=np.int64)
    head = (q - 1) ** 2 * q
    _fill(elems[:head], (q - 1, q - 1, q), 0, units[:, None, None],
          units[:, None], full)
    root = F.mul(F.mul(b, c), F.inv(a))[..., None]
    k = np.arange(q - 1)
    _fill(elems[head:], (q - 1, q, q, q - 1), a[..., None], b[..., None],
          c[..., None], k + (k >= root))
    return elems


class GroupCtx:
    """kind is "gl2" or "sl2"; field is the FieldCtx of entries.

    Structures derived from the group are owned here and computed once,
    on first use: the Borel subgroup view (borel), the right cosets
    B\\G (borel_cosets) and the GL2 context over the same field
    (gl2_ctx)."""

    def __init__(self, kind, field):
        if kind not in ("gl2", "sl2"):
            raise NotInGroup(f"unknown kind {kind!r}")
        self.kind = kind
        self.field = field
        q = field.q
        check_grid(q)
        self.q = q
        self.eps = field.eps

        self.elems = _enumerate(kind, field)
        self.n = len(self.elems)
        self.lookup = np.full(q ** 4, -1, dtype=np.int64)
        self.lookup[self._certify()] = np.arange(self.n)

        self.identity = self.id_of((1, 0, 0, 1))
        inv = self.lookup[_pack(q, self.mat_inv(self.elems))]
        self._mul = self._make_mul()
        flooded = FiniteGroupView(self.n, self._mul, inv=inv,
                                  identity=self.identity)
        labels = self._canonical_classes(flooded.classes)
        self.view = flooded.with_classes(
            [(rep_id, orbit) for _, _, rep_id, orbit in labels])
        self.conj_classes = [
            ConjClass(tag=tag, params=params, rep=self.mat_of(rep_id),
                      rep_id=rep_id, size=len(orbit),
                      centralizer_order=self.n // len(orbit))
            for tag, params, rep_id, orbit in labels]

    def _certify(self):
        """The packed keys of elems, once elems is proved to be exactly
        the group in increasing packed order: every entry lies in
        0..q-1, every determinant is nonzero (gl2) or 1 (sl2), the keys
        strictly increase, and there are |G| of them.  Keys in range are
        distinct matrices, so |G| distinct members are the whole group,
        and increasing keys fix the order of the ids."""
        q, m = self.q, self.elems
        order = (q * q - 1) * (q * q - q) if self.kind == "gl2" else q ** 3 - q
        if self.n != order:
            raise VerificationFailed(
                f"{self.n} matrices enumerated, |{self.kind}| = {order}")
        if m.min() < 0 or m.max() >= q:
            raise VerificationFailed("an entry lies outside the field")
        det = self.mat_det(m)
        bad = np.count_nonzero(det == 0 if self.kind == "gl2" else det != 1)
        if bad:
            raise VerificationFailed(
                f"{bad} enumerated matrices have a determinant outside "
                f"{self.kind}")
        keys = _pack(q, m)
        if np.any(keys[1:] <= keys[:-1]):
            raise VerificationFailed("packed keys do not strictly increase")
        return keys

    # --- matrix arithmetic on (..., 4) index arrays ---

    def mat_mul(self, m1, m2):
        """Products of (..., 4) matrices: one field call for the eight
        entry products, one for the four sums of pairs."""
        m1 = np.asarray(m1, dtype=np.int64)[..., [0, 0, 2, 2, 1, 1, 3, 3]]
        m2 = np.asarray(m2, dtype=np.int64)[..., [0, 1, 0, 1, 2, 3, 2, 3]]
        prods = self.field.mul(m1, m2)
        return self.field.add(prods[..., :4], prods[..., 4:])

    def mat_det(self, m):
        F = self.field
        m = np.asarray(m, dtype=np.int64)
        return F.sub(F.mul(m[..., 0], m[..., 3]), F.mul(m[..., 1], m[..., 2]))

    def mat_inv(self, m):
        F = self.field
        m = np.asarray(m, dtype=np.int64)
        det = self.mat_det(m)
        if np.any(np.asarray(det) == 0):
            raise Singular("matrix is not invertible")
        di = F.inv(det)
        return np.stack([
            F.mul(m[..., 3], di),
            F.neg(F.mul(m[..., 1], di)),
            F.neg(F.mul(m[..., 2], di)),
            F.mul(m[..., 0], di),
        ], axis=-1)

    def _make_mul(self):
        elems, lookup, q = self.elems, self.lookup, self.q

        def mul(ai, bi):
            prod = self.mat_mul(elems[ai], elems[bi])
            return lookup[_pack(q, prod)]
        return mul

    # --- element constructors ---

    def id_of(self, m):
        m = np.asarray(m, dtype=np.int64)
        # an entry outside 0..q-1 would pack onto another matrix's key
        if m.min() < 0 or m.max() >= self.q:
            raise NotInGroup(
                f"{tuple(m.tolist())} has an entry outside F_{self.q}")
        i = int(self.lookup[int(_pack(self.q, m))])
        if i < 0:
            raise NotInGroup(f"{tuple(m.tolist())} is not in {self.kind}")
        return i

    def mat_of(self, i):
        return tuple(int(x) for x in self.elems[i])

    def w_id(self):
        return self.id_of((0, 1, int(self.field.neg(1)), 0))

    def t_id(self, a):
        """diag(a, a^-1), the standard torus of SL2."""
        return self.id_of((a, 0, 0, int(self.field.inv(a))))

    def lower_id(self, c):
        return self.id_of((1, 0, c, 1))

    # --- standard subgroups (element id lists) ---

    def borel_ids(self):
        m = self.elems
        return np.flatnonzero(m[:, 2] == 0)

    def subview(self, members):
        return subgroup_view(self.view, members)

    @cached_property
    def borel(self):
        """(view, embedding) of the upper triangular Borel subgroup."""
        return self.subview(self.borel_ids())

    @cached_property
    def borel_cosets(self):
        """Right cosets B\\G: canonical (minimal id) representatives and
        the coset index of every element.  The cosets Bg are the orbits
        of left multiplication by the Borel view's certified generators,
        one whole-group product each."""
        bview, bemb = self.borel
        x = np.arange(self.n)
        left = [self.view.mul(b, x) for b in bemb.injection[bview.gens]]
        cosets = perm_orbits(self.n, np.array(left).reshape(-1, self.n))
        coset_of = np.empty(self.n, dtype=np.int64)
        for i, (_, members) in enumerate(cosets):
            coset_of[members] = i
        return np.array([g for g, _ in cosets], dtype=np.int64), coset_of

    @cached_property
    def gl2_ctx(self):
        """The GL2 context over the same field (self for a gl2 context)."""
        return self if self.kind == "gl2" else GroupCtx("gl2", self.field)

    # --- conjugacy structure ---

    def _char_roots(self, m):
        """Roots in F_q of the characteristic polynomial of one matrix."""
        F = self.field
        tr = int(F.add(m[0], m[3]))
        det = int(self.mat_det(np.asarray(m)))
        lam = np.arange(self.q, dtype=np.int64)
        vals = F.add(F.sub(F.mul(lam, lam), F.mul(tr, lam)), det)
        return [int(r) for r in lam[vals == 0]], tr, det

    def classify(self, m):
        """(tag, params, canonical representative matrix) of one matrix."""
        F = self.field
        m = tuple(int(x) for x in m)
        roots, tr, det = self._char_roots(m)
        if len(roots) == 2:
            l1, l2 = sorted(roots)
            return "split_regular", (l1, l2), (l1, 0, 0, l2)
        if len(roots) == 0:
            return "anisotropic", (det, tr), (0, int(F.neg(det)), 1, tr)
        lam = roots[0]
        if m == (lam, 0, 0, lam):
            return "central", (lam,), m
        if self.kind == "gl2":
            return "nonsemisimple", (lam,), (lam, 1, 0, lam)
        # SL2: the direction of the nilpotent part matters; the class of
        # (lam v; 0 lam) is detected by the square class of
        # delta = det[N u, u] for N = m - lam and any u outside ker N.
        # N != 0 has N^2 = 0, so c = 0 forces N = (0 b; 0 0): u = (0, 1)
        # gives delta = b.  Otherwise u = (1, 0) lies outside ker N and
        # delta = det[(a - lam, c), (1, 0)] = -c
        _, b, c, _ = m
        delta = int(F.neg(c)) if c else b
        variant = 1 if self.field.is_square_unit(delta) else self.eps_of_field()
        return "nonsemisimple", (lam, variant), (lam, variant, 0, lam)

    def eps_of_field(self):
        if self.eps is None:
            raise EvenQ("no non-square unit in even characteristic")
        return self.eps

    def _canonical_classes(self, flooded):
        """(tag, params, rep_id, members) of every flooded class, in
        TAG_RANK then params order."""
        labeled = []
        for _, orbit in flooded:
            tag, params, rep = self.classify(self.elems[orbit[0]])
            rep_id = self.id_of(rep)
            if rep_id not in orbit:
                raise VerificationFailed(
                    f"canonical representative {rep} escaped its class")
            labeled.append((TAG_RANK[tag], params, tag, rep_id, orbit))
        labeled.sort(key=lambda t: (t[0], t[1]))
        return [(tag, params, rep_id, orbit)
                for _, params, tag, rep_id, orbit in labeled]

    def class_index_of(self, m):
        return int(self.view.class_of[self.id_of(m)])


def make_group(kind, field):
    return GroupCtx(kind, field)


def bruhat(ctx, mats):
    """Bruhat decomposition of (..., 4) matrices.

    Returns (big, b1, b2).  big marks the cell BwB, where the lower-left
    entry c is nonzero: there g = b1 w b2 with w = (0 1; -1 0),
    b1 = (1 a/c; 0 1) and b2 = (-c -d; 0 b - ad/c).  On the cell B,
    b1 = g and b2 = 1.  Every word is re-multiplied in one batched triple
    product and compared exactly."""
    F = ctx.field
    g = np.asarray(mats, dtype=np.int64)
    a, b, c, d = (g[..., i] for i in range(4))
    big = c != 0
    x = F.mul(a, F.inv(np.where(big, c, 1)))
    zero, one = np.zeros_like(a), np.ones_like(a)
    cell = big[..., None]
    b1 = np.where(cell, np.stack([one, x, zero, one], axis=-1), g)
    b2 = np.where(cell, np.stack([F.neg(c), F.neg(d), zero,
                                  F.sub(b, F.mul(x, d))], axis=-1),
                  (1, 0, 0, 1))
    w = np.where(cell, (0, 1, int(F.neg(1)), 0), (1, 0, 0, 1))
    back = ctx.mat_mul(ctx.mat_mul(b1, w), b2)
    bad = int(np.count_nonzero(np.any(back != g, axis=-1)))
    if bad:
        raise VerificationFailed(f"{bad} bruhat words do not re-multiply")
    return big, b1, b2


def sl2_split_test(slctx, g):
    """Whether the GL2 class of an SL2 element splits into two SL2
    classes, decided by the index of det(Z_GL2(g)) in F_q^*.

    Returns (splits, partner_id) where partner_id is the id of the
    conjugate by diag(eps, 1) when the class splits, else None."""
    if slctx.kind != "sl2":
        raise NotInGroup("split test needs an sl2 context")
    if slctx.q % 2 == 0:
        raise EvenQ("split test needs odd q")
    gl = slctx.gl2_ctx
    if isinstance(g, (int, np.integer)):
        g = slctx.mat_of(g)
    m = np.asarray(g, dtype=np.int64)
    E = gl.elems
    left = gl.mat_mul(E, m)
    right = gl.mat_mul(m, E)
    cent = E[np.all(left == right, axis=-1)]
    dets = np.unique(np.asarray(gl.mat_det(cent)))
    image_size = len(dets)
    q = slctx.q
    n_classes = (q - 1) // image_size
    if n_classes not in (1, 2):
        raise VerificationFailed(f"centralizer determinant image size {image_size}")
    if n_classes == 1:
        return False, None
    eps = slctx.eps
    F = slctx.field
    s = np.array([eps, 0, 0, 1], dtype=np.int64)
    sinv = np.array([int(F.inv(eps)), 0, 0, 1], dtype=np.int64)
    partner = slctx.mat_mul(slctx.mat_mul(s, m), sinv)
    return True, slctx.id_of(tuple(int(x) for x in partner))
