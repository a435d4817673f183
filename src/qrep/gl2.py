"""GL2 and SL2 over a small finite field: enumeration, Bruhat
decomposition, conjugacy classes with canonical representatives.

A matrix (a b; c d) of field-element indices is numbered by its rank in
the lexicographic (a, b, c, d) order of the group's members, and the
group is enumerated in that order straight from the triples (a, b, c):
for a != 0 SL2 has the one entry d = (1 + bc)/a and GL2 every d but the
root of ad = bc; on the line a = 0, SL2 needs c = -1/b and GL2 bc != 0,
and d is free.  GroupCtx.ids_of reads that rank off (a, b, c, d) in
closed form and refuses every non-member, so nothing of size q^4 is
built: the enumeration is certified by |G| rows whose ids are 0..|G|-1.
The only size bound, MAX_ORDER, is on |G|.  All matrix arithmetic is
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
from .repcore import FiniteGroupView, row_chunks, subgroup_view

TAG_RANK = {"central": 0, "nonsemisimple": 1, "split_regular": 2, "anisotropic": 3}
# bounds GroupCtx's (|G|, 4) int64 elems (512 MiB at the bound) and the
# (|S|, |G|) right table of generators S: GL2 to q = 61, SL2 built to 127
MAX_ORDER = 1 << 24


@dataclass
class ConjClass:
    tag: str
    params: tuple
    rep: tuple          # (a, b, c, d) field indices
    rep_id: int
    size: int
    centralizer_order: int


def check_order(kind, q):
    """|G| of kind over F_q, or SizeExceeded past MAX_ORDER; the bound
    needs q alone, so callers can check it before building F_q."""
    n = (q * q - 1) * (q * q - q) if kind == "gl2" else q ** 3 - q
    if n > MAX_ORDER:
        raise SizeExceeded(f"|{kind}(F_{q})| = {n} exceeds {MAX_ORDER}")
    return n


def _fill(block, shape, *cols):
    """Write the four entry columns of block, viewed as shape + (4,),
    each broadcast over shape."""
    view = block.reshape(shape + (4,))
    for i, col in enumerate(cols):
        view[..., i] = col


def _enumerate(kind, F):
    """Every matrix of kind over F, in lexicographic (a, b, c, d) order,
    from the triples (a, b, c).  The line a = 0 comes first: there
    det = -bc, so SL2 takes c = -1/b and GL2 every b, c != 0, each with
    every d.  For a != 0, SL2 takes the one d = (1 + bc)/a and GL2 every
    d but the root r = bc/a of ad = bc, as k + (k >= r) for k = 0..q-2."""
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
    on first use: the Borel subgroup view (borel), the representatives
    of the right cosets B\\G (borel_coset_reps) and the GL2 context over
    the same field (gl2_ctx)."""

    def __init__(self, kind, field):
        if kind not in ("gl2", "sl2"):
            raise NotInGroup(f"unknown kind {kind!r}")
        self.kind = kind
        self.field = field
        check_order(kind, field.q)
        self.q = field.q
        self.eps = field.eps

        self.elems = _enumerate(kind, field)
        self.n = len(self.elems)
        self._certify()

        self.identity = self.id_of((1, 0, 0, 1))
        inv = self.ids_of(self.mat_inv(self.elems))
        self.view = FiniteGroupView(self.n, self._mul, inv=inv,
                                    identity=self.identity)
        self.conj_classes = self._canonical_classes()

    def _certify(self):
        """Prove elems is exactly the group, row i the matrix of id i: there
        are |G| rows, and ids_of(elems) is 0..|G|-1.  ids_of refuses every
        non-member (an entry outside 0..q-1, or a determinant outside the
        group), and on members its formula is injective, so |G| rows with
        distinct ids are |G| distinct members, the whole group, and each
        row carries its own id."""
        order = check_order(self.kind, self.q)
        if self.n != order:
            raise VerificationFailed(
                f"{self.n} matrices enumerated, |{self.kind}| = {order}")
        try:
            ids = self.ids_of(self.elems)
        except NotInGroup as e:
            raise VerificationFailed(f"enumeration: {e}") from e
        if not np.array_equal(ids, np.arange(self.n)):
            raise VerificationFailed(
                f"enumerated ids do not strictly increase through "
                f"0..{self.n - 1}")

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

    def _mul(self, ai, bi):
        return self.ids_of(self.mat_mul(self.elems[ai], self.elems[bi]))

    # --- element ids ---

    def ids_of(self, m):
        """Ids of (..., 4) matrices: the rank of (a, b, c, d) among the
        group's members in lexicographic order, the order of _enumerate.
        With k = (a q + b) q + c - q, off the line a = 0 that rank is k
        (SL2) or (q-1) k + d - [d > bc/a] (GL2), and on it k + d - c =
        (b-1) q + d or (q-1) k + d - (q - c) = ((b-1)(q-1) + c-1) q + d.
        NotInGroup names a row with an entry outside 0..q-1 (it would
        alias another id), else one with a determinant outside the group."""
        m = np.asarray(m, dtype=np.int64)
        rows = m.reshape(-1, 4)
        # 2^17 rows a chunk, 1 MiB per int64 temporary; one chunk goes
        # uncopied (a copy raised peak RSS), and no rows give rows[:0, 0]
        ids = [self._rank(rows[p]) for p in row_chunks(len(rows), 8)]
        ids = ids[0] if len(ids) == 1 else np.concatenate([rows[:0, 0], *ids])
        return ids.reshape(m.shape[:-1])

    def _rank(self, m):
        """ids_of on one (k, 4) chunk."""
        F, q = self.field, self.q
        if m.min() < 0 or m.max() >= q:
            bad = np.any((m < 0) | (m >= q), axis=-1)
            why = f"an entry outside the field F_{q}"
        else:
            a, b, c, d = (m[..., i].copy() for i in range(4))
            ad, bc = F.mul(a, d), F.mul(b, c)
            # det = ad - bc is nonzero (gl2) or 1 (sl2)
            bad = ad == bc if self.kind == "gl2" else ad != F.add(bc, 1)
            why = f"a determinant outside {self.kind}"
        if bad.any():
            row = m[np.flatnonzero(bad)[0]]
            raise NotInGroup(f"{tuple(row.tolist())} has {why}")
        line = a == 0
        k = (a * q + b) * q + c - q
        if self.kind == "sl2":
            return k + np.where(line, d - c, 0)
        root = F.mul(bc, F.inv_table[np.where(line, 1, a)])
        return (q - 1) * k + d - np.where(line, q - c, d > root)

    def id_of(self, m):
        return int(self.ids_of(m))

    def mat_of(self, i):
        return tuple(int(x) for x in self.elems[i])

    # --- standard subgroups (element id lists) ---

    def borel_ids(self):
        return np.flatnonzero(self.elems[:, 2] == 0)

    @cached_property
    def borel(self):
        """(view, embedding) of the upper triangular Borel subgroup."""
        return subgroup_view(self.view, self.borel_ids())

    def line_of(self, x, y):
        """The point of P^1(F_q) through nonzero rows (x, y), vectorized:
        y/x for x != 0, and q for the line of (0, 1)."""
        F = self.field
        return np.where(x == 0, self.q, F.mul(y, F.inv_table[x]))

    @cached_property
    def borel_coset_reps(self):
        """The minimal id of each right coset Bg, in increasing order.

        B\\G is the projective line: Bg is the set of elements whose
        bottom row is a multiple of g's.  For b in B, b g has bottom row
        b22 (c, d); and if g and h have bottom rows (c, d) = lam (c', d'),
        then g h^-1 has lower-left entry (c d' - d c') / det h = 0, so it
        lies in B.  The first id on each line_of its bottom row is that
        coset's representative."""
        _, _, c, d = self.elems.T
        return np.sort(np.unique(self.line_of(c, d), return_index=True)[1])

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

    def _canonical_classes(self):
        """Classify the flooded representative of each class of view,
        renumber the classes in TAG_RANK then params order with their
        canonical representatives (FiniteGroupView.relabel, which checks
        each one lies in its class), and return their ConjClass records."""
        v = self.view
        shapes = [self.classify(m) for m in self.elems[v.reps]]
        rep_ids = self.ids_of([rep for _, _, rep in shapes])
        order = sorted(range(len(shapes)), key=lambda ci: (
            TAG_RANK[shapes[ci][0]], shapes[ci][1]))
        v.relabel(np.argsort(order)[v.class_of], rep_ids[order])
        return [ConjClass(tag=shapes[ci][0], params=shapes[ci][1],
                          rep=self.mat_of(rep_id), rep_id=int(rep_id),
                          size=int(size), centralizer_order=self.n // int(size))
                for ci, rep_id, size in zip(order, v.reps, v.sizes)]

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

    g is an element id.  Returns (splits, partner_id) where partner_id
    is the id of the conjugate by diag(eps, 1) when the class splits,
    else None."""
    if slctx.kind != "sl2":
        raise NotInGroup("split test needs an sl2 context")
    if slctx.q % 2 == 0:
        raise EvenQ("split test needs odd q")
    gl = slctx.gl2_ctx
    m = slctx.elems[g]
    E = gl.elems
    cent = E[np.all(gl.mat_mul(E, m) == gl.mat_mul(m, E), axis=-1)]
    image_size = len(np.unique(gl.mat_det(cent)))
    n_classes = (slctx.q - 1) // image_size
    if n_classes not in (1, 2):
        raise VerificationFailed(f"centralizer determinant image size {image_size}")
    if n_classes == 1:
        return False, None
    # diag(eps, 1) (a b; c d) diag(1/eps, 1) = (a eps*b; c/eps d)
    F, eps = slctx.field, slctx.eps
    a, b, c, d = m.tolist()
    return True, slctx.id_of(
        (a, int(F.mul(eps, b)), int(F.mul(c, F.inv(eps))), d))
