"""Enumeration, conjugacy-class structure and Bruhat decomposition of
GL2/SL2."""

import tracemalloc

import numpy as np
import pytest

from qrep import NotInGroup, bruhat, gl2, make_field, make_group, sl2_split_test
from qrep.errors import SizeExceeded, Singular, VerificationFailed
from qrep.ff import prime_power

RNG = np.random.default_rng(20070714)


def _class_by(ctx, tag, params):
    for c in ctx.conj_classes:
        if c.tag == tag and c.params == params:
            return c
    raise AssertionError(f"no class {tag} {params}")


# ---------------------------------------------------------------------------
# frozen class data


def test_gl2_f3_classes_frozen():
    ctx = make_group("gl2", make_field(3))
    assert ctx.view.n == 48
    assert len(ctx.conj_classes) == 8
    got = sorted((c.tag, c.params, c.size, c.centralizer_order)
                 for c in ctx.conj_classes)
    want = sorted([
        ("central", (1,), 1, 48),
        ("central", (2,), 1, 48),
        ("nonsemisimple", (1,), 8, 6),
        ("nonsemisimple", (2,), 8, 6),
        ("split_regular", (1, 2), 12, 4),
        ("anisotropic", (1, 0), 6, 8),   # params: (det, trace)
        ("anisotropic", (2, 1), 6, 8),
        ("anisotropic", (2, 2), 6, 8),
    ])
    assert got == want


def test_sl2_f3_classes_frozen():
    ctx = make_group("sl2", make_field(3))
    assert ctx.view.n == 24
    assert len(ctx.conj_classes) == 7
    tally = {}
    for c in ctx.conj_classes:
        tally.setdefault(c.tag, []).append((c.size, c.centralizer_order))
    assert sorted(tally["central"]) == [(1, 24), (1, 24)]
    # unipotent classes have size (q^2-1)/2 = 4 in SL2
    assert sorted(tally["nonsemisimple"]) == [(4, 6)] * 4
    assert tally["anisotropic"] == [(6, 4)]
    assert "split_regular" not in tally  # no a != 1/a pairs at q = 3


def test_class_counts_and_sizes_by_formula():
    for q in (3, 5, 7):
        F = make_field(q)
        g = make_group("gl2", F)
        tags = {}
        for c in g.conj_classes:
            tags.setdefault(c.tag, []).append(c)
        assert len(tags["central"]) == q - 1
        assert len(tags["nonsemisimple"]) == q - 1
        assert len(tags["split_regular"]) == (q - 1) * (q - 2) // 2
        assert len(tags["anisotropic"]) == (q * q - q) // 2
        assert all(c.size == 1 for c in tags["central"])
        assert all(c.size == q * q - 1 for c in tags["nonsemisimple"])
        assert all(c.size == q * (q + 1) for c in tags["split_regular"])
        assert all(c.size == q * (q - 1) for c in tags["anisotropic"])
        assert sum(c.size for c in g.conj_classes) == g.view.n
        # centralizer orders: |G| = size * centralizer
        for c in g.conj_classes:
            assert c.size * c.centralizer_order == g.view.n


def test_sl2_class_counts_by_formula():
    for q in (3, 5, 7, 9):
        kw = {3: (3, 1), 5: (5, 1), 7: (7, 1), 9: (3, 2)}[q]
        ctx = make_group("sl2", make_field(*kw))
        assert ctx.view.n == q * (q * q - 1)
        assert len(ctx.conj_classes) == q + 4
        nonss = [c for c in ctx.conj_classes if c.tag == "nonsemisimple"]
        assert len(nonss) == 4
        assert all(c.size == (q * q - 1) // 2 for c in nonss)


def test_classify_hand_cases():
    ctx = make_group("sl2", make_field(3))
    tag, params, rep = ctx.classify(np.array([1, 1, 0, 1]))
    assert tag == "nonsemisimple" and params == (1, 1)
    tag, params, rep = ctx.classify(np.array([1, 2, 0, 1]))
    assert tag == "nonsemisimple" and params == (1, 2)  # 2 is a non-square
    tag, params, rep = ctx.classify(np.array([0, 2, 1, 0]))
    assert tag == "anisotropic"  # t^2 + 1 irreducible over F_3
    tag, params, rep = ctx.classify(np.array([2, 0, 0, 2]))
    assert tag == "central" and params == (2,)

    g5 = make_group("gl2", make_field(5))
    tag, params, rep = g5.classify(np.array([2, 0, 0, 3]))
    assert tag == "split_regular" and params == (2, 3)
    tag, params, rep = g5.classify(np.array([3, 1, 0, 3]))
    assert tag == "nonsemisimple" and params == (3,)


def test_classify_is_conjugation_invariant():
    ctx = make_group("gl2", make_field(5))
    n = ctx.view.n
    for _ in range(100):
        g = int(RNG.integers(n))
        x = int(RNG.integers(n))
        gm = ctx.elems[g]
        xm = ctx.elems[x]
        conj = ctx.mat_mul(ctx.mat_mul(xm, gm), ctx.mat_inv(xm))
        assert ctx.classify(gm)[:2] == ctx.classify(conj)[:2]


def test_class_sizes_match_orbit_flood():
    # independent O(|G|^2 / class) check: orbit of each canonical rep
    ctx = make_group("sl2", make_field(5))
    allg = np.arange(ctx.view.n)
    for c in ctx.conj_classes:
        orbit = np.unique(ctx.view.mul(ctx.view.mul(allg, c.rep_id),
                                       ctx.view.inv[allg]))
        assert len(orbit) == c.size
        assert ctx.view.class_of[c.rep_id] == ctx.view.class_of[orbit].min()


def test_borel_cosets_match_the_seen_loop(seen_loop_cosets):
    # the representatives are the loop's, in its order, and each
    # element's coset is the slot of the line of its bottom row
    for kind, q in (("gl2", 3), ("gl2", 5), ("gl2", 9),
                    ("sl2", 5), ("sl2", 9), ("sl2", 25)):
        ctx = make_group(kind, make_field(*prime_power(q)))
        reps, coset_of = seen_loop_cosets(ctx)
        got = ctx.borel_coset_reps
        assert got.tolist() == reps.tolist()
        _, _, c, d = ctx.elems.T
        slot = np.full(q + 1, -1)
        slot[ctx.line_of(c[got], d[got])] = np.arange(q + 1)
        assert np.array_equal(slot[ctx.line_of(c, d)], coset_of)


def test_membership_errors():
    ctx = make_group("sl2", make_field(3))
    with pytest.raises(NotInGroup,
                       match=r"^\(1, 0, 0, 2\) has a determinant outside "
                             r"sl2$"):
        ctx.id_of((1, 0, 0, 2))  # det 2 != 1
    g3 = make_group("gl2", make_field(3))
    with pytest.raises((NotInGroup, Singular)):
        g3.id_of((1, 1, 1, 1))  # singular
    with pytest.raises(Singular):
        g3.mat_inv(np.array([1, 1, 1, 1]))


def test_id_of_refuses_entries_outside_the_field():
    # over F_3, (1, 0, 0, 4) packs onto the key of (1, 0, 1, 1), and
    # (1, 0, 0, -2) onto that of (0, 2, 2, 1) in GL2: an entry outside
    # 0..q-1 must not alias another matrix's id, alone or in a batch
    for kind in ("gl2", "sl2"):
        ctx = make_group(kind, make_field(3))
        for m in ((1, 0, 0, 4), (1, 0, 0, -2), (3, 0, 0, 1), (1, -1, 0, 1)):
            with pytest.raises(NotInGroup, match="outside the field F_3"):
                ctx.id_of(m)
            with pytest.raises(NotInGroup,
                               match=rf"^\({', '.join(map(str, m))}\) has"):
                ctx.ids_of([(1, 0, 0, 1), m])


def test_ids_of_reads_a_long_array_by_chunks():
    # ids_of works by chunks of 2^17 rows: the ids are the same, and the
    # first singular row is named even when it lies in a later chunk
    ctx = make_group("gl2", make_field(3))
    m = ctx.elems[np.arange(300_000) % ctx.n]
    assert np.array_equal(ctx.ids_of(m.reshape(-1, 10, 4)).ravel(),
                          np.arange(300_000) % ctx.n)
    m[200_000], m[280_000] = (1, 1, 1, 1), (2, 2, 2, 2)
    with pytest.raises(NotInGroup, match=r"^\(1, 1, 1, 1\) has a determinant"):
        ctx.ids_of(m)


# ---------------------------------------------------------------------------
# enumeration


def _pack(q, m):
    """The packed key ((a q + b) q + c) q + d of (..., 4) matrices."""
    m = np.asarray(m, dtype=np.int64)
    return ((m[..., 0] * q + m[..., 1]) * q + m[..., 2]) * q + m[..., 3]


def _filtered_grid(ctx):
    """The reference enumeration: all q^4 matrices in increasing packed
    order, split by their determinant into (members, non-members)."""
    q = ctx.q
    grid = np.indices((q,) * 4).reshape(4, -1).T
    assert np.array_equal(_pack(q, grid), np.arange(q ** 4))
    det = ctx.mat_det(grid)
    member = det != 0 if ctx.kind == "gl2" else det == 1
    return grid[member], grid[~member]


@pytest.mark.parametrize("kind,p,k", [
    ("sl2", 3, 1), ("sl2", 5, 1), ("sl2", 7, 1), ("sl2", 3, 2), ("sl2", 5, 2),
    ("gl2", 3, 1), ("gl2", 5, 1), ("gl2", 7, 1), ("gl2", 3, 2)])
def test_enumeration_equals_the_filtered_grid(kind, p, k):
    # the closed-form id of every member is its rank in packed order, and
    # every non-member is refused on its own (all q^4 <= 9^4 of them)
    ctx = make_group(kind, make_field(p, k))
    members, others = _filtered_grid(ctx)
    assert ctx.elems.dtype == np.int64
    assert np.array_equal(ctx.elems, members)
    assert np.array_equal(ctx.ids_of(members), np.arange(ctx.n))
    if ctx.q > 9:
        return
    refused = 0
    for m in others:
        with pytest.raises(NotInGroup, match="has a determinant outside"):
            ctx.ids_of(m)
        refused += 1
    assert refused == ctx.q ** 4 - ctx.n


def _drop(m):
    return np.delete(m, 5, axis=0)


def _wrong_det(m):
    # over F_5 the last matrix is (4, 4, 4, 3) in both groups; d = 4
    # keeps its key the largest and makes it singular
    m[-1, 3] = 4
    return m


def _duplicate(m):
    m[6] = m[5]
    return m


def _swap(m):
    m[[5, 6]] = m[[6, 5]]
    return m


def _outside(m):
    m[5, 3] = 5
    return m


@pytest.mark.parametrize("kind", ["gl2", "sl2"])
@pytest.mark.parametrize("edit,match", [
    (_drop, "matrices enumerated"),
    (_wrong_det, "determinant outside"),
    (_duplicate, "strictly increase"),  # the id-order gate
    (_swap, "strictly increase"),
    (_outside, "outside the field"),
])
def test_each_enumeration_gate_fires(monkeypatch, kind, edit, match):
    # one fault per gate of GroupCtx._certify; each message names its gate
    enumerate_ = gl2._enumerate
    monkeypatch.setattr(gl2, "_enumerate",
                        lambda kind, F: edit(enumerate_(kind, F)))
    with pytest.raises(VerificationFailed, match=match):
        make_group(kind, make_field(5))


def test_the_order_bound_admits_gl2_to_61_and_sl2_to_256():
    # the bound is on |G| = (q^2-1)(q^2-q) or q^3-q, from q alone
    gl2.check_order("gl2", 61)
    gl2.check_order("sl2", 256)
    for kind, q, n in (("gl2", 67, 19845936), ("sl2", 257, 16974336)):
        with pytest.raises(SizeExceeded,
                           match=rf"^\|{kind}\(F_{q}\)\| = {n} exceeds "):
            gl2.check_order(kind, q)


def _traced_peak(kind, F):
    tracemalloc.start()
    try:
        make_group(kind, F)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_the_sl2_enumeration_builds_no_q4_grid():
    # |SL2(F_25)| = 15,600 matrices: the construction peaks at about
    # 7 MB traced, where building and filtering all 25^4 matrices takes
    # it to 27 MB
    assert _traced_peak("sl2", make_field(5, 2)) < 12e6


def test_the_sl2_ids_need_no_q4_lookup():
    # |SL2(F_49)| = 117,600 matrices: the construction peaks at about
    # 36 MB traced, where an int64 id lookup over all 49^4 packed keys
    # (46 MB) took it to 82 MB
    assert _traced_peak("sl2", make_field(7, 2)) < 50e6


# ---------------------------------------------------------------------------
# Bruhat decomposition


def test_bruhat_cells_partition_the_group():
    for kind, q in (("gl2", 3), ("sl2", 5)):
        ctx = make_group(kind, make_field(q))
        big, _, _ = bruhat(ctx, ctx.elems)  # re-multiplies and compares
        in_b = int(np.count_nonzero(~big))
        b_order = (q * (q - 1) ** 2) if kind == "gl2" else q * (q - 1)
        assert in_b == b_order


def test_bruhat_of_weyl_element_and_factor_membership():
    ctx = make_group("sl2", make_field(7))
    w = (0, 1, int(ctx.field.neg(1)), 0)
    big, b1, b2 = bruhat(ctx, np.array(w))
    assert big
    borel = set(ctx.borel_ids())
    for part in (b1, b2):
        assert ctx.id_of(part) in borel


def test_bruhat_of_one_matrix_matches_the_batch():
    ctx = make_group("gl2", make_field(3))
    g = 17
    c1 = bruhat(ctx, ctx.elems)
    c2 = bruhat(ctx, np.asarray(ctx.mat_of(g)))
    assert all(np.array_equal(x[g], y) for x, y in zip(c1, c2))


def test_bruhat_counts_words_that_do_not_re_multiply(monkeypatch):
    # the outer product of the re-multiplication is skewed on its first
    # three rows: bruhat must count exactly those three words
    ctx = make_group("sl2", make_field(5))
    real = ctx.mat_mul
    calls = []

    def skewed(m1, m2):
        out = real(m1, m2)
        calls.append(1)
        if len(calls) == 2:
            out[:3, 0] = (out[:3, 0] + 1) % ctx.q
        return out

    monkeypatch.setattr(ctx, "mat_mul", skewed)
    with pytest.raises(VerificationFailed, match="^3 bruhat words"):
        bruhat(ctx, ctx.elems)


# ---------------------------------------------------------------------------
# splitting of GL2 classes in SL2


def test_nonsemisimple_classes_split_in_sl2():
    F = make_field(5)
    sl = make_group("sl2", F)
    gl = sl.gl2_ctx
    # each unipotent GL2 class with det 1 meets SL2 in two classes
    u = sl.id_of((1, 1, 0, 1))
    splits, partner = sl2_split_test(sl, u)
    assert splits
    # the partner is the same GL2 class but a different SL2 class
    pm = sl.mat_of(partner)
    assert gl.classify(np.asarray(pm))[:2] == gl.classify(np.array([1, 1, 0, 1]))[:2]
    assert sl.view.class_of[partner] != sl.view.class_of[u]
    assert sl.view.class_of[partner] == sl.view.class_of[sl.id_of((1, 2, 0, 1))]


def test_semisimple_classes_do_not_split():
    F = make_field(5)
    sl = make_group("sl2", F)
    for m in ((2, 0, 0, 3), (0, 4, 1, 0), (1, 0, 0, 1)):
        splits, partner = sl2_split_test(sl, sl.id_of(m))
        assert not splits and partner is None


def test_split_count_is_exactly_four():
    sl = make_group("sl2", make_field(3))
    split_classes = [c for c in sl.conj_classes
                     if sl2_split_test(sl, c.rep_id)[0]]
    assert len(split_classes) == 4
    assert all(c.tag == "nonsemisimple" for c in split_classes)
