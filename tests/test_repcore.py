"""Generic finite-group machinery: class functions, induction and
restriction (against the Mackey formula), brute-force character tables,
certified generators and matrix models."""

import copy
import itertools
import tracemalloc

import numpy as np
import pytest

from qrep import (
    BorelChar,
    ClassFunction,
    FiniteGroupView,
    GroupCtx,
    GroupMismatch,
    MatrixRep,
    MonomialImages,
    MultChar,
    NonIntegral,
    NotInGroup,
    SubgroupEmbedding,
    build_induced_rep,
    character_table_bruteforce,
    heisenberg_group,
    heisenberg_rep,
    hom_dim,
    induce,
    inner_product,
    make_field,
    make_group,
    rep_character,
    subgroup_view,
)
from qrep import repcore
from qrep.chartab import SUPPORTED, build_table
from qrep.errors import VerificationFailed
from qrep.ff import prime_power
from qrep.gl2 import TAG_RANK
from qrep.repcore import (_CHUNK_BYTES, _MONOMIAL_TEMPS, MixedRadix,
                          flood_classes, generating_set, orbits)

RNG = np.random.default_rng(20070714)


def restrict(f, emb):
    """Restriction of a class function on G to H, by the class fusion
    map: the Frobenius-reciprocity and Mackey reference for induce."""
    if f.view is not emb.big:
        raise GroupMismatch("function does not live on the big group")
    return ClassFunction(emb.sub, f.values[emb.fusion])


def _borel_embedding(ctx):
    sub, emb = subgroup_view(ctx.view, ctx.borel_ids())
    return emb


def _abelian_view(orders):
    """The toy group Z/n_1 x ... x Z/n_r, indexed little-endian."""
    r = MixedRadix([int(o) for o in orders])

    def mul(a, b):
        return r.index(r.digits(a) + r.digits(b))

    inv = r.index(-r.digits(np.arange(r.n)))
    return FiniteGroupView(r.n, mul, inv=inv, identity=0)


def _at(f, g):
    """The value of the class function f at the element g."""
    return f.values[f.view.class_of[g]]


def test_abelian_view_classes_are_singletons():
    v = _abelian_view((6,))
    assert v.n == 6
    assert len(v.reps) == 6
    assert all(s == 1 for s in v.sizes)
    w = _abelian_view((2, 3))
    assert w.n == 6
    # Z/2 x Z/3 = Z/6: same character table degrees (all 1)
    t = character_table_bruteforce(w)
    assert t.shape == (6, 6)
    assert np.allclose(t[:, 0], 1)


def test_dihedral_character_degrees_from_heisenberg_two():
    # the Heisenberg group over Z/2 has order 8 and degrees 1,1,1,1,2
    h = heisenberg_group((2,))
    v = h.view
    assert v.n == 8
    t = character_table_bruteforce(v)
    idc = int(v.class_of[v.identity])
    degs = sorted(int(round(t[r, idc].real)) for r in range(t.shape[0]))
    assert degs == [1, 1, 1, 1, 2]


def test_bruteforce_table_orthogonality_sl2_f3():
    ctx = make_group("sl2", make_field(3))
    v = ctx.view
    t = character_table_bruteforce(v)
    assert t.shape == (7, 7)
    idc = int(v.class_of[v.identity])
    degs = sorted(int(round(t[r, idc].real)) for r in range(7))
    assert degs == [1, 1, 1, 2, 2, 2, 3]
    # row orthogonality with class sizes as weights
    G = (t * v.sizes) @ t.conj().T / v.n
    assert np.max(np.abs(G - np.eye(7))) < 1e-8


def test_borel_subgroup_structure():
    # q = 3: a = 1/a for every unit, so B is abelian of order 6
    ctx = make_group("sl2", make_field(3))
    emb = _borel_embedding(ctx)
    assert emb.sub.n == 6
    assert len(emb.sub.reps) == 6
    # q = 5: order 20; the torus acts on N through a -> a^2, an action
    # with kernel {+-1}, so the four nontrivial additive characters fall
    # into two orbits of size 2 and every nonlinear irrep has degree 2
    ctx5 = make_group("sl2", make_field(5))
    emb5 = _borel_embedding(ctx5)
    assert emb5.sub.n == 20
    t = character_table_bruteforce(emb5.sub)
    idc = int(emb5.sub.class_of[emb5.sub.identity])
    assert sorted(int(round(t[r, idc].real)) for r in range(t.shape[0])) \
        == [1, 1, 1, 1, 2, 2, 2, 2]


def test_induction_degree_and_frobenius_reciprocity():
    ctx = make_group("sl2", make_field(3))
    emb = _borel_embedding(ctx)
    H, G = emb.sub, emb.big
    index = G.n // H.n
    for _ in range(5):
        fH = ClassFunction(H, RNG.standard_normal(len(H.reps))
                           + 1j * RNG.standard_normal(len(H.reps)))
        fG = ClassFunction(G, RNG.standard_normal(len(G.reps))
                           + 1j * RNG.standard_normal(len(G.reps)))
        ind = induce(fH, emb)
        assert abs(_at(ind, G.identity) - index * _at(fH, H.identity)) < 1e-9
        lhs = inner_product(ind, fG)
        rhs = inner_product(fH, restrict(fG, emb))
        assert abs(lhs - rhs) < 1e-9


def _g_to_h(emb):
    """The inverse of the embedding on G: the H-id of each element of
    the image, -1 elsewhere."""
    g_to_h = np.full(emb.big.n, -1, dtype=np.int64)
    g_to_h[emb.injection] = np.arange(emb.sub.n)
    return g_to_h


def _induce_by_definition(f, emb):
    """ind f(g) = (1/|H|) sum over x in G with x g x^-1 in H of
    f(x g x^-1), summed over the elements x one by one."""
    G, H = emb.big, emb.sub
    allg, g_to_h = np.arange(G.n), _g_to_h(emb)
    vals = np.zeros(len(G.reps), dtype=complex)
    for ci, rep in enumerate(G.reps):
        h = g_to_h[G.mul(G.mul(allg, rep), G.inv[allg])]
        vals[ci] = f.values[H.class_of[h[h >= 0]]].sum() / H.n
    return vals


def _induction_embeddings():
    sl3, sl5 = make_group("sl2", make_field(3)), make_group("sl2", make_field(5))
    gl3, gl5 = make_group("gl2", make_field(3)), make_group("gl2", make_field(5))
    ab = _abelian_view((4, 6))
    # 2Z/4 x 3Z/6, indexed little-endian as a + 4 b
    _, ab_emb = subgroup_view(ab, [a + 4 * b for a in (0, 2) for b in (0, 3)])
    m = gl5.elems
    torus = np.flatnonzero((m[:, 1] == 0) & (m[:, 2] == 0))
    return [_borel_embedding(sl3), _borel_embedding(sl5), _borel_embedding(gl3),
            subgroup_view(gl5.view, torus)[1], ab_emb]


def test_induction_matches_the_defining_sum():
    for emb in _induction_embeddings():
        H = emb.sub
        for _ in range(3):
            f = ClassFunction(H, RNG.standard_normal(len(H.reps))
                              + 1j * RNG.standard_normal(len(H.reps)))
            want = _induce_by_definition(f, emb)
            assert np.max(np.abs(induce(f, emb).values - want)) < 1e-12


def test_induction_and_restriction_multiply_nothing(monkeypatch):
    def no_mul(a, b):
        raise AssertionError("group multiplication called")

    emb = _borel_embedding(make_group("sl2", make_field(5)))
    H, G = emb.sub, emb.big
    fH = ClassFunction(H, RNG.standard_normal(len(H.reps)))
    fG = ClassFunction(G, RNG.standard_normal(len(G.reps)))
    want = _induce_by_definition(fH, emb)
    monkeypatch.setattr(G, "mul", no_mul)
    monkeypatch.setattr(H, "mul", no_mul)
    assert np.max(np.abs(induce(fH, emb).values - want)) < 1e-12
    assert np.array_equal(restrict(fG, emb).values,
                          [_at(fG, emb.injection[r]) for r in H.reps])


def _double_cosets(emb):
    """Representatives of H\\G/H, each the smallest index in its coset."""
    G = emb.big
    hin = emb.injection
    return [x for x, _ in orbits(G.n, lambda x: G.mul(
        G.mul(hin[:, None], x).ravel()[:, None], hin[None, :]))]


def _mackey_defect(f, emb):
    """The largest entry of |res ind f - sum_x ind_{K_x}^H f_x| over the
    H-classes: the Mackey formula (Serre, Linear Representations of
    Finite Groups, 7.3), with x over the double cosets H\\G/H,
    K_x = H cap x H x^-1 and f_x(k) = f(x^-1 k x).  An oracle for induce
    and restrict, which read only the embedding's fusion map."""
    G, H = emb.big, emb.sub
    lhs = restrict(induce(f, emb), emb)
    total, g_to_h = np.zeros(len(H.reps), dtype=complex), _g_to_h(emb)
    for x in _double_cosets(emb):
        xinv = int(G.inv[x])
        conj_in = g_to_h[G.mul(G.mul(xinv, emb.injection), x)]
        K, kemb = subgroup_view(H, np.flatnonzero(conj_in >= 0))
        tw = f.values[H.class_of[conj_in[kemb.injection[K.reps]]]]
        total += induce(ClassFunction(K, tw), kemb).values
    return float(np.max(np.abs(lhs.values - total)))


def test_double_cosets_of_borel_realize_bruhat_partition():
    ctx = make_group("sl2", make_field(5))
    emb = _borel_embedding(ctx)
    reps = _double_cosets(emb)
    assert len(reps) == 2
    G, hin = emb.big, emb.injection
    sizes = []
    for x in reps:
        hx = G.mul(hin[:, None], x)
        members = np.unique(G.mul(hx.ravel()[:, None], hin[None, :]))
        sizes.append(len(members))
    b = ctx.q * (ctx.q - 1)
    assert sorted(sizes) == [b, b * ctx.q]  # B and BwB
    assert sum(sizes) == ctx.view.n


def test_double_cosets_match_the_seen_loop():
    ctx = make_group("sl2", make_field(5))
    emb = _borel_embedding(ctx)
    G, hin = emb.big, emb.injection
    seen = np.zeros(G.n, dtype=bool)
    reference = []
    for x in range(G.n):
        if seen[x]:
            continue
        hx = G.mul(hin[:, None], x)
        seen[np.unique(G.mul(hx.ravel()[:, None], hin[None, :]))] = True
        reference.append(x)
    assert _double_cosets(emb) == reference


def test_orbits_partition_in_order_of_smallest_member():
    blocks = orbits(6, lambda x: [x, (x + 3) % 6])
    assert [(x, b.tolist()) for x, b in blocks] == \
        [(0, [0, 3]), (1, [1, 4]), (2, [2, 5])]


def test_orbits_refuses_a_block_without_its_generator():
    # 0 -> {1} leaves 0 uncovered, and without the check 2 -> {0} would
    # then pass as a fresh block
    with pytest.raises(VerificationFailed):
        orbits(3, lambda x: [(x + 1) % 3])


def test_orbits_refuses_overlapping_blocks():
    # {0, 2} and {1, 2} each contain and start at their generator
    with pytest.raises(VerificationFailed):
        orbits(3, lambda x: [x, 2])


def test_mackey_decomposition_defect_vanishes():
    ctx = make_group("sl2", make_field(3))
    emb = _borel_embedding(ctx)
    for _ in range(3):
        f = ClassFunction(emb.sub, RNG.standard_normal(len(emb.sub.reps))
                          + 1j * RNG.standard_normal(len(emb.sub.reps)))
        assert _mackey_defect(f, emb) < 1e-9


def test_mackey_defect_sees_a_corrupt_fusion_map():
    # one H-class fused into the wrong G-class: induce and restrict read
    # the map, while the Mackey side builds its own embeddings of K_x
    ctx = make_group("sl2", make_field(3))
    emb = _borel_embedding(ctx)
    f = ClassFunction(emb.sub, RNG.standard_normal(len(emb.sub.reps)))
    assert _mackey_defect(f, emb) < 1e-9
    bad = copy.copy(emb)
    bad.fusion = emb.fusion.copy()
    bad.fusion[1] = (bad.fusion[1] + 1) % len(emb.big.reps)
    assert _mackey_defect(f, bad) > 1e-9


def test_homomorphism_check_reaches_every_chunk():
    # d = 128 images take 256 KiB each, so Z/12 spans three chunks of
    # four; the faulty element n - 1 meets the generator 1 only in the
    # products of g = n - 2 and g = n - 1, both in the last chunk
    n, d = 12, 128
    v = _abelian_view((n,))
    assert v.gens.tolist() == [1]
    step = _CHUNK_BYTES // (d * d * 16)
    assert step == 4
    phases = np.exp(2j * np.pi * np.outer(np.arange(n), np.arange(d)) / n)
    images = np.stack([np.diag(row) for row in phases])
    assert MatrixRep(v, images).check_homomorphism() < 1e-8
    images[n - 1, 0, 0] *= -1
    assert MatrixRep(v, images).check_homomorphism() > 1.0


def test_monomial_homomorphism_check_gathers_every_pair(all_pairs_defect):
    # Z/64 x Z/48 acting by the cyclic shift of 64 points times a phase:
    # columns and values both move, and the 3,072 elements span 24
    # chunks of 128 rows, a chunk's working set being _MONOMIAL_TEMPS
    # complex temporaries of d entries per row
    v = _abelian_view((64, 48))
    d = 64
    assert v.gens.tolist() == [1, 64]
    assert _CHUNK_BYTES // (_MONOMIAL_TEMPS * d * 16) == 128
    b, a = np.divmod(np.arange(v.n), 64)  # element a + 64 b
    cols = (np.arange(d) + a[:, None]) % d
    vals = np.repeat(np.exp(2j * np.pi * b / 48)[:, None], d, axis=1)
    read = []

    class Recorded(MonomialImages):
        def __getitem__(self, idx):
            read.extend(np.ravel(idx).tolist())
            return super().__getitem__(idx)

    rep = MatrixRep(v, Recorded(cols, vals))
    assert rep.check_homomorphism() < 1e-8
    assert set(read) == {v.identity, *v.gens.tolist()}
    # one (g, s) product sent one step further along either factor, in
    # the first, a middle and the last chunk: the shift leaves the
    # values and moves every column, the phase the other way round
    for g in (0, 1500, v.n - 1):
        for step, want in ((1, 1.0), (64, abs(1 - np.exp(2j * np.pi / 48)))):
            bad = copy.copy(v)
            bad.right = v.right.copy()
            bad.right[1, g] = v.mul(v.right[1, g], step)
            rep = MatrixRep(bad, Recorded(cols, vals))
            assert rep.product_defect() == pytest.approx(want, rel=1e-12)
            assert rep.check_homomorphism() > 1.0
    for bad in (-1, d):
        wrong = cols.copy()
        wrong[0, 0] = bad
        with pytest.raises(GroupMismatch, match="columns"):
            MonomialImages(wrong, vals)
    # the induced models, exact and with every value turned by up to
    # about 1e-9: the bound covers the exhaustive all-pairs defect
    for q in (3, 5):
        ctx = make_group("sl2", make_field(q))
        rep = build_induced_rep(ctx, BorelChar(ctx, (MultChar(ctx.field, 1),)))
        C, V = rep.images.cols, rep.images.vals
        turn = np.exp(1e-9j * RNG.standard_normal(V.shape))
        for model in (rep, MatrixRep(ctx.view, MonomialImages(C, V * turn))):
            assert all_pairs_defect(model) <= model.check_homomorphism()


def test_homomorphism_bound_covers_every_pair(all_pairs_defect):
    # the Heisenberg models svn_check certifies, against the exhaustive
    # reference
    for orders in ((2,), (3,), (4,), (2, 2)):
        rep = heisenberg_rep(heisenberg_group(orders))
        bound = rep.check_homomorphism()
        assert all_pairs_defect(rep) <= bound < 1e-10


def test_homomorphism_check_sees_the_identity_and_unitarity():
    # rotations by quarter turns represent Z/4 exactly
    v = _abelian_view((4,))
    rot = np.array([[0, -1], [1, 0]])
    images = np.stack([np.linalg.matrix_power(rot, k)
                       for k in range(4)]).astype(complex)
    assert MatrixRep(v, images).check_homomorphism() == 0.0
    # the zero map is multiplicative on every pair, but pi(e) != I
    assert MatrixRep(v, 0 * images).check_homomorphism() >= 2.0
    # the same entry defect costs more once the model is conjugated
    # away from unitary
    P = np.diag([1.0, 10.0])
    skew = P @ images @ np.linalg.inv(P)
    images[2, 0, 0] += 1e-12
    skew[2, 0, 0] += 1e-12
    assert (MatrixRep(v, skew).check_homomorphism()
            > 10 * MatrixRep(v, images).check_homomorphism() > 0)


def test_the_monomial_certificate_stays_near_one_chunk():
    # sl2 q=17's induced model, 4,896 images of degree 18: chunks sized
    # by the loop's whole working set peak at about 0.8 MB traced, where
    # chunks sized by one complex operand reached 5.6 MB
    ctx = make_group("sl2", make_field(17))
    rep = build_induced_rep(ctx, BorelChar(ctx, (MultChar(ctx.field, 1),)))
    assert isinstance(rep.images, MonomialImages)
    tracemalloc.start()
    try:
        bound = rep.check_homomorphism()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert bound < 1e-10
    assert peak <= 2 * _CHUNK_BYTES


@pytest.mark.parametrize("dense", [False, True])
def test_a_nan_image_gives_a_nan_bound(dense):
    # delta is a running maximum over chunks and generators; one NaN
    # image, outside pi(e) and the pi(s), must reach B on either branch
    ctx = make_group("sl2", make_field(5))
    rep = build_induced_rep(ctx, BorelChar(ctx, (MultChar(ctx.field, 1),)))
    v = rep.view
    assert rep.check_homomorphism() < 1e-10
    g = max(set(range(v.n)) - set(v.gens.tolist()) - {v.identity})
    vals = rep.images.vals.copy()
    vals[g, 0] = np.nan
    images = MonomialImages(rep.images.cols, vals)
    if dense:
        images = images[np.arange(v.n)]
    assert np.isnan(MatrixRep(v, images).check_homomorphism())


def test_heisenberg_rep_is_a_homomorphism_with_known_character():
    h = heisenberg_group((3,))
    rep = heisenberg_rep(h)
    assert rep.check_homomorphism() < 1e-10
    chi = rep_character(rep)
    # trace of eta(x,c,z) is zeta^z * sum_x chi_c(x) with support x'=0
    for hid in range(h.nH):
        x, c, z = (int(t) for t in h.decode(hid))
        want = 0.0 if (x, c) != (0, 0) else 3 * np.exp(2j * np.pi * z / 3)
        assert abs(_at(chi, hid) - want) < 1e-10


def test_hom_dim_counts_common_constituents():
    ctx = make_group("sl2", make_field(3))
    v = ctx.view
    t = character_table_bruteforce(v)
    rows = [ClassFunction(v, t[r]) for r in range(t.shape[0])]
    for i, f in enumerate(rows):
        for j, g in enumerate(rows):
            assert hom_dim(f, g) == (1 if i == j else 0)
    both = rows[0] + rows[1]
    assert hom_dim(both, both) == 2


def test_hom_dim_refuses_a_nan_inner_product():
    # gated before rounding: round(nan) would raise ValueError
    v = make_group("sl2", make_field(3)).view
    f = ClassFunction(v, np.full(len(v.reps), np.nan, dtype=complex))
    with pytest.raises(NonIntegral, match="not a nonnegative integer"):
        hom_dim(f, f)


# ---------------------------------------------------------------------------
# generator certificate: classes and embeddings through certified generators

def _flood_by_all(view):
    """Reference: classes by conjugation with every group element."""
    allg = np.arange(view.n)
    return orbits(view.n, lambda x: view.mul(view.mul(allg, x),
                                             view.inv[allg]))


def _all_pairs_homomorphism(emb):
    """Reference: the embedding checked on every pair of H elements."""
    h = np.arange(emb.sub.n)
    lhs = emb.injection[emb.sub.mul(h[:, None], h[None, :])]
    rhs = emb.big.mul(emb.injection[:, None], emb.injection[None, :])
    return np.array_equal(lhs, rhs)


def _same_classes(view, want):
    """Whether the classes of view, in class order, are the
    (representative, sorted members) pairs want."""
    got = [(r, np.flatnonzero(view.class_of == ci))
           for ci, r in enumerate(view.reps)]
    return len(got) == len(want) and all(
        r == s and np.array_equal(m, n) for (r, m), (s, n) in zip(got, want))


def _canonical_by_all(ctx):
    """Reference: the classes by conjugation with every group element,
    each with its canonical representative, in TAG_RANK then params
    order."""
    blocks = []
    for _, orbit in _flood_by_all(ctx.view):
        tag, params, rep = ctx.classify(ctx.elems[orbit[0]])
        blocks.append(((TAG_RANK[tag], params), ctx.id_of(rep), orbit))
    blocks.sort(key=lambda b: b[0])
    return [(rep_id, orbit) for _, rep_id, orbit in blocks]


@pytest.mark.parametrize("kind, p, k", [
    ("gl2", 3, 1), ("gl2", 5, 1), ("gl2", 7, 1), ("gl2", 3, 2),
    ("sl2", 3, 1), ("sl2", 5, 1), ("sl2", 7, 1), ("sl2", 3, 2),
    ("sl2", 17, 1)])
def test_generator_classes_and_fusion_equal_the_all_elements_references(
        kind, p, k):
    ctx = make_group(kind, make_field(p, k))
    G, canonical = ctx.view, _canonical_by_all(ctx)
    assert _same_classes(G, canonical)
    assert G.sizes.tolist() == [len(m) for _, m in canonical]
    B, emb = ctx.borel
    assert _same_classes(B, _flood_by_all(B))
    assert _all_pairs_homomorphism(emb)
    want = [G.class_of[emb.injection[r]] for r, _ in _flood_by_all(B)]
    assert emb.fusion.tolist() == want


@pytest.mark.parametrize("orders", [(2,), (3,), (4,), (2, 2)])
def test_heisenberg_classes_equal_the_all_elements_reference(orders):
    v = heisenberg_group(orders).view
    assert _same_classes(v, _flood_by_all(v))


def test_generating_set_is_greedy_and_certified():
    # Z/4 x Z/6: 1 reaches 0..3, and 4 (= (0, 1)) then reaches the rest
    # (1 step and 2 rounds, then 1 step and 4 rounds: L = 8, the depth)
    v = _abelian_view((4, 6))
    assert v.gens.tolist() == [1, 4]
    assert v.word_length == 8
    S, L, R = generating_set(1, v.mul, 0)
    assert (S.tolist(), L, R.shape) == ([], 0, (0, 1))


def _word_depth(v, gens):
    """The largest shortest-word length in gens over the group, by a
    breadth-first search one element and one generator at a time."""
    dist = {v.identity: 0}
    frontier = [v.identity]
    while frontier:
        nxt = []
        for x in frontier:
            for s in gens:
                y = int(v.mul(x, int(s)))
                if y not in dist:
                    dist[y] = dist[x] + 1
                    nxt.append(y)
        frontier = nxt
    assert len(dist) == v.n
    return max(dist.values())


def _certified_views():
    for kind in ("sl2", "gl2"):
        for q in (3, 5):
            ctx = make_group(kind, make_field(q))
            yield f"{kind} {q}", ctx.view
            yield f"{kind} {q} Borel", ctx.borel[0]
    for orders in ((2,), (3,), (4,), (2, 2)):
        yield f"Heisenberg {orders}", heisenberg_group(orders).view


def test_word_length_bounds_the_depth_of_every_element():
    for name, v in _certified_views():
        assert v.word_length >= _word_depth(v, v.gens), name


def _flood_by_mul(n, mul, inv, gens):
    """Reference: classes by the permutations x -> s x s^-1, each formed
    with mul, with the same pointer jumping flood_classes uses, as the
    smallest member of each element's class."""
    x = np.arange(n)
    conj = mul(mul(gens[:, None], x[None, :]), inv[gens][:, None])
    label = x
    while True:
        new = np.minimum(label, label[conj].min(axis=0, initial=n))
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    return label


def _supported_views():
    for kind, qs in SUPPORTED.items():
        for q in qs:
            yield f"{kind} {q}", make_group(kind, make_field(*prime_power(q))).view


def test_right_table_is_the_whole_group_product():
    for name, v in _certified_views():
        assert v.right.shape == (len(v.gens), v.n), name
        for s, row in zip(v.gens, v.right):
            assert np.array_equal(row, v.mul(np.arange(v.n), s)), name


def test_permutation_flood_equals_the_mul_flood():
    # the GroupCtx views are relabelled, so both floods start from the
    # raw inverse array and generators, and compare the smallest member
    # of each element's class
    for name, v in itertools.chain(_certified_views(), _supported_views()):
        got = flood_classes(v.inv, v.right)
        want = _flood_by_mul(v.n, v.mul, v.inv, v.gens)
        assert np.array_equal(got, want), name


def test_a_corrupted_inverse_is_refused():
    r = MixedRadix([12])

    def mul(a, b):
        return r.index(r.digits(a) + r.digits(b))

    inv = r.index(-r.digits(np.arange(r.n)))
    FiniteGroupView(r.n, mul, inv=inv)
    for x in (0, 5, 11):
        bad = inv.copy()
        bad[x] = (bad[x] + 1) % r.n
        with pytest.raises(VerificationFailed,
                           match="^1 elements times their inverse"):
            FiniteGroupView(r.n, mul, inv=bad)


def test_a_representative_outside_its_class_is_refused():
    # Z/6 has singleton classes: numbered backwards with their own
    # representatives they pass, and a representative of class 0 taken
    # from class 1 is refused
    v = _abelian_view((6,))
    v.relabel(5 - v.class_of, v.reps[::-1])
    assert (v.reps.tolist(), v.sizes.tolist()) == ([5, 4, 3, 2, 1, 0], [1] * 6)
    with pytest.raises(VerificationFailed,
                       match="^representative 4 of class 0 escaped its class$"):
        v.relabel(v.class_of, [4, 5, 3, 2, 1, 0])


@pytest.mark.parametrize("kind", ["sl2", "gl2"])
def test_a_canonical_representative_in_another_class_is_refused(
        kind, monkeypatch):
    # the identity's class given the canonical representative (1 1; 0 1),
    # which lies in a unipotent class
    real = GroupCtx.classify

    def moved(self, m):
        tag, params, rep = real(self, m)
        return tag, params, (1, 1, 0, 1) if rep == (1, 0, 0, 1) else rep

    monkeypatch.setattr(GroupCtx, "classify", moved)
    with pytest.raises(VerificationFailed, match="escaped its class"):
        GroupCtx(kind, make_field(5))


def test_a_right_multiplication_that_is_not_a_permutation_is_refused():
    # Z/6 with 5 * 1 sent to 1: the greedy search takes 1 first, which
    # still reaches every element, but nothing is sent to 0
    v = _abelian_view((6,))

    def bent(a, b):
        out = np.array(v.mul(a, b))
        out[(np.asarray(a) == 5) & (np.asarray(b) == 1)] = 1
        return out

    with pytest.raises(VerificationFailed, match="not a permutation"):
        generating_set(v.n, bent, 0)


def test_an_sl2_table_certifies_two_generating_sets(monkeypatch):
    # the SL2 view and its Borel view; the splitting gates read the SL2
    # view's generators, certified once
    real = repcore.generating_set
    calls = []

    def counting(n, *args, **kwargs):
        calls.append(n)
        return real(n, *args, **kwargs)

    monkeypatch.setattr(repcore, "generating_set", counting)
    build_table("sl2", 5)
    assert calls == [120, 20]


def test_an_injective_non_homomorphism_is_refused():
    # the Borel of SL2(F_5) mapped with two non-generators swapped: the
    # map stays injective, and only some (element, generator) products
    # see the swap
    ctx = make_group("sl2", make_field(5))
    B, emb = ctx.borel
    x, y = [h for h in range(B.n) if h not in B.gens and h != B.identity][:2]
    bad = emb.injection.copy()
    bad[[x, y]] = bad[[y, x]]
    with pytest.raises(NotInGroup, match="not a homomorphism"):
        SubgroupEmbedding(B, ctx.view, bad)
    # Z/4 x Z/6 (generators 1 and 4) by (a, b) -> (a, sigma(b)): only
    # the products with the second generator see that sigma is not additive
    v = _abelian_view((4, 6))
    sigma = np.array([0, 1, 3, 2, 4, 5])
    a, b = np.arange(v.n) % 4, np.arange(v.n) // 4
    with pytest.raises(NotInGroup, match="not a homomorphism"):
        SubgroupEmbedding(v, v, a + 4 * sigma[b])


def test_a_trivial_view_off_the_identity_is_refused():
    # the trivial group has no generators, so only phi(e) = e sees this
    trivial = FiniteGroupView(1, lambda a, b: a * b, inv=[0])
    with pytest.raises(NotInGroup, match="identity"):
        SubgroupEmbedding(trivial, _abelian_view((6,)), [2])


def test_a_subset_that_is_not_closed_is_refused():
    # each set holds the identity and is closed under inversion, so only
    # the generator search can see that a product leaves it
    v = _abelian_view((6,))
    with pytest.raises(NotInGroup, match="under multiplication"):
        subgroup_view(v, [0, 1, 5])
    ctx = make_group("sl2", make_field(3))
    w = ctx.id_of((0, 1, 2, 0))  # (0 1; -1 0) over F_3
    members = np.append(ctx.borel_ids(), [w, ctx.view.inv[w]])
    with pytest.raises(NotInGroup, match="under multiplication"):
        subgroup_view(ctx.view, members)


def test_gl2_f9_context_and_borel_take_few_products(monkeypatch):
    # conjugating every class representative by all of G and checking
    # the Borel embedding on all |B|^2 pairs took 290 |G| products
    real = GroupCtx.mat_mul
    products = []

    def counting(self, m1, m2):
        out = real(self, m1, m2)
        products.append(np.size(out) // 4)
        return out

    monkeypatch.setattr(GroupCtx, "mat_mul", counting)
    ctx = GroupCtx("gl2", make_field(3, 2))
    ctx.borel
    assert 0 < sum(products) <= 32 * ctx.n
