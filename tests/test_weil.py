"""Heisenberg groups, Stone-von-Neumann, the Weil representation, and
cuspidal character extraction."""

import itertools
import time
from functools import reduce

import numpy as np
import pytest

from qrep import (
    CuspidalModule,
    EvenExponent,
    GroupMismatch,
    MatrixRep,
    MonomialImages,
    MultChar,
    NormOneChar,
    NotInGroup,
    NotPrimitive,
    QrepError,
    SizeExceeded,
    SUPPORTED,
    VerificationFailed,
    averaging_check,
    build_table,
    fourier_intertwines,
    get_tol,
    gl2_cuspidal_family,
    heisenberg_from_ext,
    heisenberg_group,
    heisenberg_rep,
    inner_product,
    make_ext,
    make_field,
    make_group,
    pi_omega_character,
    pi_omega_characters,
    sl2_cuspidal_family,
    svn_check,
    symplectic_defect,
    verify_ordinary,
    weil_matrix,
)
from qrep import chartab, cli, weil
from qrep.ff import FieldCtx
from qrep.repcore import LazyImages

RNG = np.random.default_rng(20070714)


# ---------------------------------------------------------------------------
# Heisenberg groups


def test_heisenberg_group_law_and_commutators():
    h = heisenberg_group((3, 4))
    assert h.nH == 12 * 12 * 12
    # [ (x,0,0), (0,c,0) ] is central with phase -<c,x>
    for _ in range(40):
        x = int(RNG.integers(h.nG))
        c = int(RNG.integers(h.nG))
        h1 = int(h.encode(x, 0, 0))
        h2 = int(h.encode(0, c, 0))
        lhs = h.h_mul(h1, h2)
        e = int(h.pair_exp(c, x))
        rhs = h.h_mul(h.h_mul(h2, h1), h.encode(0, 0, (-e) % h.m))
        assert int(lhs) == int(rhs)


def test_heisenberg_center_is_central():
    h = heisenberg_group((5,))
    z = h.encode(0, 0, 2)
    hs = np.arange(h.nH)
    assert np.array_equal(h.h_mul(z, hs), h.h_mul(hs, z))


def test_heisenberg_inverses():
    h = heisenberg_group((2, 2))
    inv = h.h_inv_array()
    hs = np.arange(h.nH)
    assert np.all(h.h_mul(hs, inv[hs]) == 0)
    assert np.all(h.h_mul(inv[hs], hs) == 0)


def _to_symplectic(h, hs):
    """The bijection phi(x, c, z) = (x, c, z chi_c(-x/2)), which carries
    standard multiplication to symplectic multiplication (odd m)."""
    x, c, z = h.decode(hs)
    return h.encode(x, c, (z - (h.m + 1) // 2 * h.pair_exp(c, x)) % h.m)


def _symplectic_mul(h, h1, h2):
    """Multiplication with the antisymmetric cocycle
    (1/2)(chi(x') - chi'(x))."""
    x1, c1, z1 = h.decode(h1)
    x2, c2, z2 = h.decode(h2)
    z = z1 + z2 + (h.m + 1) // 2 * (h.pair_exp(c1, x2) - h.pair_exp(c2, x1))
    return h.encode(h.g_add(x1, x2), h.g_add(c1, c2), z % h.m)


def _symplectic_violations(h):
    """Pairs (h, h') of H x H violating phi(h h') = phi(h) *_symp phi(h'),
    read 256 left factors at a time: the all-pairs reference for
    symplectic_defect."""
    phi = _to_symplectic(h, np.arange(h.nH))
    bad = 0
    for start in range(0, h.nH, 256):
        g = np.arange(start, min(start + 256, h.nH))[:, None]
        bad += np.count_nonzero(phi[h.h_mul(g, np.arange(h.nH))]
                                != _symplectic_mul(h, phi[g], phi))
    return bad


def test_symplectic_presentation_is_isomorphic():
    # the certificate is 0 exactly where the all-pairs reference is
    groups = [heisenberg_group(orders)
              for orders in ((3,), (5,), (9,), (3, 3), (3, 9))]
    groups += [heisenberg_from_ext(make_ext(make_field(q))) for q in (3, 5)]
    for h in groups:
        assert _symplectic_violations(h) == 0
        assert symplectic_defect(h) == (0, h.nH ** 2)


@pytest.mark.parametrize("table", ["_pair", "_add"])
def test_symplectic_defect_fires_on_one_changed_table_entry(table):
    # one wrong entry of a table the group law reads breaks pairs of
    # H x H, and fails at least one relation of the certificate: at
    # G = Z/9 the pairing entry (3, 5) sits in four unit-step relations,
    # the addition entry in one comparison with digit-wise addition
    h = heisenberg_group((9,))
    entries = getattr(h, table)
    entries[3, 5] = (entries[3, 5] + 1) % 9  # nG = m = 9
    assert _symplectic_violations(h) > 0
    assert symplectic_defect(h) == ({"_pair": 4, "_add": 1}[table], h.nH ** 2)


def test_symplectic_defect_is_exact_at_q_7_9_11():
    # past the all-pairs reference's reach (nH^2 up to 2.6e10 at q=11),
    # the certificate still covers every pair
    for p, k in ((7, 1), (3, 2), (11, 1)):
        h = heisenberg_from_ext(make_ext(make_field(p, k)))
        assert symplectic_defect(h) == (0, h.nH ** 2)


def test_symplectic_needs_odd_exponent():
    for orders in ((2,), (3, 4)):
        with pytest.raises(EvenExponent):
            symplectic_defect(heisenberg_group(orders))


def _field_product(E, h, h1, h2):
    """h1 h2 in H(F_{q^2}) by the field formula
    (x1 + x2, c1 + c2, z1 + z2 + tr(conj(c1) x2))."""
    ext = E.ext
    x1, c1, z1 = h.decode(h1)
    x2, c2, z2 = h.decode(h2)
    z = z1 + z2 + ext.trace_to_prime[ext.mul(E.frob[c1], x2)]
    return h.encode(ext.add(x1, x2), ext.add(c1, c2), z)


@pytest.mark.parametrize("p,k,sample", [(3, 1, None), (5, 1, None),
                                        (3, 2, 20000)])
def test_ext_heisenberg_tables_equal_the_field_formula(p, k, sample):
    # the digit tables of H(F_{q^2}) against Zech-table field arithmetic:
    # every pair of G, and every pair of H at q = 3, 5 (a seeded sample
    # of H x H for F_81/F_9)
    E = make_ext(make_field(p, k))
    ext = E.ext
    h = heisenberg_from_ext(E)
    c, x = np.divmod(np.arange(ext.q * ext.q), ext.q)
    assert np.array_equal(h.g_add(c, x), ext.add(c, x))
    assert np.array_equal(h.g_neg(x), ext.neg(x))
    assert np.array_equal(h.pair_exp(c, x),
                          ext.trace_to_prime[ext.mul(E.frob[c], x)])
    hs = np.arange(h.nH)
    if sample is None:  # H x H, a block of left factors at a time
        pairs = [(block[:, None], hs)
                 for block in np.array_split(hs, max(1, h.nH // 128))]
    else:
        pairs = [RNG.integers(0, h.nH, size=(2, sample))]
    for h1, h2 in pairs:
        assert np.array_equal(h.h_mul(h1, h2), _field_product(E, h, h1, h2))


def test_stone_von_neumann_small_panel():
    for orders in ((2,), (3,), (4,), (2, 2)):
        assert svn_check(heisenberg_group(orders)) <= get_tol()
    with pytest.raises(SizeExceeded):
        svn_check(heisenberg_group((17,)))


def test_fourier_transform_intertwines_translation_and_modulation():
    for orders in ((2,), (3,), (4,), (2, 2), (3, 4)):
        assert fourier_intertwines(heisenberg_group(orders)) < 1e-10
    E = make_ext(make_field(3))
    assert fourier_intertwines(heisenberg_from_ext(E)) < 1e-10


def _fourier_by_dense_loop(hctx):
    """fourier_intertwines as one dense product per (x', c'): the number
    of (x', c', c, x) whose two entries differ by more than get_tol().
    The count is exact, since distinct m-th roots of unity are at least
    2 sin(pi / m) apart."""
    nG, m = hctx.nG, hctx.m
    xs = np.arange(nG)
    chi = np.exp(2j * np.pi * hctx.pair_exp(xs[:, None], xs) / m)
    FT = chi.conj()
    bad = 0
    for x1 in range(nG):
        shifted = hctx.g_add(xs, x1)
        for c1 in range(nG):
            lhs = FT[:, shifted] * chi[c1][None, :]
            src = hctx.g_add(xs, hctx.g_neg(c1))
            rhs = FT[src, :] * FT[:, x1][:, None]
            bad += int(np.count_nonzero(np.abs(lhs - rhs) > get_tol()))
    return bad


def test_fourier_count_equals_the_dense_loop():
    groups = [heisenberg_group(orders)
              for orders in ((2,), (3,), (4,), (2, 2), (32,))]
    groups += [heisenberg_from_ext(make_ext(make_field(p, k)))
               for p, k in ((3, 2), (5, 1), (7, 1))]
    for h in groups:
        assert fourier_intertwines(h) == _fourier_by_dense_loop(h) == 0


def _shift_and_count(h, c, x):
    assert fourier_intertwines(h) == 0
    h._pair[c, x] = (h._pair[c, x] + 1) % h.m
    bad = fourier_intertwines(h)
    assert bad == _fourier_by_dense_loop(h)
    return bad


def test_fourier_check_fires_on_a_shifted_pairing_entry():
    assert _shift_and_count(heisenberg_group((3,)), 1, 2) == 21


def test_fourier_check_fires_on_a_shifted_pairing_entry_of_z8():
    # a cyclic group, m = nG: the case the count handles in O(nG^3)
    assert _shift_and_count(heisenberg_group((8,)), 5, 3) > 0


def test_fourier_check_fires_on_a_shifted_pairing_entry_of_f81():
    # m = 3 < nG = 81: one shifted entry must still reach the count
    h = heisenberg_from_ext(make_ext(make_field(3, 2)))
    assert h.m < h.nG
    assert _shift_and_count(h, 40, 7) > 0


def test_canonical_model_center_acts_by_tautological_character():
    h = heisenberg_group((4,))
    rep = heisenberg_rep(h)
    for z in range(4):
        zeta = np.exp(2j * np.pi * z / 4)
        img = rep.images[int(h.encode(0, 0, z))]
        assert np.max(np.abs(img - zeta * np.eye(4))) < 1e-12


def _heisenberg_images_by_loop(hctx):
    """Reference: the canonical model's (cols, vals), one element of H at
    a time: row x has its entry zeta^z' chi_c'(x - x') at column x - x'."""
    xs = np.arange(hctx.nG)
    cols = np.empty((hctx.nH, hctx.nG), dtype=np.intp)
    vals = np.empty((hctx.nH, hctx.nG), dtype=complex)
    for h in range(hctx.nH):
        x1, c1, z1 = (int(t) for t in hctx.decode(h))
        cols[h] = hctx.g_add(xs, hctx.g_neg(x1))
        e = (z1 + hctx.pair_exp(c1, cols[h])) % hctx.m
        vals[h] = np.exp(2j * np.pi * e / hctx.m)
    return cols, vals


def test_heisenberg_images_equal_the_loop_reference():
    # the whole-group gathers give the per-element loop's images bit for
    # bit, on the groups svn_check certifies
    for orders in ((2,), (3,), (4,), (2, 2)):
        h = heisenberg_group(orders)
        images = heisenberg_rep(h).images
        cols, vals = _heisenberg_images_by_loop(h)
        assert np.array_equal(images.cols, cols)
        assert np.array_equal(images.vals, vals)


# ---------------------------------------------------------------------------
# the Weil representation


def test_weil_matrices_are_unitary_and_multiplicative():
    E = make_ext(make_field(3))
    ctx = make_group("sl2", E.base)
    n = E.ext.q
    # unitarity of every image and multiplicativity on 150 random pairs
    # at q = 3; test_ordinary_relations_all_pairs_q3 checks all pairs
    mats = [weil_matrix(E, ctx.mat_of(g)) for g in range(ctx.view.n)]
    for g in range(ctx.view.n):
        M = mats[g]
        assert np.max(np.abs(M @ M.conj().T - np.eye(n))) < 1e-10
    pairs = RNG.integers(ctx.view.n, size=(150, 2))
    for a, b in pairs:
        c = int(ctx.view.mul(int(a), int(b)))
        assert np.max(np.abs(mats[a] @ mats[b] - mats[c])) < 1e-9


def test_weil_matrix_cell_shapes():
    E = make_ext(make_field(5))
    # lower-unipotent images multiply by psi(N(x)): diagonal
    L = weil_matrix(E, (1, 0, 1, 1))
    assert L.shape == (25, 25)
    assert np.max(np.abs(L - np.diag(np.diag(L)))) < 1e-12
    # b != 0 lands in the dense cell: every entry has modulus 1/q
    U = weil_matrix(E, (1, 1, 0, 1))
    assert np.max(np.abs(np.abs(U) - 1 / 5)) < 1e-12


def test_weil_weyl_image_is_a_scaled_fourier_kernel():
    E = make_ext(make_field(3))
    F = E.base
    w = (0, 1, int(F.neg(1)), 0)
    M = weil_matrix(E, w)
    # every entry has modulus 1/q and column 0 is constant
    assert np.max(np.abs(np.abs(M) - 1 / 3)) < 1e-12
    assert np.max(np.abs(M[:, 0] - M[0, 0])) < 1e-12


def _weil_rep(E, ctx):
    return MatrixRep(ctx.view, [weil_matrix(E, ctx.mat_of(g))
                                for g in range(ctx.n)])


def test_ordinary_relations_all_pairs_q3(all_pairs_defect):
    E = make_ext(make_field(3))
    ctx = make_group("sl2", E.base)
    out = verify_ordinary(E, ctx)
    rep = _weil_rep(E, ctx)
    assert out["pairs"] == 24 * len(rep.view.gens)
    assert out["bound"] == rep.check_homomorphism()
    assert all_pairs_defect(rep) <= out["bound"] < 1e-10
    assert out["word_defect"] < 1e-10
    assert out["norm_defect"] < 1e-10


def test_ordinary_relations_certified_q7():
    E = make_ext(make_field(7))
    ctx = make_group("sl2", E.base)
    out = verify_ordinary(E, ctx)
    assert out["pairs"] == 336 * len(ctx.view.gens)
    assert out["bound"] < 1e-10


def _perturb_images(monkeypatch, mat, entry, by):
    """Patch weil._weil_images so that every image it forms of the
    element mat has by added at entry."""
    real = weil._weil_images

    def perturbed(ectx, slctx):
        images, hit = real(ectx, slctx), slctx.id_of(mat)

        def form(idx):
            out = images[idx]
            flat = out.reshape((-1,) + out.shape[-2:])
            flat[(np.arange(slctx.n)[idx] == hit).reshape(-1),
                 entry[0], entry[1]] += by
            return out
        return LazyImages(*images.shape[:2], form)

    monkeypatch.setattr(weil, "_weil_images", perturbed)


def test_a_perturbed_weil_image_fails_verification(monkeypatch, capsys):
    # one element's image off in one entry, in every image the
    # certificates read: the product check must see it, and the weil
    # verify suite must exit 1
    _perturb_images(monkeypatch, (1, 1, 0, 1), (0, 0), 100 * get_tol())
    E = make_ext(make_field(3))
    out = verify_ordinary(E, make_group("sl2", E.base))
    assert out["bound"] > get_tol()
    assert cli.run(["verify", "--suite", "weil", "--q", "3"]) == 1
    assert "FAIL weil: multiplicativity" in capsys.readouterr().out


@pytest.mark.parametrize("entry", [(0, 1), (1, 0)])
def test_a_letter_image_that_is_not_monomial_fires_the_gate(
        monkeypatch, capsys, entry):
    # l(1) is diagonal: a second nonzero entry in row 0, or in column 0,
    # breaks its monomial shape, which the word products rely on
    _perturb_images(monkeypatch, (1, 0, 1, 1), entry, 0.5)
    E = make_ext(make_field(3))
    with pytest.raises(VerificationFailed,
                       match="a word letter's image is not monomial"):
        verify_ordinary(E, make_group("sl2", E.base))
    assert cli.run(["verify", "--suite", "weil", "--q", "3"]) == 1
    assert "FAIL weil: VerificationFailed: a word letter's" in (
        capsys.readouterr().out)


def test_the_ordinary_certificate_keeps_no_complex_stack(traced_peak):
    # sl2 q=7, 336 images of 49 x 49: their one-byte codes take 0.8 MB,
    # and the certificate peaks at about 4.3 MB traced; a complex stack
    # of every image took it to 18.1 MB
    E = make_ext(make_field(7))
    ctx = make_group("sl2", E.base)
    out, peak = traced_peak(lambda: verify_ordinary(E, ctx))
    assert out["bound"] < 1e-10
    assert peak < 8e6


@pytest.mark.parametrize("p", [3, 5])
def test_the_coded_images_equal_the_closed_form(p):
    # bit for bit: the codes read through the value table are the
    # closed form's complex entries
    E = make_ext(make_field(p))
    ctx = make_group("sl2", E.base)
    stack = weil._weil_stack(E, ctx.elems)
    for g in range(ctx.n):
        assert np.array_equal(stack[g], _weil_by_element(E, ctx.mat_of(g)))


def _weil_by_element(ectx, sigma):
    """rho~(sigma) from its closed form on scalars a, b, c, d: the
    reference for weil._weil_codes."""
    base, ext = ectx.base, ectx.ext
    a, b, c, d = (int(t) for t in sigma)
    idx, N, psi = np.arange(ext.q), ectx.norm, ectx.psi.values
    if b == 0:
        M = np.zeros((ext.q, ext.q), dtype=complex)
        M[idx, ext.mul(d, idx)] = psi[base.mul(int(base.mul(d, c)), N)]
        return M
    pairing = ectx.trace[ext.mul(idx[:, None], ectx.frob[idx])]
    arg = base.sub(base.add(base.mul(d, N)[:, None], base.mul(a, N)[None, :]),
                   pairing)
    return (-1.0 / ectx.q) * psi[base.mul(int(base.inv(b)), arg)]


def test_ordinary_field_calls_do_not_grow_with_the_group(monkeypatch):
    # images and words are built over chunks of elements (two at q = 5);
    # one weil_matrix and one word per element made 3,002 calls here.
    # The caller builds the group context, outside the count.
    E = make_ext(make_field(5))
    ctx = make_group("sl2", E.base)
    calls = []
    for name in ("add", "sub", "mul", "neg", "inv"):
        real = getattr(FieldCtx, name)

        def counting(self, *args, real=real):
            calls.append(1)
            return real(self, *args)
        monkeypatch.setattr(FieldCtx, name, counting)
    verify_ordinary(E, ctx)
    assert ctx.n == 120
    assert 0 < len(calls) <= 64


def _lower_id(ctx, c):
    """The id of l(c) = (1 0; c 1)."""
    return ctx.id_of((1, 0, c, 1))


def _t_id(ctx, a):
    """The id of t(a) = diag(a, 1/a)."""
    return ctx.id_of((a, 0, 0, int(ctx.field.inv(a))))


def _w_id(ctx):
    """The id of w = (0 1; -1 0)."""
    return ctx.id_of((0, 1, int(ctx.field.neg(1)), 0))


def _word_for(ctx, mat):
    """Generator word for one element, letter by letter on scalars:
    t(a) l(ac) when b = 0, else l(d/b) w l(ab) t(1/b), with l lower
    triangular; for a GL2 element g of det g != 1, diag(1, det g) then
    the word of diag(1, 1/det g) g.  The reference for weil._words."""
    F = ctx.field
    a, b, c, d = (int(t) for t in mat)
    det = int(F.sub(F.mul(a, d), F.mul(b, c)))
    if det != 1:
        sigma = ctx.mat_mul((1, 0, 0, int(F.inv(det))), (a, b, c, d))
        return [ctx.id_of((1, 0, 0, det))] + _word_for(ctx, sigma)
    if b == 0:
        return [_t_id(ctx, a), _lower_id(ctx, int(F.mul(a, c)))]
    return [_lower_id(ctx, int(F.mul(d, F.inv(b)))), _w_id(ctx),
            _lower_id(ctx, int(F.mul(a, b))), _t_id(ctx, int(F.inv(b)))]


def _padded_word(ctx, mat):
    """_word_for in the five columns of weil._words: an identity in
    place of diag(1, det g) when det g = 1, identities at the end."""
    word = _word_for(ctx, mat)
    if len(word) % 2 == 0:
        word = [ctx.identity] + word
    return word + [ctx.identity] * (5 - len(word))


@pytest.mark.parametrize("q", [3, 5, 7, 9])
@pytest.mark.parametrize("kind", ["gl2", "sl2"])
def test_words_equal_the_scalar_reference(kind, q):
    ctx = make_group(kind, make_field(*_field(q)))
    words = weil._words(ctx, ctx.elems)
    assert words.shape == (ctx.n, 5)
    for g in range(ctx.n):
        assert words[g].tolist() == _padded_word(ctx, ctx.mat_of(g))


@pytest.mark.parametrize("kind", ["gl2", "sl2"])
def test_words_refuse_a_corrupted_letter(monkeypatch, kind):
    # l(1) read as l(2): every word that reads l(1) stops re-multiplying
    # to its element, and the gate counts them; read as the singular
    # (1 1; 1 1), no element at all, the word is refused outright
    ctx = make_group(kind, make_field(5))
    uses = sum(_lower_id(ctx, 1) in _padded_word(ctx, ctx.mat_of(g))
               for g in range(ctx.n))
    assert uses > 0
    ids_of = ctx.ids_of

    def corrupt(into):
        def corrupted(m):
            m = np.array(m)
            m[np.all(m == (1, 0, 1, 1), axis=-1)] = into
            return ids_of(m)
        monkeypatch.setattr(ctx, "ids_of", corrupted)

    corrupt((1, 0, 2, 1))
    with pytest.raises(VerificationFailed, match=f"^{uses} words do not"):
        weil._words(ctx, ctx.elems)
    corrupt((1, 1, 1, 1))
    with pytest.raises(NotInGroup, match=r"^\(1, 1, 1, 1\) has a determinant "
                       f"outside {kind}$"):
        weil._words(ctx, ctx.elems)


def test_averaging_recovers_the_special_apportionment():
    for p in (3, 5):
        E = make_ext(make_field(p))
        out = averaging_check(E, make_group("sl2", E.base))
        assert out["nu_vs_rho"] < 1e-10
        assert out["rho_vs_normalized"] < 1e-10


def _nu_by_element(ectx, sigma):
    """nu(sigma) one row x at a time, through the SL2 action on
    H(F_{q^2}): the reference for weil._nu_stack."""
    ext = ectx.ext
    Q = ext.q
    psi_exp = ext.trace_to_prime
    a, b, c, d = (int(t) for t in sigma)
    M = np.zeros((Q, Q), dtype=complex)
    ys = np.arange(Q)
    for x in range(Q):
        xg = int(ext.neg(x))
        z0 = np.exp(2j * np.pi * psi_exp[ext.mul(ectx.frob[ys], xg)] / ectx.p)
        X = ext.add(ext.mul(a, xg), ext.mul(b, ys))
        Y = ext.add(ext.mul(c, xg), ext.mul(d, ys))
        t1 = ext.neg(ext.mul(ectx.frob[ys], xg))
        e = weil._half_psi_exponent(ectx, ext.add(t1, ext.mul(ectx.frob[Y], X)))
        Z = z0 * np.exp(2j * np.pi * e / ectx.p)
        coeff = Z * np.exp(-2j * np.pi * psi_exp[ext.mul(ectx.frob[Y], X)]
                           / ectx.p)
        np.add.at(M, (np.full(Q, x), np.asarray(ext.neg(X))), coeff)
    return M / Q


def _rho_by_element(ectx, sigma):
    """The closed-form rho(sigma) one y at a time: the reference for
    weil._rho_stack."""
    ext = ectx.ext
    Q = ext.q
    a, b, c, d = (int(t) for t in sigma)
    xs = np.arange(Q)
    M = np.zeros((Q, Q), dtype=complex)
    for y in range(Q):
        u = ext.add(ext.mul(c, xs), int(ext.mul(a, y)))
        v = ext.neg(ext.add(ext.mul(d, xs), int(ext.mul(b, y))))
        z = ext.neg(ext.add(ext.mul(ectx.frob[y], xs), ext.mul(ectx.frob[u], v)))
        coeff = np.exp(2j * np.pi * weil._half_psi_exponent(ectx, z) / ectx.p)
        tgt = np.asarray(ext.add(ext.mul(d, xs), int(ext.mul(b, y))))
        np.add.at(M, (xs, tgt), coeff)
    return M / Q


@pytest.mark.parametrize("p", [3, 5])
def test_averaging_stacks_equal_the_per_element_operators(p):
    E = make_ext(make_field(p))
    ctx = make_group("sl2", E.base)
    tables = weil._ext_tables(E)
    nu = weil._nu_stack(E, ctx.elems, tables)
    rho = weil._rho_stack(E, ctx.elems, tables)
    tilde = weil._weil_stack(E, ctx.elems)
    worst_nu = worst_scale = 0.0
    for g in range(ctx.n):
        mat = ctx.mat_of(g)
        nu_g = _nu_by_element(E, mat)
        rho_g = _rho_by_element(E, mat)
        assert np.max(np.abs(nu[g] - nu_g)) <= 1e-15
        assert np.max(np.abs(rho[g] - rho_g)) <= 1e-15
        assert np.array_equal(tilde[g], weil_matrix(E, mat))
        rs = _rho_by_element(E, ctx.mat_of(int(ctx.view.inv[g])))
        worst_nu = max(worst_nu, float(np.max(np.abs(nu_g - rs))))
        scal = 1.0 if mat[1] == 0 else -float(E.q)
        worst_scale = max(worst_scale, float(np.max(np.abs(
            scal * rho_g - weil_matrix(E, mat)))))
    out = averaging_check(E, ctx)
    assert out == {"nu_vs_rho": worst_nu, "rho_vs_normalized": worst_scale}


def test_averaging_field_calls_do_not_grow_with_the_group(monkeypatch):
    # the stacks make a fixed number of field calls per chunk of
    # elements (two chunks at q = 5); one call per element and row made
    # 84,558 calls here.  The caller builds the group context, outside
    # the count.
    E = make_ext(make_field(5))
    ctx = make_group("sl2", E.base)
    calls = []
    real = FieldCtx.mul

    def counting(self, x, y):
        calls.append(1)
        return real(self, x, y)

    monkeypatch.setattr(FieldCtx, "mul", counting)
    averaging_check(E, ctx)
    assert 0 < len(calls) <= 64 < ctx.n


def test_a_perturbed_normalized_stack_fails_the_averaging_check(
        monkeypatch, capsys):
    # one element's rho~ off in one entry: the closed-form comparison
    # must see it, and the weil verify suite must exit 1
    _perturb_images(monkeypatch, (1, 1, 0, 1), (0, 0), 100 * get_tol())
    E = make_ext(make_field(3))
    out = averaging_check(E, make_group("sl2", E.base))
    assert out["rho_vs_normalized"] > get_tol()
    assert out["nu_vs_rho"] < get_tol()
    assert cli.run(["verify", "--suite", "weil", "--q", "3"]) == 1
    assert "FAIL weil: closed form" in capsys.readouterr().out


@pytest.mark.parametrize("certificate", [verify_ordinary, averaging_check])
@pytest.mark.parametrize("kind, q", [("gl2", 3), ("sl2", 5)])
def test_the_weil_certificates_refuse_a_foreign_group(certificate, kind, q):
    # the caller's context must be SL2 over the extension's own base field
    E = make_ext(make_field(3))
    ctx = make_group(kind, E.base if q == 3 else make_field(q))
    with pytest.raises(GroupMismatch, match="need an sl2 context"):
        certificate(E, ctx)


def test_the_image_stack_is_bounded_before_it_is_allocated(monkeypatch,
                                                           capsys):
    # the codes of 120 images of 25 x 25 at q = 5 take 75,000 bytes, one
    # byte each: one byte less of room refuses them, before _weil_codes
    # fills any
    E = make_ext(make_field(5))
    ctx = make_group("sl2", E.base)
    monkeypatch.setattr(weil, "MAX_STACK_BYTES", 120 * 25 * 25 - 1)
    monkeypatch.setattr(weil, "_weil_codes", None)
    with pytest.raises(SizeExceeded, match="120 images of 25 x 25"):
        verify_ordinary(E, ctx)
    assert cli.run(["weil", "--q", "5"]) == 1
    got = capsys.readouterr()
    assert got.out == "" and got.err.startswith("size limit: SizeExceeded")


def test_weil_refuses_q23_by_its_code_size(capsys):
    # the one-byte codes of rho~ of all 12,144 elements of SL2(F_23)
    # would take 3.4 GB; q = 19's take 891 MB and are admitted
    t0 = time.perf_counter()
    assert cli.run(["weil", "--q", "23"]) == 1
    assert time.perf_counter() - t0 < 1.0
    got = capsys.readouterr()
    assert got.err.startswith("size limit: SizeExceeded: 12144 images")
    weil.check_stack(19)


def test_the_weil_suite_refuses_q13_before_the_image_stack(monkeypatch,
                                                           capsys):
    # |H(F_169)| = 13^4 * 13 exceeds MAX_H, and the suite builds H before
    # verify_ordinary, whose codes of 2184 images of 169 x 169 would
    # take 62 MB
    def refuse(*args):
        raise AssertionError("verify_ordinary called at q = 13")

    monkeypatch.setattr(weil, "verify_ordinary", refuse)
    assert cli.run(["verify", "--suite", "weil", "--q", "13"]) == 1
    got = capsys.readouterr()
    assert "FAIL" not in got.out
    assert got.err.startswith("size limit: SizeExceeded: |H| = ")


# ---------------------------------------------------------------------------
# cuspidal modules and characters


def test_cuspidal_module_dimension_and_equivariance():
    # f(zeta x) = conj(omega(zeta)) f(x) for every norm-one zeta and every
    # fibre point x, with f(u~) = 1: q - 1 fibre rows of q + 1 values each,
    # and no array over all Q points of L^2(F_{q^2}); every GL2 and SL2
    # module at each supported size
    for kind, q in itertools.product(("gl2", "sl2"), (3, 5, 7, 9)):
        E, _, mods = _all_modules(kind, q)
        fibres = E.norm_fibres
        # column of each fibre point in its row: F[r, at[y]] = y
        at = np.empty(E.ext.q, dtype=np.intp)
        at[fibres] = np.arange(q + 1)
        rows = np.arange(q - 1)[:, None]
        for module in mods:
            arrays = [a for a in vars(module).values()
                      if isinstance(a, np.ndarray)]
            assert arrays and all(a.shape[0] != E.ext.q for a in arrays)
            v = module.values
            assert v.shape == (q - 1, q + 1)
            assert np.array_equal(v[:, 0], np.ones(q - 1))
            for zeta in E.norm_one:
                moved = v[rows, at[E.ext.mul(int(zeta), fibres)]]
                want = np.conj(module.omega.values[zeta]) * v
                assert np.max(np.abs(moved - want)) < 1e-12


def test_cuspidal_module_rejects_bad_data():
    E = make_ext(make_field(3))
    with pytest.raises(NotPrimitive):
        CuspidalModule(E, NormOneChar(E, 0))
    with pytest.raises(NotPrimitive):
        CuspidalModule(E, MultChar(E.ext, 4))  # 4 = q+1 factors through norm
    with pytest.raises(GroupMismatch):
        CuspidalModule(E, MultChar(E.base, 1))


def test_gl2_cuspidal_value_at_nonsemisimple_class():
    E = make_ext(make_field(3))
    gl = make_group("gl2", E.base)
    om = MultChar(E.ext, 1)
    f = pi_omega_character(CuspidalModule(E, om), gl)
    assert abs(f.values[0] - 2) < 1e-9  # degree q - 1
    for c_i, c in enumerate(gl.conj_classes):
        if c.tag == "nonsemisimple":
            a = c.params[0]
            want = -om.values[a]
            assert abs(f.values[c_i] - want) < 1e-9
        elif c.tag == "central":
            a = c.params[0]
            want = (E.q - 1) * om.values[a]
            assert abs(f.values[c_i] - want) < 1e-9
        elif c.tag == "split_regular":
            assert abs(f.values[c_i]) < 1e-9


def test_gl2_cuspidal_family_census():
    E = make_ext(make_field(3))
    gl = make_group("gl2", E.base)
    fam = gl2_cuspidal_family(E, gl)
    assert len(fam) == 3  # (q^2 - q)/2
    assert sorted(orbit for orbit, _ in fam) == [(1, 3), (2, 6), (5, 7)]
    for _, f in fam:
        assert abs(inner_product(f, f) - 1) < 1e-9
        assert abs(f.values[0] - 2) < 1e-9


def test_gl2_cuspidal_orbits_match_the_seen_loop():
    for q in (3, 5, 7):
        E = make_ext(make_field(q))
        Q1 = q * q - 1
        reference = []
        seen = set()
        for j in range(1, Q1):
            if j % (q + 1) == 0 or j in seen:
                continue
            partner = (j * q) % Q1
            seen.update({j, partner})
            reference.append((j, partner))
        fam = gl2_cuspidal_family(E, make_group("gl2", E.base))
        assert [orbit for orbit, _ in fam] == reference


def test_gl2_cuspidal_operator_independent_of_fiber_choice():
    # E_a f(x) = omega(a~) f(a~ x) for any preimage a~ of a under the
    # norm: on the full space the choices differ, but they agree on
    # W_omega because omega(y) f(y x) = f(x) for norm-one y
    E = make_ext(make_field(3))
    ext = E.ext
    om = MultChar(ext, 1)
    mod = CuspidalModule(E, om)
    for a in range(1, 3):
        fiber = np.flatnonzero(np.asarray(E.norm) == a)
        assert len(fiber) == 4  # q + 1 preimages
        restricted = []
        for atil in fiber:
            perm = np.asarray(ext.mul(int(atil), np.arange(ext.q)))
            scale = np.full(ext.q, om.values[int(atil)])
            restricted.append(mod.restrict(MonomialImages([perm], [scale])))
        for other in restricted[1:]:
            assert np.max(np.abs(other - restricted[0])) < 1e-12


def test_sl2_cuspidal_family_census_and_omega0_split():
    E = make_ext(make_field(5))
    sl = make_group("sl2", E.base)
    out = sl2_cuspidal_family(E, sl)
    assert len(out["cuspidal"]) == 2  # (q-1)/2
    for j, f in out["cuspidal"]:
        assert abs(f.values[0] - 4) < 1e-9
        assert abs(inner_product(f, f) - 1) < 1e-9
    om0 = out["omega0"]
    chi0 = om0["character"]
    assert abs(inner_product(chi0, chi0) - 2) < 1e-9
    for half in (om0["plus"], om0["minus"]):
        assert abs(half.values[0] - 2) < 1e-9  # degree (q-1)/2
        assert abs(inner_product(half, half) - 1) < 1e-9
    s = om0["plus"] + om0["minus"]
    assert np.max(np.abs(s.values - chi0.values)) < 1e-9


def test_omega0_halves_frozen_at_q3():
    # at q = 3 the halves are the two nontrivial linear characters; plus
    # is the one with positive imaginary part at the class of (1 1; 0 1),
    # as for rho+ in test_rho_pm_frozen_values_at_q3
    E = make_ext(make_field(3))
    sl = make_group("sl2", E.base)
    om0 = sl2_cuspidal_family(E, sl)["omega0"]
    u = sl.class_index_of((1, 1, 0, 1))
    root = -0.5 + np.sqrt(3) / 2 * 1j
    assert abs(om0["plus"].values[u] - root) < 1e-8
    assert abs(om0["minus"].values[u] - np.conj(root)) < 1e-8


def test_a_no_op_frobenius_splits_nothing(monkeypatch):
    # with the identity in place of the Frobenius permutation, the
    # restricted operator is I: an involution that commutes with
    # everything, so only the degree of its +1 half shows the fault.
    # The identity lands once the letter table is built, whose R(w)
    # gate (b) would refuse it first
    E = make_ext(make_field(5))
    sl = make_group("sl2", E.base)
    real = weil._restricted_class_images

    def then_no_op(modules, gctx):
        out = real(modules, gctx)
        monkeypatch.setattr(E, "frob", np.arange(E.ext.q))
        return out

    monkeypatch.setattr(weil, "_restricted_class_images", then_no_op)
    with pytest.raises(VerificationFailed, match="wrong degree"):
        sl2_cuspidal_family(E, sl)


def test_sl2_cuspidal_anisotropic_values():
    # at an anisotropic class with ext eigenvalue z (norm one), the
    # cuspidal character takes the value -(omega(z) + omega(1/z))
    E = make_ext(make_field(5))
    ext = E.ext
    sl = make_group("sl2", E.base)
    om = NormOneChar(E, 1)
    f = pi_omega_character(CuspidalModule(E, om), sl)
    lam = np.arange(ext.q)
    for c_i, c in enumerate(sl.conj_classes):
        if c.tag != "anisotropic":
            continue
        det_i, tr_i = c.params
        vals = ext.add(ext.sub(ext.mul(lam, lam), ext.mul(tr_i, lam)), det_i)
        roots = lam[np.asarray(vals) == 0]
        assert len(roots) == 2
        z = int(roots[0])
        zq = int(E.frob[z])  # = 1/z on the norm-one circle
        want = -(om.values[z] + om.values[zq])
        assert abs(f.values[c_i] - want) < 1e-9


def test_sl2_cuspidal_values_at_split_and_unipotent_classes():
    E = make_ext(make_field(5))
    sl = make_group("sl2", E.base)
    om = NormOneChar(E, 2)
    f = pi_omega_character(CuspidalModule(E, om), sl)
    for c_i, c in enumerate(sl.conj_classes):
        if c.tag == "split_regular":
            assert abs(f.values[c_i]) < 1e-9
        elif c.tag == "nonsemisimple" and c.params[0] == 1:
            assert abs(f.values[c_i] - (-1)) < 1e-9


def test_pi_omega_group_kind_must_match_module_kind():
    E = make_ext(make_field(3))
    sl = make_group("sl2", E.base)
    with pytest.raises(GroupMismatch):
        pi_omega_character(CuspidalModule(E, MultChar(E.ext, 1)), sl)


def _field(q):
    return {3: (3, 1), 5: (5, 1), 7: (7, 1), 9: (3, 2)}[q]


def _all_modules(kind, q):
    """Every cuspidal module of the family: the primitive characters of
    F_{q^2}^* for GL2, the nontrivial norm-one characters for SL2."""
    E = make_ext(make_field(*_field(q)))
    g = make_group(kind, E.base)
    if kind == "gl2":
        oms = [MultChar(E.ext, j) for j in range(1, E.ext.q - 1)
               if j % (q + 1) != 0]
    else:
        oms = [NormOneChar(E, j) for j in range(1, q + 1)]
    return E, g, [CuspidalModule(E, om) for om in oms]


@pytest.mark.parametrize("kind,q", [("gl2", 3), ("gl2", 5),
                                    ("sl2", 5), ("sl2", 7)])
def test_batched_characters_equal_the_one_module_characters(kind, q):
    _, g, mods = _all_modules(kind, q)
    batched = pi_omega_characters(mods, g)
    single = [pi_omega_character(m, g) for m in mods]
    assert len(batched) == len(mods)
    for f, f1 in zip(batched, single):
        assert np.array_equal(f.values, f1.values)


def test_sl2_family_builds_each_weil_operator_once(monkeypatch):
    # the table path, for either kind, forms no Q x Q operator: neither
    # weil_matrix nor the big-cell kernel runs, and R(w) is read off the
    # fibres once per _restricted_class_images call, however many
    # classes and modules share it; every other letter is monomial.
    # Every supported size, and gl2 q = 9 and sl2 q = 17 and 19 beyond it
    calls = []
    real_weyl, real_images = weil._restrict_weyl, weil._restricted_class_images

    def refuse(*args):
        raise AssertionError("a dense rho~ on the table path")

    def counting_weyl(ectx, values):
        calls.append(("weyl", ectx.q))
        return real_weyl(ectx, values)

    def counting_images(modules, gctx):
        calls.append((gctx.kind, gctx.q))
        return real_images(modules, gctx)

    monkeypatch.setattr(weil, "weil_matrix", refuse)
    monkeypatch.setattr(weil, "_big_cell", refuse)
    monkeypatch.setattr(weil, "_restrict_weyl", counting_weyl)
    monkeypatch.setattr(weil, "_restricted_class_images", counting_images)
    sizes = {"gl2": SUPPORTED["gl2"] + (9,),
             "sl2": SUPPORTED["sl2"] + (17, 19)}
    monkeypatch.setattr(chartab, "SUPPORTED", sizes)
    for kind, qs in sizes.items():
        for q in qs:
            calls.clear()
            build_table(kind, q)
            assert calls == [(kind, q), ("weyl", q)]


def test_restrict_rejects_a_non_invariant_operator():
    E = make_ext(make_field(5))
    mod = CuspidalModule(E, NormOneChar(E, 1))
    Q = E.ext.q
    perm = np.random.default_rng(7).permutation(Q)
    with pytest.raises(VerificationFailed, match="W_omega"):
        mod.restrict(MonomialImages([perm], [np.ones(Q)]))


def test_restrict_takes_only_a_one_image_monomial_operator():
    # the dense residual is gone: a dense operator, or a store of two
    # images, is refused before any restriction
    E = make_ext(make_field(5))
    mod = CuspidalModule(E, NormOneChar(E, 1))
    Q = E.ext.q
    two = weil._lower_cell(E, np.array([1, 2]), np.array([1, 1]))
    for op in (np.eye(Q, dtype=complex), two,
               MonomialImages([np.arange(9)], [np.ones(9)])):
        with pytest.raises(QrepError, match="one-image MonomialImages"):
            mod.restrict(op)


def test_batched_characters_check_the_last_module():
    E, g, mods = _all_modules("gl2", 3)
    pi_omega_characters(mods, g)  # the clean modules pass
    bad = mods[-1]
    bad.values[0] *= np.exp(2j * np.pi * RNG.random(bad.values.shape[1]))
    with pytest.raises(VerificationFailed, match="W_omega"):
        pi_omega_characters(mods, g)


@pytest.mark.parametrize("gate", ["cuspidal degree", "N-fixed"])
def test_degree_and_n_fixed_gates_read_every_module(monkeypatch, gate):
    # add the orthogonal projector onto one module's W_omega to the
    # identity letter (degree gate) or to every nontrivial lower
    # unipotent l(x), which the N-fixed sum reads (N-fixed gate): every
    # W_omega stays invariant, and only that module and its twin, which
    # shares the subspace, see the change; the first, a middle and the
    # last module are each the target once.  The class words and the
    # N-fixed sum read each bent l(x) from the one letter table: each is
    # restricted once.  The projector is added to the letter's
    # restriction, where it is I on the target's W_omega and 0 on every
    # other, orthogonal, one
    E, g, mods = _all_modules("gl2", 3)
    real, real_restrict = weil._lower_cell, weil._restrict_all

    class Bent(MonomialImages):
        pass

    for target in (mods[0], mods[len(mods) // 2], mods[-1]):
        bent_at = []

        def bent(ectx, c, d):
            out = real(ectx, c, d)
            hit = (len(c) == 1 and int(d[0]) == 1
                   and (int(c[0]) == 0) == (gate == "cuspidal degree"))
            if hit:
                bent_at.append(int(c[0]))
                return Bent(out.cols, out.vals)
            return out

        def plus_projector(fibres, values, M):
            R = real_restrict(fibres, values, M)
            if isinstance(M, Bent):
                on = np.all(values == target.values, axis=(1, 2))
                R = R + on[:, None, None] * np.eye(len(fibres))
            return R

        monkeypatch.setattr(weil, "_lower_cell", bent)
        monkeypatch.setattr(weil, "_restrict_all", plus_projector)
        with pytest.raises(VerificationFailed, match=gate):
            pi_omega_characters(mods, g)
        if gate == "N-fixed":
            assert sorted(bent_at) == [1, 2]
        others = [m for m in mods
                  if not np.array_equal(m.values, target.values)]
        assert len(others) == len(mods) - 2
        pi_omega_characters(others, g)
        monkeypatch.setattr(weil, "_lower_cell", real)


@pytest.mark.parametrize("gate", ["different characters",
                                  "anisotropic cuspidal value mismatch"])
def test_gl2_family_gates_read_every_orbit(monkeypatch, gate):
    # nudge one anisotropic value of the last orbit's omega^q character
    # (the pair gate fires) or of both its characters (only the
    # cross-check fires): each family gate is one maximum over every orbit
    E = make_ext(make_field(3))
    g = make_group("gl2", E.base)
    real = weil.pi_omega_characters
    aniso = [ci for ci, cls in enumerate(g.conj_classes)
             if cls.tag == "anisotropic"]

    def nudged(modules, gctx):
        chars = real(modules, gctx)
        hits = chars[-1:] if gate == "different characters" else chars[-2:]
        for f in hits:
            f.values[aniso[-1]] += 1e-3
        return chars

    monkeypatch.setattr(weil, "pi_omega_characters", nudged)
    with pytest.raises(VerificationFailed, match=gate):
        gl2_cuspidal_family(E, g)


@pytest.mark.parametrize("kind,q,gate", [
    ("gl2", 3, "anisotropic cuspidal value mismatch"),
    ("gl2", 5, "anisotropic cuspidal value mismatch"),
    ("sl2", 3, "row orthonormality"),
    ("sl2", 5, "row orthonormality")])
def test_a_negated_weyl_letter_is_caught_downstream(monkeypatch, kind, q,
                                                    gate):
    # -R(w) keeps every W_omega invariant, and its sign cancels in the
    # N-fixed sum R(t(-1)) R(w) (sum_x R(l(x))) R(w), so that gate passes;
    # the class images of the big cell change sign, and a later gate fires
    real = weil._restrict_weyl
    calls = []

    def negated(ectx, values):
        calls.append(ectx.q)
        return -real(ectx, values)

    monkeypatch.setattr(weil, "_restrict_weyl", negated)
    with pytest.raises(VerificationFailed, match=gate):
        build_table(kind, q)
    assert calls == [q]


def _corrupt(letter, fault, v, fibres):
    """A copy of a one-image MonomialImages letter with one fault in row
    x = F[1, 1], for the module whose values are v: x sent
    onto the smallest point of another fibre, with the very entry the
    residual expects in its own column (leaves its fibre), one phase of
    x bent, or row 0 sent onto the point F[1, 0]."""
    cols, vals = letter.cols.copy(), letter.vals.copy()
    x0, x = fibres[1, 0], fibres[1, 1]
    if fault == "leaves its fibre":
        y = cols[0, x0]
        other = (np.flatnonzero((fibres == y).any(axis=1))[0] + 1) % len(fibres)
        cols[0, x] = fibres[other, 0]
        vals[0, x] = v[1, 1] * vals[0, x0] * v[fibres == y][0]
    elif fault == "bends one phase":
        vals[0, x] *= np.exp(2j * np.pi / 7)
    else:
        cols[0, 0] = x0
    return MonomialImages(cols, vals)


@pytest.mark.parametrize("fault", ["leaves its fibre", "bends one phase",
                                   "hits row 0"])
def test_a_bad_monomial_letter_fails_on_every_module(monkeypatch, fault):
    E, g, mods = _all_modules("sl2", 5)
    fibres = E.norm_fibres
    # the letter (3 0; 1 2): x -> 2 x moves every norm fibre
    letter = weil._lower_cell(E, np.array([1]), np.array([2]))
    R = weil._restrict_all(fibres, np.stack([m.values for m in mods]), letter)
    for module, Rm in zip(mods, R):
        want, defect = _dense_restrict(module, letter[0])
        assert defect < 1e-12
        assert np.max(np.abs(Rm - want)) < 1e-14
    real = weil._lower_cell
    for module in mods:
        v = module.values[None]
        with pytest.raises(VerificationFailed, match="W_omega"):
            weil._restrict_all(fibres, v, _corrupt(letter, fault, v[0], fibres))

        # and on the table path, at the letter l(1) of the N-fixed sum
        def faulty(ectx, c, d):
            out = real(ectx, c, d)
            hit = len(c) == 1 and (int(c[0]), int(d[0])) == (1, 1)
            return _corrupt(out, fault, v[0], fibres) if hit else out

        monkeypatch.setattr(weil, "_lower_cell", faulty)
        with pytest.raises(VerificationFailed, match="W_omega"):
            pi_omega_characters([module], g)
        monkeypatch.setattr(weil, "_lower_cell", real)


def test_restrictions_own_their_data():
    # a kept restriction must not hold the (m, q-1, q-1, q+1) residual
    # array it was read from alive
    E, g, mods = _all_modules("sl2", 5)
    values = np.stack([m.values for m in mods])
    assert weil._restrict_weyl(E, values).base is None
    op = weil._lower_cell(E, np.array([1]), np.array([2]))
    assert weil._restrict_all(E.norm_fibres, values, op).base is None


def _dense_basis(module):
    """The module's 1_u basis as a dense Q x (q-1) array: column r holds
    values[r] on the fibre F[r], F = ExtCtx.norm_fibres, and 0 elsewhere."""
    fibres = module.ectx.norm_fibres
    basis = np.zeros((module.ectx.ext.q, len(fibres)), dtype=complex)
    basis[fibres, np.arange(len(fibres))[:, None]] = module.values
    return basis


def _dense_restrict(module, M):
    """The dense restriction: C = M @ basis, R = C at the rows u~, and
    the largest entry of C - basis @ R."""
    basis = _dense_basis(module)
    C = M @ basis
    R = C[module.ectx.norm_fibres[:, 0], :]
    return R, float(np.max(np.abs(C - basis @ R)))


def _dense_class_operators(ectx, gctx):
    """Yield (operator, a~) for each class representative g of gctx, in
    class order, each operator one dense Q x Q build: g = diag(1, det g)
    sigma, and the operator is rho~(sigma) with its rows permuted by
    x -> a~ x, a~ the smallest point over det g (1 for SL2).  Each
    module's restriction of it times omega(a~) is pi_omega(g).  The
    reference for the images rebuilt from _restricted_class_images's
    letter table."""
    ext = ectx.ext
    F = gctx.field
    for rid in gctx.view.reps:
        mat = np.asarray(gctx.mat_of(int(rid)))
        det = int(gctx.mat_det(mat))
        sig = gctx.mat_mul(np.array([1, 0, 0, int(F.inv(det))]), mat)
        atil = int(ectx.norm_fibres[det - 1, 0])
        perm = np.asarray(ext.mul(atil, np.arange(ext.q)))
        yield weil_matrix(ectx, sig)[perm, :], atil


@pytest.mark.parametrize("kind,q", [("gl2", 3), ("gl2", 5), ("gl2", 7),
                                    ("gl2", 9), ("sl2", 3), ("sl2", 5),
                                    ("sl2", 7), ("sl2", 9)])
def test_restriction_matches_the_dense_products(kind, q):
    # every module's scaled image, rebuilt from the letter table over its
    # class word, against the dense per-class restriction, at every
    # supported size and at gl2 q = 9; the table holds letters alone, at
    # most 3q of them (diag(1, a), t(a), l(c) and w, e counted once)
    E, g, mods = _all_modules(kind, q)
    chars, table, inverse, words = weil._restricted_class_images(mods, g)
    assert len(inverse) == len(mods)
    assert {_lower_id(g, x) for x in range(q)} | {_w_id(g)} <= set(table)
    assert len(table) <= 3 * q
    assert len(words) == len(g.view.reps) + len(g.view.gens)
    for ci, (rows, atil) in enumerate(_dense_class_operators(E, g)):
        images = reduce(np.matmul, (table[lid] for lid in words[ci]))
        for module, i, f in zip(mods, inverse, chars):
            scale = complex(module.omega.values[atil])
            want, defect = _dense_restrict(module, scale * rows)
            assert defect < 1e-12
            assert np.max(np.abs(scale * images[i] - want)) < 1e-12
            assert abs(f.values[ci] - np.trace(want)) < get_tol()


@pytest.mark.parametrize("kind,q", [("gl2", 3), ("gl2", 5), ("gl2", 7),
                                    ("gl2", 9), ("sl2", 3), ("sl2", 5),
                                    ("sl2", 7), ("sl2", 9)])
def test_weyl_kernel_matches_the_dense_restriction(kind, q):
    # R(w) read off the fibres against the dense weil_matrix(w) reference
    # on every distinct module, and bit for bit against the product the
    # dense restriction formed, C^T = rho~(w)[:, F] v read at the rows u~
    E, g, mods = _all_modules(kind, q)
    values = np.unique(np.stack([m.values for m in mods]), axis=0)
    R = weil._restrict_weyl(E, values)
    M = weil_matrix(E, g.mat_of(_w_id(g)))
    for Rm, v in zip(R, values):
        module = CuspidalModule(E, mods[0].omega)
        module.values = v
        want, defect = _dense_restrict(module, M)
        assert defect < 1e-12
        assert np.max(np.abs(Rm - want)) < 1e-12
    F = E.norm_fibres
    Ct = np.matmul(M[:, F].transpose(1, 0, 2), values[..., None])[..., 0]
    assert np.array_equal(R, Ct[:, :, F[:, 0]].transpose(0, 2, 1))


def _weyl_inputs():
    E, _, mods = _all_modules("sl2", 5)
    return E, np.stack([m.values for m in mods])


@pytest.mark.parametrize("fault", ["norms", "orbit"])
def test_weyl_gate_a_reads_the_fibres(monkeypatch, fault):
    # (a): two points swapped between fibres 0 and 1 change their norms;
    # fibre 1 listed in descending order keeps every norm but is no longer
    # the orbit F[1, 0] norm_one
    E, values = _weyl_inputs()
    weil._restrict_weyl(E, values)
    F = E.norm_fibres.copy()
    if fault == "norms":
        F[0, 1], F[1, 1] = F[1, 1], F[0, 1]
    else:
        F[1] = F[1, ::-1]
    monkeypatch.setitem(E.__dict__, "norm_fibres", F)
    with pytest.raises(VerificationFailed, match="norm-one orbits"):
        weil._restrict_weyl(E, values)


@pytest.mark.parametrize("fault", ["no-op frob", "swapped frob", "norm_one"])
def test_weyl_gate_b_reads_zeta0_and_frob(monkeypatch, fault):
    # (b): the identity for frob breaks N(zeta_0) = 1; frob swapped at two
    # points breaks frob(zeta_0 x) = frob(zeta_0) frob(x); norm_one with
    # two entries swapped is no longer the powers of zeta_0
    E, values = _weyl_inputs()
    if fault == "no-op frob":
        monkeypatch.setattr(E, "frob", np.arange(E.ext.q))
    elif fault == "swapped frob":
        frob = E.frob.copy()
        frob[[2, 3]] = frob[[3, 2]]
        monkeypatch.setattr(E, "frob", frob)
    else:
        zeta = E.norm_one.copy()
        zeta[[2, 3]] = zeta[[3, 2]]
        monkeypatch.setattr(E, "norm_one", zeta)
    with pytest.raises(VerificationFailed, match="norm-one generator"):
        weil._restrict_weyl(E, values)


@pytest.mark.parametrize("fault", ["bent phase", "mixed characters"])
def test_weyl_gate_c_reads_the_module_values(fault):
    # (c): one bent phase breaks T f_u = c f_u (the monomial residual);
    # fibre 1 of another character keeps T invariant, acting by another
    # scalar there, which only the scalar gate sees
    E, values = _weyl_inputs()
    values = values.copy()
    if fault == "bent phase":
        values[-1, 1, 2] *= np.exp(2j * np.pi / 7)
        match = "W_omega is not preserved"
    else:
        values[-1, 1] = values[0, 1]
        match = "by a scalar"
    with pytest.raises(VerificationFailed, match=match):
        weil._restrict_weyl(E, values)


def test_weyl_gate_d_reads_the_point_zero():
    # (d): the trivial norm-one character's fibre values pass (a)-(c),
    # T acting by 1, but rho~(w) sends them onto 1_0, outside W_omega
    E, values = _weyl_inputs()
    with pytest.raises(VerificationFailed, match="onto the point 0"):
        weil._restrict_weyl(E, np.ones_like(values[:1]))


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_upper_unipotents_are_words_in_lower_ones_and_w(q):
    # u(x) = t(-1) w l(-x) w, the identity the N-fixed gate reads
    E = make_ext(make_field(*_field(q)))
    F = E.base
    m1 = int(F.neg(1))
    t, w = weil_matrix(E, (m1, 0, 0, m1)), weil_matrix(E, (0, 1, m1, 0))
    for x in range(q):
        lower = weil_matrix(E, (1, 0, int(F.neg(x)), 1))
        assert np.max(np.abs(weil_matrix(E, (1, x, 0, 1))
                             - t @ w @ lower @ w)) < 1e-12


def test_gl2_restricts_once_per_distinct_w_omega(monkeypatch):
    # the q^2 - q primitive characters of F_{q^2}^* span only q distinct
    # W_omega: every letter and lower unipotent is restricted to those
    # q, while sl2's modules are all distinct
    seen = []
    real = weil._restrict_all

    def counting(fibres, values, M):
        seen.append(len(values))
        return real(fibres, values, M)

    monkeypatch.setattr(weil, "_restrict_all", counting)
    for kind, q in (("gl2", 5), ("sl2", 7)):
        E, g, mods = _all_modules(kind, q)
        seen.clear()
        pi_omega_characters(mods, g)
        assert len(mods) == (q * q - q if kind == "gl2" else q)
        assert seen and set(seen) == {q}


def test_a_corrupt_module_is_not_merged_with_its_healthy_twin():
    # omega_1 and omega_5 agree on the norm-one torus of F_9^*, so their
    # fibre values are equal; corrupting the first must not let the later,
    # healthy twin's restriction stand in for it
    E, g, mods = _all_modules("gl2", 3)
    first = mods[0]
    twins = [i for i, m in enumerate(mods)
             if np.array_equal(m.values, first.values)]
    assert twins == [0, 3]
    first.values[0] *= np.exp(2j * np.pi * RNG.random(first.values.shape[1]))
    with pytest.raises(VerificationFailed, match="W_omega"):
        pi_omega_characters(mods, g)


@pytest.mark.parametrize("position", ["first", "middle", "last"])
def test_restriction_finds_a_bad_module_anywhere_in_the_batch(position):
    # the letter (3 0; 1 2): x -> 2 x moves every norm fibre
    E, g, mods = _all_modules("sl2", 5)
    U = weil._lower_cell(E, np.array([1]), np.array([2]))
    weil._restrict_all(E.norm_fibres, np.stack([m.values for m in mods]), U)
    i = {"first": 0, "middle": len(mods) // 2, "last": len(mods) - 1}[position]
    # fibre 1 of another module's values: its basis column is still zero at
    # 0 and on the other fibres, so only the residual on the fibre rows can
    # see the change
    mods[i].values[1] = mods[i - 1].values[1]
    with pytest.raises(VerificationFailed, match="W_omega"):
        weil._restrict_all(E.norm_fibres, np.stack([m.values for m in mods]), U)
    with pytest.raises(VerificationFailed, match="W_omega"):
        pi_omega_characters(mods, g)


@pytest.mark.parametrize("monomial", [False, True])
def test_a_nan_in_a_read_entry_fails_the_restriction(monomial):
    # the residual is the larger of two maxima; a NaN in either part must
    # reach the gate, on a monomial letter and on the R(w) kernel path,
    # which reads the module values and not the operator
    E = make_ext(make_field(5))
    mod = CuspidalModule(E, NormOneChar(E, 1))
    fibres = E.norm_fibres
    if monomial:
        # f -> f(a x) for a norm-non-one a preserves every W_omega
        cols = E.ext.mul(fibres[1, 0], np.arange(E.ext.q))
        M = MonomialImages(cols[None], np.ones((1, E.ext.q), dtype=complex))
        mod.restrict(M)
        M.vals[0, fibres[1, 1]] = np.nan
        with pytest.raises(VerificationFailed, match="W_omega"):
            mod.restrict(M)
    else:
        values = mod.values[None].copy()
        weil._restrict_weyl(E, values)
        values[0, 1, 1] = np.nan
        with pytest.raises(VerificationFailed, match="W_omega"):
            weil._restrict_weyl(E, values)


def test_restriction_residual_covers_row_zero():
    # 1_0 lies outside every W_omega: an operator that also sends 1_u
    # onto it is not W_omega-invariant, though its rows u~ are unchanged
    E = make_ext(make_field(5))
    mod = CuspidalModule(E, NormOneChar(E, 1))
    M = weil._lower_cell(E, np.array([1]), np.array([2]))
    mod.restrict(M)
    M.cols[0, 0] = E.norm_fibres[2, 0]
    with pytest.raises(VerificationFailed, match="W_omega"):
        mod.restrict(M)
