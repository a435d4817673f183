"""Parabolic induction: principal series characters, intertwiners,
the rho+/- splitting, and the Hecke kernel calculus."""

import itertools

import numpy as np
import pytest

from qrep import (
    BorelChar,
    CharMismatch,
    ClassFunction,
    GroupMismatch,
    MultChar,
    NotSplitting,
    VerificationFailed,
    build_induced_rep,
    decompose,
    delta_kernels,
    epsilon_swap_defect,
    get_tol,
    hecke_relations,
    induced_character,
    inner_product,
    intertwiner_mismatches,
    make_ext,
    make_field,
    make_group,
    predicted_intertwiner_dim,
    rep_character,
    sl2_cuspidal_family,
    split_rho_pm,
)
from qrep import parabolic
from qrep.config import SEED
from qrep.gl2 import GroupCtx
from qrep.parabolic import (convolve, hecke_involution, split_in_two,
                            two_dim_commutant_projectors)


def _svd_commutant_projectors(gen_mats):
    """Reference splitter that knows no involution: the commutant of the
    generator images from the null space of the Kronecker system
    vec(gX - Xg) = 0, a seeded search in it for a non-scalar Hermitian
    element J, and the spectral projectors of J cut at its largest
    eigenvalue gap.  Raises NotSplitting unless the commutant is
    two-dimensional."""
    d = gen_mats[0].shape[0]
    eye = np.eye(d)
    A = np.vstack([np.kron(eye, g) - np.kron(g.T, eye) for g in gen_mats])
    _, s, vh = np.linalg.svd(A, full_matrices=False)
    # null singular values are ~1e-15, kept ones about 1 or more
    null_dim = int(np.sum(s < 1e-9))
    if null_dim != 2:
        raise NotSplitting(f"commutant dimension {null_dim}, expected 2")
    basis = [vh[-(i + 1)].reshape(d, d).T for i in range(2)]
    rng = np.random.default_rng(SEED)
    for attempt in range(16):
        if attempt < 2:
            cand = basis[attempt]
        else:
            c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            cand = c[0] * basis[0] + c[1] * basis[1]
        for J in ((cand + cand.conj().T) / 2, (cand - cand.conj().T) / 2j):
            if np.max(np.abs(J - np.trace(J) / d * eye)) > 1e-6:
                evals, evecs = np.linalg.eigh(J)
                cut = int(np.argmax(np.diff(evals))) + 1
                return (evecs[:, :cut] @ evecs[:, :cut].conj().T,
                        evecs[:, cut:] @ evecs[:, cut:].conj().T)
    raise NotSplitting("no non-scalar Hermitian element in the commutant")


def _quadratic_split_setup(q):
    ctx = make_group("sl2", make_field(3, 2) if q == 9 else make_field(q))
    quad = BorelChar(ctx, (MultChar(ctx.field, (q - 1) // 2),))
    rep = build_induced_rep(ctx, quad)
    gen_mats = [rep.images[g] for g in ctx.view.gens]
    return ctx, quad, rep, gen_mats


def _closed_form(ctx, chi1, chi2):
    """Induced character values from the textbook counting argument:
    (q+1) chi1 chi2 (a) at central a, chi1 chi2 (a) at the nonsemisimple
    classes, chi1(a)chi2(b) + chi1(b)chi2(a) at split diag(a,b), and 0
    at anisotropic classes."""
    F = ctx.field
    vals = []
    for c in ctx.conj_classes:
        if c.tag == "central":
            a = c.params[0]
            vals.append((ctx.q + 1) * chi1(a) * chi2(a))
        elif c.tag == "nonsemisimple":
            a = c.params[0]
            vals.append(chi1(a) * chi2(a))
        elif c.tag == "split_regular":
            a, b = c.params
            vals.append(chi1(a) * chi2(b) + chi1(b) * chi2(a))
        else:
            vals.append(0.0)
    return np.array(vals, dtype=complex)


def test_gl2_principal_series_values_match_closed_form():
    for q in (3, 5):
        ctx = make_group("gl2", make_field(q))
        F = ctx.field
        for j1, j2 in itertools.product(range(q - 1), repeat=2):
            chi1, chi2 = MultChar(F, j1), MultChar(F, j2)
            got = induced_character(ctx, BorelChar(ctx, (chi1, chi2)))
            assert np.max(np.abs(got.values - _closed_form(ctx, chi1, chi2))) < 1e-9


def test_sl2_principal_series_values_match_closed_form():
    # the torus of SL2 is diag(a, 1/a) and the inducing datum is a
    # single character chi(a); the split-class value is the Weyl orbit
    # sum chi(a) + chi(1/a)
    ctx = make_group("sl2", make_field(5))
    F = ctx.field
    for j in range(4):
        chi = MultChar(F, j)
        got = induced_character(ctx, BorelChar(ctx, (chi,)))
        vals = []
        for c in ctx.conj_classes:
            if c.tag == "central":
                vals.append((ctx.q + 1) * chi(c.params[0]))
            elif c.tag == "nonsemisimple":
                vals.append(chi(c.params[0]))
            elif c.tag == "split_regular":
                a, b = c.params  # b = 1/a
                vals.append(chi(a) + chi(b))
            else:
                vals.append(0.0)
        assert np.max(np.abs(got.values - np.array(vals))) < 1e-9


def _borel_chars(ctx):
    """Every Borel character of ctx: chi for SL2, (chi1, chi2) for GL2."""
    F = ctx.field
    nchars = 1 if ctx.kind == "sl2" else 2
    return [BorelChar(ctx, tuple(MultChar(F, j) for j in js))
            for js in itertools.product(range(ctx.q - 1), repeat=nchars)]


def test_intertwiner_dims_match_weyl_orbit_prediction():
    for kind, q in (("sl2", 5), ("gl2", 3)):
        ctx = make_group(kind, make_field(q))
        assert intertwiner_mismatches(ctx, _borel_chars(ctx)) == 0


def test_the_intertwiner_sweep_induces_each_character_once(monkeypatch):
    # 16 characters and 256 ordered pairs at gl2 q = 5: inducing both
    # characters per pair made 512 induce calls
    ctx = make_group("gl2", make_field(5))
    bchars = _borel_chars(ctx)
    calls = []
    real = parabolic.induce

    def counting(f, emb):
        calls.append(1)
        return real(f, emb)

    monkeypatch.setattr(parabolic, "induce", counting)
    assert intertwiner_mismatches(ctx, bchars) == 0
    assert len(calls) == len(bchars) == 16


def test_a_wrong_prediction_for_one_ordered_pair_is_counted(monkeypatch):
    ctx = make_group("sl2", make_field(5))
    bchars = _borel_chars(ctx)
    real = parabolic.predicted_intertwiner_dim
    b1, b2 = bchars[1], bchars[2]

    def wrong(x, y):
        return real(x, y) + int(x is b1 and y is b2)

    monkeypatch.setattr(parabolic, "predicted_intertwiner_dim", wrong)
    assert intertwiner_mismatches(ctx, bchars) == 1


def test_predicted_dim_cases():
    ctx = make_group("gl2", make_field(7))
    F = ctx.field
    mk = lambda a, b: BorelChar(ctx, (MultChar(F, a), MultChar(F, b)))
    assert predicted_intertwiner_dim(mk(1, 2), mk(1, 2)) == 1
    assert predicted_intertwiner_dim(mk(1, 2), mk(2, 1)) == 1  # Weyl pair
    assert predicted_intertwiner_dim(mk(3, 3), mk(3, 3)) == 2
    assert predicted_intertwiner_dim(mk(1, 2), mk(1, 3)) == 0


def test_equal_pair_decomposes_into_det_twist_and_steinberg():
    ctx = make_group("gl2", make_field(5))
    F = ctx.field
    chi = MultChar(F, 2)
    linear, steinberg = decompose(ctx, BorelChar(ctx, (chi, chi)))
    assert abs(linear.values[0] - 1) < 1e-9
    assert abs(steinberg.values[0] - 5) < 1e-9
    dets = ctx.mat_det(ctx.elems[ctx.view.reps])
    assert np.max(np.abs(linear.values - chi.values[np.asarray(dets)])) < 1e-9
    assert abs(inner_product(linear, steinberg)) < 1e-9
    with pytest.raises(CharMismatch):
        decompose(ctx, BorelChar(ctx, (MultChar(F, 1), MultChar(F, 2))))


def test_sl2_decomposes_only_the_trivial_principal_series():
    # I(1) = 1 + St; for chi != 1 I(chi) has no linear constituent
    ctx = make_group("sl2", make_field(5))
    F = ctx.field
    linear, steinberg = decompose(ctx, BorelChar(ctx, (MultChar(F, 0),)))
    assert np.array_equal(linear.values, np.ones(len(ctx.view.reps)))
    assert abs(steinberg.values[0] - 5) < 1e-9
    assert abs(inner_product(steinberg, steinberg) - 1) < 1e-9
    for j in (1, 2):
        with pytest.raises(CharMismatch):
            decompose(ctx, BorelChar(ctx, (MultChar(F, j),)))


def test_matrix_model_realizes_the_induced_character():
    ctx = make_group("sl2", make_field(3))
    chi = MultChar(ctx.field, 1)
    bchar = BorelChar(ctx, (chi,))
    rep = build_induced_rep(ctx, bchar)
    assert rep.images.shape[1] == ctx.q + 1
    got = rep_character(rep)
    want = induced_character(ctx, bchar)
    assert np.max(np.abs(got.values - want.values)) < 1e-8


def test_induced_bound_covers_every_pair(all_pairs_defect):
    # the sizes where the all-pairs check ran in the library
    for q in (3, 5, 7):
        ctx = make_group("sl2", make_field(q))
        for j in (1, (q - 1) // 2):
            bchar = BorelChar(ctx, (MultChar(ctx.field, j),))
            rep = build_induced_rep(ctx, bchar)
            bound = rep.check_homomorphism()
            assert all_pairs_defect(rep) <= bound < get_tol()


def test_the_certificate_catches_an_image_the_old_sample_missed(
        monkeypatch, all_pairs_defect):
    # beyond |G| = 400 the induced model was checked on 4,096 seeded
    # pairs; an image they never touch, turned by a sign, passes that
    # sample and fails the certificate
    ctx = make_group("sl2", make_field(17))
    pairs = np.random.default_rng(SEED).integers(0, ctx.n, size=(4096, 2))
    touched = np.zeros(ctx.n, dtype=bool)
    touched[pairs.ravel()] = True
    touched[ctx.view.mul(pairs[:, 0], pairs[:, 1])] = True
    bad = int(np.argmin(touched))
    assert not touched[bad]
    real = parabolic.MatrixRep
    sampled = []

    def corrupted(view, images):
        images.vals[bad] *= -1
        rep = real(view, images)
        sampled.append(all_pairs_defect(rep, pairs))
        return rep

    monkeypatch.setattr(parabolic, "MatrixRep", corrupted)
    bchar = BorelChar(ctx, (MultChar(ctx.field, 1),))
    with pytest.raises(VerificationFailed, match="not multiplicative"):
        build_induced_rep(ctx, bchar)
    assert sampled[0] < get_tol()


def _dense_induced_images(ctx, bchar, cosets):
    """Reference: the (|G|, q+1, q+1) image stack of the induced model,
    filled densely by group products on the cosets (representatives,
    coset of every element) of the group-product loop."""
    reps, coset_of = cosets
    k = len(reps)
    view = ctx.view
    images = np.zeros((ctx.n, k, k), dtype=complex)
    allg = np.arange(ctx.n)
    for j in range(k):
        x = view.mul(reps[j], allg)
        i = coset_of[x]
        b = view.mul(x, view.inv[reps[i]])
        images[allg, j, i] = bchar.value_on_mats(ctx.elems[b])
    return images


def test_monomial_induced_model_equals_the_dense_reference(
        elementwise_product_defect, seen_loop_cosets):
    # the bottom-row fill gives the group-product fill's images, and the
    # gathered certificate its delta bit for bit (GEMM may round the
    # products otherwise)
    for q in (3, 5, 7, 9):
        ctx = make_group("sl2", make_field(3, 2) if q == 9 else make_field(q))
        cosets = seen_loop_cosets(ctx)
        for j in (1, (q - 1) // 2):
            bchar = BorelChar(ctx, (MultChar(ctx.field, j),))
            rep = build_induced_rep(ctx, bchar)
            dense = rep.images[np.arange(ctx.n)]
            assert np.array_equal(dense,
                                  _dense_induced_images(ctx, bchar, cosets))
            assert rep.product_defect() == elementwise_product_defect(rep)


@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_a_wrong_coset_fails_the_proportionality_gate(where):
    # the bottom row of one element sent to the next line: it is no
    # multiple of the representative of the coset that line's slot names
    ctx = make_group("sl2", make_field(5))
    g = {"first": 0, "middle": ctx.n // 2, "last": ctx.n - 1}[where]
    row = ctx.elems[g, 2:]
    real = ctx.line_of

    def wrong_at_row(x, y):
        line = real(x, y)
        hit = (x == row[0]) & (y == row[1])
        return np.where(hit, (line + 1) % (ctx.q + 1), line)

    ctx.line_of = wrong_at_row
    bchar = BorelChar(ctx, (MultChar(ctx.field, 1),))
    with pytest.raises(VerificationFailed, match=r"^\d+ bottom rows are not "
                                                 "proportional"):
        build_induced_rep(ctx, bchar)


def test_split_rho_pm_forms_no_whole_group_product(monkeypatch):
    # past the Borel subgroup, splitting I(chi) multiplies only the
    # (q+1)^2 products r_i r_j^-1 of the coset representatives; cosets
    # found as orbits would multiply all of G by each Borel generator
    for q in (5, 7):
        ctx = make_group("sl2", make_field(q))
        ctx.borel
        real, rows = GroupCtx.mat_mul, []

        def counting(self, m1, m2):
            out = real(self, m1, m2)
            rows.append(out.size // 4)
            return out

        monkeypatch.setattr(GroupCtx, "mat_mul", counting)
        split_rho_pm(ctx, BorelChar(ctx, (MultChar(ctx.field,
                                                   (q - 1) // 2),)))
        monkeypatch.undo()
        assert rows and max(rows) <= (q + 1) ** 2


def test_induced_model_stores_no_image_stack(traced_peak):
    # at sl2 q=17 the model peaks at about 3 MB traced with its monomial
    # store and the chunked certificate, and at 30 MB with a dense
    # (|G|, q+1, q+1) image stack
    ctx = make_group("sl2", make_field(17))
    ctx.borel_coset_reps
    bchar = BorelChar(ctx, (MultChar(ctx.field, 1),))
    _, peak = traced_peak(lambda: build_induced_rep(ctx, bchar))
    assert peak < 12e6


def test_quadratic_induced_splits_into_two_halves():
    for q in (3, 5):
        ctx = make_group("sl2", make_field(q))
        chi = MultChar(ctx.field, (q - 1) // 2)
        bchar = BorelChar(ctx, (chi,))
        plus, minus = split_rho_pm(ctx, bchar)
        ind = induced_character(ctx, bchar)
        assert abs(plus.values[0] - (q + 1) / 2) < 1e-8
        assert abs(minus.values[0] - (q + 1) / 2) < 1e-8
        assert np.max(np.abs((plus + minus).values - ind.values)) < 1e-8
        assert abs(inner_product(plus, plus) - 1) < 1e-8
        assert abs(inner_product(plus, minus)) < 1e-8
        assert epsilon_swap_defect(ctx, plus, minus) < 1e-8


def test_rho_pm_frozen_values_at_q3():
    # at q = 3 the halves take values (1 +- i sqrt(3)) / 2 on the
    # unipotent classes; plus is the one with positive imaginary part
    # at the class of (1 1; 0 1)
    ctx = make_group("sl2", make_field(3))
    chi = MultChar(ctx.field, 1)
    plus, minus = split_rho_pm(ctx, BorelChar(ctx, (chi,)))
    u = ctx.class_index_of((1, 1, 0, 1))
    v = ctx.class_index_of((1, 2, 0, 1))
    root = 0.5 + np.sqrt(3) / 2 * 1j
    assert abs(plus.values[u] - root) < 1e-8
    assert abs(plus.values[v] - np.conj(root)) < 1e-8
    assert abs(minus.values[u] - np.conj(root)) < 1e-8


def test_delta_kernels_support_and_normalization():
    ctx = make_group("sl2", make_field(5))
    chi = MultChar(ctx.field, 2)  # quadratic
    d1, dw = delta_kernels(ctx, BorelChar(ctx, (chi,)))
    q = ctx.q
    assert np.count_nonzero(d1) == q * (q - 1)
    assert np.count_nonzero(dw) == q * q * (q - 1)
    assert d1[ctx.id_of((1, 0, 0, 1))] == 1
    assert dw[ctx.id_of((0, 1, int(ctx.field.neg(1)), 0))] == 1
    assert np.max(np.abs(d1) * np.abs(dw)) == 0  # disjoint supports


def test_delta_kernels_require_self_dual_character():
    ctx = make_group("sl2", make_field(5))
    with pytest.raises(CharMismatch):
        delta_kernels(ctx, BorelChar(ctx, (MultChar(ctx.field, 1),)))
    g3 = make_group("gl2", make_field(3))
    with pytest.raises(CharMismatch):
        delta_kernels(g3, BorelChar(g3, (MultChar(g3.field, 0),
                                         MultChar(g3.field, 1))))


def test_hecke_relations_for_the_quadratic_character():
    for q in (3, 5, 7):
        ctx = make_group("sl2", make_field(q))
        chi = MultChar(ctx.field, (q - 1) // 2)
        assert hecke_relations(ctx, BorelChar(ctx, (chi,)))[0] < 1e-9


def test_hecke_relations_reject_other_characters():
    ctx = make_group("sl2", make_field(5))
    F = ctx.field
    # trivial character: Delta_w * Delta_w picks up an extra Delta_w
    # term, so the pure two-term identity is deliberately not offered
    with pytest.raises(CharMismatch):
        hecke_relations(ctx, BorelChar(ctx, (MultChar(F, 0),)))
    with pytest.raises(CharMismatch):
        hecke_relations(ctx, BorelChar(ctx, (MultChar(F, 1),)))
    g3 = make_group("gl2", make_field(3))
    with pytest.raises(GroupMismatch):
        hecke_relations(g3, BorelChar(g3, (MultChar(g3.field, 1),
                                           MultChar(g3.field, 1))))


def test_the_relation_defect_sees_a_scaled_delta_w(monkeypatch):
    # Delta_w off by a factor 1 + 10 tol breaks Delta_1 * Delta_w =
    # q(q-1) Delta_w by q(q-1) 10 tol
    tol = get_tol()
    ctx = make_group("sl2", make_field(5))
    quad = BorelChar(ctx, (MultChar(ctx.field, 2),))
    real = parabolic.delta_kernels

    def scaled(ctx, bchar):
        d1, dw = real(ctx, bchar)
        return d1, dw * (1 + 10 * tol)

    monkeypatch.setattr(parabolic, "delta_kernels", scaled)
    assert hecke_relations(ctx, quad)[0] > tol


def test_the_idempotent_gate_fires_on_a_flipped_sign(monkeypatch):
    # chi(-1) negated flips kappa, so cw picks up a factor i
    ctx = make_group("sl2", make_field(5))
    quad = BorelChar(ctx, (MultChar(ctx.field, 2),))
    real = parabolic._sign_at_minus_one
    monkeypatch.setattr(parabolic, "_sign_at_minus_one",
                        lambda ctx, chi: -real(ctx, chi))
    with pytest.raises(VerificationFailed, match="idempotent"):
        hecke_relations(ctx, quad)


def test_trivial_character_convolution_has_the_extra_term():
    # documents why the trivial character is excluded: at q = 3,
    # Delta_w * Delta_w = q^2(q-1) Delta_1 + 2(q-1)^2 Delta_w
    ctx = make_group("sl2", make_field(3))
    chi = MultChar(ctx.field, 0)
    d1, dw = delta_kernels(ctx, BorelChar(ctx, (chi,)))
    got, = convolve(ctx, [(dw, dw)])
    assert np.max(np.abs(got - (18 * d1 + 12 * dw))) < 1e-9


@pytest.mark.parametrize("q", [3, 5])
def test_batched_convolution_equals_the_sum_over_g(q):
    # every pair of one batch against sum_g k1(x g^-1) k2(g) read one
    # product at a time, and bit for bit against a batch of one
    ctx = make_group("sl2", make_field(q))
    chi = MultChar(ctx.field, (q - 1) // 2)
    d1, dw = delta_kernels(ctx, BorelChar(ctx, (chi,)))
    rng = np.random.default_rng(SEED)
    rand = rng.standard_normal(ctx.n) + 1j * rng.standard_normal(ctx.n)
    pairs = [(d1, dw), (dw, dw), (rand, d1), (dw, rand)]
    got = convolve(ctx, pairs)
    assert len(got) == len(pairs)
    gs = np.arange(ctx.n)
    for (k1, k2), out in zip(pairs, got):
        want = np.zeros(ctx.n, dtype=complex)
        for g in gs:
            want += k1[ctx.view.mul(gs, ctx.view.inv[g])] * k2[g]
        assert np.max(np.abs(out - want)) < 1e-9
        alone, = convolve(ctx, [(k1, k2)])
        assert np.array_equal(out, alone)


def test_idempotents_of_the_rank_two_hecke_algebra():
    # kappa records whether chi(-1) = -1, which happens iff q = 3 mod 4
    for q, want_kappa in ((3, 1), (5, 0), (7, 1)):
        ctx = make_group("sl2", make_field(q))
        chi = MultChar(ctx.field, (q - 1) // 2)
        _, (c1, cw), (c1m, cwm), kappa, defect = \
            hecke_relations(ctx, BorelChar(ctx, (chi,)))
        assert kappa == want_kappa
        assert defect < 1e-9
        assert abs(c1 - 1 / (2 * q * (q - 1))) < 1e-15
        assert abs(cw - (1j ** kappa) * c1 / np.sqrt(q)) < 1e-15
        assert cwm == -cw


def test_irreducible_principal_series_has_no_splitting():
    # chi of order 4: I(chi) is irreducible, its commutant is scalars
    ctx = make_group("sl2", make_field(5))
    chi = MultChar(ctx.field, 1)
    rep = build_induced_rep(ctx, BorelChar(ctx, (chi,)))
    gens = ctx.view.gens
    with pytest.raises(NotSplitting, match="commutant dimension 1"):
        _svd_commutant_projectors([rep.images[g] for g in gens])


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_involution_halves_equal_the_commutant_svd_halves(q, monkeypatch):
    ctx, quad, _, _ = _quadratic_split_setup(q)
    ectx = make_ext(ctx.field)

    def halves():
        om0 = sl2_cuspidal_family(ectx, ctx)["omega0"]
        return [*split_rho_pm(ctx, quad), om0["plus"], om0["minus"]]

    got = halves()
    monkeypatch.setattr(parabolic, "two_dim_commutant_projectors",
                        lambda T, gens: _svd_commutant_projectors(gens))
    want = halves()
    for f, g in zip(got, want):
        assert np.max(np.abs(f.values - g.values)) < get_tol()


def test_a_nan_involution_is_not_a_splitting(monkeypatch):
    ctx = make_group("sl2", make_field(5))
    quad = BorelChar(ctx, (MultChar(ctx.field, 2),))
    real = parabolic.hecke_involution

    def poisoned(ctx, bchar):
        T = real(ctx, bchar).copy()
        T[0, 1] = np.nan
        return T

    monkeypatch.setattr(parabolic, "hecke_involution", poisoned)
    with pytest.raises(NotSplitting, match="T is not an involution"):
        split_rho_pm(ctx, quad)


def test_involution_gates_fire():
    tol = get_tol()
    ctx, quad, rep, gen_mats = _quadratic_split_setup(5)
    T = hecke_involution(ctx, quad)
    P1, P2 = two_dim_commutant_projectors(T, gen_mats)
    assert np.max(np.abs(P1 + P2 - np.eye(ctx.q + 1))) < tol
    with pytest.raises(NotSplitting, match="T is not an involution"):
        two_dim_commutant_projectors(T * (1 + 10 * tol), gen_mats)
    bent = list(gen_mats)
    bent[0] = bent[0].copy()
    bent[0][0, 0] += 10 * tol
    with pytest.raises(NotSplitting, match="T does not commute"):
        two_dim_commutant_projectors(T, bent)
    # the identity passes both involution gates; only the halves' degree
    # shows that it splits nothing
    with pytest.raises(VerificationFailed, match="wrong degree"):
        split_in_two(ctx, np.eye(ctx.q + 1), gen_mats,
                     rep.images[ctx.view.reps], induced_character(ctx, quad))


def test_hecke_involution_is_the_normalized_delta_w():
    # T^2 = I, and T is Delta_w at r_i r_j^-1 scaled by 1/sqrt(chi(-1) q)
    for q in (3, 5, 7):
        ctx, quad, _, _ = _quadratic_split_setup(q)
        T = hecke_involution(ctx, quad)
        assert np.max(np.abs(T @ T - np.eye(q + 1))) < get_tol()
        _, dw = delta_kernels(ctx, quad)
        reps = ctx.borel_coset_reps
        view = ctx.view
        scale = np.sqrt(complex(q if q % 4 == 1 else -q))
        for i, ri in enumerate(reps):
            for j, rj in enumerate(reps):
                x = int(view.mul(ri, view.inv[rj]))
                assert abs(T[i, j] * scale - dw[x]) < 1e-12


def test_split_in_two_gates_fire():
    ctx, quad, rep, gen_mats = _quadratic_split_setup(5)
    F = ctx.field
    gens = ctx.view.gens
    T = hecke_involution(ctx, quad)
    class_mats = rep.images[ctx.view.reps]
    whole = induced_character(ctx, quad)
    plus, minus = split_in_two(ctx, T, gen_mats, class_mats, whole)
    assert np.max(np.abs((plus + minus).values - whole.values)) < 1e-8

    # off by 10 tol at a class where whole vanishes, so <whole, whole>
    # moves only at second order and the sum gate is the one that fires
    zero = int(np.flatnonzero(np.abs(whole.values) < 1e-9)[0])
    off = whole.values.copy()
    off[zero] += 10 * get_tol()
    with pytest.raises(VerificationFailed, match="sum"):
        split_in_two(ctx, T, gen_mats, class_mats,
                     ClassFunction(ctx.view, off))

    irreducible = BorelChar(ctx, (MultChar(F, 1),))
    with pytest.raises(VerificationFailed, match="expected 2"):
        split_in_two(ctx, T, gen_mats, class_mats,
                     induced_character(ctx, irreducible))

    # the Weyl intertwiner of I(quad) does not commute with I(chi) for
    # chi of order 4
    irr_rep = build_induced_rep(ctx, irreducible)
    with pytest.raises(NotSplitting, match="T does not commute"):
        split_in_two(ctx, T, [irr_rep.images[g] for g in gens],
                     irr_rep.images[ctx.view.reps], whole)
