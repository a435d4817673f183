"""End-to-end acceptance checks.

Each test is one named criterion and emits a single PASS line when it
completes; run with -v for one line per criterion either way.  All
numerical comparisons use the pinned tolerance TAU = 1e-8.
"""

import time

import numpy as np

from qrep import (
    BorelChar,
    MatrixRep,
    MultChar,
    NormOneChar,
    bruhat,
    build_table,
    centralizer,
    cli,
    count_irreducible_monics,
    count_similarity_classes,
    cuspidal_count_identity,
    decompose_gl2,
    epsilon_swap_defect,
    fourier_intertwines,
    gl2_cuspidal_family,
    heisenberg_from_ext,
    heisenberg_group,
    hensel_lift,
    inner_product,
    intertwiner_mismatches,
    jordan_form,
    make_ext,
    make_field,
    make_group,
    similarity_type,
    sl2_cuspidal_family,
    split_rho_pm,
    svn_check,
    verify_ordinary,
    verify_table,
    weil_matrix,
)
from qrep import poly
from qrep.simclass import conjugation_orbits, random_matrix

TAU = 1e-8

_FIELDS = {3: (3, 1), 5: (5, 1), 7: (7, 1), 9: (3, 2)}


def _field(q):
    p, k = _FIELDS[q]
    return make_field(p, k)


def _ok(n, msg):
    print(f"CRITERION {n} PASS: {msg}")


def test_criterion_01_conjugacy_class_data():
    for q in (3, 5, 7):
        F = _field(q)
        gl = make_group("gl2", F)
        assert gl.view.n == (q * q - 1) * (q * q - q)
        assert len(gl.conj_classes) == q * q - 1
        by_tag = {}
        for c in gl.conj_classes:
            by_tag.setdefault(c.tag, []).append(c)
        assert len(by_tag["central"]) == q - 1
        assert len(by_tag["nonsemisimple"]) == q - 1
        assert len(by_tag["split_regular"]) == (q - 1) * (q - 2) // 2
        assert len(by_tag["anisotropic"]) == (q * q - q) // 2
        size_of = {"central": 1, "nonsemisimple": q * q - 1,
                   "split_regular": q * (q + 1), "anisotropic": q * (q - 1)}
        for c in gl.conj_classes:
            assert c.size == size_of[c.tag]
            assert c.size * c.centralizer_order == gl.view.n
        assert sum(c.size for c in gl.conj_classes) == gl.view.n

        sl = make_group("sl2", F)
        assert sl.view.n == q * (q * q - 1)
        assert len(sl.conj_classes) == q + 4
        nonss = [c for c in sl.conj_classes if c.tag == "nonsemisimple"]
        assert len(nonss) == 4
        assert all(c.size == (q * q - 1) // 2 for c in nonss)
        assert all(c.size * c.centralizer_order == sl.view.n
                   for c in sl.conj_classes)
        assert sum(c.size for c in sl.conj_classes) == sl.view.n
    _ok(1, "class counts, sizes, centralizers exact for q in {3,5,7}, "
           "both groups")


def test_criterion_02_bruhat_exhaustive_q5():
    for kind in ("gl2", "sl2"):
        ctx = make_group(kind, make_field(5))
        # bruhat() re-multiplies b1 w b2 and raises on any mismatch
        big, _, _ = bruhat(ctx, ctx.elems)
        cells = {"B": int(np.count_nonzero(~big)),
                 "BwB": int(np.count_nonzero(big))}
        b = 5 * 4 * 4 if kind == "gl2" else 5 * 4
        assert cells["B"] == b
        assert cells["BwB"] == ctx.view.n - b
    _ok(2, "Bruhat factorization re-multiplied exactly for all of "
           "GL2(F_5) and SL2(F_5)")


def test_criterion_03_weil_product_relations(all_pairs_defect):
    for q in (3, 5, 7):
        E = make_ext(make_field(q))
        ctx = make_group("sl2", E.base)
        out = verify_ordinary(E, ctx)
        assert out["pairs"] == ctx.n * len(ctx.view.gens)
        assert out["bound"] < TAU
        assert out["word_defect"] < TAU
        assert out["norm_defect"] < TAU
        if q <= 5:
            # the exhaustive reference: 576 pairs at q=3, 14400 at q=5
            rep = MatrixRep(ctx.view, [weil_matrix(E, ctx.mat_of(g))
                                       for g in range(ctx.n)])
            assert all_pairs_defect(rep) <= out["bound"]
    _ok(3, "rho~(s1)rho~(s2) = rho~(s1 s2): certified from every "
           "(element, generator) product at q=3, 5, 7, and all 576 pairs "
           "at q=3 and 14400 at q=5 within the certified bound")


def test_criterion_04_stone_von_neumann_and_fourier():
    for orders in ((2,), (3,), (4,), (2, 2)):
        assert svn_check(heisenberg_group(orders)) <= TAU
        assert fourier_intertwines(heisenberg_group(orders)) < TAU
    h81 = heisenberg_from_ext(make_ext(make_field(3, 2)))
    assert fourier_intertwines(h81) < TAU
    _ok(4, "Stone-von-Neumann uniqueness on the small panel; Fourier "
           "transform intertwines translations and modulations up to F_81")


def test_criterion_05_intertwiner_dimensions_and_splittings():
    for q in (3, 5):
        F = make_field(q)
        sl = make_group("sl2", F)
        assert intertwiner_mismatches(
            sl, [BorelChar(sl, (MultChar(F, j),)) for j in range(q - 1)]) == 0
        gl = make_group("gl2", F)
        chars = [BorelChar(gl, (MultChar(F, a), MultChar(F, b)))
                 for a in range(q - 1) for b in range(q - 1)]
        assert intertwiner_mismatches(gl, chars) == 0
        # equal pairs decompose as det-twist + q-dimensional complement
        for j in range(q - 1):
            chi = MultChar(F, j)
            lin, st = decompose_gl2(gl, BorelChar(gl, (chi, chi)))
            assert abs(lin.values[0] - 1) < TAU
            assert abs(st.values[0] - q) < TAU
    for q in (3, 5, 7):
        sl = make_group("sl2", make_field(q))
        chi = MultChar(sl.field, (q - 1) // 2)
        plus, minus = split_rho_pm(sl, BorelChar(sl, (chi,)))
        assert abs(plus.values[0] - (q + 1) / 2) < TAU
        assert abs(minus.values[0] - (q + 1) / 2) < TAU
        assert abs(inner_product(plus, plus) - 1) < TAU
        assert abs(inner_product(plus, minus)) < TAU
        assert epsilon_swap_defect(sl, plus, minus) < TAU
    _ok(5, "intertwiner dimensions match e_1 + e_w for every character "
           "pair at q in {3,5}; quadratic inductions split as verified")


def test_criterion_06_cuspidal_character_identities():
    for q in (3, 5, 7):
        E = make_ext(_field(q))
        ext = E.ext
        gl = make_group("gl2", E.base)
        fam = gl2_cuspidal_family(E, gl)  # re-checks omega vs omega^q
        assert len(fam) == (q * q - q) // 2
        for (j, _), f in fam:
            om = MultChar(ext, j)
            assert abs(f.values[0] - (q - 1)) < TAU
            for ci, c in enumerate(gl.conj_classes):
                if c.tag == "nonsemisimple":
                    want = -om.values[c.params[0]]
                    assert abs(f.values[ci] - want) < TAU
                elif c.tag == "split_regular":
                    assert abs(f.values[ci]) < TAU

        sl = make_group("sl2", E.base)
        out = sl2_cuspidal_family(E, sl)
        assert len(out["cuspidal"]) == (q - 1) // 2
        lam = np.arange(ext.q)
        for j, f in out["cuspidal"]:
            om = NormOneChar(E, j)
            assert abs(inner_product(f, f) - 1) < TAU
            for ci, c in enumerate(sl.conj_classes):
                if c.tag == "anisotropic":
                    det_i, tr_i = c.params
                    vals = ext.add(ext.sub(ext.mul(lam, lam),
                                           ext.mul(tr_i, lam)), det_i)
                    z = int(lam[np.asarray(vals) == 0][0])
                    want = -(om.values[z] + om.values[int(E.frob[z])])
                    assert abs(f.values[ci] - want) < TAU
                elif c.tag == "split_regular":
                    assert abs(f.values[ci]) < TAU
                elif c.tag == "nonsemisimple" and c.params[0] == 1:
                    assert abs(f.values[ci] + 1) < TAU
        om0 = out["omega0"]
        assert abs(inner_product(om0["character"], om0["character"]) - 2) < TAU
        for half in (om0["plus"], om0["minus"]):
            assert abs(half.values[0] - (q - 1) / 2) < TAU
    _ok(6, "cuspidal traces: -omega(a) at nonsemisimple, "
           "-(omega(z)+omega(1/z)) at anisotropic, 0 at split regular; "
           "omega_0 module splits, q in {3,5,7}")


def test_criterion_07_tables_build_and_verify():
    built = []
    for kind, qs in (("gl2", (3, 5, 7)), ("sl2", (3, 5, 7, 9))):
        for q in qs:
            t = build_table(kind, q)
            report = verify_table(t)
            assert max(report.values()) < TAU, (kind, q, report)
            assert len(t.rows) == len(t.gctx.conj_classes)
            assert sum(r.degree ** 2 for r in t.rows) == t.gctx.view.n
            built.append((kind, q))
    t3 = build_table("gl2", 3)
    assert sorted(r.degree for r in t3.rows) == [1, 1, 2, 2, 2, 3, 3, 4]
    assert built == [("gl2", 3), ("gl2", 5), ("gl2", 7),
                     ("sl2", 3), ("sl2", 5), ("sl2", 7), ("sl2", 9)]
    _ok(7, "complete verified tables: GL2 at q in {3,5,7}, SL2 at "
           "q in {3,5,7,9}")


def test_criterion_08_similarity_types_and_canonical_forms():
    rng = np.random.default_rng(20070714)
    for q in (2, 3):
        F = make_field(q)
        n = 2
        # brute GL-conjugation orbits of all q^4 matrices
        orbit_of = conjugation_orbits(F, n)
        n_orbits = len(set(orbit_of.values()))
        # similarity_type must induce exactly the same partition
        type_of = {}
        for flat in orbit_of:
            A = np.array(flat, dtype=np.int64).reshape(n, n)
            type_of[flat] = similarity_type(F, A)
        for a in orbit_of:
            for b in orbit_of:
                assert (orbit_of[a] == orbit_of[b]) == \
                    (type_of[a] == type_of[b])
        assert n_orbits == count_similarity_classes(q, 2)
        assert n_orbits == (6 if q == 2 else 12)

    F3 = make_field(3)
    for _ in range(200):
        A = random_matrix(F3, 4, rng)
        st = similarity_type(F3, A)
        J = jordan_form(F3, st)  # internally round-trips through the type
        assert similarity_type(F3, J) == st

    want_units = {"central": 48, "nonsemisimple": 6,
                  "split_regular": 4, "anisotropic": 8}
    gl = make_group("gl2", F3)
    for c in gl.conj_classes:
        A = np.array(c.rep, dtype=np.int64).reshape(2, 2)
        dim, units = centralizer(F3, A)
        assert units == want_units[c.tag] == c.centralizer_order
    _ok(8, "similarity types = brute conjugation orbits over F_2 and F_3 "
           "(6 and 12 classes); 200 canonical-form round trips; "
           "centralizer unit counts match")


def test_criterion_09_hensel_lifts():
    cases = [(make_field(3), (1, 0, 1)),
             (make_field(2), (1, 1, 1)),
             (make_field(2), (1, 1, 0, 1))]
    for F, f in cases:
        for r in (2, 3):
            root = hensel_lift(F, f, r)
            fr = f
            for _ in range(r - 1):
                fr = poly.mul(F, fr, f)
            assert not poly.mod(F, poly.compose(F, f, root), fr)
            assert not poly.mod(F, poly.sub(F, root, (0, 1)), f)
            assert poly.deg(root) < poly.deg(fr)
    _ok(9, "Hensel lifts verified exactly for t^2+1/F_3, t^2+t+1/F_2, "
           "t^3+t+1/F_2 at r in {2,3}")


def test_criterion_10_counting_identities():
    frozen = {(2, 2): 1, (2, 3): 2, (3, 2): 3, (3, 3): 8, (5, 2): 10}
    for (q, d), want in frozen.items():
        got = count_irreducible_monics(q, d)
        assert got == want
        assert got == len(poly.irreducibles(make_field(q), d))
    assert cuspidal_count_identity(3, 2) == (3, 3, True)
    assert cuspidal_count_identity(2, 3) == (2, 2, True)
    assert cuspidal_count_identity(2, 2) == (1, 1, True)
    _ok(10, "necklace counts match enumeration; primitive-orbit count "
            "equals irreducible-monic count at (q,n) in {(3,2),(2,3),(2,2)}")


def test_criterion_11_runtime_budget(capsys):
    budgets = {3: 60.0, 5: 60.0, 7: 600.0}
    took = {}
    for q, budget in budgets.items():
        t0 = time.monotonic()
        rc = cli.run(["verify", "--suite", "all", "--q", str(q)])
        dt = time.monotonic() - t0
        assert rc == 0
        assert dt < budget, (q, dt)
        took[q] = dt
    capsys.readouterr()  # swallow the suite logs
    _ok(11, "full verification in budget: " +
        ", ".join(f"q={q}: {took[q]:.1f}s" for q in took))
