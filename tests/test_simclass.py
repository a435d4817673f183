"""Similarity classes: similarity types against a Smith-form reference,
canonical forms, centralizers, counting identities, Hensel lifting, and
the polynomial layer under it."""

import itertools
import math
import time

import numpy as np
import pytest

from qrep import (
    DerivativeVanishes,
    Singular,
    SizeMismatch,
    SimilarityType,
    VerificationFailed,
    centralizer,
    charpoly,
    companion,
    count_irreducible_monics,
    count_similarity_classes,
    cuspidal_count_identity,
    hensel_lift,
    jordan_form,
    make_field,
    similarity_type,
)
from qrep import make_ext, poly, simclass
from qrep.ff import FieldCtx, ScalarOps
from qrep.simclass import (conjugation_orbits, fq_nullspace, mat_det, mat_eye,
                           mat_inv, mat_mul, random_matrix)

RNG = np.random.default_rng(20070714)

F2 = make_field(2)
F3 = make_field(3)
F5 = make_field(5)
F7 = make_field(7)
F9 = make_field(3, 2)


# ---------------------------------------------------------------------------
# polynomial layer


def test_poly_factor_recovers_the_product():
    f = poly.mul(F5, (4, 1), poly.mul(F5, (1, 1), (1, 0, 1)))
    unit, facs = poly.factor(F5, f)
    back = (unit,)
    for g, m in facs:
        for _ in range(m):
            back = poly.mul(F5, back, g)
    assert poly.trim(back) == poly.trim(f)
    assert all(poly.is_irreducible(F5, g) for g, _ in facs)


def _factor_by_trial_division(ctx, f):
    """poly.factor as first written: trial division by every monic from
    degree 1 up, so each monic that divides the cofactor is irreducible."""
    unit = f[-1]
    f = poly.monic(ctx, f)
    found = {}
    d = 1
    while 2 * d <= poly.deg(f):
        for g in poly.monics(ctx, d):
            while poly.deg(f) >= d:
                quo, rem = poly.divmod_poly(ctx, f, g)
                if rem:
                    break
                f = quo
                found[g] = found.get(g, 0) + 1
        d += 1
    if poly.deg(f) > 0:
        found[f] = found.get(f, 0) + 1
    return unit, sorted(found.items(), key=lambda kv: (poly.deg(kv[0]), kv[0]))


@pytest.mark.parametrize("F", [F3, F5, F7, F9], ids=lambda F: f"q{F.q}")
def test_poly_factor_with_repeated_roots_equals_trial_division(F):
    # products of linear factors with multiplicities up to 3, times an
    # irreducible quadratic or a unit: the root step must count every
    # multiplicity and leave the trial division the same cofactor
    rng = np.random.default_rng(F.q)
    quadratics = poly.irreducibles(F, 2)
    for _ in range(40):
        f = (int(rng.integers(1, F.q)),)
        for r in rng.integers(0, F.q, size=int(rng.integers(0, 4))):
            for _ in range(int(rng.integers(1, 4))):
                f = poly.mul(F, f, (int(F.neg(r)), 1))
        if rng.integers(2):
            f = poly.mul(F, f, quadratics[int(rng.integers(len(quadratics)))])
        assert poly.factor(F, f) == _factor_by_trial_division(F, f)


def _array_path(F):
    """Reference arithmetic for FieldCtx.scalar: one call of the array
    method per scalar, converted to a Python int."""
    return ScalarOps(add=lambda x, y: int(F.add(x, y)),
                     sub=lambda x, y: int(F.sub(x, y)),
                     mul=lambda x, y: int(F.mul(x, y)),
                     neg=lambda x: int(F.neg(x)),
                     inv=lambda x: int(F.inv(x)))


def _scalar_path_results():
    rng = np.random.default_rng(20070714)
    out = {}
    for p, k in [(3, 1), (5, 1), (7, 1), (3, 2)]:
        F = make_field(p, k)
        out[F.q, "types"] = [similarity_type(F, random_matrix(F, n, rng))
                             for n in (3, 4) for _ in range(25)]
        out[F.q, "factor"] = [poly.factor(F, tuple(int(c) for c in f))
                              for f in rng.integers(0, F.q, size=(20, 6))
                              if f[-1]]
        out[F.q, "irreducibles"] = poly.irreducibles(F, 3)
        out[F.q, "hensel"] = [simclass.hensel_lift(F, f, r)
                              for f in poly.irreducibles(F, 2)[:3]
                              for r in (2, 3)]
    for F in (make_field(3, 4), make_ext(make_field(19)).ext):
        out[F.q, "tables"] = (F.modulus, F.gen, F.exp.tolist(),
                              F.zech.tolist())
    return out


def test_scalar_arithmetic_reproduces_the_array_path(monkeypatch):
    # 200 random similarity types, factorizations, degree-3 irreducibles,
    # Hensel lifts and two poly-built extension tables: ctx.scalar must
    # give what one array-method call per scalar gave
    fast = _scalar_path_results()
    monkeypatch.setattr(FieldCtx, "scalar", property(_array_path))
    assert _scalar_path_results() == fast


@pytest.mark.parametrize("p,k", [(7, 1), (3, 2)])
def test_similarity_type_makes_no_array_field_calls(monkeypatch, p, k):
    # chi_A, its factorization and the kernel ranks run on
    # FieldCtx.scalar: A's chi_A is squarefree at both q, and 2I + E_21
    # has the repeated factor (t - 2)^3, whose partition (2, 1) is read
    # off ranks; a numpy call per coefficient made about 160k
    # array-method calls in one verify --suite simclass pass
    F = make_field(p, k)
    A = np.array([[1, 2, 0, 3], [0, 1, 4, 0], [5, 0, 1, 2], [1, 1, 0, 6]]) % F.q
    B = np.array([[2, 0, 0], [1, 2, 0], [0, 0, 2]])
    calls = []

    def counting(name):
        real = getattr(FieldCtx, name)

        def wrapper(self, *args):
            calls.append(name)
            return real(self, *args)
        return wrapper

    for name in ("add", "sub", "mul", "neg", "inv"):
        monkeypatch.setattr(FieldCtx, name, counting(name))
    st = similarity_type(F, A)
    assert st.dim == 4 and calls == []
    minus2 = F.scalar.neg(2)
    assert similarity_type(F, B) == SimilarityType([((minus2, 1), [2, 1])])
    assert calls == []


def _derivative_by_repeated_addition(F, f):
    out = []
    for i in range(1, len(f)):
        c = 0
        for _ in range(i % F.p):
            c = int(F.add(c, f[i]))
        out.append(c)
    return poly.trim(out)


@pytest.mark.parametrize("p,k", [(7, 1), (3, 2), (5, 2)])
def test_derivative_matches_repeated_addition(p, k):
    F = make_field(p, k)
    rng = np.random.default_rng(20070714)
    for f in rng.integers(0, F.q, size=(40, 16)):
        f = poly.trim(int(c) for c in f[:rng.integers(0, 17)])
        assert poly.derivative(F, f) == _derivative_by_repeated_addition(F, f)


def test_poly_xgcd_bezout_identity():
    for _ in range(25):
        f = tuple(int(c) for c in RNG.integers(0, 3, size=5))
        g = tuple(int(c) for c in RNG.integers(0, 3, size=4))
        if poly.deg(poly.trim(f)) < 0 or poly.deg(poly.trim(g)) < 0:
            continue
        d, u, v = poly.xgcd(F3, f, g)
        lhs = poly.add(F3, poly.mul(F3, u, f), poly.mul(F3, v, g))
        assert poly.trim(lhs) == poly.trim(d)
        assert poly.is_monic(d)
        assert not poly.mod(F3, f, d) and not poly.mod(F3, g, d)


def test_poly_compose_is_substitution():
    f = (1, 2, 1)   # 1 + 2x + x^2 over F_3
    g = (0, 0, 1)   # x^2
    got = poly.compose(F3, f, g)
    assert poly.trim(got) == (1, 0, 2, 0, 1)  # 1 + 2x^2 + x^4


def test_irreducible_enumeration_counts():
    assert len(poly.irreducibles(F2, 3)) == 2   # t^3+t+1, t^3+t^2+1
    assert len(poly.irreducibles(F3, 2)) == 3
    assert poly.smallest_irreducible(F3, 2) == (1, 0, 1)


# ---------------------------------------------------------------------------
# invariant factors and similarity types


def test_mat_inv_inverts_every_unit_and_refuses_singular_matrices():
    units = [X for X in (np.array(flat, dtype=np.int64).reshape(2, 2)
                         for flat in itertools.product(range(3), repeat=4))
             if mat_det(F3, X) != 0]
    assert len(units) == 48  # |GL2(F_3)|
    rng = np.random.default_rng(7)
    big = []
    while len(big) < 20:
        X = random_matrix(F5, 3, rng)
        if mat_det(F5, X) != 0:
            big.append(X)
    for ctx, X in [(F3, X) for X in units] + [(F5, X) for X in big]:
        n = X.shape[0]
        assert np.array_equal(mat_mul(ctx, mat_inv(ctx, X), X), mat_eye(ctx, n))
    with pytest.raises(Singular):
        mat_inv(F5, np.array([[1, 2, 3], [2, 4, 1], [3, 1, 4]]))  # r3 = r1 + r2


def test_nullspace_dimension_is_columns_minus_rank():
    # the kernel has q^(cols - rank) elements: count them by brute force
    rng = np.random.default_rng(11)
    for ctx in (F3, F5):
        for _ in range(10):
            rows, inner, cols = (int(t) for t in rng.integers(1, 5, size=3))
            M = mat_mul(ctx, rng.integers(0, ctx.q, size=(rows, inner)),
                        rng.integers(0, ctx.q, size=(inner, cols)))
            basis = fq_nullspace(ctx, M)
            vecs = np.array(list(itertools.product(range(ctx.q), repeat=cols)))
            kernel = np.all(mat_mul(ctx, M, vecs.T) == 0, axis=0).sum()
            assert ctx.q ** len(basis) == kernel
            for v in basis:
                assert not mat_mul(ctx, M, v[:, None]).any()


def _char_matrix(ctx, A):
    """tI - A as a nested list of polynomials (low-degree-first tuples)."""
    n = A.shape[0]
    S = []
    for i in range(n):
        row = []
        for j in range(n):
            c = ctx.scalar.neg(int(A[i, j]))
            const = (c,) if c else ()
            row.append(poly.add(ctx, const, (0, 1)) if i == j else const)
        S.append(row)
    return S


def _smith_diagonal(ctx, S):
    """Diagonalize a square polynomial matrix in place by row and column
    operations, with the divisibility fix-up; return the monic diagonal,
    the invariant factors of S."""
    n = len(S)
    for k in range(n):
        while True:
            best = None
            for i in range(k, n):
                for j in range(k, n):
                    if S[i][j] and (best is None or poly.deg(S[i][j]) <
                                    poly.deg(S[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                break
            i0, j0 = best
            S[k], S[i0] = S[i0], S[k]
            for row in S:
                row[k], row[j0] = row[j0], row[k]
            piv = S[k][k]
            dirty = False
            for i in range(k + 1, n):
                if S[i][k]:
                    qq, rr = poly.divmod_poly(ctx, S[i][k], piv)
                    S[i] = [poly.sub(ctx, S[i][j], poly.mul(ctx, qq, S[k][j]))
                            for j in range(n)]
                    dirty = dirty or bool(rr)
            for j in range(k + 1, n):
                if S[k][j]:
                    qq, rr = poly.divmod_poly(ctx, S[k][j], piv)
                    for i in range(n):
                        S[i][j] = poly.sub(ctx, S[i][j],
                                           poly.mul(ctx, qq, S[i][k]))
                    dirty = dirty or bool(rr)
            if dirty:
                continue
            # pivot now alone in its row and column; enforce divisibility
            offender = next((i for i in range(k + 1, n)
                             for j in range(k + 1, n)
                             if S[i][j] and
                             poly.divmod_poly(ctx, S[i][j], piv)[1]), None)
            if offender is None:
                break
            S[k] = [poly.add(ctx, S[k][j], S[offender][j]) for j in range(n)]
    return [poly.monic(ctx, S[k][k]) for k in range(n)]


def _invariant_factors_by_smith(ctx, A):
    """Nonconstant invariant factors of tI - A from its Smith form, in
    divisibility order: the reference for similarity_type."""
    diag = _smith_diagonal(ctx, _char_matrix(ctx, A))
    assert all(diag) and sum(poly.deg(d) for d in diag) == A.shape[0]
    return [d for d in diag if poly.deg(d) >= 1]


def _type_by_smith(ctx, A):
    """The similarity type read off the Smith form: each invariant
    factor contributes its multiplicity of every irreducible."""
    by_irr = {}
    for f in _invariant_factors_by_smith(ctx, A):
        for g, mult in poly.factor(ctx, f)[1]:
            by_irr.setdefault(g, []).append(mult)
    return SimilarityType(by_irr.items())


def test_invariant_factors_of_scalar_and_companion():
    A = np.array([[2, 0], [0, 2]], dtype=np.int64)
    facs = _invariant_factors_by_smith(F3, A)
    assert facs == [(1, 1), (1, 1)]  # t - 2 = t + 1 twice
    f = (1, 0, 1)  # t^2 + 1, irreducible over F_3
    C = companion(F3, f)
    assert np.array_equal(C, np.array([[0, 2], [1, 0]]))
    assert _invariant_factors_by_smith(F3, C) == [f]


def test_invariant_factor_chain_divides():
    for _ in range(30):
        A = random_matrix(F5, 4, RNG)
        facs = _invariant_factors_by_smith(F5, A)
        assert sum(poly.deg(f) for f in facs) == 4
        for a, b in zip(facs, facs[1:]):
            assert not poly.mod(F5, b, a)  # a | b
        assert similarity_type(F5, A) == _type_by_smith(F5, A)


def _random_type(ctx, n, rng):
    """A random similarity type of dimension n: irreducibles of degree
    <= 2 with random partitions, until the dimension is used up."""
    entries = {}
    left = n
    while left:
        d = int(rng.integers(1, min(2, left) + 1))
        irr = poly.irreducibles(ctx, d)
        f = irr[int(rng.integers(len(irr)))]
        part = []
        size = int(rng.integers(1, left // d + 1))
        while size:
            r = int(rng.integers(1, size + 1))
            part.append(r)
            size -= r
        entries.setdefault(f, []).extend(part)
        left -= d * sum(part)
    return SimilarityType(entries.items())


def _conjugate(ctx, A, rng):
    n = A.shape[0]
    while True:
        X = random_matrix(ctx, n, rng)
        if mat_det(ctx, X) != 0:
            return mat_mul(ctx, mat_mul(ctx, X, A), mat_inv(ctx, X))


@pytest.mark.parametrize("F", [F3, F5, F7, F9], ids=lambda F: f"q{F.q}")
def test_similarity_type_equals_the_smith_reference(F):
    # random matrices, Jordan forms of random types (every repeated
    # factor reaches the kernel ranks) and their conjugates, zero and
    # the identity, n = 1..5
    rng = np.random.default_rng(20070714 + F.q)
    for n in range(1, 6):
        mats = [np.zeros((n, n), dtype=np.int64), mat_eye(F, n)]
        mats += [random_matrix(F, n, rng) for _ in range(8)]
        for _ in range(4):
            st = _random_type(F, n, rng)
            J = jordan_form(F, st)
            assert similarity_type(F, J) == st
            mats += [J, _conjugate(F, J, rng)]
        for A in mats:
            assert similarity_type(F, A) == _type_by_smith(F, A)


@pytest.mark.parametrize("F", [F3, F5, F7, F9], ids=lambda F: f"q{F.q}")
def test_charpoly_equals_the_determinant_at_every_point(F):
    rng = np.random.default_rng(F.q)
    assert charpoly(F, []) == (1,)
    for n in range(1, 6):
        for A in (random_matrix(F, n, rng), mat_eye(F, n)):
            chi = charpoly(F, A.tolist())
            assert len(chi) == n + 1 and poly.is_monic(chi)
            for x in range(F.q):
                xI = np.where(mat_eye(F, n) == 1, x, 0)
                assert poly.evaluate(F, chi, x) == \
                    int(mat_det(F, F.sub(xI, A)))
    with pytest.raises(SizeMismatch):
        charpoly(F, [[1, 2], [3]])


def test_rank_gate_fires_when_a_pivot_is_dropped(monkeypatch):
    # (t^2 + 1)^2 over F_3 as one 4 x 4 block: rank f(A) is 2, so
    # dropping a pivot makes it fall by 3, not a multiple of deg f = 2
    f = (1, 0, 1)
    J = jordan_form(F3, SimilarityType([(f, [2])]))
    real = simclass._row_reduce

    def dropping(ctx, M):
        R, pivots = real(ctx, M)
        return R, pivots[:-1]

    monkeypatch.setattr(simclass, "_row_reduce", dropping)
    with pytest.raises(VerificationFailed, match="rank of f"):
        similarity_type(F3, J)


def test_similarity_type_of_empty_scalar_and_nilpotent_matrices():
    assert similarity_type(F5, np.zeros((0, 0), dtype=np.int64)) == \
        SimilarityType([])
    assert similarity_type(F5, np.array([[3]])) == \
        SimilarityType([((2, 1), [1])])  # t - 3 = t + 2
    N = np.zeros((5, 5), dtype=np.int64)
    N[1, 0] = N[3, 2] = 1  # blocks of sizes 2, 2, 1 at eigenvalue 0
    st = similarity_type(F5, N)
    assert st == SimilarityType([((0, 1), [2, 2, 1])])
    assert st.entries == (((0, 1), (1, 2, 2)),)
    with pytest.raises(SizeMismatch):
        similarity_type(F5, np.zeros((2, 3), dtype=np.int64))


def test_similarity_type_is_conjugation_invariant():
    for _ in range(100):
        A = random_matrix(F3, 3, RNG)
        while True:
            X = random_matrix(F3, 3, RNG)
            if mat_det(F3, X) != 0:
                break
        B = mat_mul(F3, mat_mul(F3, X, A), mat_inv(F3, X))
        assert similarity_type(F3, A) == similarity_type(F3, B)


def _brute_orbit_partition(ctx, n):
    units = [np.array(x, dtype=np.int64).reshape(n, n)
             for x in itertools.product(range(ctx.q), repeat=n * n)
             if mat_det(ctx, np.array(x, dtype=np.int64).reshape(n, n)) != 0]
    seen = {}
    orbits = []
    for flat in itertools.product(range(ctx.q), repeat=n * n):
        A = np.array(flat, dtype=np.int64).reshape(n, n)
        key = tuple(flat)
        if key in seen:
            continue
        orbit = set()
        for X in units:
            B = mat_mul(ctx, mat_mul(ctx, X, A), mat_inv(ctx, X))
            orbit.add(tuple(int(t) for t in B.ravel()))
        for k in orbit:
            seen[k] = len(orbits)
        orbits.append(orbit)
    return orbits


def test_conjugation_orbits_match_the_seen_loop():
    for ctx, n in ((F2, 3), (F3, 2)):
        mats = [np.array(flat, dtype=np.int64).reshape(n, n)
                for flat in itertools.product(range(ctx.q), repeat=n * n)]
        units = [(X, mat_inv(ctx, X)) for X in mats if mat_det(ctx, X) != 0]
        reference = {}
        count = 0
        for A in mats:
            if tuple(int(t) for t in A.ravel()) in reference:
                continue
            for X, Xinv in units:
                B = mat_mul(ctx, mat_mul(ctx, X, A), Xinv)
                reference[tuple(int(t) for t in B.ravel())] = count
            count += 1
        assert conjugation_orbits(ctx, n) == reference


def test_types_agree_with_brute_conjugation_orbits_f2():
    orbits = _brute_orbit_partition(F2, 2)
    assert sorted(len(o) for o in orbits) == [1, 1, 2, 3, 3, 6]
    for orbit in orbits:
        types = {similarity_type(F2, np.array(k, dtype=np.int64).reshape(2, 2))
                 for k in orbit}
        assert len(types) == 1
    all_types = {similarity_type(F2, np.array(k, dtype=np.int64).reshape(2, 2))
                 for o in orbits for k in o}
    assert len(all_types) == len(orbits) == 6


def test_types_agree_with_brute_conjugation_orbits_f3():
    orbits = _brute_orbit_partition(F3, 2)
    assert len(orbits) == 12  # q^2 + q
    reps = [np.array(next(iter(o)), dtype=np.int64).reshape(2, 2)
            for o in orbits]
    types = [similarity_type(F3, r) for r in reps]
    assert len(set(types)) == 12
    # two matrices are similar iff they share an orbit
    for i, o in enumerate(orbits):
        for k in o:
            A = np.array(k, dtype=np.int64).reshape(2, 2)
            assert similarity_type(F3, A) == types[i]


# ---------------------------------------------------------------------------
# canonical forms


def test_jordan_form_round_trips():
    bad = 0
    for _ in range(50):
        A = random_matrix(F3, 4, RNG)
        st = similarity_type(F3, A)
        J = jordan_form(F3, st)  # verifies similarity_type(J) == st itself
        if similarity_type(F3, J) != st:
            bad += 1
    assert bad == 0


def test_jordan_block_layout():
    # r-fold block: companions on the diagonal, identities below
    f = (1, 1)  # t + 1 over F_3
    st = similarity_type(F3, np.array([[2, 0], [1, 2]], dtype=np.int64))
    J = jordan_form(F3, st)
    assert np.array_equal(J, np.array([[2, 0], [1, 2]]))
    # partition [1,1] gives the scalar matrix instead
    st2 = similarity_type(F3, np.array([[2, 0], [0, 2]], dtype=np.int64))
    assert np.array_equal(jordan_form(F3, st2), np.array([[2, 0], [0, 2]]))
    del f


def test_companion_requires_monic():
    with pytest.raises(SizeMismatch):
        companion(F3, (1, 2))  # leading coefficient 2
    with pytest.raises(SizeMismatch):
        companion(F3, (1,))


# ---------------------------------------------------------------------------
# centralizers


def test_centralizer_orders_for_the_four_2x2_shapes():
    # scalar, nonsemisimple, split semisimple, irreducible
    q = 3
    cases = [
        (np.array([[1, 0], [0, 1]]), 4, 48),          # |GL_2(F_3)|
        (np.array([[1, 1], [0, 1]]), 2, 6),           # q(q-1)
        (np.array([[1, 0], [0, 2]]), 2, 4),           # (q-1)^2
        (np.array([[0, 2], [1, 0]]), 2, 8),           # q^2 - 1
    ]
    for A, want_dim, want_units in cases:
        dim, units = centralizer(F3, A.astype(np.int64))
        assert (dim, units) == (want_dim, want_units)
    del q


def test_centralizer_of_full_nilpotent_block():
    # regular nilpotent: commutant is F_q[A], dimension n
    A = np.zeros((3, 3), dtype=np.int64)
    A[1, 0] = A[2, 1] = 1
    dim, units = centralizer(F3, A)
    assert dim == 3
    assert units == 2 * 9  # (q-1) q^(n-1)


def _units_by_enumeration(ctx, A):
    """(dimension, unit count) of the commutant of A, its units counted
    by enumerating all q^dim members from a kernel basis of
    X -> AX - XA: the reference for centralizer's closed form while
    q^dim <= 2^20."""
    n = A.shape[0]
    eye = np.eye(n, dtype=np.int64)
    basis = fq_nullspace(ctx, ctx.sub(np.kron(A, eye), np.kron(eye, A.T)))
    dim = len(basis)
    total = ctx.q ** dim
    assert total <= 1 << 20
    B = np.stack(basis).reshape(dim, n, n)
    units = 0
    chunk = 1 << 14
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total))
        X = np.zeros((len(idx), n, n), dtype=np.int64)
        rem = idx.copy()
        for b in range(dim):
            c = rem % ctx.q
            rem //= ctx.q
            X = ctx.add(X, ctx.mul(c[:, None, None], B[b][None]))
        units += int(np.count_nonzero(mat_det(ctx, X)))
    return dim, units


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)])
def test_centralizer_units_equal_the_enumeration(p, k):
    # random matrices, scalars and a I + E_21 up to n = 4, wherever the
    # q^dim members can be enumerated
    F = make_field(p, k)
    rng = np.random.default_rng(20070714 + F.q)
    mats = [random_matrix(F, n, rng) for n in (1, 2, 3, 4) for _ in range(5)]
    for n in (2, 3, 4):
        a = int(rng.integers(1, F.q))
        scalar = a * np.eye(n, dtype=np.int64)
        mats += [scalar, scalar + np.eye(n, k=-1, dtype=np.int64)]
    checked = 0
    for A in mats:
        dim, units = centralizer(F, A)
        if F.q ** dim <= 1 << 20:
            assert (dim, units) == _units_by_enumeration(F, A)
            checked += 1
    assert checked >= 20


def test_centralizer_units_in_closed_form_beyond_enumeration():
    # 2I + E_21 at q = 5: lambda = (2, 1) gives 5^3 (5 - 1)^2; the scalar
    # 3 x 3 at q = 7 and 2I at n = 5, q = 5 are all of GL_n, far past the
    # 2^20 members an enumeration could count
    A = 2 * np.eye(3, dtype=np.int64)
    A[1, 0] = 1
    assert centralizer(F5, A) == (5, 2000)
    assert centralizer(F7, 3 * np.eye(3, dtype=np.int64)) == (9, 33784128)
    gl5 = math.prod(5 ** 5 - 5 ** i for i in range(5))
    assert centralizer(F5, 2 * np.eye(5, dtype=np.int64)) == (25, gl5)


def test_centralizer_dimension_gate_fires_on_a_short_kernel(monkeypatch):
    # the commutant of I_2 has dimension 4; a kernel basis one short
    # must not pass
    real = simclass.fq_nullspace
    monkeypatch.setattr(simclass, "fq_nullspace",
                        lambda ctx, M: real(ctx, M)[1:])
    with pytest.raises(VerificationFailed, match="commutant dimension"):
        centralizer(F3, np.eye(2, dtype=np.int64))


# ---------------------------------------------------------------------------
# counting


def test_irreducible_monic_counts_match_enumeration():
    for F, d in ((F2, 1), (F2, 2), (F2, 3), (F3, 1), (F3, 2), (F3, 3)):
        assert count_irreducible_monics(F.q, d) == len(poly.irreducibles(F, d))
    assert count_irreducible_monics(2, 2) == 1
    assert count_irreducible_monics(3, 3) == 8
    assert count_irreducible_monics(5, 2) == 10


def test_similarity_class_counts():
    assert count_similarity_classes(2, 2) == 6
    assert count_similarity_classes(3, 2) == 12  # q^2 + q
    assert count_similarity_classes(5, 2) == 30
    assert count_similarity_classes(2, 3) == 14


def _class_count_one_irreducible_at_a_time(q, n):
    """The generating function multiplied out one irreducible at a
    time, as the count was first written."""
    p = [1] + [0] * n
    for part in range(1, n + 1):
        for m in range(part, n + 1):
            p[m] += p[m - part]
    series = [1] + [0] * n
    for d in range(1, n + 1):
        block = [p[m // d] if m % d == 0 else 0 for m in range(n + 1)]
        for _ in range(count_irreducible_monics(q, d)):
            series = [sum(series[a] * block[m - a] for a in range(m + 1))
                      for m in range(n + 1)]
    return series[n]


def test_similarity_class_counts_match_the_per_irreducible_product():
    for q in (2, 3, 4, 5, 7, 9):
        for n in (1, 2, 3, 4):
            assert count_similarity_classes(q, n) == \
                _class_count_one_irreducible_at_a_time(q, n)


def test_similarity_class_count_at_a_large_prime_is_fast():
    q = 1000003
    t0 = time.perf_counter()
    assert count_similarity_classes(q, 2) == q * q + q
    assert time.perf_counter() - t0 < 1.0


def test_similarity_class_count_at_a_large_degree_is_fast():
    # each power of P(x^d) has n/d + 1 nonzero terms and must be the
    # zero-skipping operand of the product; with the dense series there
    # this count took about 2 s on a 2-core VM
    t0 = time.perf_counter()
    assert count_similarity_classes(3, 100) == \
        920109848551465258448968976413316470536046640778
    assert time.perf_counter() - t0 < 1.0


def test_m3_f2_class_count_against_brute_types():
    types = set()
    for flat in itertools.product(range(2), repeat=9):
        A = np.array(flat, dtype=np.int64).reshape(3, 3)
        types.add(similarity_type(F2, A))
    assert len(types) == count_similarity_classes(2, 3) == 14


def test_cuspidal_count_identity_triples():
    assert cuspidal_count_identity(3, 2) == (3, 3, True)
    assert cuspidal_count_identity(2, 3) == (2, 2, True)
    assert cuspidal_count_identity(2, 2) == (1, 1, True)
    assert cuspidal_count_identity(5, 2) == (10, 10, True)
    # n = 1: no primitivity condition to impose, counts differ by design
    assert cuspidal_count_identity(3, 1) == (2, 3, False)


# ---------------------------------------------------------------------------
# Hensel lifting


def _check_lift(ctx, f, r):
    root = hensel_lift(ctx, f, r)
    fr = f
    for _ in range(r - 1):
        fr = poly.mul(ctx, fr, f)
    assert not poly.mod(ctx, poly.compose(ctx, f, root), fr)
    assert not poly.mod(ctx, poly.sub(ctx, root, (0, 1)), f)
    return root


def test_hensel_lift_cases():
    # x = t stays a simple root of t^2+1 through the tower F_3[t]/(f^r)
    assert _check_lift(F3, (1, 0, 1), 2) == (0, 0, 0, 2)
    assert _check_lift(F3, (1, 0, 1), 3) == (0, 0, 0, 2)  # already exact
    assert _check_lift(F2, (1, 1, 1), 2) == (1, 0, 1)
    _check_lift(F2, (1, 1, 1), 3)
    _check_lift(F2, (1, 1, 0, 1), 2)
    _check_lift(F2, (1, 1, 0, 1), 3)
    _check_lift(F5, (2, 1, 1), 4)


def test_hensel_lift_r1_is_the_tautological_root():
    assert hensel_lift(F3, (1, 0, 1), 1) == (0, 1)


def test_hensel_rejects_inseparable_input():
    with pytest.raises(DerivativeVanishes):
        hensel_lift(F2, (1, 0, 1), 2)  # t^2 + 1 = (t+1)^2 over F_2
    with pytest.raises(DerivativeVanishes):
        hensel_lift(F3, (1, 0, 0, 1), 2)  # t^3 + 1 = (t+1)^3 over F_3
    with pytest.raises(SizeMismatch):
        hensel_lift(F3, (1,), 2)
    with pytest.raises(SizeMismatch):
        hensel_lift(F3, (1, 0, 1), 0)
