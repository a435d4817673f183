"""Field contexts, characters, and the additive Fourier transform.

Frozen constants in this file were computed by hand or by direct
enumeration independent of the library code.
"""

import numpy as np
import pytest

from qrep import (
    AddChar,
    FieldCtx,
    MultChar,
    NormOneChar,
    NonPrime,
    SizeExceeded,
    SizeMismatch,
    Singular,
    VerificationFailed,
    dual_pairing,
    fourier_transform,
    is_primitive,
    make_ext,
    make_field,
    make_group,
)
from qrep import poly
from qrep.ff import MAX_TABLE_Q, prime_power

RNG = np.random.default_rng(20070714)


# ---------------------------------------------------------------------------
# prime fields


def test_prime_field_arithmetic_tables():
    F = make_field(7)
    assert F.q == 7 and F.p == 7 and F.deg == 1
    assert F.modulus is None
    # field axioms spot-checked exhaustively: a*inv(a) = 1, a^7 = a
    for a in range(1, 7):
        assert F.mul(a, F.inv(a)) == 1
    for a in range(7):
        assert F.pow(a, 7) == a
    # additive/multiplicative structure against plain modular arithmetic
    a = RNG.integers(0, 7, size=50)
    b = RNG.integers(0, 7, size=50)
    assert np.array_equal(F.add(a, b), (a + b) % 7)
    assert np.array_equal(F.mul(a, b), (a * b) % 7)
    assert np.array_equal(F.neg(a), (-a) % 7)


def test_generator_is_smallest_primitive_root():
    # 2 generates F_3^*, F_5^*, F_11^*; 3 generates F_7^*
    assert make_field(3).gen == 2
    assert make_field(5).gen == 2
    assert make_field(7).gen == 3
    assert make_field(11).gen == 2


def test_exp_log_are_inverse_bijections():
    F = make_field(13)
    units = np.arange(1, 13)
    assert sorted(F.exp) == list(range(1, 13))
    for u in units:
        assert F.exp[F.log[u]] == u


def test_nonprime_characteristic_rejected():
    with pytest.raises(NonPrime):
        make_field(6)
    with pytest.raises(NonPrime):
        FieldCtx(p=1)


def test_square_unit_detection_matches_euler_criterion():
    for p in (3, 5, 7, 11):
        F = make_field(p)
        for x in range(1, p):
            assert F.is_square_unit(x) == (pow(x, (p - 1) // 2, p) == 1)


# ---------------------------------------------------------------------------
# extension fields


def test_f9_tables_frozen():
    F9 = make_field(3, 2)
    assert F9.q == 9 and F9.base.q == 3
    # lex-smallest monic irreducible quadratic over F_3 is t^2 + 1
    assert F9.modulus == (1, 0, 1)
    # index a + 3b <-> a + bt; the first element of multiplicative
    # order 8 under that encoding is 1 + t, at index 4
    assert F9.gen == 4
    # Tr(a + bt) = (a + bt) + (a + bt)^3 = 2a  since t^3 = -t
    assert list(F9.trace_to_prime) == [0, 2, 1, 0, 2, 1, 0, 2, 1]


def test_f9_multiplication_against_polynomial_arithmetic():
    F9 = make_field(3, 2)
    # (a+bt)(c+dt) = (ac - bd) + (ad + bc)t  with t^2 = -1
    for x in range(9):
        for y in range(9):
            a, b = x % 3, x // 3
            c, d = y % 3, y // 3
            re = (a * c - b * d) % 3
            im = (a * d + b * c) % 3
            assert F9.mul(x, y) == re + 3 * im


# (p, k) of every extension field the Zech-table oracle runs over
ZECH_FIELDS = [(2, 2), (2, 3), (2, 4), (3, 2), (5, 2), (3, 3), (7, 2),
               (3, 4), (5, 3), (17, 2), (19, 2)]


def _digitwise(p, k, x, y, sign):
    """x + sign * y in F_{p^k} by base-p digits, index = sum d_i p^i:
    the reference the Zech tables must reproduce."""
    places = p ** np.arange(k)
    dx = (np.asarray(x)[..., None] // places) % p
    dy = (np.asarray(y)[..., None] // places) % p
    return ((dx + sign * dy) % p) @ places


@pytest.mark.parametrize("p,k", ZECH_FIELDS)
def test_extension_add_neg_sub_match_digitwise_arithmetic(p, k):
    F = make_field(p, k)
    x, y = np.divmod(np.arange(F.q * F.q), F.q)  # all q^2 pairs
    assert np.array_equal(F.add(x, y), _digitwise(p, k, x, y, 1))
    assert np.array_equal(F.sub(x, y), _digitwise(p, k, x, y, -1))
    xs = np.arange(F.q)
    assert np.array_equal(F.neg(xs), _digitwise(p, k, 0, xs, -1))
    assert np.all(F.add(xs, F.neg(xs)) == 0)
    assert F.zech.shape == (F.q - 1,) and F.neg_table.shape == (F.q,)


def test_extension_arithmetic_reads_only_its_own_tables(monkeypatch):
    # after construction, add/neg/sub/mul are lookups: in add_table,
    # mul_table and neg_table up to MAX_TABLE_Q, in zech, exp, log and
    # neg_table above it.  No base-field arithmetic, and the digit
    # expansion that built them is not kept
    def refuse(*args):
        raise AssertionError("base-field arithmetic called")

    for p, k in [(2, 3), (3, 2), (5, 2), (3, 4), (17, 2)]:
        F = make_field(p, k)
        x, y = np.divmod(np.arange(F.q * F.q), F.q)
        prods = F.mul(x, y)
        monkeypatch.setattr(F.base, "add", refuse)
        monkeypatch.setattr(F.base, "neg", refuse)
        monkeypatch.setattr(F.base, "mul", refuse)
        if F.q <= MAX_TABLE_Q:
            for name in ("zech", "exp", "log"):
                monkeypatch.setattr(F, name, None)
        else:
            assert F.add_table is None and F.mul_table is None
        assert not hasattr(F, "digits")
        assert np.array_equal(F.add(x, y), _digitwise(p, k, x, y, 1))
        assert np.array_equal(F.sub(x, y), _digitwise(p, k, x, y, -1))
        assert np.array_equal(F.mul(x, y), prods)
        assert F.neg(1) == _digitwise(p, k, 0, 1, -1)
        assert F.add(1, 1) == _digitwise(p, k, 1, 1, 1)


# every field of ZECH_FIELDS that holds Cayley tables, and the primes 3-19
TABLE_FIELDS = ([(p, k) for p, k in ZECH_FIELDS if p ** k <= MAX_TABLE_Q]
                + [(p, 1) for p in (3, 5, 7, 11, 13, 17, 19)])


@pytest.mark.parametrize("p,k", TABLE_FIELDS)
def test_cayley_tables_equal_the_routines_they_replace(p, k, monkeypatch):
    F = make_field(p, k)
    q = F.q
    x, y = np.divmod(np.arange(q * q), q)  # all q^2 pairs
    tables = F.add_table, F.mul_table
    for t in tables + (F.neg_table,):
        assert t.dtype == np.int64
    assert tables[0].shape == tables[1].shape == (q * q,)
    for got in (F.add(x, y), F.sub(x, y), F.mul(x, y), F.neg(x),
                F.add(2, 1), F.mul(2, 1), F.neg(1)):
        assert got.dtype == np.int64
    # without the tables, add and mul run Zech/exp-log or mod p again
    monkeypatch.setattr(F, "add_table", None)
    monkeypatch.setattr(F, "mul_table", None)
    assert np.array_equal(tables[0], F.add(x, y))
    assert np.array_equal(tables[1], F.mul(x, y))
    if k == 1:
        assert np.array_equal(tables[0], (x + y) % p)
        assert np.array_equal(tables[1], (x * y) % p)
        assert np.array_equal(F.neg_table, -np.arange(p) % p)
    else:
        assert np.array_equal(tables[0], _digitwise(p, k, x, y, 1))


@pytest.mark.parametrize("p", [17, 19])
def test_fields_above_the_table_bound_keep_zech(p):
    # F_289 and F_361 add by Zech logarithms; their base fields hold tables
    F = make_field(p, 2)
    assert F.q > MAX_TABLE_Q
    assert F.add_table is None and F.mul_table is None
    assert F.base.add_table is not None
    x, y = np.divmod(np.arange(F.q * F.q), F.q)
    got = F.add(x, y)
    assert got.dtype == np.int64
    assert np.array_equal(got, _digitwise(p, 2, x, y, 1))
    assert np.array_equal(F.sub(x, y), _digitwise(p, 2, x, y, -1))


def test_a_prime_field_above_the_table_bound_works_mod_p():
    F = make_field(257)
    assert F.add_table is None and F.mul_table is None
    x = RNG.integers(0, 257, size=500)
    y = RNG.integers(0, 257, size=500)
    assert np.array_equal(F.add(x, y), (x + y) % 257)
    assert np.array_equal(F.mul(x, y), (x * y) % 257)
    assert np.array_equal(F.sub(x, y), (x - y) % 257)


def test_a_corrupted_zech_entry_fails_the_add_table_gate(monkeypatch):
    # zech[5] of F_9 serves the 8 pairs of units with log y - log x = 5;
    # the gate compares every pair with digit-wise addition over F_3
    fill = FieldCtx._fill_tables

    def corrupt_then_fill(self):
        if self.zech is not None:
            self.zech[5] = (self.zech[5] + 1) % (self.q - 1)
        fill(self)

    monkeypatch.setattr(FieldCtx, "_fill_tables", corrupt_then_fill)
    with pytest.raises(VerificationFailed,
                       match="digit-wise addition on 8 pairs"):
        make_field(3, 2)


@pytest.mark.parametrize("q", [2, 3, 5, 7, 9, 25, 27, 49])
def test_scalar_ops_match_the_array_methods(q):
    # poly and simclass loop over FieldCtx.scalar; every other caller
    # uses the array methods.  The two paths must agree on every pair.
    F = make_field(*prime_power(q))
    s = F.scalar
    for x in range(q):
        got = [s.neg(x)] + ([s.inv(x)] if x else [])
        want = [int(F.neg(x))] + ([int(F.inv(x))] if x else [])
        for y in range(q):
            got += [s.add(x, y), s.sub(x, y), s.mul(x, y)]
            want += [int(F.add(x, y)), int(F.sub(x, y)), int(F.mul(x, y))]
        assert got == want
        assert all(type(v) is int for v in got)
    with pytest.raises(Singular):
        s.inv(0)


def test_norm_fibres_list_each_fibre_in_ascending_order():
    for p, k in [(3, 1), (5, 1), (3, 2)]:
        E = make_ext(make_field(p, k))
        fibres = E.norm_fibres
        assert fibres.shape == (E.q - 1, E.q + 1)
        for u, row in enumerate(fibres, start=1):
            assert list(row) == list(np.flatnonzero(np.asarray(E.norm) == u))


def test_frobenius_fixes_exactly_the_base_field():
    E = make_ext(make_field(3))
    fixed = np.flatnonzero(np.asarray(E.frob) == np.arange(E.ext.q))
    assert list(fixed) == [0, 1, 2]
    E5 = make_ext(make_field(5))
    fixed5 = np.flatnonzero(np.asarray(E5.frob) == np.arange(25))
    assert len(fixed5) == 5
    assert list(fixed5) == list(range(5))


def test_frobenius_is_an_involution_and_field_automorphism():
    E = make_ext(make_field(7))
    ext = E.ext
    xs = np.arange(ext.q)
    assert np.array_equal(E.frob[E.frob[xs]], xs)
    a = RNG.integers(0, ext.q, size=200)
    b = RNG.integers(0, ext.q, size=200)
    assert np.array_equal(E.frob[ext.mul(a, b)], ext.mul(E.frob[a], E.frob[b]))
    assert np.array_equal(E.frob[ext.add(a, b)], ext.add(E.frob[a], E.frob[b]))


def test_norm_fibers_have_size_q_plus_one():
    for p in (3, 5, 7):
        E = make_ext(make_field(p))
        counts = np.bincount(np.asarray(E.norm), minlength=p)
        assert counts[0] == 1  # only 0 has norm 0
        assert all(counts[u] == p + 1 for u in range(1, p))


def test_trace_fibers_have_size_q():
    E = make_ext(make_field(5))
    counts = np.bincount(np.asarray(E.trace), minlength=5)
    assert all(c == 5 for c in counts)


def test_norm_one_subgroup_is_cyclic_of_order_q_plus_one():
    E = make_ext(make_field(7))
    assert len(E.norm_one) == 8
    g = int(E.norm_one[1])  # a generator found at construction
    ext = E.ext
    orbit = {1}
    z = g
    while z != 1:
        orbit.add(z)
        z = int(ext.mul(z, g))
    assert orbit == set(int(t) for t in E.norm_one)


def test_eps_is_a_nonsquare_unit():
    assert make_field(3).eps == 2
    assert make_field(5).eps == 2
    assert make_field(7).eps == 3  # squares mod 7: {1,2,4}


def test_prime_power_parser():
    assert prime_power(4) == (2, 2)
    assert prime_power(9) == (3, 2)
    assert prime_power(49) == (7, 2)
    for q in (1, 6, 12):
        with pytest.raises(NonPrime):
            prime_power(q)


def test_one_nonsquare_serves_field_extension_and_groups():
    for q in (3, 5, 7, 9):
        F = make_field(*prime_power(q))
        assert F.eps == make_ext(F).base.eps == \
            make_group("sl2", F).eps_of_field()
        assert not F.is_square_unit(F.eps)
        assert all(F.is_square_unit(a) for a in range(1, F.eps))


def _exp_by_steps(F):
    """Reference: the indices of g^0 .. g^(q-2), one polynomial product
    over the base at a time, reduced mod the modulus."""
    base, places = F.base, F.base.q ** np.arange(F.deg)
    g = poly.trim(int(d) for d in (F.gen // places) % base.q)
    cur, out = (1,), []
    for _ in range(F.q - 1):
        out.append(sum(int(c) * int(places[j]) for j, c in enumerate(cur)))
        cur = poly.mod(base, poly.mul(base, cur, g), F.modulus)
    return np.array(out)


@pytest.mark.parametrize("p,k", ZECH_FIELDS + [(3, 8)])
def test_exp_table_equals_the_stepwise_powers(p, k):
    F = make_field(p, k)
    assert np.array_equal(F.exp, _exp_by_steps(F))


def test_extension_of_extension_exp_equals_the_stepwise_powers():
    # F_81 over F_9: the doubling runs in base-field arithmetic
    F = make_ext(make_field(3, 2)).ext
    assert (F.q, F.base.q) == (81, 9)
    assert np.array_equal(F.exp, _exp_by_steps(F))


def test_extension_of_extension_f81():
    E = make_ext(make_field(3, 2))
    assert E.ext.q == 81
    counts = np.bincount(np.asarray(E.norm), minlength=9)
    assert counts[0] == 1 and all(counts[u] == 10 for u in range(1, 9))


def test_field_size_cap():
    with pytest.raises(SizeExceeded):
        make_field(2, 21)


# ---------------------------------------------------------------------------
# characters


def test_additive_character_orthogonality():
    F = make_field(9 // 3, 2)
    psi = AddChar(F)
    assert abs(np.sum(psi.values)) < 1e-12
    # shifted characters: psi_s(x) = psi(sx), pairwise orthogonal
    for s in range(F.q):
        ps = AddChar(F, shift=s)
        ip = np.vdot(psi.values, ps.values)
        assert abs(ip - (F.q if s == 1 else 0)) < 1e-10


def test_additive_character_is_a_homomorphism():
    F = make_field(5)
    psi = AddChar(F, shift=2)
    for x in range(5):
        for y in range(5):
            assert abs(psi(F.add(x, y)) - psi(x) * psi(y)) < 1e-12


def test_quadratic_multiplicative_character_is_legendre_symbol():
    F = make_field(5)
    chi = MultChar(F, 2)  # (q-1)/2 = 2
    assert chi.is_quadratic
    assert np.allclose(chi.values[[1, 2, 3, 4]], [1, -1, -1, 1])
    assert chi.values[0] == 0


def test_mult_characters_multiplicative_and_orthogonal():
    F = make_field(7)
    for j in range(6):
        chi = MultChar(F, j)
        for x in range(1, 7):
            for y in range(1, 7):
                assert abs(chi(F.mul(x, y)) - chi(x) * chi(y)) < 1e-12
        s = np.sum(chi.values[1:])
        assert abs(s - (6 if j == 0 else 0)) < 1e-10
    assert MultChar(F, 3).is_quadratic


def test_norm_one_characters():
    E = make_ext(make_field(5))
    chi = NormOneChar(E, 1)
    vals = chi.values[np.asarray(E.norm_one)]
    # restricted to the norm-one circle these are the full character group
    assert abs(np.sum(vals)) < 1e-10
    assert NormOneChar(E, 0).is_trivial
    quad = NormOneChar(E, 3)  # (q+1)/2 = 3
    v = quad.values[np.asarray(E.norm_one)]
    assert np.allclose(np.abs(v), 1) and np.allclose(v.imag, 0)


def test_primitivity_means_not_factoring_through_norm():
    E = make_ext(make_field(3))
    ext = E.ext
    for j in range(1, 8):
        chi = MultChar(ext, j)
        factors = (j % 4 == 0)  # chi = mu o N iff (q+1) | j
        assert is_primitive(chi) == (not factors)
    assert not is_primitive(MultChar(ext, 0))


# ---------------------------------------------------------------------------
# Fourier transform and duality


def _direct_dft(f, orders):
    # independent O(n^2) evaluation, little-endian mixed radix
    n = int(np.prod(orders))
    out = np.zeros(n, dtype=complex)
    for e in range(n):
        acc = 0j
        for x in range(n):
            ph = 0.0
            ee, xx = e, x
            for o in orders:
                ph += (ee % o) * (xx % o) / o
                ee //= o
                xx //= o
            acc += f[x] * np.exp(-2j * np.pi * ph)
        out[e] = acc
    return out


def test_fourier_transform_matches_direct_sum():
    orders = (3, 4)
    f = RNG.standard_normal(12) + 1j * RNG.standard_normal(12)
    got = fourier_transform(f, orders)
    assert np.max(np.abs(got - _direct_dft(f, orders))) < 1e-10


def test_fourier_transform_of_delta_is_flat():
    delta = np.zeros(15)
    delta[0] = 1.0
    assert np.allclose(fourier_transform(delta, (3, 5)), 1.0)


def test_fourier_transform_input_validation():
    with pytest.raises(SizeMismatch):
        fourier_transform(np.zeros(5), (3, 4))
    with pytest.raises(SizeExceeded):
        fourier_transform(np.zeros(1 << 17), (1 << 17,))


def test_trace_pairing_is_nondegenerate():
    E = make_ext(make_field(3))
    n = E.ext.q
    P = np.array([dual_pairing(E, x).values for x in range(n)])
    # distinct elements give distinct (in fact orthogonal) characters
    G = P @ P.conj().T
    assert np.max(np.abs(G - n * np.eye(n))) < 1e-9
