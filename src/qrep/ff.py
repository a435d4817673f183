"""Finite fields with explicit tables, and their characters.

Elements of F_{p^k} are integer indices 0..q-1.  For an extension field
the index is the little-endian digit expansion over the base field, so
the base field embeds as the indices 0..base.q-1 and the prime subfield
always occupies 0..p-1.  All arithmetic is table driven and vectorized
over numpy integer arrays (FieldCtx.scalar reads the same tables as
Python lists, for one index at a time).

A field with q <= MAX_TABLE_Q = 2^8 holds its whole addition and
multiplication as two flat q x q Cayley tables, so x + y is
add_table[x * q + y], one gather, and x * y likewise.  Both tables are
filled once at construction by the routines below, and an extension's
add table is checked on every pair against digit-wise addition over the
base.  The bound keeps both tables within 1 MB and gives them to every
base field up to F_256 (F_49 included) and to F_{q^2} up to q = 16.
F_{q^2} for q >= 17 (F_289 and up) keeps the routines, which cost no
q^2 memory: a bound of 2^12, tabling F_289 and F_361, raised the peak
memory of the sl2 q = 17, 19 builds by about 2 MB.

Fields above the bound keep the routines.  A prime field adds and
multiplies mod p.  An extension multiplies through the exp/log tables
and adds through the Zech logarithm table zech[n] = log(1 + g^n)
(Lidl-Niederreiter, Finite Fields, 10.1), so x + y =
g^(log x + zech[log y - log x]) costs a few lookups and never touches
the digit expansion.  zech and the extension's neg_table are built once
from digit-wise arithmetic over the base.  A gather wraps a negative
index where mod p would reduce it, so every argument must be an index
in 0..q-1.

The modulus of an extension is the lexicographically smallest monic
irreducible of the right degree (coefficients compared low degree
first), and the stored generator is the smallest-index element of
multiplicative order q-1, so every table is deterministic.
"""

from collections import namedtuple
from functools import cached_property

import numpy as np

from . import poly
from .errors import (NonPrime, SizeExceeded, Singular, SizeMismatch,
                     VerificationFailed)

MAX_Q = 1 << 20
# fields up to this size add and multiply by one gather from a q x q
# Cayley table; larger ones keep Zech logarithms or reduction mod p
MAX_TABLE_Q = 1 << 8

ScalarOps = namedtuple("ScalarOps", "add sub mul neg inv")


def _factorize(n):
    """[(p, k), ...] with n = prod p^k, primes ascending; [] for n < 2."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            k = 0
            while n % d == 0:
                n //= d
                k += 1
            out.append((d, k))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def prime_power(q):
    """(p, k) with q = p^k for a prime p; NonPrime for any other q."""
    factors = _factorize(q)
    if len(factors) != 1:
        raise NonPrime(f"q = {q} is not a prime power")
    return factors[0]


class FieldCtx:
    """Tables for F_q, q = p^k, either a prime field or an extension of
    another FieldCtx by an irreducible monic modulus.

    Attributes: p, k (degree over the prime field), q, base (FieldCtx or
    None), deg (degree over base), modulus (coefficient tuple over the
    base, low degree first, monic; None for a prime field), gen, exp
    (length q-1), log (length q, log[0] = -1), inv_table (length q, junk
    at 0), trace_to_prime (length q, values < p), eps (computed on first
    use), and neg_table (length q), which serves neg.  When q <=
    MAX_TABLE_Q, add_table and mul_table (int64, length q * q, entry
    x * q + y holding x + y and x * y) serve add and mul; above the
    bound both are None.  An extension field also holds zech (length
    q-1, zech[n] = log(1 + g^n), -1 where 1 + g^n = 0), which serves add
    above the bound and fills add_table below it; a prime field holds
    None there and adds and multiplies mod p above the bound.  The digit
    expansion is used only to build the tables: a base-field element is
    its own index here.

    add, sub, mul, neg and inv take indices in 0..q-1, as ints or int
    arrays, and return int64 numpy values.  scalar (built on first use)
    holds the same five operations on one Python-int index at a time,
    returning Python ints; it serves the per-coefficient loops of poly
    and simclass, where a numpy call per scalar would cost more than the
    arithmetic.
    """

    def __init__(self, p=None, base=None, deg=None):
        if base is None:
            self._init_prime(p)
        else:
            self._init_ext(base, deg)
        self.inv_table = np.zeros(self.q, dtype=np.int64)
        idx = np.arange(self.q - 1)
        self.inv_table[self.exp] = self.exp[(self.q - 1 - idx) % (self.q - 1)]
        self._build_trace()

    def _init_prime(self, p):
        if _factorize(p) != [(p, 1)]:
            raise NonPrime(f"{p} is not prime")
        if p > MAX_Q:
            raise SizeExceeded(f"p = {p} exceeds {MAX_Q}")
        self.p = p
        self.k = 1
        self.q = p
        self.base = None
        self.deg = 1
        self.modulus = None
        self.zech = None
        gen = 1
        if p > 2:
            facs = [ell for ell, _ in _factorize(p - 1)]
            for g in range(2, p):
                if all(pow(g, (p - 1) // ell, p) != 1 for ell in facs):
                    gen = g
                    break
        self.gen = gen
        exp = np.ones(p - 1, dtype=np.int64)
        for i in range(1, p - 1):
            exp[i] = (exp[i - 1] * gen) % p
        self.exp = exp
        self.log = np.full(p, -1, dtype=np.int64)
        self.log[exp] = np.arange(p - 1)
        self.neg_table = -np.arange(p, dtype=np.int64) % p
        self._fill_tables()

    def _init_ext(self, base, deg):
        q = base.q ** deg
        if q > MAX_Q:
            raise SizeExceeded(f"q = {q} exceeds {MAX_Q}")
        self.p = base.p
        self.k = base.k * deg
        self.q = q
        self.base = base
        self.deg = deg
        self.modulus = poly.smallest_irreducible(base, deg)
        places = base.q ** np.arange(deg, dtype=np.int64)
        idx = np.arange(q, dtype=np.int64)
        digits = (idx[:, None] // places[None, :]) % base.q

        def tup(i):
            return poly.trim(int(d) for d in digits[i])

        # generator: smallest index of multiplicative order q-1
        facs = [ell for ell, _ in _factorize(q - 1)]
        gen = None
        for cand in range(1, q):
            if all(self._pow_tup(tup(cand), (q - 1) // ell) != (1,)
                   for ell in facs):
                gen = cand
                break
        if gen is None:  # q = 2 has trivial unit group
            gen = 1
        self.gen = gen
        # digit rows of g^0 .. g^(q-2), doubled each round: multiplying
        # by g^k is the deg x deg base-field matrix M, column j the
        # digits of g^k t^j, and it maps rows 0..k-1 to rows k..2k-1
        rows = np.zeros((q - 1, deg), dtype=np.int64)
        rows[0, 0] = 1
        k, gk = 1, tup(gen)
        while k < q - 1:
            M = np.zeros((deg, deg), dtype=np.int64)
            for j in range(deg):
                col = poly.mod(base, poly.mul(base, gk, (0,) * j + (1,)),
                               self.modulus)
                M[:len(col), j] = col
            block = rows[:min(k, q - 1 - k)]
            if base.base is None:
                # digits < p, so each sum of deg products fits int64
                rows[k:k + len(block)] = block @ M.T % base.p
            else:
                for i in range(deg):
                    acc = np.zeros(len(block), dtype=np.int64)
                    for j in range(deg):
                        acc = base.add(acc, base.mul(M[i, j], block[:, j]))
                    rows[k:k + len(block), i] = acc
            k, gk = 2 * k, poly.mod(base, poly.mul(base, gk, gk), self.modulus)
        exp = rows @ places
        self.exp = exp
        self.log = np.full(q, -1, dtype=np.int64)
        self.log[exp] = np.arange(q - 1)

        # the addition tables, from digit-wise arithmetic over the base
        self.zech = self.log[base.add(digits[1], digits[exp]) @ places]
        self.neg_table = base.neg(digits) @ places
        self._fill_tables()
        if self.add_table is not None:
            # every pair against digit-wise addition, which reads no zech
            pairs = base._add(digits[:, None], digits[None, :]) @ places
            bad = np.count_nonzero(pairs.ravel() != self.add_table)
            if bad:
                raise VerificationFailed(
                    f"add table differs from digit-wise addition on {bad} pairs")

    def _fill_tables(self):
        # the Cayley tables, from the routines _add and _mul; above
        # MAX_TABLE_Q they stay None and add and mul run the routines
        self.add_table = self.mul_table = None
        if self.q <= MAX_TABLE_Q:
            x, y = np.divmod(np.arange(self.q * self.q), self.q)
            self.add_table, self.mul_table = self._add(x, y), self._mul(x, y)

    def _pow_tup(self, tup, n):
        acc = (1,)
        while n:
            if n & 1:
                acc = poly.mod(self.base, poly.mul(self.base, acc, tup), self.modulus)
            tup = poly.mod(self.base, poly.mul(self.base, tup, tup), self.modulus)
            n >>= 1
        return acc

    def _build_trace(self):
        # absolute trace x + x^p + ... + x^(p^(k-1)); lands in the prime
        # subfield, whose elements are the indices 0..p-1
        q, p, k = self.q, self.p, self.k
        fp = np.zeros(q, dtype=np.int64)
        if q > 1:
            fp[self.exp] = self.exp[(np.arange(q - 1) * p) % (q - 1)]
        acc = np.arange(q, dtype=np.int64)
        cur = acc
        for _ in range(k - 1):
            cur = fp[cur]
            acc = self.add(acc, cur)
        if not (acc < p).all():
            raise VerificationFailed("trace left the prime subfield")
        self.trace_to_prime = acc

    # --- arithmetic on indices (ints or int arrays) ---

    def add(self, x, y):
        if self.add_table is not None:
            return self.add_table[np.asarray(x) * self.q + y]
        return self._add(x, y)

    def _add(self, x, y):
        # mod p, or by Zech logarithms in an extension
        x = np.asarray(x)
        y = np.asarray(y)
        if self.base is None:
            return (x + y) % self.p
        lx = self.log[x]
        z = self.zech[(self.log[y] - lx) % (self.q - 1)]
        out = np.where(z < 0, 0, self.exp[(lx + z) % (self.q - 1)])
        # [()] gives a scalar for scalar input, like the prime branch
        return np.where(x == 0, y, np.where(y == 0, x, out))[()]

    def neg(self, x):
        return self.neg_table[x]

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def mul(self, x, y):
        if self.mul_table is not None:
            return self.mul_table[np.asarray(x) * self.q + y]
        return self._mul(x, y)

    def _mul(self, x, y):
        # mod p, or through exp/log in an extension
        x = np.asarray(x)
        y = np.asarray(y)
        if self.base is None:
            return (x * y) % self.p
        lx = self.log[x]
        ly = self.log[y]
        out = self.exp[(lx + ly) % (self.q - 1)]
        return np.where((x == 0) | (y == 0), 0, out)

    def inv(self, x):
        x = np.asarray(x)
        if np.any(x == 0):
            raise Singular("zero is not invertible")
        return self.inv_table[x]

    @cached_property
    def scalar(self):
        """ScalarOps(add, sub, mul, neg, inv) on Python-int indices.

        Each operation reads this field's tables as Python lists, or
        works mod p in a prime field, and agrees with the array method
        of the same name; inv(0) raises Singular."""
        inv_table = self.inv_table.tolist()

        def inv(x):
            if x == 0:
                raise Singular("zero is not invertible")
            return inv_table[x]

        if self.base is None:
            p = self.p
            return ScalarOps(add=lambda x, y: (x + y) % p,
                             sub=lambda x, y: (x - y) % p,
                             mul=lambda x, y: (x * y) % p,
                             neg=lambda x: -x % p, inv=inv)
        exp = self.exp.tolist()
        log = self.log.tolist()
        zech = self.zech.tolist()
        neg_table = self.neg_table.tolist()
        n = self.q - 1

        def add(x, y):
            if x == 0:
                return y
            if y == 0:
                return x
            lx = log[x]
            z = zech[(log[y] - lx) % n]
            return 0 if z < 0 else exp[(lx + z) % n]

        def mul(x, y):
            if x == 0 or y == 0:
                return 0
            return exp[(log[x] + log[y]) % n]

        return ScalarOps(add=add, sub=lambda x, y: add(x, neg_table[y]),
                         mul=mul, neg=neg_table.__getitem__, inv=inv)

    def pow(self, x, n):
        """x^n for a scalar index x and integer n >= 0."""
        x = int(x)
        if x == 0:
            return 0 if n else 1
        return int(self.exp[(int(self.log[x]) * n) % (self.q - 1)])

    def is_square_unit(self, x):
        """Whether a nonzero element is a square."""
        if self.q % 2 == 0:
            return True
        return int(self.log[x]) % 2 == 0

    @cached_property
    def eps(self):
        """The smallest-index non-square unit; None for even q."""
        if self.q % 2 == 0:
            return None
        return next(a for a in range(2, self.q) if not self.is_square_unit(a))

    def __repr__(self):
        return f"FieldCtx(q={self.q}, p={self.p}, k={self.k})"


def make_field(p, k=1):
    """F_{p^k} with canonical modulus and generator; p^k <= 2^20."""
    prime = FieldCtx(p=p)
    if k == 1:
        return prime
    return FieldCtx(base=prime, deg=k)


class ExtCtx:
    """The quadratic extension F_{q^2} of a given F_q, with Frobenius,
    norm and trace tables.

    norm and trace land in the base subfield, so their tables store base
    indices (< q).  The norm fibres and psi, the field data behind the
    cuspidal modules and the Weil operators, are computed on first use;
    norm_one lists the norm-one subgroup as the powers of its generator
    norm_one[1].
    """

    def __init__(self, base):
        self.base = base
        self.q = base.q
        self.p = base.p
        ext = FieldCtx(base=base, deg=2)
        self.ext = ext
        Q = ext.q

        frob = np.zeros(Q, dtype=np.int64)
        frob[ext.exp] = ext.exp[(np.arange(Q - 1) * base.q) % (Q - 1)]
        self.frob = frob

        idx = np.arange(Q, dtype=np.int64)
        norm = ext.mul(idx, frob)
        trace = ext.add(idx, frob[idx])
        if not ((norm < base.q).all() and (trace < base.q).all()):
            raise VerificationFailed("norm/trace left the base subfield")
        self.norm = norm
        self.trace = trace

        # norm-one subgroup, cyclic of order q+1: powers of gen^(q-1)
        t = np.arange(base.q + 1, dtype=np.int64)
        self.norm_one = ext.exp[((base.q - 1) * t) % (Q - 1)]

    @cached_property
    def norm_fibres(self):
        """(q-1, q+1) indices: row u-1 lists the points of norm u in
        ascending order, so column 0 holds the smallest point over u."""
        order = np.argsort(self.norm, kind="stable")
        return order[1:].reshape(self.q - 1, self.q + 1)

    @cached_property
    def psi(self):
        """The canonical additive character of the base field."""
        return AddChar(self.base)

    def __repr__(self):
        return f"ExtCtx(q={self.q})"


def make_ext(base):
    return ExtCtx(base)


class AddChar:
    """Additive character psi_s(x) = zeta_p^(Tr(s x)) of F_q, where Tr
    is the absolute trace to F_p.  shift = 1 is the canonical psi."""

    def __init__(self, ctx, shift=1):
        self.ctx = ctx
        self.shift = int(shift) % ctx.q
        x = np.arange(ctx.q, dtype=np.int64)
        self.exponents = ctx.trace_to_prime[ctx.mul(self.shift, x)]
        self.values = np.exp(2j * np.pi * self.exponents / ctx.p)

    def __call__(self, x):
        return self.values[x]


class MultChar:
    """Multiplicative character chi_j(x) = zeta_(q-1)^(j log x) of F_q^*.

    values[0] is stored as 0; the character is undefined at zero."""

    def __init__(self, ctx, j):
        self.ctx = ctx
        self.j = int(j) % (ctx.q - 1)
        e = (self.j * ctx.log) % (ctx.q - 1)
        vals = np.exp(2j * np.pi * e / (ctx.q - 1))
        vals[0] = 0.0
        self.values = vals
        self.exponents = e

    def __call__(self, x):
        return self.values[x]

    @property
    def is_quadratic(self):
        """Nontrivial and equal to its own inverse (odd q only)."""
        return self.ctx.q % 2 == 1 and self.j == (self.ctx.q - 1) // 2

    def __eq__(self, other):
        return isinstance(other, MultChar) and other.ctx is self.ctx and other.j == self.j

    def __hash__(self):
        return hash((id(self.ctx), self.j))


def is_primitive(chi):
    """A character of F_{q^2}^* is primitive (not a norm pullback) iff
    it is nontrivial on the norm-one subgroup, i.e. (q+1) does not
    divide its exponent."""
    Q = chi.ctx.q
    q = round(Q ** 0.5)
    if q * q != Q:
        raise SizeMismatch("primitivity needs a quadratic extension field")
    return chi.j % (q + 1) != 0


class NormOneChar:
    """Character of the norm-one subgroup of F_{q^2}^*, cyclic of order
    q+1.  Index j is taken mod q+1; j = (q+1)/2 is the quadratic one."""

    def __init__(self, ectx, j):
        self.ectx = ectx
        q = ectx.q
        self.j = int(j) % (q + 1)
        vals = np.zeros(ectx.ext.q, dtype=complex)
        t = np.arange(q + 1)
        vals[ectx.norm_one] = np.exp(2j * np.pi * self.j * t / (q + 1))
        self.values = vals

    def __call__(self, z):
        return self.values[z]

    @property
    def is_trivial(self):
        return self.j == 0

    def conj(self):
        return NormOneChar(self.ectx, (-self.j) % (self.ectx.q + 1))


def fourier_transform(f, orders):
    """Fourier transform on a product of cyclic groups Z/n_1 x ... x Z/n_r
    indexed little-endian (first factor varies fastest):

        FT f(e) = sum_x f(x) conj(chi_e(x)),  chi_e(x) = prod zeta_(n_i)^(e_i x_i).

    Realized as a mixed-radix FFT; |G| <= 2^16.
    """
    f = np.asarray(f, dtype=complex)
    n = 1
    for o in orders:
        n *= int(o)
    if f.shape != (n,):
        raise SizeMismatch(f"expected length {n}, got {f.shape}")
    if n > 1 << 16:
        raise SizeExceeded(f"group order {n} exceeds 2^16")
    cube = f.reshape(tuple(int(o) for o in orders[::-1]))
    return np.fft.fftn(cube).ravel()


def dual_pairing(ectx, x):
    """The additive character y -> psi(tr(conj(x) y)) of F_{q^2} attached
    to x under the trace-form self-duality."""
    return AddChar(ectx.ext, shift=int(ectx.frob[x]))
