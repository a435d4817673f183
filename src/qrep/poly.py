"""Dense univariate polynomial arithmetic over a finite field context.

Polynomials are tuples of element indices (Python ints), low degree
first, with no trailing zeros (the zero polynomial is the empty tuple).
Coefficient arithmetic goes through ctx.scalar, the FieldCtx's add/sub/
mul/neg/inv on one Python-int index at a time; poly also reads ctx.p
and ctx.q.  Prime fields and extensions take the same path.
"""

import itertools

from .errors import NotIrreducible, Singular


def trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def deg(f):
    """Degree, with deg(0) = -1."""
    return len(f) - 1


def is_monic(f):
    return len(f) > 0 and f[-1] == 1


def add(ctx, f, g):
    plus = ctx.scalar.add
    n = max(len(f), len(g))
    out = []
    for i in range(n):
        a = f[i] if i < len(f) else 0
        b = g[i] if i < len(g) else 0
        out.append(plus(a, b))
    return trim(out)


def neg(ctx, f):
    negate = ctx.scalar.neg
    return tuple(negate(a) for a in f)


def sub(ctx, f, g):
    return add(ctx, f, neg(ctx, g))


def scale(ctx, s, f):
    if s == 0:
        return ()
    times = ctx.scalar.mul
    return trim(times(s, a) for a in f)


def mul(ctx, f, g):
    if not f or not g:
        return ()
    plus, times = ctx.scalar.add, ctx.scalar.mul
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == 0:
            continue
        for j, b in enumerate(g):
            out[i + j] = plus(out[i + j], times(a, b))
    return trim(out)


def divmod_poly(ctx, f, g):
    """Quotient and remainder; g must be nonzero."""
    if not g:
        raise Singular("division by zero polynomial")
    minus, times = ctx.scalar.sub, ctx.scalar.mul
    f = list(f)
    dg = deg(g)
    lead_inv = ctx.scalar.inv(g[-1])
    q = [0] * max(0, len(f) - dg)
    while len(f) > dg:
        if f[-1] == 0:
            f.pop()
            continue
        df = len(f) - 1
        c = times(f[-1], lead_inv)
        q[df - dg] = c
        for i in range(dg + 1):
            f[df - dg + i] = minus(f[df - dg + i], times(c, g[i]))
        f.pop()
    return trim(q), trim(f)


def mod(ctx, f, g):
    return divmod_poly(ctx, f, g)[1]


def monic(ctx, f):
    if not f:
        return ()
    return scale(ctx, ctx.scalar.inv(f[-1]), f)


def gcd(ctx, f, g):
    while g:
        f, g = g, mod(ctx, f, g)
    return monic(ctx, f)


def xgcd(ctx, f, g):
    """(d, u, v) with u f + v g = d = monic gcd(f, g)."""
    r0, r1 = trim(f), trim(g)
    u0, u1 = (1,), ()
    v0, v1 = (), (1,)
    while r1:
        q, r = divmod_poly(ctx, r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, sub(ctx, u0, mul(ctx, q, u1))
        v0, v1 = v1, sub(ctx, v0, mul(ctx, q, v1))
    if not r0:
        return (), u0, v0
    lead = ctx.scalar.inv(r0[-1])
    return monic(ctx, r0), scale(ctx, lead, u0), scale(ctx, lead, v0)


def inverse_mod(ctx, a, f):
    """Inverse of a modulo f; Singular if gcd(a, f) != 1."""
    d, u, _ = xgcd(ctx, a, f)
    if d != (1,):
        raise Singular(f"not invertible modulo {f}: gcd {d}")
    return mod(ctx, u, f)


def compose(ctx, f, g):
    """f(g(t)) by Horner."""
    acc = ()
    for c in reversed(f):
        acc = add(ctx, mul(ctx, acc, g), (c,) if c else ())
    return acc


def derivative(ctx, f):
    # i * f_i: the integer i is the prime-subfield element i mod p, and
    # the prime subfield occupies the indices 0..p-1
    times, p = ctx.scalar.mul, ctx.p
    return trim(times(i % p, f[i]) for i in range(1, len(f)))


def monics(ctx, d):
    """All monic polynomials of degree d, in increasing lexicographic
    order of the coefficient tuple read low degree first."""
    for tail in itertools.product(range(ctx.q), repeat=d):
        yield tail + (1,)


def is_irreducible(ctx, f):
    """Trial division by every monic of degree <= deg(f)//2."""
    d = deg(f)
    if d <= 0:
        return False
    if d == 1:
        return True
    for e in range(1, d // 2 + 1):
        for g in monics(ctx, e):
            if not mod(ctx, f, g):
                return False
    return True


def irreducibles(ctx, d):
    """All monic irreducibles of degree d, lexicographic order."""
    return [f for f in monics(ctx, d) if is_irreducible(ctx, f)]


def smallest_irreducible(ctx, d):
    for f in monics(ctx, d):
        if is_irreducible(ctx, f):
            return f
    raise NotIrreducible(f"no irreducible monic of degree {d} over F_{ctx.q}")


def evaluate(ctx, f, x):
    """f(x) by Horner, for one field index x."""
    plus, times = ctx.scalar.add, ctx.scalar.mul
    acc = 0
    for c in reversed(f):
        acc = plus(times(acc, x), c)
    return acc


def factor(ctx, f):
    """Factor a nonzero polynomial into monic irreducibles.

    Returns (unit_index, [(g, multiplicity), ...]) with the factors
    sorted by (degree, coefficient tuple).  Linear factors t - r come
    from the roots r, found by evaluating f at every field element;
    then trial division in order of increasing degree from 2, so any
    monic that divides the remaining cofactor is automatically
    irreducible; intended for degree <= 8 over small fields.
    """
    if not f:
        raise Singular("cannot factor the zero polynomial")
    unit = f[-1]
    f = monic(ctx, f)
    found = {}
    for r in range(ctx.q):
        if deg(f) < 2:
            break
        if evaluate(ctx, f, r):
            continue
        g = (ctx.scalar.neg(r), 1)
        m = 0
        while True:
            q, rem = divmod_poly(ctx, f, g)
            if rem:
                break
            f = q
            m += 1
        found[g] = m
    d = 2
    while 2 * d <= deg(f):
        for g in monics(ctx, d):
            m = 0
            while deg(f) >= d:
                q, r = divmod_poly(ctx, f, g)
                if r:
                    break
                f = q
                m += 1
            if m:
                found[g] = m
            if deg(f) < 2 * d:
                break
        d += 1
    if deg(f) > 0:
        found[f] = found.get(f, 0) + 1
    factors = sorted(found.items(), key=lambda kv: (deg(kv[0]), kv[0]))
    return unit, factors
