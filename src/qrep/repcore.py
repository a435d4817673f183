"""Group views, class functions, matrix representations, induction.

A FiniteGroupView addresses group elements by integer indices 0..n-1
and exposes a vectorized multiplication callback; no n x n table is
ever materialized, so the same machinery serves cyclic toy groups and
GL2 over F_11 alike.
Each view certifies a generating set once, by a search that reaches
every element, and keeps the generators' right multiplication table;
conjugacy classes are the orbits of conjugation by those generators
alone, read from the table by gathers and stored as one class label
per element, and a subgroup embedding is checked on (element,
generator) pairs.  Induction reads only an embedding's class fusion
map, never group elements.
"""

import numpy as np

from .config import DEGREE_INTEGRAL, DIXON_PIVOT, SEED, gate, within_tol
from .errors import GroupMismatch, NonIntegral, NotInGroup, VerificationFailed

# random combinations Dixon's method tries before giving up
DIXON_TRIES = 8


class FiniteGroupView:
    """n, mul(a, b) vectorized over int arrays, inv array, identity,
    a greedily chosen certified generating set gens with its word length
    bound word_length and its right multiplication table right
    (generating_set), and the conjugacy classes: class_of, the class of
    each element, reps, one representative per class, and sizes.

    inv is checked against mul at every element.  Classes are flooded
    through the generators (flood_classes) and numbered in increasing
    order of their smallest member, their representative, which makes
    the ordering deterministic; relabel numbers them anew.
    """

    def __init__(self, n, mul, inv, identity=0):
        self.n = int(n)
        self.mul = mul
        self.identity = int(identity)
        self.inv = np.asarray(inv, dtype=np.int64)
        x = np.arange(self.n)
        bad = np.count_nonzero(mul(x, self.inv) != self.identity)
        if bad:
            raise VerificationFailed(f"{bad} elements times their inverse "
                                     "are not the identity")
        self.gens, self.word_length, self.right = generating_set(
            self.n, mul, self.identity)
        reps, class_of = np.unique(flood_classes(self.inv, self.right),
                                   return_inverse=True)
        self.relabel(class_of, reps)

    def relabel(self, class_of, reps):
        """Store class_of, the class index of every element, and reps,
        one representative per class, in class order, with the class
        sizes.  VerificationFailed unless each representative lies in
        its own class."""
        self.class_of = np.asarray(class_of, dtype=np.int64)
        self.reps = np.asarray(reps, dtype=np.int64)
        k = len(self.reps)
        escaped = np.flatnonzero(self.class_of[self.reps] != np.arange(k))
        if len(escaped):
            ci = int(escaped[0])
            raise VerificationFailed(f"representative {int(self.reps[ci])} "
                                     f"of class {ci} escaped its class")
        self.sizes = np.bincount(self.class_of, minlength=k)


def generating_set(n, mul, identity):
    """A generating set S of the group 0..n-1, chosen greedily and
    certified: a breadth-first search from the identity, multiplying on
    the right by S, reaches all n elements, and each time the search
    stalls the smallest unreached element joins S.  Each generator s
    takes one whole-group call mul(0..n-1, s), checked to be a
    permutation, and the search reads these rows by gathers alone, so
    every element meets every generator exactly once (n |S| products).
    Positive words in S reach every element, and in a finite group they
    are all of <S>, so the search also proves the set closed when mul
    refuses products outside it.

    Returns (S, L, R): S as an int64 array, L a bound on the length of
    the shortest positive word in S for every element, and R the
    (|S|, n) right multiplication table, R[j, x] = x S[j].  L counts
    the search rounds that reach a new element, plus one for each
    generator: an element first reached by a round or by a new
    generator is one letter longer than the reached element it came
    from."""
    x = np.arange(n)

    def right(s):
        row = np.asarray(mul(x, s), dtype=np.int64)
        hit = np.zeros(n, dtype=bool)
        hit[row] = True
        if not hit.all():
            raise VerificationFailed(f"right multiplication by {s} is not "
                                     "a permutation")
        return row

    S, R, L = [], [], 0
    reached = np.zeros(n, dtype=bool)
    reached[identity] = True

    def step(rows, sources):
        """Mark the unreached images of sources under rows; return them."""
        fresh = np.zeros(n, dtype=bool)
        for row in rows:
            fresh[row[sources]] = True
        fresh &= ~reached
        reached[fresh] = True
        return np.flatnonzero(fresh)

    frontier = np.array([identity], dtype=np.int64)
    while True:
        while len(frontier) and S:
            frontier = step(R, frontier)
            L += bool(len(frontier))
        if reached.all():
            break
        s = int(np.argmin(reached))
        S.append(s)
        R.append(right(s))
        L += 1
        frontier = step(R[-1:], np.flatnonzero(reached))
    return (np.array(S, dtype=np.int64), L,
            np.array(R, dtype=np.int64).reshape(len(S), n))


def flood_classes(inv, right):
    """Conjugacy classes of a group given by its inverse array and the
    right multiplication table of a certified generating set
    (generating_set), as the smallest member of each element's class.

    The classes are the orbits of the |S| permutations
    x -> s^-1 x s = inv[R_s[inv[R_s[x]]]], read by gathers alone, since
    <S> is the whole group; these are the inverses of x -> s x s^-1,
    which have the same orbits.  Every element takes the smallest label
    of its images under the permutations, with pointer jumping, until no
    label moves.  A permutation's inverse is a power of it, so following
    images alone reaches the whole orbit."""
    conj = inv[np.take_along_axis(right, inv[right], axis=1)]
    label = np.arange(len(inv))
    while True:
        new = np.minimum(label, label[conj].min(axis=0, initial=len(inv)))
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


class MixedRadix:
    """Indices 0..n-1 of Z/n_1 x ... x Z/n_r, little-endian (the first
    factor varies fastest), and their digit vectors."""

    def __init__(self, orders):
        self.orders = np.array(orders, dtype=np.int64)
        self.places = np.cumprod(self.orders) // self.orders
        self.n = int(np.prod(self.orders))

    def digits(self, x):
        return (np.asarray(x)[..., None] // self.places) % self.orders

    def index(self, digs):
        """Index of a digit vector, each digit taken mod its order."""
        return (digs % self.orders) @ self.places


class ClassFunction:
    """A complex-valued function constant on conjugacy classes, stored
    by class index in the order of view.reps."""

    def __init__(self, view, values):
        values = np.asarray(values, dtype=complex)
        if values.shape != (len(view.reps),):
            raise GroupMismatch("value count != class count")
        self.view = view
        self.values = values

    def _coerce(self, other):
        if isinstance(other, ClassFunction):
            if other.view is not self.view:
                raise GroupMismatch("class functions live on different groups")
            return other.values
        return other

    def __add__(self, other):
        return ClassFunction(self.view, self.values + self._coerce(other))

    def __sub__(self, other):
        return ClassFunction(self.view, self.values - self._coerce(other))


def inner_product(f, g):
    """<f, g> = (1/|G|) sum over classes |C| f(C) conj(g(C))."""
    if f.view is not g.view:
        raise GroupMismatch("inner product across different groups")
    v = f.view
    return complex(np.sum(v.sizes * f.values * np.conj(g.values)) / v.n)


def hom_dim(f, g):
    """<f, g> rounded to a nonnegative integer; NonIntegral if it is not
    one within tolerance, which would mean f or g is not a genuine
    character."""
    val = inner_product(f, g)
    r = np.round(val.real)
    what = f"inner product {val} is not a nonnegative integer"
    gate(abs(val - r), what, NonIntegral)
    if r < 0:
        raise NonIntegral(what)
    return int(r)


class SubgroupEmbedding:
    """An injection H -> G verified to be a group homomorphism:
    phi(e) = e, and phi(h s) = phi(h) phi(s) for every h in H and every
    s in H's certified generators.  By induction on the length of a
    positive word in those generators (the empty word being e) this
    gives phi(g h) = phi(g) phi(h) for every pair.  The products h s
    are read from H's right multiplication table.  fusion[c] is the
    G-class of the H-class c."""

    def __init__(self, sub, big, injection):
        injection = np.asarray(injection, dtype=np.int64)
        if injection.shape != (sub.n,):
            raise GroupMismatch("injection length != |H|")
        if len(np.unique(injection)) != sub.n:
            raise NotInGroup("injection is not injective")
        self.sub = sub
        self.big = big
        self.injection = injection
        if injection[sub.identity] != big.identity:
            raise NotInGroup("injection does not fix the identity")
        lhs = injection[sub.right.T]
        rhs = big.mul(injection[:, None], injection[sub.gens][None, :])
        if not np.array_equal(lhs, rhs):
            raise NotInGroup("injection is not a homomorphism")
        self.fusion = big.class_of[injection[sub.reps]]


def subgroup_view(big, members):
    """Build a FiniteGroupView on a subset closed under multiplication,
    together with its embedding into the ambient view.  The view's
    generator search multiplies every member by every generator, so it
    proves the subset closed or raises NotInGroup."""
    members = np.unique(np.asarray(members, dtype=np.int64))
    pos = np.full(big.n, -1, dtype=np.int64)
    pos[members] = np.arange(len(members))

    def mul(a, b):
        out = pos[big.mul(members[a], members[b])]
        if np.any(np.asarray(out) < 0):
            raise NotInGroup("subset is not closed under multiplication")
        return out

    inv = pos[big.inv[members]]
    if np.any(inv < 0):
        raise NotInGroup("subset is not closed under inversion")
    ident = pos[big.identity]
    if ident < 0:
        raise NotInGroup("subset does not contain the identity")
    sub = FiniteGroupView(len(members), mul, inv=inv, identity=int(ident))
    emb = SubgroupEmbedding(sub, big, members)
    return sub, emb


def induce(f, emb):
    """Induced class function: ind f(g) = (1/|H|) sum over x in G with
    x g x^-1 in H of f(x g x^-1).  Grouping the x by the H-class of
    x g x^-1 gives ind f(C) = |G| / (|H| |C|) sum over the H-classes c
    fused into C of |c| f(c), so only the class fusion map is read."""
    if f.view is not emb.sub:
        raise GroupMismatch("function does not live on the subgroup")
    G, H = emb.big, emb.sub
    vals = np.zeros(len(G.reps), dtype=complex)
    np.add.at(vals, emb.fusion, H.sizes * f.values)
    return ClassFunction(G, vals * G.n / (H.n * G.sizes))


# bytes of one chunk, whatever the operator size is: of one stacked
# operand in the dense branch of MatrixRep.product_defect and in the weil
# averaging and Fourier checks, and of the whole working set in the
# monomial branch, whose loop body holds about _MONOMIAL_TEMPS (rows, d)
# temporaries the size of one complex operand at once
_CHUNK_BYTES = 1 << 20
_MONOMIAL_TEMPS = 8


def row_chunks(n, row_bytes):
    """Slices covering rows 0..n-1 in order, each of the most rows of
    row_bytes bytes that fit in _CHUNK_BYTES, and at least one row."""
    step = max(1, _CHUNK_BYTES // row_bytes)
    return (slice(lo, lo + step) for lo in range(0, n, step))


def monomial_gap(c1, v1, c2, v2):
    """The largest entry of |row 1 - row 2| for monomial rows, row k
    with its one entry v_k in column c_k, elementwise: |v1 - v2| where
    the columns agree and max(|v1|, |v2|) where they differ."""
    return np.where(c1 == c2, np.abs(v1 - v2),
                    np.maximum(np.abs(v1), np.abs(v2)))


class MonomialImages:
    """The images of a monomial model, one nonzero entry per row:
    image g has entry [j, cols[g, j]] = vals[g, j] and zeros elsewhere.
    Stores (n, d) arrays instead of (n, d, d); indexing, as on a dense
    (n, d, d) stack, materializes dense matrices for the indices asked
    for only."""

    def __init__(self, cols, vals):
        self.cols = np.asarray(cols, dtype=np.intp)
        self.vals = np.asarray(vals, dtype=complex)
        if self.cols.ndim != 2 or self.cols.shape != self.vals.shape:
            raise GroupMismatch("cols and vals must both be (n, d)")
        n, d = self.cols.shape
        # a column outside 0..d-1 would land in another row's entries
        if self.cols.size and not 0 <= self.cols.min() <= self.cols.max() < d:
            raise GroupMismatch("columns must lie in 0..d-1")
        self.shape = (n, d, d)

    def __getitem__(self, idx):
        cols, vals = self.cols[idx], self.vals[idx]
        d = self.shape[1]
        out = np.zeros(cols.shape + (d,), dtype=complex)
        rows = np.arange(0, cols.size * d, d)
        out.reshape(-1)[rows + cols.reshape(-1)] = vals.reshape(-1)
        return out


class LazyImages:
    """Images formed on demand: form(idx) returns what a dense (n, d, d)
    stack would at idx, an index, a slice or an id array, so only the
    images asked for are ever dense.  form reads whatever compact store
    the model keeps, such as exact codes into a table of values."""

    def __init__(self, n, d, form):
        self.shape = (int(n), int(d), int(d))
        self.form = form

    def __getitem__(self, idx):
        return self.form(idx)


class MatrixRep:
    """A matrix representation, one d x d complex matrix per group
    element: images is a dense (n, d, d) stack, a MonomialImages store
    for models whose images are monomial matrices, or a LazyImages
    source, read as a dense stack is, one chunk at a time."""

    def __init__(self, view, images):
        if not isinstance(images, (MonomialImages, LazyImages)):
            images = np.asarray(images, dtype=complex)
        if images.shape[0] != view.n or images.shape[1] != images.shape[2]:
            raise GroupMismatch("images must be (n, d, d)")
        self.view = view
        self.images = images
        self.dim = images.shape[1]

    def check_homomorphism(self):
        """A bound B on ||pi(gh) - pi(g) pi(h)||_2 over every pair, from
        pi(e), the view's certified generators S, its word length bound
        L and the |G| |S| products pi(g) pi(s), g in G, s in S.  Callers
        pass B to config.gate; a NaN image gives a NaN B.

        Proof.  Let delta be the largest entry of |pi(e) - I| and of
        every |pi(g) pi(s) - pi(gs)|, and u that of every
        |pi(s) pi(s)* - I|.  A d x d matrix has 2-norm at most d times
        its largest entry, so each of these defects has norm at most
        eps = d delta, and ||pi(s)|| <= sqrt(1 + d u) <= 1 + d u / 2.
        Every h is a positive word s_1 ... s_k in S with k <= L; its
        product W = pi(s_1) ... pi(s_k) has norm at most
        a = (1 + d u / 2)^L.  Replacing pi(x s_j) by pi(x) pi(s_j) one
        letter at a time, from x = e, gives ||pi(h) - W|| <= (L+1) eps a
        (one term for pi(e), one per letter), and from x = g gives
        ||pi(gh) - pi(g) W|| <= L eps a.  With ||pi(g)|| <=
        a (1 + (L+1) eps), the triangle inequality gives
        ||pi(gh) - pi(g) pi(h)|| <= B with
        B = eps a (L + (L+1) a (1 + (L+1) eps)).

        delta is product_defect(), and u reads the |S| generator images
        alone, so a MonomialImages store is made dense only at pi(e) and
        the pi(s)."""
        v, d = self.view, self.dim
        gen = self.images[v.gens]
        unit = gen @ gen.conj().transpose(0, 2, 1) - np.eye(d)
        u = float(np.max(np.abs(unit), initial=0.0))
        eps, L = d * self.product_defect(), v.word_length
        a = np.float64(1.0 + d * u / 2) ** L
        return float(eps * a * (L + (L + 1) * a * (1 + (L + 1) * eps)))

    def product_defect(self):
        """delta of check_homomorphism: the largest entry of
        |pi(e) - I| and of every |pi(g) pi(s) - pi(gs)|, g in G, s in S,
        with g read in chunks.  The products gs are read from the view's
        right multiplication table, so no group product is formed here.

        A dense stack takes one GEMM per chunk and generator, each chunk
        of pi(g) at most _CHUNK_BYTES; a LazyImages source forms each
        chunk and its products' images when they are read, so it is
        never dense beyond one chunk.  A MonomialImages store is never
        made dense beyond pi(e) and the pi(s): row j of pi(g) pi(s) is
        its one entry vals[g, j] times row cols[g, j] of pi(s), so the
        product has columns cols[s][cols[g]] and values
        vals[g] vals[s][cols[g]], and monomial_gap against pi(gs) is
        the largest entry of each row of the dense difference.  Its
        chunks are sized by the loop body's whole working set,
        _MONOMIAL_TEMPS complex (rows, d) temporaries, so they too take
        about _CHUNK_BYTES."""
        v, d, images = self.view, self.dim, self.images
        gs = v.right.T
        delta = np.max(np.abs(images[v.identity] - np.eye(d)))
        if isinstance(images, MonomialImages):
            C, V = images.cols, images.vals
            for rows in row_chunks(v.n, _MONOMIAL_TEMPS * d * V.itemsize):
                c, val = C[rows], V[rows]
                for j, s in enumerate(v.gens):
                    pc, pv = C[s][c], val * V[s][c]
                    t = gs[rows, j]
                    tc, tv = C[t], V[t]
                    err = monomial_gap(pc, pv, tc, tv)
                    delta = np.maximum(delta, np.max(err))
            return float(delta)
        gen = images[v.gens]
        for rows in row_chunks(v.n, d * d * gen.itemsize):
            block = images[rows].reshape(-1, d)
            for j in range(len(v.gens)):
                err = block @ gen[j]
                err -= images[gs[rows, j]].reshape(-1, d)
                delta = np.maximum(delta, np.max(np.abs(err)))
        return float(delta)


def rep_character(rep):
    tr = [np.trace(rep.images[r]) for r in rep.view.reps]
    return ClassFunction(rep.view, np.array(tr, dtype=complex))


def character_table_bruteforce(view):
    """Complete character table by the class-algebra (Dixon/Burnside)
    method: the structure constants a_ijl of class sums give commuting
    matrices N_i, a random real combination of which has the characters'
    eigenvalue vectors as eigenvectors.

    Returns a (k, k) complex array, rows sorted by (degree, values), and
    columns aligned with view.reps.  Raises VerificationFailed if no
    random combination yields a table passing orthonormality."""
    n = view.n
    sizes = view.sizes
    reps = view.reps
    k = len(reps)
    ident_class = int(view.class_of[view.identity])
    by_class = np.argsort(view.class_of, kind="stable")

    a = np.zeros((k, k, k), dtype=np.int64)  # a[i, j, l]
    for i, members in enumerate(np.split(by_class, np.cumsum(sizes)[:-1])):
        t = view.class_of[view.mul(view.inv[members][:, None], reps[None, :])]
        for l in range(k):
            a[i, :, l] = np.bincount(t[:, l], minlength=k)

    rng = np.random.default_rng(SEED)
    for _ in range(DIXON_TRIES):
        coeff = rng.standard_normal(k)
        M = np.tensordot(coeff, a, axes=(0, 0))  # sum_i c_i a[i,:,:]
        evals, evecs = np.linalg.eig(M)
        if len(np.unique(np.round(evals, 6))) < k:
            continue
        rows = []
        ok = True
        for r in range(k):
            v = evecs[:, r]
            if abs(v[ident_class]) < DIXON_PIVOT:
                ok = False
                break
            omega = v / v[ident_class]
            s = np.sum(np.abs(omega) ** 2 / sizes)
            d2 = n / s.real
            d = round(np.sqrt(d2))
            if d < 1 or abs(np.sqrt(d2) - d) > DEGREE_INTEGRAL:
                ok = False
                break
            chi = d * omega / sizes
            rows.append(chi)
        if not ok:
            continue
        table = np.array(rows)
        gram = (table * sizes) @ table.conj().T / n
        if not within_tol(np.max(np.abs(gram - np.eye(k)))):
            continue
        if int(np.round(np.sum(np.abs(table[:, ident_class]) ** 2))) != n:
            continue
        order = sorted(range(k), key=lambda r: (
            round(table[r, ident_class].real),
            [(round(z.real, 6), round(z.imag, 6)) for z in table[r]]))
        return table[order]
    raise VerificationFailed("class-algebra method failed to converge")

