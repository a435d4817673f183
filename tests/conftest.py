"""References shared by the test modules."""

import tracemalloc

import numpy as np
import pytest

from qrep.repcore import _CHUNK_BYTES


def _all_pairs_defect(rep, pairs=None):
    """The largest entry of |pi(a) pi(b) - pi(ab)| over the given pairs,
    or over all |G|^2 of them: the exhaustive reference that
    MatrixRep.check_homomorphism's bound must cover."""
    v = rep.view
    if pairs is None:
        a, b = np.meshgrid(np.arange(v.n), np.arange(v.n), indexing="ij")
        pairs = np.stack([a.ravel(), b.ravel()], axis=1)
    pairs = np.asarray(pairs)
    step = max(1, _CHUNK_BYTES // rep.images[0].nbytes)
    worst = 0.0
    for lo in range(0, len(pairs), step):
        chunk = pairs[lo:lo + step]
        pa = rep.images[chunk[:, 0]]
        pb = rep.images[chunk[:, 1]]
        pab = rep.images[v.mul(chunk[:, 0], chunk[:, 1])]
        worst = max(worst, float(np.max(np.abs(pa @ pb - pab))))
    return worst


def _elementwise_product_defect(rep):
    """delta of MatrixRep.product_defect formed with elementwise products
    and sums, not GEMM: the largest entry of |pi(e) - I| and of every
    |pi(g) pi(s) - pi(gs)|, every image made dense.  A monomial product
    has one nonzero term per entry, so the gathered delta must equal
    this bit for bit."""
    v, d = rep.view, rep.dim
    gs = v.mul(np.arange(v.n)[:, None], v.gens[None, :])
    gen = rep.images[v.gens]
    worst = float(np.max(np.abs(rep.images[v.identity] - np.eye(d))))
    step = max(1, _CHUNK_BYTES // (d ** 3 * 16))
    for lo in range(0, v.n, step):
        block = rep.images[np.arange(lo, min(v.n, lo + step))]
        for j, s in enumerate(gen):
            prod = (block[..., None] * s[None, None]).sum(axis=2)
            err = prod - rep.images[gs[lo:lo + step, j]]
            worst = max(worst, float(np.max(np.abs(err))))
    return worst


def _traced_peak(fn):
    """(fn(), the tracemalloc peak in bytes of that call)."""
    tracemalloc.start()
    try:
        out = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def _seen_loop_cosets(ctx):
    """The right cosets B\\G by group products: (representatives, coset
    of every element), each representative the smallest element not in
    an earlier coset Bg."""
    bids = ctx.borel_ids()
    coset_of = np.full(ctx.n, -1, dtype=np.int64)
    reps = []
    for g in range(ctx.n):
        if coset_of[g] >= 0:
            continue
        coset_of[ctx.view.mul(bids, g)] = len(reps)
        reps.append(g)
    return np.array(reps), coset_of


@pytest.fixture
def all_pairs_defect():
    return _all_pairs_defect


@pytest.fixture
def elementwise_product_defect():
    return _elementwise_product_defect


@pytest.fixture
def traced_peak():
    return _traced_peak


@pytest.fixture
def seen_loop_cosets():
    return _seen_loop_cosets
