"""References shared by the test modules."""

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


@pytest.fixture
def all_pairs_defect():
    return _all_pairs_defect
