"""Machine-speed calibration: a fixed computation timed while cases run.

The VM this benchmark was tuned on changes speed by 20-30% over seconds
to minutes, for every process alike (process CPU time moves with wall
time).  ``sample`` times one run of ``kernel``, a frozen mix of the work
qrep does (small tuple arithmetic mod p kept in a dict, as in the field
and group layers, and small numpy products, SVDs and gathers, as in the
representation layers).  ``Sampler`` takes a sample every PERIOD_S
seconds from a SIGALRM handler, so the samples fall inside the cases
they calibrate; the time they take is subtracted from the case times.
``at_reference`` scales a measured time by the square root of REF_S
over the median sample taken during it: towards the time the
measurement would have taken had the machine run at the speed at which
one sample takes REF_S seconds (see ELASTICITY).
Nothing here imports qrep, so a change to qrep does not change the
calibration's work; it can only change the cache state a sample starts
from, which moved a sample by about 3% (10.0 ms inside cases, 9.7 ms
back to back) on the tuned machine.
"""

import gc
import signal
import statistics
import time

import numpy as np

# Seconds one sample took, as a median, on the 2-vCPU Intel Xeon VM this
# was tuned on (Python 3.11, numpy 2.4, OpenBLAS on one thread).  Only
# the ratio between runs on one machine matters; the value keeps scaled
# times close to raw seconds there.
REF_S = 0.01
# How much of the calibration's slowdown is taken to apply to a case.
# Over five 5-minute recordings of repeated chartable or verify passes,
# the log of the pass time moved with the log of the pass's median sample
# with slopes from 0.46 to 0.90; scaling by the full ratio over-corrected
# where the slope was low, and the square root removed 40-60% of the
# pass-to-pass spread in every recording.
ELASTICITY = 0.5
# Seconds of wall time between samples: about 5% of a run goes to them.
PERIOD_S = 0.2
# Samples a case needs to be scaled by its own samples rather than by
# those of its whole pass.  On the slowest verify case (about 5 s), its
# own samples halved the spread that the pass's samples left.
MIN_SAMPLES = 3

_P = 31
_ELS = [(a, b, c, d) for a in range(1, _P, 4) for b in range(0, _P, 5)
        for c in range(0, _P, 6) for d in range(1, _P, 7)][:240]
_rng = np.random.default_rng(0)
_MATS = [_rng.standard_normal((20, 20)) + 1j * _rng.standard_normal((20, 20))
         for _ in range(4)]
_VEC = _rng.standard_normal(20000)
_IDX = _rng.integers(0, len(_VEC), size=20000)


def kernel():
    """The fixed computation; returns a number so nothing is skipped."""
    acc = 0.0
    for _ in range(4):
        table = {}
        for x in _ELS:
            for y in _ELS[:12]:
                z = ((x[0] * y[0] + x[1] * y[2]) % _P,
                     (x[0] * y[1] + x[1] * y[3]) % _P,
                     (x[2] * y[0] + x[3] * y[2]) % _P,
                     (x[2] * y[1] + x[3] * y[3]) % _P)
                table[z] = table.get(z, 0) + 1
        acc += len(table)
        for m in _MATS:
            acc += float(np.linalg.svd(m @ m.conj().T, compute_uv=False)[0])
        acc += float(_VEC[_IDX].sum())
    return acc


def sample():
    """Seconds one kernel run takes now, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """While active, takes a sample every PERIOD_S seconds of wall time
    from a SIGALRM handler, in the main thread between bytecodes of
    whatever runs.  `spent` is the wall time the handler has taken, to
    be subtracted from anything timed meanwhile.  Leaving the block
    stops the timer, restores the previous handler, and takes one sample
    if none fell inside."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(sample())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:
            self.samples.append(sample())


def case_at_reference(seconds, own, whole):
    """A case's `seconds` at the reference speed, by the samples taken
    during the case (`own`) when there are MIN_SAMPLES of them, else by
    those of the `whole` pass it ran in."""
    return at_reference(seconds, own if len(own) >= MIN_SAMPLES else whole)


def at_reference(seconds, samples):
    """`seconds`, measured while the calibration `samples` were taken,
    scaled to the reference speed.  The median of many samples is used:
    one sample is too short to tell the machine's speed from its
    moment-to-moment jitter."""
    return seconds * (REF_S / statistics.median(samples)) ** ELASTICITY
