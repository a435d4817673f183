"""Numerical tolerance handling.

All floating-point identity checks in this package compare a residual
against a single tolerance, through within_tol, or gate, which raises
on its verdict: a defect passes only when defect <= tol, so a NaN
defect never passes, and every running maximum behind a defect is
taken with numpy so that a NaN reaches the rule.
The default is 1e-8; it can be overridden with the QREP_TOL environment
variable, which must parse to a float in (0, 1e-3].  The named
thresholds below pivot and round Dixon's eigenvectors or snap float
dust, so they do not follow QREP_TOL.
"""

import os

from .errors import VerificationFailed

DEFAULT_TOL = 1e-8

# Dixon's eigenvectors are divided by their identity-class entry
DIXON_PIVOT = 1e-12
# a degree read off a Dixon eigenvector must be this close to an integer
DEGREE_INTEGRAL = 1e-6
# emit writes values this close to an integer as it; part of the bytes
SNAP = 1e-9
# seed of the random steps whose callers pass none
SEED = 20070714

_ENV_VAR = "QREP_TOL"


def get_tol():
    """Return the active tolerance, honoring the QREP_TOL override."""
    raw = os.environ.get(_ENV_VAR)
    if raw is None:
        return DEFAULT_TOL
    try:
        val = float(raw)
    except ValueError:
        raise ValueError(f"{_ENV_VAR} must be a float, got {raw!r}")
    if not (0.0 < val <= 1e-3):
        raise ValueError(f"{_ENV_VAR} must lie in (0, 1e-3], got {val}")
    return val


def within_tol(defect):
    """The one pass rule: float(defect) <= get_tol(), so a NaN fails."""
    return float(defect) <= get_tol()


def gate(defect, what, error=VerificationFailed):
    """float(defect) if within_tol(defect); raises error, with what,
    the defect and the tol as its message, otherwise, NaN included."""
    if not within_tol(defect):
        raise error(f"{what}: defect {float(defect)}, tol {get_tol()}")
    return float(defect)
