"""Exception types shared across the package.

Every precondition violation raises a named subclass of QrepError so
callers (and the command line driver) can distinguish bad input (exit
code 2) from a failed verification (exit code 1).
"""


class QrepError(Exception):
    """Base class for all package errors."""


class NonPrime(QrepError):
    """A claimed prime is composite (or < 2)."""


class SizeExceeded(QrepError):
    """A requested object is larger than the supported bound."""


class GroupMismatch(QrepError):
    """Two objects live over different groups or fields."""


class NotIrreducible(QrepError):
    """A polynomial expected to be irreducible factors."""


class Singular(QrepError):
    """A matrix expected to be invertible has zero determinant."""


class NotInGroup(QrepError):
    """An element fails the defining condition of the group."""


class EvenQ(QrepError):
    """An operation requires odd q."""


class NotSL2(QrepError):
    """A matrix expected to have determinant one does not."""


class CharMismatch(QrepError):
    """Characters fail a required coincidence/distinctness condition."""


class NonIntegral(QrepError):
    """A quantity that must be a nonnegative integer is not, beyond tolerance."""


class NotSplitting(QrepError):
    """An involution meant to split a representation in two is not one,
    or does not commute with the action."""


class NotPrimitive(QrepError):
    """A character required to be primitive (or nontrivial) is not."""


class EvenExponent(QrepError):
    """The Heisenberg central exponent must be odd for the symplectic model."""


class SizeMismatch(QrepError):
    """An array length does not match the expected group order."""


class DerivativeVanishes(QrepError):
    """Hensel lifting requires the derivative to be a unit mod f."""


class VerificationFailed(QrepError):
    """An internal consistency check failed; output is withheld."""


class IoError(QrepError):
    """A file could not be read or written."""
