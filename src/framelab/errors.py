"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "AffiliationError",
    "DimMismatchError",
    "DimTooLargeError",
    "EmptyFactorsError",
    "FrameLabError",
    "GroupMismatchError",
    "InvalidPError",
    "MalformedTableError",
    "NoIdentityError",
    "NoInverseError",
    "NonFiniteResultError",
    "NotAbelianError",
    "NotAssociativeError",
    "NotRealValuedError",
    "NotSelfAdjointError",
    "OrderTooLargeError",
    "OutputWriteError",
    "ParseError",
    "ZeroGeneratorError",
]


class FrameLabError(Exception):
    """Base class for all errors raised by this package."""


class OrderTooLargeError(FrameLabError):
    """A group construction would exceed the configured order cap."""


class ParseError(FrameLabError):
    """A group or representation spec string does not match the grammar."""


class EmptyFactorsError(ParseError):
    """An abelian group was requested with no factors or a factor below 2."""


class OutputWriteError(FrameLabError):
    """An output file cannot be written."""


class MalformedTableError(FrameLabError):
    """A multiplication table is not a square matrix of valid indices."""


class NoIdentityError(FrameLabError):
    """A multiplication table has no two-sided identity element."""


class NoInverseError(FrameLabError):
    """Some element of a multiplication table has no two-sided inverse."""


class NotAssociativeError(FrameLabError):
    """A multiplication table violates associativity."""


class NotAbelianError(FrameLabError):
    """An operation that needs a commutative group got a noncommutative one."""


class GroupMismatchError(FrameLabError):
    """Two arguments live over different groups."""


class InvalidPError(FrameLabError):
    """The exponent passed to a p-norm is outside [1, inf]."""


class NotSelfAdjointError(FrameLabError):
    """An operator expected to be selfadjoint is not, beyond tolerance."""


class AffiliationError(FrameLabError):
    """A matrix expected to be a group convolution operator is not one."""


class DimTooLargeError(FrameLabError):
    """A representation would act on a space above the configured dimension cap."""


class DimMismatchError(FrameLabError):
    """A vector's length does not match the representation space."""


class ZeroGeneratorError(FrameLabError):
    """Orbit analysis was asked to run on a (numerically) zero generator."""


class NonFiniteResultError(FrameLabError):
    """A bound, spectrum or bracket value does not fit in a finite float."""


class NotRealValuedError(FrameLabError):
    """A function expected to be real-valued has a large imaginary part."""
