"""Exception taxonomy shared across the package.

Every error raised on purpose by curvcheck derives from :class:`CurvcheckError`,
so callers can catch one base class at API boundaries (the CLI does exactly
that to map failures onto exit codes).
"""

from __future__ import annotations

__all__ = [
    "CurvcheckError",
    "ExprSyntaxError",
    "UnknownIdentifier",
    "IndexOutOfRange",
    "DomainError",
    "FiberMismatch",
    "ClosureViolation",
    "SingularMatrix",
    "IoError",
    "ConfigSchemaError",
]


class CurvcheckError(Exception):
    """Base class for all errors raised by this package."""


class ExprSyntaxError(CurvcheckError):
    """Malformed expression source.

    Carries the character ``offset`` of the failure and a short description of
    what was expected there.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownIdentifier(CurvcheckError):
    """An identifier that is neither a known function, ``pi``, nor a variable."""


class IndexOutOfRange(CurvcheckError):
    """A variable index outside the declared base/fiber dimensions."""


class DomainError(CurvcheckError):
    """Evaluation left the domain of a primitive (log of a non-positive
    number, square root of a negative number, division by zero, ...).

    Raised with a ``sample``, the message ends in ``at sample i`` and the
    error carries the 0-based index ``i`` as ``sample``; else it is ``None``.
    """

    def __init__(self, message: str, sample: int | None = None):
        super().__init__(message if sample is None else f"{message} at sample {sample}")
        self.sample = sample


class FiberMismatch(CurvcheckError):
    """Second jets passed to the affine difference sit over different fibers."""


class ClosureViolation(CurvcheckError):
    """A matrix does not lie in the span of the Lie algebra basis."""


class SingularMatrix(CurvcheckError):
    """A group element's matrix is singular or numerically near-singular."""


class IoError(CurvcheckError):
    """A file could not be read or written."""


class ConfigSchemaError(CurvcheckError):
    """A configuration document violates the schema."""
