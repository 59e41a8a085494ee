"""Typed failures shared across the package.

Every mathematically meaningful failure gets its own class so callers (and
the CLI exit-code contract) can distinguish "the algorithm ran out of
solution classes at this small q" from "you passed garbage".
"""

from __future__ import annotations


class TriwaringError(Exception):
    """Base class for all domain failures."""

    def to_json(self) -> dict:
        return {"type": type(self).__name__, "message": str(self)}


# field construction
class NotPrimeError(TriwaringError):
    pass


class ReducibleModulusError(TriwaringError):
    pass


class DegreeMismatchError(TriwaringError):
    pass


# equation solving / selection
class InsufficientClassesError(TriwaringError):
    """Not enough solution classes to satisfy the distinctness constraints.

    This is an algorithm failure, not a proof that no decomposition exists;
    the sufficiency threshold q > 4 n^2 k^16 is far beyond desk scale, so
    small fields legitimately run out of classes. The README's "Two and
    three powers" facts say more at small q: no c E_12, c != 0, is a sum
    of two k-th powers when -1 is not a k-th power, and for p not
    dividing k every matrix is a sum of three exactly when
    F_q = P* + P + P, P the k-th powers and P* the nonzero ones.
    """

    def __init__(self, message: str, lam: int | None = None,
                 found: int | None = None, needed: int | None = None):
        super().__init__(message)
        self.lam = lam
        self.found = found
        self.needed = needed

    def to_json(self) -> dict:
        d = super().to_json()
        if self.lam is not None:
            d["lambda"] = self.lam
        if self.found is not None:
            d["found"] = self.found
        if self.needed is not None:
            d["needed"] = self.needed
        return d


class NoAdmissibleShiftError(TriwaringError):
    pass


class HypothesisViolatedError(TriwaringError):
    pass


class EnumerationTooLargeError(TriwaringError):
    pass


# matrix algebra
class SizeMismatchError(TriwaringError):
    pass


class FieldMismatchError(TriwaringError):
    pass


class DiagNotKthPowerError(TriwaringError):
    pass


class PreconditionViolatedError(TriwaringError):
    pass


class RootMismatchError(TriwaringError):
    pass


class BadPartitionError(TriwaringError):
    pass


class IndexOutOfRangeError(TriwaringError):
    pass


# presentations
class ParseError(TriwaringError):
    pass


class LabelOutOfRangeError(TriwaringError):
    pass


class DuplicateVertexError(TriwaringError):
    pass


class NotNilpotentError(TriwaringError):
    pass
