"""Exception types shared across the package.

Everything raised on purpose derives from GolayKitError so callers can
catch one base class at the CLI boundary and map it to an exit code.
"""
from __future__ import annotations


class GolayKitError(Exception):
    """Base class for all errors raised by this package."""


class ShapeMismatch(GolayKitError):
    """Operands do not have the shapes the operation requires."""


class RankMismatch(GolayKitError):
    """Operands do not have the same rank (number of dimensions)."""


class HalvingError(GolayKitError):
    """An entry was not divisible by 2 where exact halving is required."""


class QuarteringError(GolayKitError):
    """An entry was not divisible by 4 where exact quartering is required."""


class Collision(GolayKitError):
    """Two superposed terms are both nonzero at the same position."""

    def __init__(self, position: tuple[int, ...], message: str | None = None):
        self.position = position
        super().__init__(message or f"overlapping nonzero entries at {position}")


class NonPolyphase(GolayKitError):
    """A zero entry survived where a full polyphase array was required."""


class NotBinary(GolayKitError):
    """An array has entries outside {+1, -1}."""


class NotComplementary(GolayKitError):
    """A set of arrays failed the complementarity test."""


class Trivial(GolayKitError):
    """The operation is undefined for size-1 (trivial) inputs."""


class EmptySet(GolayKitError):
    """An operation received no arrays."""


class NotDisjoint(GolayKitError):
    """A pair that must have disjoint supports does not."""


class StructureFailed(GolayKitError):
    """A required support-structure relation does not hold."""


class VerificationFailed(GolayKitError):
    """A constructed set failed its own complementarity postcondition."""


class MissingSeed(GolayKitError):
    """A recipe leaf refers to a seed absent from the registry."""

    def __init__(self, key: str, path: str = ""):
        self.key = key
        self.path = path
        where = f" at recipe node {path}" if path else ""
        super().__init__(f"seed not in registry: {key}{where}")


class ParseError(GolayKitError):
    """A JSON document does not conform to the expected wire format."""
