"""Exception types shared across the package."""

from __future__ import annotations


class EdgeRingError(Exception):
    """Base class for every error this package raises on purpose."""


# ---------------------------------------------------------------------------
# graph construction and parsing
# ---------------------------------------------------------------------------

class DuplicateVertexError(EdgeRingError):
    """The same vertex label appears twice in a vertex list."""


class LoopEdgeError(EdgeRingError):
    """An edge joins a vertex to itself; only simple graphs are supported."""


class UnknownEndpointError(EdgeRingError):
    """An edge endpoint is not in the vertex list."""


class ParseError(EdgeRingError):
    """A graph or cactus description file is malformed."""


class EmptySpecError(EdgeRingError):
    """A cactus description with no triangles through the hub."""


# ---------------------------------------------------------------------------
# structural preconditions
# ---------------------------------------------------------------------------

class DisconnectedError(EdgeRingError):
    """The operation needs a connected graph."""


class BipartiteGraphError(EdgeRingError):
    """The operation needs at least one odd cycle."""


class NotDiameterFourCactusError(EdgeRingError):
    """The operation is defined only for triangular cacti of diameter four."""


class AmbiguousCenterError(EdgeRingError):
    """No unique hub vertex could be identified; input is outside the
    intended domain even though earlier checks passed."""


class NotAnEdgeError(EdgeRingError):
    """A vertex pair handed to an edge-indexed operation is not an edge."""


class PreconditionViolatedError(EdgeRingError):
    """Arguments fail a documented hypothesis of a closed-form test."""


# ---------------------------------------------------------------------------
# exact-arithmetic layers
# ---------------------------------------------------------------------------

class DimensionMismatchError(EdgeRingError):
    """A vector's length does not match the ambient dimension."""


class EmptySetError(EdgeRingError):
    """A set-valued argument that must be nonempty is empty."""


class MethodMismatchError(EdgeRingError):
    """The two independent normalization enumerations disagree.

    Carries the two one-sided differences so the caller can report
    exactly which vectors only one method produced, and `found_twice`, a
    vector the inequality method produced twice, or None.
    """

    def __init__(self, only_first, only_second, found_twice):
        self.only_first = frozenset(only_first)
        self.only_second = frozenset(only_second)
        self.found_twice = found_twice
        twice = "" if found_twice is None else (
            f", and the inequality method found {found_twice} twice")
        super().__init__(
            "normalization enumerations disagree: "
            f"{len(self.only_first)} vectors only from the inequality method, "
            f"{len(self.only_second)} only from the closure method{twice}"
        )


class DecompositionMismatchError(EdgeRingError):
    """The predicted hole decomposition does not match the enumerated holes.

    Carries the report dict assembled before the mismatch was detected.
    """

    def __init__(self, report):
        self.report = report
        missed = report.get("holes_not_covered", ())
        extra = report.get("family_points_not_holes", ())
        super().__init__(
            "hole decomposition mismatch: "
            f"{len(missed)} holes not covered by any family, "
            f"{len(extra)} family points that are not holes"
        )
