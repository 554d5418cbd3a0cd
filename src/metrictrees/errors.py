"""Exception taxonomy for the metrictrees package.

Every library error derives from MetricTreeError.  Validation errors carry
enough payload (violating triple/quadruple, edge index, parse position) for
callers to render a useful diagnostic without string scraping.
"""

from __future__ import annotations

__all__ = [
    "MetricTreeError",
    "TreeValidationError",
    "CycleDetected",
    "Disconnected",
    "NonpositiveEdgeLength",
    "DuplicateEdge",
    "ForeignPoint",
    "ParameterOutOfRange",
    "TooFewPoints",
    "BadParams",
    "EmptySet",
    "NegativeRadius",
    "NegativeDiameter",
    "TooLargeForOracle",
    "NotAMetric",
    "NotTreeMetric",
    "InvalidDistanceMatrix",
    "TreeParseError",
    "UnknownGallery",
    "UnknownPoint",
    "NotIsometric",
    "PreconditionViolation",
]


class MetricTreeError(Exception):
    """Base class for all metrictrees errors.  `edge` is the input-order
    index of the edge at fault when ``MetricTree``'s edge check raised the
    error for one edge, else None (``Disconnected`` names no edge).  `line`
    and `column` are the 1-based position in a document of the text at
    fault, when the error came from one (``TreeParseError``, or a tree
    error that ``parse_tree`` raises at its edge's line), else None."""

    edge: int | None = None
    line: int | None = None
    column: int | None = None


class TreeValidationError(MetricTreeError):
    """Raised when node/edge lists do not describe a weighted tree."""


class CycleDetected(TreeValidationError):
    pass


class Disconnected(TreeValidationError):
    pass


class NonpositiveEdgeLength(TreeValidationError):
    pass


class DuplicateEdge(TreeValidationError):
    pass


class ForeignPoint(MetricTreeError):
    """A point from one tree was passed to an operation on another tree."""


class ParameterOutOfRange(MetricTreeError):
    """A scalar parameter (arc-length offset, etc.) lies outside its range."""


class TooFewPoints(MetricTreeError):
    pass


class BadParams(MetricTreeError):
    """Arguments are structurally invalid (unknown node, bad count, ...)."""


class EmptySet(MetricTreeError):
    pass


class NegativeRadius(BadParams):
    pass


class NegativeDiameter(BadParams):
    pass


class TooLargeForOracle(MetricTreeError):
    """The exhaustive partition oracle is guarded to small point sets."""


class NotAMetric(MetricTreeError):
    """Matrix violates a metric axiom; `triple` is a violating (i, j, k)."""

    def __init__(self, message: str, triple: tuple[int, int, int] | None = None):
        super().__init__(message)
        self.triple = triple


class NotTreeMetric(MetricTreeError):
    """Metric fails the four-point condition; `quadruple` violates it."""

    def __init__(self, message: str, quadruple: tuple[int, int, int, int] | None = None):
        super().__init__(message)
        self.quadruple = quadruple


class InvalidDistanceMatrix(MetricTreeError):
    """Matrix input is malformed (not square, asymmetric, negative, ...)."""


class TreeParseError(MetricTreeError):
    """Tree document syntax error with 1-based line/column position."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class UnknownGallery(BadParams):
    pass


class UnknownPoint(MetricTreeError):
    pass


class NotIsometric(MetricTreeError):
    """Point mapping does not preserve distances; `pair` gives the indices."""

    def __init__(self, message: str, pair: tuple[int, int] | None = None):
        super().__init__(message)
        self.pair = pair


class PreconditionViolation(MetricTreeError):
    pass
