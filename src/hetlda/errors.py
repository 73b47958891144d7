"""Exception types raised across the package.

Everything derives from HetldaError so callers can catch the package's
failures with a single except clause while letting programming errors
(TypeError, ValueError from bad arguments) propagate normally.
"""


class HetldaError(Exception):
    """Base class for all errors raised by hetlda."""


class EmptyClass(HetldaError):
    """A class has no samples, or fewer than the required minimum."""


class DimensionMismatch(HetldaError):
    """Array shapes are inconsistent (ragged rows, wrong vector length...)."""


class DegenerateProjection(HetldaError):
    """w'Cw is non-positive or non-finite: the covariance is rank-deficient
    along the projection direction, so the projected class has no spread."""


class ComplexRoot(HetldaError):
    """The threshold stationarity quadratic has no real root."""


class ZeroDirection(HetldaError):
    """The solved weight vector is identically zero (equal class means)."""


class ParseError(HetldaError):
    """A CSV cell failed to parse. Carries 1-based row/column location."""

    def __init__(self, message: str, row: int | None = None,
                 column: int | None = None):
        loc = ""
        if row is not None:
            loc = f" (row {row}" + (f", column {column})" if column is not None else ")")
        super().__init__(message + loc)
        self.row = row
        self.column = column


class InconsistentWidth(ParseError):
    """A CSV row has a different number of cells than the first row."""


class InfeasibleStratification(HetldaError):
    """Stratified folding is impossible: some class has fewer samples than
    the number of folds."""


class VersionMismatch(HetldaError):
    """A model file declares an unsupported format or version."""
