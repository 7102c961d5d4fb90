"""Exception types shared across the package.

Argument and configuration mistakes raise ``ValueError`` (or the
``DataFormatError`` subclass for malformed input files).  Failures that
only surface while computing -- degenerate training data, singular
systems, diverging optimizers, estimators that cannot finish -- raise
the ``RuntimeError`` subclasses below so callers can tell the two
situations apart.
"""


class DataFormatError(ValueError):
    """Malformed CSV/JSON input: bad header, unparsable cell, bad label."""


class FitError(RuntimeError):
    """Training impossible on the given data (e.g. a class is missing)."""


class NumericError(RuntimeError):
    """A linear system was singular or a numeric routine failed."""


class DivergenceError(RuntimeError):
    """An iterative optimizer produced a non-finite objective."""


class EstimationError(RuntimeError):
    """An error estimator could not complete on the given data."""
