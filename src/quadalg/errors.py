"""Exception types shared across the package.

The CLI maps :class:`InvalidLabelError` (and other ``ValueError``) to exit
code 2 and the :class:`NumericalToleranceError` subclasses, a truncation or
a quadrature that misses its tolerance, to exit code 3.
"""


class InvalidLabelError(ValueError):
    """A representation label violates its integrality/positivity constraints."""


class BasisSpanError(ValueError):
    """A differential operator maps a basis function outside the basis span."""


class NumericalToleranceError(RuntimeError):
    """Base class for failures to reach a requested numerical tolerance."""


class TruncationError(NumericalToleranceError):
    """A truncation dimension is too small for the requested accuracy."""


class QuadratureError(NumericalToleranceError):
    """Numerical quadrature could not meet the requested tolerance."""
