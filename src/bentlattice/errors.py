"""Exception hierarchy shared by all bentlattice modules, and the
positive-and-finite argument check that raises its ParameterError."""

import math


class BentLatticeError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(BentLatticeError):
    """A constructor or function argument violates its contract."""


class DomainError(BentLatticeError):
    """Evaluation outside the valid domain (tabulated range, grid overflow)."""


class ShapeError(BentLatticeError):
    """Array shapes or grids are incompatible with the requested operation."""


class GeometryError(BentLatticeError):
    """Physically inconsistent geometry, e.g. overlapping index channels."""


class DegenerateGapError(BentLatticeError):
    """Band gap closes and branch projections become ill defined."""


class AccuracyError(BentLatticeError):
    """A numeric accuracy target was missed (step size, quadrature, solver)."""


class CalibrationError(BentLatticeError):
    """Channel calibration could not bracket or converge on the target."""


class ConfigError(BentLatticeError):
    """Scenario configuration violates the schema.

    ``field`` carries the dotted ``section.key`` path when known.
    """

    def __init__(self, message, field=None):
        self.field = field
        if field is not None:
            message = f"{field}: {message}"
        super().__init__(message)


def require_positive(**values):
    """Raise ParameterError unless every keyword value is positive and finite
    (NaN and inf included)."""
    for name, value in values.items():
        if not 0 < value < math.inf:
            raise ParameterError(
                f"{name} must be positive and finite, got {value!r}")
