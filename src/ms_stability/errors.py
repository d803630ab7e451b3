"""Exception types raised across the package.

Every error that callers are expected to catch has its own class so the
CLI can surface a stable name, and tests can assert on the exact failure
mode instead of matching message strings.
"""


class StabilityError(Exception):
    """Base class for all package-specific errors."""


class ConfigInvalid(StabilityError):
    """A configuration file or section failed validation."""


class CurveEscapesStrip(StabilityError):
    """A flowed curve left the safety band inside the strip."""


class SolverDiverged(StabilityError):
    """The linear solver exhausted its iteration budget or broke down."""


class GramSingular(StabilityError):
    """The restricted scalar-product matrix is not positive definite."""


class DegeneratePencil(StabilityError):
    """The dual eigenvalue problem has a degenerate operator pencil."""


class InvalidRestriction(StabilityError):
    """An admissible-subspace restriction does not apply to the geometry."""


class InsufficientSamples(StabilityError):
    """Too few or badly placed samples for finite-difference estimates."""
