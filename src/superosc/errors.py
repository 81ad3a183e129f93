"""Exception types shared across the package."""


class SuperoscError(Exception):
    """Base class for all package-specific errors."""


class OverflowRegime(SuperoscError):
    """Requested evaluation would exceed double-precision range."""


class QuadratureNoConvergence(SuperoscError):
    """The circle-integral route could not reach its error target.

    Signals a parameter regime where the oscillatory-integral route is not
    numerically honest and the closed form should be used instead.
    """


class PhaseLockViolation(SuperoscError):
    """Pair construction requires exactly phase-locked sharpness values."""


class DomainError(SuperoscError):
    """Argument outside the mathematical domain of the operation."""


class NodeError(SuperoscError):
    """Signal magnitude too small at the requested point to define a phase."""


class EdgeError(SuperoscError):
    """Requested point too close to the grid boundary for the stencil."""


class TruncationError(SuperoscError):
    """Grid does not contain the signal well enough for the operation."""


class CutoffMissing(SuperoscError):
    """Operation requires an explicit UV cutoff and none was provided."""


class InsufficientData(SuperoscError):
    """Not enough usable points for the requested fit."""


class DegenerateDenominator(SuperoscError):
    """Normalization denominator vanished; the ratio is undefined."""


class BalanceViolation(SuperoscError):
    """Energy bookkeeping residual exceeded its tolerance.

    Carries the offending report in ``args[1]`` for diagnostics.
    """


class ConfigError(SuperoscError):
    """Config file missing, malformed, or inconsistent."""
