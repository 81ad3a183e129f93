"""Parameter objects for the superoscillatory waveform family.

The family is controlled by an amplitude, a sharpness ``delta`` (the phase
budget at the origin is ``delta**-2`` radians), a boost ``A`` that sets how
far the local wavenumber exceeds the band limit, the band limit ``k0``
itself, and the half-open window ``[-extent, 0]`` on which the fast
oscillation is sustained.  Working units put c = hbar = 1 and, by default,
k0 = 1, so every knob is a dimensionless multiple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import PhaseLockViolation

# Admissibility of the fast-oscillation window: delta^2 * z_c * k0 * cosh(A)
# must stay below this (the window criterion), else the construction does
# not hold the advertised wavenumber across the window.
WINDOW_CRITERION_DEFAULT = 0.1

# Largest sample, node or mode count that one run may ask for; larger counts
# are refused before anything is allocated.
MAX_COUNT = 2**24

# Phase-lock branches: delta**-2 = 2*pi*m + pi/4  (quarter)
#                      delta**-2 = 2*pi*m + 3*pi/4 (three-quarter)
QUARTER = "quarter"
THREE_QUARTER = "three_quarter"

_LOCK_OFFSET = {QUARTER: math.pi / 4.0, THREE_QUARTER: 3.0 * math.pi / 4.0}
_LOCK_TOL = 1e-12


def _lock_budget(m_phase: int, branch: str) -> float:
    """The locked phase budget delta**-2 = 2 pi m_phase + the branch's offset."""
    return 2.0 * math.pi * m_phase + _LOCK_OFFSET[branch]


def growth_peak_position(inv_sq_delta: float, boost: float, band_limit: float) -> float:
    """z of the exponential-growth maximum, 2 cosh(A) / (k0 delta^2)."""
    return 2.0 * math.cosh(boost) * inv_sq_delta / band_limit


def locked_delta(m_phase: int, branch: str) -> float:
    """Sharpness value whose inverse square hits the requested phase lock."""
    if branch not in _LOCK_OFFSET:
        raise ValueError(f"unknown phase-lock branch {branch!r}")
    if m_phase < 1:
        raise ValueError("m_phase must be a positive integer")
    return 1.0 / math.sqrt(_lock_budget(m_phase, branch))


@dataclass(frozen=True)
class SuperoscParams:
    """Knobs of one analytic band-limited component.

    ``inv_sq_delta`` (the phase budget delta**-2, in radians) is the primary
    stored form of the sharpness: the phase-lock invariant is an absolute
    1e-12 condition on it, which a round trip through delta = 1/sqrt(...)
    cannot preserve in doubles once the budget exceeds ~5000 rad.  When
    omitted it is derived from ``delta``.

    ``branch_sign`` selects which complex exponential the phase-locked pair
    combination approximates inside the window: +1 gives local wavenumber
    k0*(1 + cosh A)/2, -1 gives k0*(1 - cosh A)/2.
    """

    amplitude: float = 1.0
    delta: float = 0.1
    boost: float = 0.0
    band_limit: float = 1.0
    extent: float = 1.0
    m_phase: int | None = None
    phase_branch: str | None = None
    branch_sign: int = +1
    window_criterion: float = WINDOW_CRITERION_DEFAULT
    inv_sq_delta: float | None = None

    def __post_init__(self):
        for name in ("amplitude", "delta", "boost", "band_limit", "extent",
                     "window_criterion", "inv_sq_delta"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        if self.inv_sq_delta is None:
            object.__setattr__(self, "inv_sq_delta", self.delta**-2)
        elif abs(self.delta - 1.0 / math.sqrt(self.inv_sq_delta)) > 1e-9 * self.delta:
            raise ValueError("delta inconsistent with inv_sq_delta")
        if self.boost < 0.0:
            raise ValueError("boost must be >= 0")
        if self.band_limit <= 0.0:
            raise ValueError("band_limit must be > 0")
        if self.extent <= 0.0:
            raise ValueError("extent must be > 0")
        if self.branch_sign not in (+1, -1):
            raise ValueError("branch_sign must be +1 or -1")
        crit = self.extent * self.band_limit * math.cosh(self.boost) / self.inv_sq_delta
        if crit > self.window_criterion:
            raise ValueError(
                f"window criterion violated: delta^2*z_c*k0*cosh(A) = {crit:.4g} "
                f"> {self.window_criterion:.4g}; shrink extent or delta"
            )
        if self.phase_branch is not None:
            target = _lock_budget(self.m_phase, self.phase_branch)
            if abs(self.inv_sq_delta - target) > _LOCK_TOL:
                raise PhaseLockViolation(
                    f"delta**-2 = {self.inv_sq_delta!r} is not {self.phase_branch}-locked "
                    f"for m_phase = {self.m_phase}"
                )

    @classmethod
    def phase_locked(cls, m_phase: int, branch: str = QUARTER, **kwargs) -> "SuperoscParams":
        return cls(delta=locked_delta(m_phase, branch), m_phase=m_phase, phase_branch=branch,
                   inv_sq_delta=_lock_budget(m_phase, branch), **kwargs)

    @classmethod
    def locked_pair(
        cls, m_phase: int, **kwargs
    ) -> tuple["SuperoscParams", "SuperoscParams"]:
        """The quarter / three-quarter pair sharing all other knobs."""
        p1 = cls.phase_locked(m_phase, QUARTER, **kwargs)
        p2 = cls.phase_locked(m_phase, THREE_QUARTER, **kwargs)
        return p1, p2

    # -- derived scales ----------------------------------------------------

    @property
    def growth_exponent(self) -> float:
        """Log of the amplitude paid outside the window: sinh(A)/delta^2."""
        return math.sinh(self.boost) * self.inv_sq_delta

    @property
    def growth_peak_z(self) -> float:
        return growth_peak_position(self.inv_sq_delta, self.boost, self.band_limit)

    @property
    def log_growth_peak_magnitude(self) -> float:
        """Log of the growth-peak magnitude estimate A/(2*sqrt(sinh)) * e^sinh/d^2."""
        if self.boost == 0.0:
            raise ValueError("no growth peak at boost = 0")
        return (
            math.log(abs(self.amplitude) / (2.0 * math.sqrt(math.sinh(self.boost))))
            + self.growth_exponent
        )

    @property
    def far_field_onset(self) -> float:
        """|z| past which the waveform settles to slow oscillation at k0: twice growth_peak_z."""
        return 2.0 * self.growth_peak_z

    def superosc_wavenumber(self, branch_sign: int | None = None) -> float:
        sign = self.branch_sign if branch_sign is None else branch_sign
        return 0.5 * self.band_limit * (1.0 + sign * math.cosh(self.boost))


@dataclass(frozen=True)
class WindowSpec:
    """Gaussian normalizing window.

    ``half_width`` is the spectral kernel half-width (inverse length); the
    spatial profile is h(z) = exp(-(half_width*z)^2 / 2), so multiplying by
    h blurs the spectrum by a Gaussian of that standard width.
    half_width = 0 is the degenerate identity window.
    """

    half_width: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.half_width):
            raise ValueError(f"half_width must be finite, got {self.half_width}")
        if self.half_width < 0.0:
            raise ValueError("half_width must be >= 0")

    @property
    def is_identity(self) -> bool:
        return self.half_width == 0.0

    def log_profile(self, z):
        """log h(z), vectorized; exactly 0 for the identity window."""
        import numpy as np

        if self.is_identity:
            return np.zeros_like(np.asarray(z, dtype=float))
        # where the square overflows, h underflows to 0 and -inf is its exact log
        with np.errstate(over="ignore"):
            return -0.5 * (self.half_width * z) ** 2

    def profile(self, z):
        """h(z) = exp(-(half_width*z)^2/2); even, h(0) = 1, decreasing in |z|."""
        import numpy as np

        return np.exp(self.log_profile(np.asarray(z, dtype=float)))
