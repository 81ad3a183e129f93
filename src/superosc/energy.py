"""Energy bookkeeping for the excitation-conditioned field state.

Once the detector is measured excited, the field energy decomposes into
three terms: I1 is the pre-interaction energy, I2 converges to minus the
detector's gap energy (the absorbed quantum), and I3 is a box-suppressed
remainder carrying an explicit UV cutoff.  The balance
    E_after = E_before - E_gap
then holds up to corrections of order 1/(Omega t).

I2 reduces, for the matched sinusoidal waveform, to a ratio of trigonometric
double integrals.  All of them have elementary antiderivatives
(product-to-sum identities), so I2 is evaluated in closed form with no
quadrature error; it depends on Omega and t only through theta = Omega*t:

    I2/E = -(theta^2/4 - sin(2 theta)^2/16 - sin(theta)^4/4)
           / (sin(theta)^4/4 + (theta/2 - sin(2 theta)/4)^2)

I3's k integral depends only on the UV cutoff, Omega, t and the node
density, not on the waveform's amplitude or the box, so ``_i3_integral``
holds it in a bounded LRU cache keyed by (k_uv, Omega, t, n_per_period),
maxsize 16.  ``compute_I3`` divides the cached float by box_length^2 and the
denominator on every call, as before, so its result is unchanged.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import TwoLevelParticle
from .errors import BalanceViolation, CutoffMissing, DegenerateDenominator, DomainError
from .field import CoherentAmplitudes, ModeGrid, energy_before
from .params import MAX_COUNT

MIN_THETA = 4.0 * math.pi      # below this the closed form is not trusted
BALANCE_THETA = 40.0 * math.pi  # minimum for a full balance report
RESIDUAL_TOL = 0.05
_I3_N_PER_PERIOD = 16


def i2_over_gap(theta: float) -> float:
    """I2 in units of the gap energy, a function of theta = Omega*t alone."""
    if theta <= 0.0:
        raise DomainError("theta must be > 0")
    s2 = math.sin(2.0 * theta)
    s1 = math.sin(theta)
    numerator = theta**2 / 4.0 - s2**2 / 16.0 - s1**4 / 4.0
    denominator = s1**4 / 4.0 + (theta / 2.0 - s2 / 4.0) ** 2
    if denominator < 1e-12:
        raise DegenerateDenominator(f"sine-overlap denominator vanished at theta={theta}")
    return -numerator / denominator


def compute_I2(gap_frequency: float, t: float) -> float:
    """I2/E by exact trig antiderivatives; requires Omega*t >= 4 pi."""
    theta = gap_frequency * t
    if theta < MIN_THETA:
        raise DomainError(f"Omega*t = {theta:.3f} below the {MIN_THETA:.3f} floor")
    return i2_over_gap(theta)


def sine_overlap_denominator(gap_frequency: float, t: float,
                             amplitude: float = 1.0) -> float:
    """|int_0^t amplitude sin(Omega t') exp(-i Omega t') dt'|^2, closed form."""
    theta = gap_frequency * t
    s2 = math.sin(2.0 * theta)
    s1 = math.sin(theta)
    base = s1**4 / (4.0 * gap_frequency**2) + (t / 2.0 - s2 / (4.0 * gap_frequency)) ** 2
    return amplitude**2 * base


def compute_I1(ca: CoherentAmplitudes) -> float:
    """Identically the pre-interaction energy (structural delegation)."""
    return energy_before(ca).value


def compute_I3(grid: ModeGrid, gap_frequency: float, t: float,
               denominator: float, n_per_period: int = _I3_N_PER_PERIOD) -> float:
    """Box-suppressed remainder with explicit UV cutoff.

    Per mode the time integrals collapse to 4 sin^2((Omega+w)t/2)/(Omega+w)^2;
    the k integral runs to the cutoff and is done by trapezoid with the
    oscillation in k resolved at n_per_period nodes per period.
    """
    if grid.uv_cutoff is None:
        raise CutoffMissing("compute_I3 requires uv_cutoff on the mode grid")
    if denominator <= 0.0:
        raise DegenerateDenominator("denominator must be positive")
    integral = _i3_integral(grid.uv_cutoff, gap_frequency, t, n_per_period)
    return integral / (grid.box_length**2 * denominator)


@functools.lru_cache(maxsize=16)
def _i3_integral(k_uv: float, gap_frequency: float, t: float, n_per_period: int) -> float:
    """The k integral of ``compute_I3``, to the cutoff k_uv."""
    nodes = k_uv * t / (2.0 * math.pi) * n_per_period
    if not nodes <= MAX_COUNT:
        raise DomainError(f"{nodes:.3g} k nodes up to the UV cutoff exceed {MAX_COUNT}")
    n = max(1024, int(math.ceil(nodes)))
    k = np.linspace(0.0, k_uv, n + 1)
    w = k  # omega = c k
    integrand = k**2 * 4.0 * np.sin((gap_frequency + w) * t / 2.0) ** 2 / (
        gap_frequency + w
    ) ** 2
    return float(np.trapezoid(integrand, k))


@dataclass(frozen=True)
class EnergyReport:
    energy_before: float
    i1: float
    i2: float
    i3: float
    energy_after: float
    gap_energy: float
    residual: float
    params: dict
    warnings: tuple = ()

    def to_dict(self) -> dict:
        return {
            "energy_before": self.energy_before,
            "i1": self.i1,
            "i2": self.i2,
            "i3": self.i3,
            "energy_after": self.energy_after,
            "gap_energy": self.gap_energy,
            "residual": self.residual,
            "params": dict(self.params),
            "warnings": list(self.warnings),
        }


def energy_balance(ca: CoherentAmplitudes, particle: TwoLevelParticle, t: float,
                   grid: ModeGrid, amplitude: float = 1.0,
                   max_residual: float = RESIDUAL_TOL) -> EnergyReport:
    """Assemble the full ledger and assert the balance residual.

    ``amplitude`` is the matched-sine amplitude of the waveform at the
    detector (extract it with ``dynamics.matched_sine_amplitude``); it sets
    the physical normalization of the I3 denominator.  Raises
    BalanceViolation when |residual| exceeds ``max_residual``.
    """
    theta = particle.gap_frequency * t
    if theta < BALANCE_THETA:
        raise DomainError(
            f"balance report requires Omega*t >= {BALANCE_THETA:.1f}, got {theta:.1f}"
        )
    warnings: list[str] = []
    e_b = compute_I1(ca)
    i1 = e_b  # structural identity
    gap_e = particle.gap_energy
    i2 = gap_e * i2_over_gap(theta)
    denom = sine_overlap_denominator(particle.gap_frequency, t, amplitude)
    i3 = compute_I3(grid, particle.gap_frequency, t, denom)
    if grid.uv_cutoff is not None:
        warnings.append(
            f"i3 evaluated with explicit UV cutoff k_uv = {grid.uv_cutoff:g}; "
            "its k-integral diverges without one"
        )
    if e_b == 0.0:
        warnings.append(
            "vacuum field: excitation probability is zero, conditioning on the "
            "excited outcome is vacuous; report outside first-order validity"
        )
    e_a = i1 + i2 + i3
    residual = (e_a - e_b + gap_e) / gap_e
    report = EnergyReport(
        energy_before=e_b,
        i1=i1,
        i2=i2,
        i3=i3,
        energy_after=e_a,
        gap_energy=gap_e,
        residual=residual,
        params={
            "box_length": grid.box_length,
            "uv_cutoff": grid.uv_cutoff,
            "gap_frequency": particle.gap_frequency,
            "t": t,
            "theta": theta,
            "amplitude": amplitude,
        },
        warnings=tuple(warnings),
    )
    if not math.isfinite(residual):
        raise BalanceViolation("balance residual is not finite", report)
    if e_b > 0.0 and abs(residual) > max_residual:
        raise BalanceViolation(
            f"|residual| = {abs(residual):.4g} exceeds {max_residual:.4g}", report
        )
    return report
