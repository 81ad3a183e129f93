"""First-order excitation of a two-level detector by the sampled field.

The excitation probability after coupling for a time t is
    P(t) = g^2 | int_0^t F(z0 - c t') exp(i Omega t') dt' |^2
with g the coupling prefactor and Omega the detector's gap frequency
(working units c = hbar = 1).  The signal is interpolated by a cubic
spline fitted only on the samples the detector can reach, [z0 - c t, z0],
plus SPLINE_MARGIN samples on each side: a sample k knots away moves a
not-a-knot spline by about (2 - sqrt 3)^k, so at 64 knots the result is the
whole-grid spline's to rounding.  The time integral is composite Simpson
with a fixed number of nodes per period of the fastest phase present,
Omega + c*k_max; the nodes of every time on a curve go through one spline
evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import DomainError, InsufficientData
from .params import MAX_COUNT
from .signal import SampledSignal

N_PER_PERIOD = 32
BREAKDOWN_THRESHOLD = 0.1  # first-order validity guard on P
SPLINE_MARGIN = 64  # samples kept beyond the detector's reach on each side


@dataclass(frozen=True)
class TwoLevelParticle:
    gap_frequency: float
    coupling: float = 1.0
    detector_z: float = 0.0

    def __post_init__(self):
        if self.gap_frequency <= 0.0:
            raise ValueError("gap_frequency must be > 0")

    @property
    def gap_energy(self) -> float:
        return self.gap_frequency  # hbar = 1


def _excitation_integrals(spline, particle: TwoLevelParticle, times,
                          k_max: float, n_per_period: int) -> np.ndarray:
    """Composite-Simpson excitation integral for each t, one spline call for all."""
    fastest = particle.gap_frequency + k_max
    counts = [max(8, math.ceil(t * fastest / (2.0 * math.pi) * n_per_period)) for t in times]
    if sum(counts) > MAX_COUNT:
        raise DomainError(f"{sum(counts)} time nodes exceed {MAX_COUNT}")
    nodes = []
    for t, n in zip(times, counts):
        n += n % 2
        nodes.append(np.linspace(0.0, t, n + 1))
    ts = np.concatenate(nodes)
    w_all = spline(particle.detector_z - ts) * np.exp(1j * particle.gap_frequency * ts)
    bounds = np.cumsum([tn.size for tn in nodes])[:-1]
    amps = np.empty(len(nodes), dtype=complex)
    for i, (t, w) in enumerate(zip(times, np.split(w_all, bounds))):
        h = t / (w.size - 1)
        amps[i] = (h / 3.0) * (w[0] + w[-1] + 4.0 * w[1:-1:2].sum() + 2.0 * w[2:-2:2].sum())
    return amps


def _check_coverage(s: SampledSignal, detector_z: float, t: float):
    if t < 0.0:
        raise DomainError("t must be >= 0")
    if not s.covers(detector_z - t, detector_z):
        raise DomainError(
            f"signal grid does not cover [z0 - c t, z0] = "
            f"[{detector_z - t}, {detector_z}]"
        )


def _local_spline(s: SampledSignal, z_lo: float, z_hi: float) -> CubicSpline:
    """Cubic spline through the samples covering [z_lo, z_hi], plus the margin."""
    i_lo = max(0, math.floor((z_lo - s.z_min) / s.dz) - SPLINE_MARGIN)
    i_hi = min(s.n, math.ceil((z_hi - s.z_min) / s.dz) + SPLINE_MARGIN + 1)
    return CubicSpline(s.z[i_lo:i_hi], s.values[i_lo:i_hi])


def transition_probability(s: SampledSignal, particle: TwoLevelParticle, t: float,
                           n_per_period: int = N_PER_PERIOD) -> float:
    """P(t) for one time; see module docstring."""
    _check_coverage(s, particle.detector_z, t)
    if t == 0.0:
        return 0.0
    spline = _local_spline(s, particle.detector_z - t, particle.detector_z)
    (amp,) = _excitation_integrals(spline, particle, [t], s.k_max, n_per_period)
    return particle.coupling**2 * abs(amp) ** 2


@dataclass(frozen=True, eq=False)
class ProbabilityCurve:
    times: np.ndarray
    values: np.ndarray
    gap_frequency: float
    coupling: float
    label: str = ""
    breakdown: np.ndarray = field(init=False)

    def __post_init__(self):
        if np.any(self.values < 0.0):
            raise ValueError("probabilities must be >= 0")
        object.__setattr__(self, "breakdown", self.values > BREAKDOWN_THRESHOLD)

    @property
    def any_breakdown(self) -> bool:
        return bool(self.breakdown.any())


def probability_curve(s: SampledSignal, particle: TwoLevelParticle, times,
                      n_per_period: int = N_PER_PERIOD,
                      label: str = "") -> ProbabilityCurve:
    """P on a time grid; points with P above 0.1 carry the breakdown flag."""
    times = np.asarray(times, dtype=float)
    if times.min() < 0.0:
        raise DomainError("times must be >= 0")
    t_max = float(times.max())
    _check_coverage(s, particle.detector_z, t_max)
    spline = _local_spline(s, particle.detector_z - t_max, particle.detector_z)
    # t = 0 integrates over no time: its amplitude is exactly 0
    amps = _excitation_integrals(spline, particle, times, s.k_max, n_per_period)
    values = np.array([particle.coupling**2 * abs(amp) ** 2 for amp in amps])
    return ProbabilityCurve(times=times, values=values,
                            gap_frequency=particle.gap_frequency,
                            coupling=particle.coupling, label=label or s.label)


def monochromatic_reference(gap_frequency: float, amplitude: float, t: float,
                            coupling: float = 1.0) -> float:
    """Resonant closed form g^2 amplitude^2 t^2 / 4 for F = amplitude*sin(Omega z)."""
    if t < 0.0:
        raise DomainError("t must be >= 0")
    return (coupling * amplitude * t) ** 2 / 4.0


def matched_sine_amplitude(s: SampledSignal, wavenumber: float,
                           z_lo: float, z_hi: float) -> float:
    """Least-squares amplitude of a sin(wavenumber*z) fit over [z_lo, z_hi].

    The constant relating the window-interior waveform to the reference sine
    is extracted from the samples, not assumed.
    """
    sel = (s.z >= z_lo) & (s.z <= z_hi)
    if sel.sum() < 8:
        raise InsufficientData("fewer than 8 samples in the fit window")
    zw = s.z[sel]
    gw = np.real(s.values[sel])
    basis = np.column_stack([np.sin(wavenumber * zw), np.cos(wavenumber * zw)])
    coeff, *_ = np.linalg.lstsq(basis, gw, rcond=None)
    return float(np.hypot(*coeff))


@dataclass(frozen=True)
class ExponentFit:
    exponent: float
    prefactor: float
    window: tuple[float, float]
    residual_rms: float
    n_points: int


def fit_exponent(curve: ProbabilityCurve, window: tuple[float, float]) -> ExponentFit:
    """Least-squares line in (log t, log P) over the window."""
    t_lo, t_hi = window
    sel = (curve.times >= t_lo) & (curve.times <= t_hi)
    if sel.sum() < 10:
        raise InsufficientData(f"only {int(sel.sum())} curve points in the fit window")
    if np.any(curve.values[sel] <= 0.0):
        raise InsufficientData("non-positive probabilities in the fit window")
    logt = np.log(curve.times[sel])
    logp = np.log(curve.values[sel])
    slope, intercept = np.polyfit(logt, logp, 1)
    resid = logp - (slope * logt + intercept)
    return ExponentFit(
        exponent=float(slope),
        prefactor=float(np.exp(intercept)),
        window=(float(t_lo), float(t_hi)),
        residual_rms=float(np.sqrt(np.mean(resid**2))),
        n_points=int(sel.sum()),
    )


@dataclass(frozen=True, eq=False)
class DetuningScan:
    gaps: np.ndarray
    probabilities: np.ndarray
    t: float
    coupling: float

    def selectivity(self, matched_gap: float, min_rel_detuning: float = 0.1) -> float:
        """P(matched) over the largest P among probes detuned by >= 10%."""
        i_match = int(np.argmin(np.abs(self.gaps - matched_gap)))
        others = np.abs(self.gaps - matched_gap) >= min_rel_detuning * matched_gap
        if not others.any():
            raise InsufficientData("no probe detuned by the required fraction")
        return float(self.probabilities[i_match] / self.probabilities[others].max())


def detuning_scan(s: SampledSignal, gaps, t: float,
                  coupling: float = 1.0, detector_z: float = 0.0,
                  n_per_period: int = N_PER_PERIOD) -> DetuningScan:
    """P at time t for each probe gap frequency."""
    gaps = np.asarray(gaps, dtype=float)
    if np.any(gaps <= 0.0):
        raise DomainError("all probe gaps must be > 0")
    _check_coverage(s, detector_z, t)
    probs = np.empty(gaps.size)
    spline = _local_spline(s, detector_z - t, detector_z)
    for i, gap in enumerate(gaps):
        particle = TwoLevelParticle(gap_frequency=float(gap), coupling=coupling,
                                    detector_z=detector_z)
        (amp,) = _excitation_integrals(spline, particle, [t], s.k_max, n_per_period)
        probs[i] = coupling**2 * abs(amp) ** 2
    return DetuningScan(gaps=gaps, probabilities=probs, t=t, coupling=coupling)
