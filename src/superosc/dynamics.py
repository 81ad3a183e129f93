"""First-order excitation of a two-level detector by the sampled field.

The excitation probability after coupling for a time t is
    P(t) = g^2 |A(t)|^2,   A(t) = int_0^t F(z0 - c t') exp(i Omega t') dt'
with g the coupling prefactor and Omega the detector's gap frequency
(working units c = hbar = 1).  Writing z = z0 - t',
    A(t) = int_{z0 - t}^{z0} F(z) exp(i Omega (z0 - z)) dz.

F is the not-a-knot cubic spline fitted only on the samples the detector
can reach, [z0 - c t, z0], plus SPLINE_MARGIN samples on each side: a sample
k knots away moves such a spline by about (2 - sqrt 3)^k, so at 64 knots the
result is the whole-grid spline's to rounding.

The integral of that spline is exact, knot interval by knot interval
(Filon's method; L. N. G. Filon, Proc. R. Soc. Edinburgh 49, 1928).  On the
interval [x_j, x_j + h_j] the spline is sum_p c_pj (z - x_j)^p, so it adds
    exp(i Omega (z0 - x_j)) sum_p c_pj mu_p(h_j),
    mu_p(tau) = int_0^tau s^p exp(-i Omega s) ds,   p = 0..3.
A reverse cumulative sum of the whole intervals from z0 gives every time at
once; each time then adds only the partial interval at its lower end z0 - t,
and all share the partial interval at z0.  The cost is one term per knot
interval in the reach plus one per time, whatever Omega and the signal's
bandwidth.  A gap so large that Omega times the reach overflows is refused
with DomainError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import DegenerateDenominator, DomainError, InsufficientData
from .signal import SampledSignal

BREAKDOWN_THRESHOLD = 0.1  # first-order validity guard on P
MIN_REL_DETUNING = 0.1  # a selectivity probe is detuned by at least this fraction of the gap
SPLINE_MARGIN = 64  # samples kept beyond the detector's reach on each side

# Moments m_p(x) = int_0^1 u^p exp(-i x u) du, with mu_p(tau) = tau^(p+1) m_p(Omega tau).
# Up to x = MOMENT_SWITCH a 10-point Gauss-Legendre rule is exact to rounding
# (its error term is below 1e-20 there); above it the upward recurrence
# m_p = (p m_{p-1} - exp(-i x)) / (i x) multiplies an error by p/x < 3/2 per step.
MOMENT_SWITCH = 2.0
# 10-point Gauss-Legendre abscissae (positive half, ascending) and weights on
# [-1, 1]; a table, as leggauss's eigenvalue solve at import costs about 0.5 MB.
_GL_HALF_NODES = np.array([0.1488743389816312108848260, 0.4333953941292471907992659,
                           0.6794095682990244062343274, 0.8650633666889845107320967,
                           0.9739065285171717200779640])
_GL_HALF_WEIGHTS = np.array([0.2955242247147528701738930, 0.2692667193099963550912269,
                             0.2190863625159820439955349, 0.1494513491505805931457763,
                             0.0666713443086881375935688])
_GL_NODES = 0.5 * (1.0 + np.concatenate([-_GL_HALF_NODES[::-1], _GL_HALF_NODES]))  # on [0, 1]
_GL_WEIGHTS = 0.5 * np.concatenate([_GL_HALF_WEIGHTS[::-1], _GL_HALF_WEIGHTS])
_GL_MINUS_IU = -1j * _GL_NODES
_GL_WEIGHTED_POWERS = (_GL_WEIGHTS * _GL_NODES ** np.arange(4)[:, None]).T  # (node, p)
_POWERS = np.arange(1, 5)


@dataclass(frozen=True)
class TwoLevelParticle:
    gap_frequency: float
    coupling: float = 1.0
    detector_z: float = 0.0

    def __post_init__(self):
        for name in ("gap_frequency", "coupling", "detector_z"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.gap_frequency <= 0.0:
            raise ValueError("gap_frequency must be > 0")

    @property
    def gap_energy(self) -> float:
        return self.gap_frequency  # hbar = 1


def _moments(omega: np.ndarray, tau) -> np.ndarray:
    """mu_p(tau) = int_0^tau s^p exp(-i omega s) ds for p = 0..3, on a new last axis."""
    tau = np.asarray(tau)
    x = omega * tau
    low = x <= MOMENT_SWITCH
    m = np.empty(x.shape + (4,), dtype=complex)
    m[low] = np.exp(x[low][:, None] * _GL_MINUS_IU) @ _GL_WEIGHTED_POWERS
    ix = 1j * x[~low]
    e = np.exp(-ix)
    rec = [(1.0 - e) / ix]
    for p in (1, 2, 3):
        rec.append((p * rec[-1] - e) / ix)
    m[~low] = np.stack(rec, axis=-1)
    return m * tau[..., None] ** _POWERS


def _spline_amplitudes(spline: CubicSpline, gaps: np.ndarray, z0: float,
                       times: np.ndarray) -> np.ndarray:
    """A(t) of the module docstring for every gap and time, shape (gaps, times)."""
    x, c = spline.x, spline.c[::-1]  # c[p, j]: coefficient of (z - x_j)^p
    last = x.size - 2
    lows = z0 - times
    jb = min(max(int(np.searchsorted(x, z0, side="right")) - 1, 0), last)
    ja = np.clip(np.searchsorted(x, lows, side="right") - 1, 0, last)
    j0 = int(ja.min())
    knots, coef = x[j0:jb + 1], c[:, j0:jb + 1]  # the pieces the reach touches
    reach = float(z0 - knots[0])
    if not math.isfinite(float(gaps.max()) * reach):
        raise DomainError(f"gap frequency {gaps.max():g} times the detector's reach "
                          f"{reach:g} overflows")
    omega = gaps[:, None]
    phase = np.exp(1j * omega * (z0 - knots))
    # whole intervals j0 .. jb - 1, each at its own width; rounding of the
    # uniform knots leaves only a few distinct widths, so moments are per width
    widths, which = np.unique(np.diff(knots), return_inverse=True)
    moments = _moments(omega, widths)[:, which]
    whole = phase[:, :-1] * np.einsum("pj,gjp->gj", coef[:, :-1], moments)
    tail = np.zeros(phase.shape, dtype=complex)  # tail[:, k]: intervals j0 + k .. jb - 1
    tail[:, :-1] = np.cumsum(whole[:, ::-1], axis=1)[:, ::-1]
    top = phase[:, -1] * (_moments(gaps, z0 - knots[-1]) @ coef[:, -1])
    k = ja - j0
    bottom = phase[:, k] * np.einsum("pt,gtp->gt", coef[:, k], _moments(omega, lows - knots[k]))
    amps = top[:, None] + tail[:, k] - bottom
    amps[:, times == 0.0] = 0.0  # no time, no integral: exactly 0
    return amps


def _local_spline(s: SampledSignal, z_lo: float, z_hi: float) -> CubicSpline:
    """Cubic spline through the samples covering [z_lo, z_hi], plus the margin."""
    i_lo = max(0, math.floor((z_lo - s.z_min) / s.dz) - SPLINE_MARGIN)
    i_hi = min(s.n, math.ceil((z_hi - s.z_min) / s.dz) + SPLINE_MARGIN + 1)
    return CubicSpline(s.z_slice(i_lo, i_hi), s.values[i_lo:i_hi])


def _excitation_amplitudes(s: SampledSignal, gaps, times, detector_z: float) -> np.ndarray:
    """A(t) for every gap and time, shape (gaps, times), from one local spline."""
    gaps = np.atleast_1d(np.asarray(gaps, dtype=float))
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times.min() < 0.0:
        raise DomainError("times must be >= 0")
    t_max = float(times.max())
    if not s.covers(detector_z - t_max, detector_z):
        raise DomainError(f"signal grid does not cover [z0 - c t, z0] = "
                          f"[{detector_z - t_max}, {detector_z}]")
    spline = _local_spline(s, detector_z - t_max, detector_z)
    return _spline_amplitudes(spline, gaps, detector_z, times)


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


def _coupling_squared(coupling: float) -> float:
    try:
        return coupling**2
    except OverflowError:
        raise DomainError(f"coupling^2 overflows a double (coupling = {coupling:g})") from None


def probability_curve(s: SampledSignal, particle: TwoLevelParticle, times,
                      label: str = "") -> ProbabilityCurve:
    """P on a time grid; points with P above 0.1 carry the breakdown flag."""
    times = np.asarray(times, dtype=float)
    amps = _excitation_amplitudes(s, particle.gap_frequency, times, particle.detector_z)[0]
    values = _coupling_squared(particle.coupling) * np.abs(amps) ** 2
    return ProbabilityCurve(times=times, values=values,
                            gap_frequency=particle.gap_frequency,
                            coupling=particle.coupling, label=label or s.label)


def monochromatic_reference(amplitude: float, t, coupling: float = 1.0):
    """Resonant closed form g^2 amplitude^2 t^2 / 4 for F = amplitude*sin(Omega z).

    ``t`` is a time or an array of times.  At resonance the result does not
    depend on Omega.
    """
    if np.any(np.asarray(t) < 0.0):
        raise DomainError("t must be >= 0")
    return (coupling * amplitude * t) ** 2 / 4.0


def matched_sine_amplitude(s: SampledSignal, wavenumber: float,
                           z_lo: float, z_hi: float) -> float:
    """Least-squares amplitude of a sin(wavenumber*z) fit over [z_lo, z_hi].

    The constant relating the window-interior waveform to the reference sine
    is extracted from the samples, not assumed.
    """
    i_lo, i_hi = s.index_range(z_lo, z_hi)
    if i_hi - i_lo < 8:
        raise InsufficientData("fewer than 8 samples in the fit window")
    zw = s.z_slice(i_lo, i_hi)
    gw = np.real(s.values[i_lo:i_hi])
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
    """Least-squares line in (log t, log P) over the window.

    The closed form about the means: slope = sum(dx dy) / sum(dx^2) with
    dx = log t - mean(log t) and dy = log P - mean(log P), and the line
    passes through the means.
    """
    t_lo, t_hi = window
    sel = (curve.times >= t_lo) & (curve.times <= t_hi)
    if sel.sum() < 10:
        raise InsufficientData(f"only {int(sel.sum())} curve points in the fit window")
    if np.any(curve.values[sel] <= 0.0):
        raise InsufficientData("non-positive probabilities in the fit window")
    logt = np.log(curve.times[sel])
    logp = np.log(curve.values[sel])
    mean_logt, mean_logp = logt.mean(), logp.mean()
    dx = logt - mean_logt
    slope = (dx @ (logp - mean_logp)) / (dx @ dx)
    intercept = mean_logp - slope * mean_logt
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

    def selectivity(self, matched_gap: float) -> float:
        """P(matched) over the largest P among probes detuned by >= 10%."""
        i_match = int(np.argmin(np.abs(self.gaps - matched_gap)))
        others = np.abs(self.gaps - matched_gap) >= MIN_REL_DETUNING * matched_gap
        if not others.any():
            raise InsufficientData("no probe detuned by the required fraction")
        worst = self.probabilities[others].max()
        if not worst > 0.0:
            raise DegenerateDenominator("every detuned probe has P = 0: selectivity undefined")
        return float(self.probabilities[i_match] / worst)


def detuning_scan(s: SampledSignal, gaps, t: float,
                  coupling: float = 1.0, detector_z: float = 0.0) -> DetuningScan:
    """P at time t for each probe gap frequency."""
    gaps = np.asarray(gaps, dtype=float)
    if np.any(gaps <= 0.0):
        raise DomainError("all probe gaps must be > 0")
    amps = _excitation_amplitudes(s, gaps, t, detector_z)[:, 0]
    probs = _coupling_squared(coupling) * np.abs(amps) ** 2
    return DetuningScan(gaps=gaps, probabilities=probs, t=t, coupling=coupling)
