"""First-order excitation of a two-level detector by the sampled field.

The excitation probability after coupling for a time t is
    P(t) = g^2 |A(t)|^2,   A(t) = int_0^t F(z0 - c t') exp(i Omega t') dt'
with g the coupling prefactor and Omega the detector's gap frequency
(working units c = hbar = 1).  Writing z = z0 - t',
    A(t) = int_{z0 - t}^{z0} F(z) exp(i Omega (z0 - z)) dz.

F is the not-a-knot cubic spline through the samples the detector can reach,
[z0 - c t, z0], plus SPLINE_MARGIN samples on each side (the reach window).
A sample k knots away moves such a spline by about (2 - sqrt 3)^k, so at 64
knots the result is the whole-grid spline's to rounding.

The integral of that spline is exact, knot interval by knot interval
(Filon's method; L. N. G. Filon, Proc. R. Soc. Edinburgh 49, 1928).  On the
interval [x_j, x_j + h_j] the spline is sum_p c_pj (z - x_j)^p, so it adds
    exp(i Omega (z0 - x_j)) sum_p c_pj mu_p(h_j),
    mu_p(tau) = int_0^tau s^p exp(-i Omega s) ds,   p = 0..3.
Every time takes the whole intervals from its lower end z0 - t up to z0,
minus the part of its lowest interval below z0 - t, plus the partial interval
at z0.  A gap so large that Omega times the reach overflows is refused with
DomainError, on every call.

The detector matrix: A is linear in the samples, and its weights depend
only on the grid and the detector, never on the signal's values.  They are
kept as real rows, the real parts of each gap's weights and then their
imaginary parts, so the real samples of a real signal give real products:
W @ F[i_lo:i_hi] holds Re A for every gap, then Im A, and a warm call is one
real matrix-vector product.  W = Phi . S is the arithmetic above in another
order:

* Phi holds the weight of each spline coefficient c_pj in A: phase times
  moment on the whole intervals a time covers, plus the partial interval at
  z0, minus the partial interval below z0 - t.  The whole intervals enter
  as suffix sums: one sum per run of intervals between the distinct lower
  ends, then a running sum over the runs, O(intervals + distinct ends);
* S is the spline's linear map from samples to coefficients.  Its columns
  are the splines of unit samples, fitted BLOCK_COLUMNS = 2 SPLINE_MARGIN at
  a time, each block on its own knots plus SPLINE_MARGIN knots on each side,
  clipped to the reach window.  By the (2 - sqrt 3)^k decay above, a block's
  fit equals the fit on the whole window to rounding, so a build costs
  O(reach x BLOCK_COLUMNS), not O(reach^2).  Samples whose columns lie past
  the margin of every interval Phi weighs get zero columns.

Caching: ``_detector_matrix`` keeps W real and read-only, shape (2 gaps,
times, reach samples), in a bounded LRU cache, maxsize 8, keyed by
everything W depends on: the grid's z_min and dz, the reach window
(i_lo, i_hi), z0, and the gaps and times as tuples.  An entry takes 16 bytes
per (gap, time, sample): 0.34 MiB for a 48-point curve on the 2^16-point
dyn grid (457 samples in the window), 0.07 MiB for a 4-gap scan at
Omega t = 100 pi.  On 2 cores, a cold build takes about 5-9 ms for that
curve and 12-24 ms for that scan, almost all of it the CubicSpline fits; a
warm call is the bounds checks, one lookup and one real matrix-vector
product, 15-25 us against 1.2-1.5 ms for a spline fitted per call.  A
complex signal's samples make numpy cast W for that call.  A key above
MATRIX_MAX_ENTRIES (gap, time, sample) entries (16 MiB) builds no W: Phi is
applied to the samples' own spline over the reach window, one column, so
such a call costs O(reach x gaps + times) each time, about 25 ms for a
4096-point curve over a reach of 19 790 samples.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import DegenerateDenominator, DomainError, InsufficientData
from .signal import SampledSignal

BREAKDOWN_THRESHOLD = 0.1  # first-order validity guard on P
MIN_REL_DETUNING = 0.1  # a selectivity probe is detuned by at least this fraction of the gap
SPLINE_MARGIN = 64  # samples kept beyond the detector's reach on each side
BLOCK_COLUMNS = 2 * SPLINE_MARGIN  # unit samples fitted together when W is built
MATRIX_MAX_ENTRIES = 2**20  # largest W kept (16 MiB); a larger one is applied block by block
MIN_SINE_FIT_DET = 1e-8  # det / (s.s c.c) of the sine fit's normal equations, else collinear

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


class _PieceWeights(NamedTuple):
    """Phi: the weight of each spline coefficient in A, for the knots x.

    With C[j] the (power, column) coefficients of piece j, highest power
    first as ``CubicSpline.c`` holds them, A[t] = top @ C[jb]
    + sum_{ja_t <= j < jb} whole[j - j0] @ C[j] - bottom[t] @ C[ja_t].  Each
    weight has 2 * gaps rows: the real parts of the gaps' weights, then
    their imaginary parts, so that a product with real coefficients stays real.
    """

    j0: int              # lowest piece any time reaches
    jb: int              # the piece holding z0
    ja: np.ndarray       # (times,) the piece holding each z0 - t
    whole: np.ndarray    # (jb - j0, 2 gaps, 4): phase times moments of each whole piece
    top: np.ndarray      # (2 gaps, 4): the partial piece [x_jb, z0]
    bottom: np.ndarray   # (times, 2 gaps, 4): the partial piece [x_ja, z0 - t]
    still: np.ndarray    # (times,) where t = 0


def _real_rows(weights: np.ndarray, axis: int) -> np.ndarray:
    """Complex weights (..., 4), powers ascending, as real then imaginary rows along axis.

    The powers come out descending, the order of ``CubicSpline.c``.
    """
    return np.ascontiguousarray(np.concatenate([weights.real, weights.imag], axis=axis)[..., ::-1])


def _piece_weights(x: np.ndarray, gaps: np.ndarray, z0: float,
                   times: np.ndarray) -> _PieceWeights:
    """Phi on the knots x; DomainError when Omega times the reach overflows."""
    last = x.size - 2
    lows = z0 - times
    jb = min(max(int(np.searchsorted(x, z0, side="right")) - 1, 0), last)
    ja = np.clip(np.searchsorted(x, lows, side="right") - 1, 0, last)
    j0 = int(ja.min())
    knots = x[j0:jb + 1]  # the pieces the reach touches
    reach = float(z0 - knots[0])
    if not math.isfinite(float(gaps.max()) * reach):
        raise DomainError(f"gap frequency {gaps.max():g} times the detector's reach "
                          f"{reach:g} overflows")
    omega = gaps[:, None]
    phase = np.exp(1j * omega * (z0 - knots))[..., None]
    # rounding of the uniform knots leaves only a few distinct widths, so moments are per width
    widths, which = np.unique(np.diff(knots), return_inverse=True)
    k = ja - j0
    return _PieceWeights(
        j0=j0, jb=jb, ja=ja,
        whole=_real_rows((phase[:, :-1] * _moments(omega, widths)[:, which]).swapaxes(0, 1), 1),
        top=_real_rows(phase[:, -1] * _moments(gaps, z0 - knots[-1]), 0),
        bottom=_real_rows((phase[:, k] * _moments(omega, lows - knots[k])).swapaxes(0, 1), 1),
        still=times == 0.0)


def _block_rows(w: _PieceWeights, coef: np.ndarray, lo: int) -> np.ndarray:
    """Phi @ coef, shape (times, 2 gaps, col), for coef[j - lo] on pieces lo.. and 0 elsewhere."""
    hi = lo + coef.shape[0]
    mid = min(max(lo, w.jb), hi)  # whole pieces lo .. mid - 1
    pieces = w.whole[lo - w.j0:mid - w.j0] @ coef[:mid - lo]
    # A[t] sums the whole pieces from max(ja_t, lo) on; times sharing that start share the
    # sum: one sum per segment between the sorted starts, then a suffix sum over the segments
    starts, start_of = np.unique(np.clip(w.ja, lo, mid) - lo, return_inverse=True)
    inner = starts[starts < mid - lo]  # a start at mid sums no piece
    sums = np.zeros((starts.size,) + pieces.shape[1:], dtype=pieces.dtype)
    if inner.size:
        sums[:inner.size] = np.cumsum(np.add.reduceat(pieces, inner)[::-1], axis=0)[::-1]
    rows = sums[start_of]
    if lo <= w.jb < hi:
        rows += w.top @ coef[w.jb - lo]
    inside = (lo <= w.ja) & (w.ja < hi)
    rows[inside] -= w.bottom[inside] @ coef[w.ja[inside] - lo]
    rows[w.still] = 0.0  # no time, no integral: exactly 0
    return rows


@functools.lru_cache(maxsize=8)
def _detector_matrix(z_min: float, dz: float, i_lo: int, i_hi: int, z0: float,
                     gaps: tuple, times: tuple) -> np.ndarray:
    """W on the grid z_min + dz * arange(n), real and read-only.

    W has shape (2 gaps, times, i_hi - i_lo): W @ F[i_lo:i_hi] holds the real
    parts of A, then its imaginary parts.  Each block of BLOCK_COLUMNS columns
    is Phi times the splines of its unit samples (module docstring).
    """
    x = z_min + dz * np.arange(i_lo, i_hi)
    w = _piece_weights(x, np.array(gaps), z0, np.array(times))
    m = x.size
    matrix = np.zeros((2 * len(gaps), len(times), m))
    for b0 in range(0, m, BLOCK_COLUMNS):
        b1 = min(b0 + BLOCK_COLUMNS, m)
        k_lo, k_hi = max(0, b0 - SPLINE_MARGIN), min(m, b1 + SPLINE_MARGIN)
        lo, hi = max(k_lo, w.j0), min(k_hi - 1, w.jb + 1)  # the pieces Phi weighs
        if lo < hi:  # else these samples lie beyond the margin of every weighed piece
            unit = np.zeros((k_hi - k_lo, b1 - b0))
            unit[np.arange(b0 - k_lo, b1 - k_lo), np.arange(b1 - b0)] = 1.0
            coef = CubicSpline(x[k_lo:k_hi], unit).c.transpose(1, 0, 2)  # (piece, power, col)
            rows = _block_rows(w, np.ascontiguousarray(coef[lo - k_lo:hi - k_lo]), lo)
            matrix[:, :, b0:b1] = rows.transpose(1, 0, 2)
    matrix.flags.writeable = False
    return matrix


def _detector_key(s: SampledSignal, gaps, times, detector_z: float) -> tuple:
    """Check the times, then (z_min, dz, i_lo, i_hi, z0, gaps, times): all that W depends on.

    The reach window [i_lo, i_hi) is the samples covering [z0 - max(times), z0]
    plus SPLINE_MARGIN on each side, clipped to the grid.
    """
    gaps = np.atleast_1d(np.asarray(gaps, dtype=float))
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times.min() < 0.0:
        raise DomainError("times must be >= 0")
    t_max = float(times.max())
    if not s.covers(detector_z - t_max, detector_z):
        raise DomainError(f"signal grid does not cover [z0 - c t, z0] = "
                          f"[{detector_z - t_max}, {detector_z}]")
    i_lo = max(0, math.floor((detector_z - t_max - s.z_min) / s.dz) - SPLINE_MARGIN)
    i_hi = min(s.n, math.ceil((detector_z - s.z_min) / s.dz) + SPLINE_MARGIN + 1)
    return s.z_min, s.dz, i_lo, i_hi, detector_z, tuple(gaps.tolist()), tuple(times.tolist())


def _excitation_amplitudes(s: SampledSignal, gaps, times, detector_z: float) -> np.ndarray:
    """A(t) for every gap and time, shape (gaps, times): W's real rows times the reach samples."""
    key = _detector_key(s, gaps, times, detector_z)
    _, _, i_lo, i_hi, _, gaps, times = key
    samples = s.values[i_lo:i_hi]
    # BLAS need not raise the overflow flag, so A itself is checked
    with np.errstate(over="ignore", invalid="ignore"):
        if len(gaps) * len(times) * samples.size <= MATRIX_MAX_ENTRIES:
            rows = _detector_matrix(*key) @ samples
        else:  # too large to keep: Phi applied to the samples' own spline
            x = s.z_slice(i_lo, i_hi)
            w = _piece_weights(x, np.array(gaps), detector_z, np.array(times))
            coef = CubicSpline(x, samples).c.T[w.j0:w.jb + 1, :, None]  # (piece, power, 1)
            rows = _block_rows(w, np.ascontiguousarray(coef), w.j0)[:, :, 0].T
        amps = rows[:len(gaps)] + 1j * rows[len(gaps):]
    if not np.isfinite(amps).all():
        raise DomainError(f"the detector amplitude A overflows a double "
                          f"(samples up to {s.max_abs:g})")
    return amps


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


def _probabilities(coupling: float, amps: np.ndarray, where: str) -> np.ndarray:
    """g^2 |A|^2, or DomainError naming P when a value overflows a double."""
    g2 = _coupling_squared(coupling)
    with np.errstate(over="ignore"):
        probs = g2 * np.abs(amps) ** 2
    if not np.all(np.isfinite(probs)):
        raise DomainError(f"P = g^2 |A|^2 overflows a double {where} "
                          f"(g^2 = {g2:g}, max |A| = {np.abs(amps).max():g})")
    return probs


def probability_curve(s: SampledSignal, particle: TwoLevelParticle, times,
                      label: str = "") -> ProbabilityCurve:
    """P on a time grid; points with P above 0.1 carry the breakdown flag."""
    times = np.asarray(times, dtype=float)
    amps = _excitation_amplitudes(s, particle.gap_frequency, times, particle.detector_z)[0]
    values = _probabilities(particle.coupling, amps, "on the probability curve")
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
    try:
        with np.errstate(over="ignore"):
            reference = (coupling * amplitude * t) ** 2 / 4.0
    except OverflowError:  # a Python float's square raises instead
        reference = math.inf
    if not np.all(np.isfinite(reference)):
        raise DomainError(f"the monochromatic reference P = (g a t)^2 / 4 overflows a double "
                          f"(g = {coupling:g}, a = {amplitude:g})")
    return reference


def matched_sine_amplitude(s: SampledSignal, wavenumber: float,
                           z_lo: float, z_hi: float) -> float:
    """Least-squares amplitude of a sin(wavenumber*z) fit over [z_lo, z_hi].

    The constant relating the window-interior waveform to the reference sine
    is extracted from the samples, not assumed.  The fit a sin + b cos solves
    the 2x2 normal equations [[s.s, s.c], [s.c, c.c]] (a, b) = (s.g, c.g) by
    Cramer's rule; the amplitude is hypot(a, b).  A basis whose determinant
    is below MIN_SINE_FIT_DET of s.s c.c is collinear to rounding (as when
    wavenumber * dz is a multiple of pi) and is refused.
    """
    i_lo, i_hi = s.index_range(z_lo, z_hi)
    if i_hi - i_lo < 8:
        raise InsufficientData("fewer than 8 samples in the fit window")
    z = s.z_slice(i_lo, i_hi)
    if not math.isfinite(wavenumber * float(max(abs(z[0]), abs(z[-1])))):
        raise DomainError(f"wavenumber {wavenumber:g} times z overflows a double on the fit "
                          f"window [{z_lo:g}, {z_hi:g}]")
    phase = wavenumber * z
    sine, cosine = np.sin(phase), np.cos(phase)
    gw = np.real(s.values[i_lo:i_hi])
    ss, sc, cc = float(sine @ sine), float(sine @ cosine), float(cosine @ cosine)
    sg, cg = float(sine @ gw), float(cosine @ gw)
    det = ss * cc - sc * sc
    if not det > MIN_SINE_FIT_DET * ss * cc:
        raise DegenerateDenominator(
            f"sin and cos of wavenumber {wavenumber:g} z are collinear on the fit window "
            f"[{z_lo:g}, {z_hi:g}]: the matched sine amplitude is undefined")
    amplitude = math.hypot(sg * (cc / det) - cg * (sc / det), cg * (ss / det) - sg * (sc / det))
    if not math.isfinite(amplitude):
        raise DomainError("the matched sine amplitude overflows a double")
    return amplitude


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
    probs = _probabilities(coupling, amps, "in the detuning scan")
    return DetuningScan(gaps=gaps, probabilities=probs, t=t, coupling=coupling)
