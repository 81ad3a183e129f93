"""Independent routes that tests compare the package against.

None of these is reached by the CLI.  Each computes a quantity the package
computes another way:

* ``radicand`` and ``synth_asymptotic`` -- the large-argument cosine
  approximation of one component, against ``synth_bessel``;
* ``all_points_component_log`` -- one component with both Bessel branches
  evaluated on every point and merged by ``np.where``, against the masked
  ``component_log``;
* ``all_points_pair`` -- the pair combined in complex arithmetic from
  unit-amplitude log-magnitudes, log|a| added to the peak, against the real
  combine of ``PairSynthesizer.sample`` and ``sample_real``;
* ``in_log_pair`` -- the pair with log|a| inside each log-magnitude, the
  formula the factored combine replaced, which bounds its rounding;
* ``complex_circle_trapezoid`` -- the shifted circle integral's trapezoid
  sum over all N nodes in complex arithmetic, against the quarter-period
  real sum of ``synthesis._circle_trapezoid``;
* ``mode_sum_B`` -- the field expectation as a direct sum over modes at
  arbitrary z, against the inverse FFT of ``expectation_B``;
* ``local_spline`` and ``spline_amplitudes`` -- the detector integral of
  one not-a-knot spline fitted per call on the reach plus SPLINE_MARGIN
  samples, integrated exactly piece by piece; ``per_call_amplitudes``
  chains the two.  Against the cached detector matrix of
  ``dynamics._excitation_amplitudes``.

* ``mirrored_spectrum``, ``lattice_amplitudes``, ``lattice_expectation_B``
  and ``lattice_energy`` -- the spectral chain as it was written
  before the per-box mode tables: the conjugate mirror of the rfft half
  concatenated into a signed-k array, and sqrt(L / (2 pi omega)), its
  inverse, the wavenumbers and diff(k) rebuilt on every call.  Against the
  cached tables of ``field``, bit for bit;
* ``lstsq_sine_amplitude`` -- the matched sine amplitude from
  ``np.linalg.lstsq`` on the n x 2 sin/cos basis, against the closed-form
  normal equations of ``dynamics.matched_sine_amplitude``;
* ``zero_crossings`` and ``crossing_frequency`` -- a real signal's local
  wavenumber as pi over the spacing of its zero crossings, against the
  wavenumber its complex pair is built for (``frequency`` measures complex
  signals only).

``growth_region`` only picks test points.
"""

import dataclasses
import math

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.special import i0e, j0

from superosc import SampledSignal, SuperoscParams
from superosc.dynamics import SPLINE_MARGIN, _moments
from superosc.errors import DomainError, OverflowRegime, QuadratureNoConvergence
from superosc.field import CoherentAmplitudes
from superosc.quadrature import QuadResult
from superosc.spectral import SpectralDensity, box_irfft
from superosc.synthesis import INTEGRAL_REL_TARGET, LOG_DOUBLE_MAX, _radicand


def radicand(p: SuperoscParams, z):
    """1 - delta^2 z k0 cosh A + delta^4 z^2 k0^2 / 4 (negative in the growth region)."""
    return _radicand(p.inv_sq_delta, p.boost, p.band_limit, np.asarray(z, dtype=float))


def growth_region(p: SuperoscParams) -> tuple[float, float]:
    """(z_lo, z_hi) between which the radicand is negative; empty at boost 0."""
    if p.boost == 0.0:
        zp = 2.0 * p.inv_sq_delta / p.band_limit
        return (zp, zp)
    s = 2.0 * p.inv_sq_delta / p.band_limit
    return (s * math.exp(-p.boost), s * math.exp(p.boost))


def all_points_component_log(p: SuperoscParams, z):
    """(log-magnitude, unit factor) of one component, both Bessel branches on every point."""
    z = np.asarray(z, dtype=float)
    rad = radicand(p, z)
    if p.amplitude == 0.0:
        return np.full(z.shape, -np.inf), np.zeros(z.shape, dtype=complex)
    log_pref = math.log(abs(p.amplitude) * math.sqrt(math.pi) / (math.sqrt(2.0) * p.delta))
    oscillatory = rad >= 0.0
    jval = j0(p.inv_sq_delta * np.sqrt(np.maximum(rad, 0.0)))
    xi = p.inv_sq_delta * np.sqrt(np.maximum(-rad, 0.0))
    with np.errstate(divide="ignore"):
        logmag = np.where(oscillatory, log_pref + np.log(np.abs(jval)),
                          log_pref + xi + np.log(i0e(xi)))
    sign = np.where(oscillatory, np.sign(jval), 1.0) * math.copysign(1.0, p.amplitude)
    return logmag, sign * np.exp(0.5j * z * p.band_limit)


def _pair_logs(p1: SuperoscParams, p2: SuperoscParams, branch: int, z, window):
    """(l1, u1, l2, u2) of F1 + branch * i * F2 on z, window included."""
    l1, u1 = all_points_component_log(p1, z)
    l2, u2 = all_points_component_log(p2, z)
    u2 = u2 * (1j * branch)
    if window is not None:
        logh = window.log_profile(z)
        l1, l2 = l1 + logh, l2 + logh
    return l1, u1, l2, u2


def _peak(l1, l2, log_amplitude: float = 0.0):
    """max(l1, l2), refused above LOG_DOUBLE_MAX after adding log_amplitude; -inf -> 0."""
    peak = np.maximum(l1, l2)
    if np.any(peak + log_amplitude > LOG_DOUBLE_MAX):
        raise OverflowRegime(
            f"combined magnitude reaches e^{peak.max() + log_amplitude:.0f}; apply a window or "
            "restrict the grid to the representable range"
        )
    return np.where(np.isneginf(peak), 0.0, peak)


def _unit_amplitude(p: SuperoscParams) -> SuperoscParams:
    return dataclasses.replace(p, amplitude=math.copysign(1.0, p.amplitude))


def all_points_pair(pair, z, window=None):
    """F1 + branch * i * F2 = (u1 e^(l1 - peak) + u2 e^(l2 - peak)) e^(peak + log|a|).

    l1, l2 and peak are taken at unit |a|; complex arithmetic throughout.
    """
    z = np.asarray(z, dtype=float)
    if pair.p1.amplitude == 0.0:
        return np.zeros(z.shape, dtype=complex)
    l1, u1, l2, u2 = _pair_logs(_unit_amplitude(pair.p1), _unit_amplitude(pair.p2),
                                pair.branch, z, window)
    log_amplitude = math.log(abs(pair.p1.amplitude))
    peak = _peak(l1, l2, log_amplitude)
    return (u1 * np.exp(l1 - peak) + u2 * np.exp(l2 - peak)) * np.exp(peak + log_amplitude)


def in_log_pair(pair, z, window=None):
    """(values, envelope e^peak) of the pair with log|a| inside l1 and l2.

    values = (u1 e^(l1 - peak) + u2 e^(l2 - peak)) e^peak, peak = max(l1, l2).
    """
    l1, u1, l2, u2 = _pair_logs(pair.p1, pair.p2, pair.branch, np.asarray(z, dtype=float),
                                window)
    peak = _peak(l1, l2)
    envelope = np.exp(peak)
    return (u1 * np.exp(l1 - peak) + u2 * np.exp(l2 - peak)) * envelope, envelope


def synth_asymptotic(p: SuperoscParams, z):
    """Large-argument cosine approximation, z < 0 only, delta <= 0.2."""
    if p.delta > 0.2:
        raise DomainError(f"asymptotic route requires delta <= 0.2, got {p.delta}")
    scalar = np.isscalar(z)
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if np.any(z >= 0.0):
        raise DomainError("asymptotic route is defined for z < 0 only")
    rad = radicand(p, z)
    vals = (
        p.amplitude
        * rad**-0.25
        * np.exp(0.5j * z * p.band_limit)
        * np.cos(np.sqrt(rad) * p.inv_sq_delta - math.pi / 4.0)
    )
    return complex(vals[0]) if scalar else vals


def complex_circle_trapezoid(phase_coeff: float, modulus_rate: float, residual_max: float,
                             n_nodes: int) -> QuadResult:
    """Integral over [0, 2 pi] of exp(modulus_rate sin b - residual_max + i phase_coeff cos b).

    The periodic trapezoid sum T_N on N = n_nodes equispaced nodes, N a
    multiple of 4 (see ``_trapezoid_nodes``); the error estimate is
    |T_N - T_{N/2}|, where T_{N/2} sums every other node.  Raises
    QuadratureNoConvergence when the estimate exceeds INTEGRAL_REL_TARGET *
    2 pi.
    """
    beta = np.arange(n_nodes) * (2.0 * math.pi / n_nodes)
    y = np.exp((modulus_rate * np.sin(beta) - residual_max) + 1j * phase_coeff * np.cos(beta))
    full = y.sum() * (2.0 * math.pi / n_nodes)
    half = y[::2].sum() * (4.0 * math.pi / n_nodes)
    error = float(abs(full - half))
    target = INTEGRAL_REL_TARGET * 2.0 * math.pi
    if error > target:
        raise QuadratureNoConvergence(
            f"trapezoid error estimate {error:.2e} above target {target:.2e} "
            f"with {n_nodes} nodes"
        )
    return QuadResult(complex(full), error, n_nodes)


def _mode_sum(k: np.ndarray, a: np.ndarray, b: np.ndarray, z, t: float) -> np.ndarray:
    """Direct sum_n a_n cos(k_n z - w_n t) + b_n sin(k_n z - w_n t), w = c k.

    Chunked over modes to bound memory.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    out = np.zeros(z.size)
    step = 4096
    for i in range(0, k.size, step):
        kk = k[i:i + step]
        ph = np.outer(z, kk) - kk * t
        out += np.sin(ph) @ b[i:i + step]
        out += np.cos(ph) @ a[i:i + step]
    return out


def mode_sum_B(ca: CoherentAmplitudes, z, t: float = 0.0):
    """Field expectation at points z (scalar or array) and time t, mode by mode."""
    coeff = np.sqrt(8.0 * math.pi * ca.grid.wavenumbers / ca.grid.box_length**3)  # omega = k
    out = _mode_sum(ca.grid.wavenumbers, coeff * np.imag(ca.alpha),
                    coeff * np.real(ca.alpha), z, t)
    return out if out.size > 1 else float(out[0])


def spline_amplitudes(spline: CubicSpline, gaps: np.ndarray, z0: float,
                      times: np.ndarray) -> np.ndarray:
    """A(t) = int_{z0 - t}^{z0} spline(z) exp(i Omega (z0 - z)) dz, shape (gaps, times).

    Exact per knot interval: each adds exp(i Omega (z0 - x_j)) sum_p c_pj mu_p(h_j).
    """
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


def local_spline(s: SampledSignal, z_lo: float, z_hi: float) -> CubicSpline:
    """Cubic spline through the samples covering [z_lo, z_hi], plus the margin."""
    i_lo = max(0, math.floor((z_lo - s.z_min) / s.dz) - SPLINE_MARGIN)
    i_hi = min(s.n, math.ceil((z_hi - s.z_min) / s.dz) + SPLINE_MARGIN + 1)
    return CubicSpline(s.z_slice(i_lo, i_hi), s.values[i_lo:i_hi])


def per_call_amplitudes(s: SampledSignal, gaps, times, detector_z: float) -> np.ndarray:
    """A(t) for every gap and time, shape (gaps, times), from one spline fitted for this call."""
    gaps = np.atleast_1d(np.asarray(gaps, dtype=float))
    times = np.atleast_1d(np.asarray(times, dtype=float))
    spline = local_spline(s, detector_z - float(times.max()), detector_z)
    return spline_amplitudes(spline, gaps, detector_z, times)


def mirrored_spectrum(sd: SpectralDensity) -> np.ndarray:
    """The spectrum over signed k ascending: the rfft half's conjugate mirror, or fftshift."""
    t, n = sd.transform, sd.n_samples
    if t.size == n:
        return np.fft.fftshift(t)
    return np.concatenate([np.conj(t[:0:-1]), t[:n - n // 2]])


def _lattice_k(box_length: float, n_modes: int) -> np.ndarray:
    return 2.0 * math.pi / box_length * np.arange(1, n_modes + 1)


def lattice_amplitudes(sd: SpectralDensity, box_length: float, n_modes: int) -> np.ndarray:
    """alpha_k = i sqrt(L/(2 pi omega_k)) F(k_n), read off the signed-k spectrum."""
    first = sd.n_samples // 2 + 1
    f_k = mirrored_spectrum(sd)[first:first + n_modes]
    return 1j * np.sqrt(box_length / (2.0 * math.pi * _lattice_k(box_length, n_modes))) * f_k


def _lattice_f(alpha: np.ndarray, box_length: float) -> np.ndarray:
    k = _lattice_k(box_length, alpha.size)
    return -1j * alpha * np.sqrt(2.0 * math.pi * k / box_length)


def lattice_expectation_B(alpha: np.ndarray, box_length: float, z_min: float, dz: float,
                          n: int, t: float = 0.0) -> np.ndarray:
    """B on the sample grid at time t: F(k) of the modes in an irfft half."""
    half = np.zeros(n // 2 + 1, dtype=complex)
    half[1:alpha.size + 1] = _lattice_f(alpha, box_length)
    return box_irfft(half, z_min - t, dz, n)


def lattice_energy(alpha: np.ndarray, box_length: float) -> float:
    """Field energy (L^2 / 4 pi^2) int dk |F(k)|^2 by ``np.trapezoid`` over the wavenumbers."""
    L, k = box_length, _lattice_k(box_length, alpha.size)
    return (L**2 / (4.0 * math.pi**2)) * float(
        np.trapezoid(np.abs(_lattice_f(alpha, L)) ** 2, k))


def lstsq_sine_amplitude(s: SampledSignal, wavenumber: float, z_lo: float,
                         z_hi: float) -> float:
    """hypot(a, b) of the least-squares a sin + b cos over the samples in [z_lo, z_hi]."""
    i_lo, i_hi = s.index_range(z_lo, z_hi)
    zw = s.z_slice(i_lo, i_hi)
    basis = np.column_stack([np.sin(wavenumber * zw), np.cos(wavenumber * zw)])
    coeff, *_ = np.linalg.lstsq(basis, np.real(s.values[i_lo:i_hi]), rcond=None)
    return float(np.hypot(*coeff))


def zero_crossings(s: SampledSignal) -> np.ndarray:
    """Positions of sign changes of a real signal, linearly interpolated between
    samples; an exact-zero sample counts as a crossing."""
    v = np.real(s.values)
    sgn = np.sign(v)
    flip = np.where(sgn[:-1] * sgn[1:] < 0)[0]
    pos = (s.z_min + s.dz * flip) - v[flip] * s.dz / (v[flip + 1] - v[flip])
    exact = s.z_min + s.dz * np.where(v == 0.0)[0]
    return np.unique(np.concatenate([pos, exact]))


def crossing_frequency(s: SampledSignal, z_lo: float, z_hi: float) -> float:
    """Mean of pi over the spacings of the zero crossings inside [z_lo, z_hi]."""
    crossings = zero_crossings(s)
    inside = crossings[(crossings >= z_lo) & (crossings <= z_hi)]
    if inside.size < 2:
        raise ValueError(f"fewer than two zero crossings in [{z_lo}, {z_hi}]")
    return float(np.mean(np.pi / np.diff(inside)))
