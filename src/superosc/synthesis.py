"""Synthesis of the superoscillatory band-limited waveform.

Two routes to the same single-component function F(z):

* ``synth_integral`` -- the defining circle integral, evaluated by the
  periodic trapezoid rule on an imaginary-shifted contour that removes the
  exponential amplitude of the integrand analytically (see below);
* ``synth_bessel``   -- the closed form, a carrier times the zeroth Bessel
  function of argument sqrt(radicand)/delta^2, which continues to a modified
  Bessel function of the first kind inside the growth region where the
  radicand goes negative.

The closed form is the route every sampler uses; the integral is its
independent check.

Two phase-locked components combine into a complex signal that inside
[-extent, 0] approximates amplitude * exp(i*z*k0*(1 +- cosh A)/2), i.e. a
clean oscillation faster than the band limit.  All sampling is done in
log-magnitude space so that the exponential growth outside the window (up to
e^700 in admissible regimes) never overflows intermediates.  Each point
evaluates only the Bessel branch of its own region (j0 where the radicand is
>= 0, the scaled i0e inside the growth region).

Real combine: both components share the carrier exp(i z k0/2) = cos + i sin,
so with Bessel-and-amplitude signs s1, s2 in {-1, 0, 1} the pair
F1 + branch * i * F2 is ((cos A - sin B) + i (sin A + cos B)) e^peak, where
peak = max(l1, l2), A = s1 e^(l1 - peak) and B = branch s2 e^(l2 - peak).
This is the complex formula u1 e^(l1 - peak) + u2 e^(l2 - peak) rearranged:
multiplying by s1, s2 or branch only flips a sign, and each cross term of
the complex products was a product with an exact zero, so every nonzero
part rounds identically.

Amplitude factored out: the waveform is linear in its amplitude a, which
enters each log-magnitude only as the additive constant log|a| and each
sign only as its sign.  So l1, l2, peak, A and B are taken at unit |a|
(l_i = (log(sqrt(pi)/(sqrt(2) delta_i)) + base_i) + extra_i, plus the
window's log-profile), and log|a| is added to the peak alone: the pair is
(re + i im) e^(peak + log|a|), with re = cos A - sin B and im = sin A + cos B
fixed for every amplitude.  At |a| = 1 this is the formula above bit for
bit; otherwise log|a| is added once instead of inside each l_i, which moves
a sample by a few units in the last place of its exponent, at most 2.3e-13
of the envelope e^peak on the certificate grid and 1.1e-14 on the dyn grids.
``sample`` finishes with numpy's complex-by-real product (re + i im) *
e^(peak + log|a|), and ``sample_real`` computes only its imaginary part,
giving an exact zero the sign that product gives it (-0 only where re and
im are both negative), so signed zeros in underflowed tails match too.

Caching: on a regular grid z_min + dz * arange(n) everything but log|a| is
the same for every amplitude.  ``_unit_pair`` keeps it in a bounded LRU
cache, keyed by the pair without |a| -- each component's (delta,
inv_sq_delta, sign of a), boost, band_limit, branch, the window and the
grid (z_min, dz, n) -- maxsize 4, 1.5 MiB per entry at
n = 2^16: the unit-amplitude ``peak``, its maximum ``top``, and re + i im as
one complex array, read-only.  An op on a warm entry is one overflow check
(log|a| + top against LOG_DOUBLE_MAX), one exp and one product per sample.
A cold entry is built from the grid points by the expressions of
``component_log`` (``_bessel_kernel`` and the carrier np.exp(0.5j z k0)) and
the window's ``log_profile``; nothing it is built from is kept.  Before a
build, the same expressions at the grid ends and at the grid points nearest
each component's growth peak refuse an amplitude that already overflows
there, so a refused grid is never built and leaves no entry.
``sample_component`` runs ``component_log`` on the grid points, uncached.

Contour shift: the circle integrand's modulus varies as
exp(sin(a) * sinh(A)/delta^2), so naive quadrature loses
~sinh(A)/delta^2 * log10(e) digits to cancellation.  Because the integrand
is entire and 2*pi periodic, the contour a -> a + i*t may be shifted freely;
for z <= 0 there is a t* in [0, A] at which the modulus is exactly constant,
reducing the task to a pure-phase integral that double precision handles at
full accuracy.  The shift has a closed form, no root-find:

    t* = atanh(sinh A / (cosh A + |z| k0 delta^2/2)),

evaluated as 0.5 * log1p(2 sinh A / (e^-A + |z| k0 delta^2/2)), which is the
same number without the cancellation in 1 - tanh t* as t* nears A.  For
z > 0 no flattening shift exists (the growth is real); the best shift t = A
is used and the route refuses when the residual amplitude exceeds the
honest-cancellation budget.

On the shifted contour the integrand exp(m sin b + i c cos b) is entire and
2*pi periodic, so the equispaced trapezoid rule converges geometrically
(L. N. Trefethen and J. A. C. Weideman, SIAM Review 56, 2014).  Its Fourier
coefficients decay past k ~ r = |c| + |m|, so N = 2M nodes with
M = floor(r + 10 r^(1/3)) + 24, rounded up to even, resolve it; the error
estimate is |T_N - T_{N/2}|, T_{N/2} being the sum over every other node.
N is a multiple of 4, so the nodes are closed under the integrand's two
reflections: b -> pi - b conjugates it (its real part is even about pi/2,
its imaginary part odd), and b -> -b flips the sign of m.  So the imaginary
parts cancel exactly, and T_N is the real sum of
G(b) = cosh(m sin b) cos(c cos b) over a quarter period, end nodes at half
weight: N/4 + 1 distinct nodes, whose sin and cos ``_quarter_nodes`` caches
read-only per N (maxsize 64, a few KiB per entry) with the weights of T_N
and T_{N/2}.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np
from scipy.special import i0e, j0

from .errors import DomainError, OverflowRegime, PhaseLockViolation, QuadratureNoConvergence
from .params import QUARTER, THREE_QUARTER, SuperoscParams, WindowSpec, growth_peak_position
# adaptive_gk is no longer called here; the benchmark tracer looks the name up in this module.
from .quadrature import QuadResult, adaptive_gk  # noqa: F401
from .signal import SampledSignal, grid_points

# Double-precision exponent budget, slightly under log(DBL_MAX) = 709.78.
LOG_DOUBLE_MAX = 709.0
# Hard precondition for the integral route: the amplitude scale must be
# representable at all.
INTEGRAL_OVERFLOW_CAP = 600.0
# Residual (un-cancellable) exponent beyond which the integral route is no
# longer numerically honest and defers to the closed form.
INTEGRAL_HONEST_CAP = 30.0
# Relative quadrature-error target, measured against the max modulus of the
# (amplitude-normalized) integrand.
INTEGRAL_REL_TARGET = 1e-10

_MACHINE_EPS = float(np.finfo(float).eps)


def _radicand(inv_sq_delta: float, boost: float, band_limit: float, z):
    """1 - delta^2 z k0 cosh A + delta^4 z^2 k0^2 / 4 (negative in the growth region)."""
    u = z * band_limit / inv_sq_delta
    return 1.0 - u * math.cosh(boost) + 0.25 * u**2


class _Branches(NamedTuple):
    """The amplitude-independent Bessel factor of one component, point by point.

    log|factor| = base + extra, added in that order; its sign is ``sign``.
    """

    base: np.ndarray   # log|j0| where the radicand is >= 0 (-inf at a zero), xi where it is < 0
    extra: np.ndarray  # 0 where the radicand is >= 0, log i0e(xi) where it is < 0
    sign: np.ndarray   # sign of j0 where the radicand is >= 0, +1 where it is < 0; int8


def _bessel_kernel(inv_sq_delta: float, boost: float, band_limit: float, z) -> _Branches:
    """The Bessel branches on points z; each point evaluates only its own branch.

    j0 where the radicand is >= 0, the scaled i0e in the growth region.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        rad = _radicand(inv_sq_delta, boost, band_limit, z)
    if not np.isfinite(rad).all():
        raise DomainError("the Bessel radicand is not finite on these points")
    oscillatory = rad >= 0.0
    growth = ~oscillatory
    base = np.empty(rad.shape)
    extra = np.zeros(rad.shape)
    sign = np.ones(rad.shape, dtype=np.int8)
    jval = j0(inv_sq_delta * np.sqrt(rad[oscillatory]))
    with np.errstate(divide="ignore"):
        base[oscillatory] = np.log(np.abs(jval))
    sign[oscillatory] = np.sign(jval)
    xi = inv_sq_delta * np.sqrt(-rad[growth])
    base[growth] = xi
    extra[growth] = np.log(i0e(xi))
    return _Branches(base, extra, sign)


def _read_only(*arrays: np.ndarray) -> None:
    for arr in arrays:
        arr.flags.writeable = False


def _logmag(magnitude: float, delta: float, b: _Branches) -> np.ndarray:
    """log|component| at |amplitude| = magnitude > 0, as a new array: (log_pref + base) + extra."""
    logmag = math.log(magnitude * math.sqrt(math.pi) / (math.sqrt(2.0) * delta)) + b.base
    logmag += b.extra
    return logmag


class _Unkeyed:
    """An argument that a cached function reads but its cache key leaves out.

    Every instance hashes and compares equal, so calls that differ only in it
    share one entry; it reaches the function only on a miss.
    """

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __hash__(self) -> int:
        return 0

    def __eq__(self, other) -> bool:
        return isinstance(other, _Unkeyed)


def _unit_logs(c1: tuple, c2: tuple, boost: float, band_limit: float, window: WindowSpec,
               z: np.ndarray) -> tuple:
    """(l1, s1, l2, s2) on points z: each component's log-magnitude at unit
    |amplitude|, window included, and the sign of its Bessel factor."""
    logs = []
    for delta, inv_sq_delta, _ in (c1, c2):
        b = _bessel_kernel(inv_sq_delta, boost, band_limit, z)
        logs += [_logmag(1.0, delta, b), b.sign]
    l1, s1, l2, s2 = logs
    if not window.is_identity:
        logh = window.log_profile(z)
        l1 += logh
        l2 += logh
    return l1, s1, l2, s2


def _refuse_overflow(log_magnitude: float) -> None:
    """Raise OverflowRegime if the pair's magnitude e^log_magnitude is past the double range."""
    if log_magnitude > LOG_DOUBLE_MAX:
        raise OverflowRegime(
            f"combined magnitude reaches e^{log_magnitude:.0f}; apply a window or "
            "restrict the grid to the representable range"
        )


def _refuse_before_build(c1: tuple, c2: tuple, boost: float, band_limit: float,
                         window: WindowSpec, grid: tuple, log_amplitude: float) -> None:
    """Raise OverflowRegime if a few grid points already overflow, before the grid is built.

    The points are the grid ends and, for each component, the grid point
    nearest its growth peak (``params.growth_peak_position``),
    clipped to the grid, each as ``grid_points`` computes it.  A point's unit
    log-peak is at most the grid's maximum, so this refuses only what the
    full check after the build would refuse; it saves building, say, a 2^24
    sample grid to refuse it.
    """
    z_min, dz, n = grid
    index = [0, n - 1]
    for _, inv_sq_delta, _ in (c1, c2):
        peak_z = growth_peak_position(inv_sq_delta, boost, band_limit)
        index.append(min(max(round((peak_z - z_min) / dz), 0), n - 1))
    z = grid_points(z_min, dz, sorted(set(index)))
    l1, _, l2, _ = _unit_logs(c1, c2, boost, band_limit, window, z)
    _refuse_overflow(log_amplitude + float(np.maximum(l1, l2).max()))


class _UnitPair(NamedTuple):
    """F1 + branch * i * F2 at unit |amplitude| on a grid: ``unit`` * e^``peak``."""

    peak: np.ndarray  # max(l1, l2), 0 where both are -inf
    top: float        # the largest peak before that substitution
    unit: np.ndarray  # (cos A - sin B) + i (sin A + cos B)


@functools.lru_cache(maxsize=4)
def _unit_pair(c1: tuple, c2: tuple, boost: float, band_limit: float, branch: int,
               window: WindowSpec, grid: tuple, log_amplitude: _Unkeyed) -> _UnitPair:
    """The pair's unit-amplitude combine on ``grid`` = (z_min, dz, n), cached read-only.

    ``c1`` and ``c2`` are the components' (delta, inv_sq_delta, amplitude < 0).
    With signs s1, s2 in {-1, 0, 1}, F1 = s1 e^l1 (cos + i sin) and
    F2 = s2 e^l2 (cos + i sin); scaled by the
    larger log-magnitude, the pair is ((cos A - sin B) + i (sin A + cos B)) e^peak
    with A = s1 e^(l1 - peak) and B = branch s2 e^(l2 - peak).

    ``log_amplitude``, log|a| outside the key, is read only on a miss, by
    ``_refuse_before_build`` before the grid is built.
    """
    (_, _, negative1), (_, _, negative2) = c1, c2
    _refuse_before_build(c1, c2, boost, band_limit, window, grid, log_amplitude.value)
    z_min, dz, n = grid
    z = grid_points(z_min, dz, np.arange(n))
    l1, s1, l2, s2 = _unit_logs(c1, c2, boost, band_limit, window, z)
    peak = np.maximum(l1, l2)
    top = float(peak.max())
    peak[np.isneginf(peak)] = 0.0
    a = np.exp(np.subtract(l1, peak, out=l1), out=l1)
    a *= s1
    if negative1:
        np.negative(a, out=a)
    b = np.exp(np.subtract(l2, peak, out=l2), out=l2)
    b *= s2
    if negative2 != (branch < 0):
        np.negative(b, out=b)
    carrier = np.exp(0.5j * z * band_limit)
    cos, sin = carrier.real, carrier.imag
    unit = np.empty(peak.shape, dtype=complex)
    re, im = unit.real, unit.imag
    np.multiply(cos, a, out=re)
    re -= sin * b
    np.multiply(sin, a, out=im)
    im += cos * b
    _read_only(peak, unit)
    return _UnitPair(peak, top, unit)


def component_log(p: SuperoscParams, z):
    """One component as (log-magnitude, unit factor): value = unit * exp(logmag).

    Vectorized.  ``unit`` carries the carrier exp(i z k0/2), the sign of the
    Bessel factor, and the sign of the amplitude; its modulus is 1 (or 0 at
    an exact Bessel zero, where logmag is -inf).
    """
    z = np.asarray(z, dtype=float)
    if p.amplitude == 0.0:
        return np.full(z.shape, -np.inf), np.zeros(z.shape, dtype=complex)
    b = _bessel_kernel(p.inv_sq_delta, p.boost, p.band_limit, z)
    sign = b.sign.astype(float)
    if p.amplitude < 0.0:
        sign = -sign
    return _logmag(abs(p.amplitude), p.delta, b), sign * np.exp(0.5j * z * p.band_limit)


def synth_bessel(p: SuperoscParams, z):
    """Closed-form component value; scalar in -> scalar out.

    Raises OverflowRegime for points whose magnitude exceeds double range
    (use ``component_log`` or a window there).
    """
    scalar = np.isscalar(z)
    logmag, unit = component_log(p, np.atleast_1d(z))
    if np.any(logmag > LOG_DOUBLE_MAX):
        raise OverflowRegime(
            f"|F| reaches e^{logmag.max():.0f} on the requested points; "
            "evaluate in log space or apply a window"
        )
    vals = unit * np.exp(logmag)
    return complex(vals[0]) if scalar else vals


def _flattening_shift(p: SuperoscParams, z: float) -> float:
    """Imaginary contour shift t* in [0, A] that removes the modulus variation.

    Root of sinh(A - t)/delta^2 + z k0 sinh(t)/2 for z <= 0: expanding
    sinh(A - t) gives tanh t* = sinh A / (cosh A + c), c = |z| k0 delta^2/2.
    Since 1 - tanh t* = (e^-A + c)/(cosh A + c), atanh(x) = log1p(2x/(1 - x))/2
    becomes the expression below, accurate near both t* = 0 and t* = A.
    """
    if p.boost == 0.0:
        return 0.0
    if z == 0.0:
        return p.boost
    c = 0.5 * abs(z) * p.band_limit / p.inv_sq_delta
    return 0.5 * math.log1p(2.0 * math.sinh(p.boost) / (math.exp(-p.boost) + c))


def _trapezoid_nodes(phase_coeff: float, modulus_rate: float) -> int:
    """Node count N = 2M of the shifted circle integral.

    M is floor(r + 10 r^(1/3)) + 24 rounded up to even, r = |phase_coeff| +
    |modulus_rate|.  The integrand's Fourier coefficients decay only past
    k ~ r, and J_k(c) dies past k ~ |c| on the Airy scale (|c|/2)^(1/3),
    hence the cube-root margin.  M is even because at phase_coeff = 0 the
    coefficients of index k and -k are opposite for odd k: an odd M would
    leave T_M with only the leading error of T_N and blind the estimate
    |T_N - T_M|.
    """
    r = abs(phase_coeff) + abs(modulus_rate)
    m = int(r + 10.0 * r ** (1.0 / 3.0)) + 24
    return 4 * ((m + 1) // 2)


@functools.lru_cache(maxsize=64)
def _quarter_nodes(n_nodes: int):
    """sin and cos of the quarter-period nodes b_k = 2 pi k/N, k = 0..N/4, and the
    folded rule's weights, cached read-only.

    Row 0 of the weights gives T_N, row 1 T_{N/2}, from G(b_0..b_{N/4}); see
    ``_circle_trapezoid``.
    """
    quarter = n_nodes // 4
    beta = np.arange(quarter + 1) * (2.0 * math.pi / n_nodes)
    weights = np.zeros((2, quarter + 1))
    weights[0, 1:quarter] = 8.0 * math.pi / n_nodes
    weights[0, [0, quarter]] = 4.0 * math.pi / n_nodes
    # T_{N/2} has the even nodes; pi/2 is one of them only when N/4 is even
    weights[1, 2:quarter:2] = 16.0 * math.pi / n_nodes
    weights[1, 0] = 8.0 * math.pi / n_nodes
    if quarter % 2 == 0:
        weights[1, quarter] = 8.0 * math.pi / n_nodes
    tables = (np.sin(beta), np.cos(beta), weights)
    _read_only(*tables)
    return tables


def _circle_trapezoid(phase_coeff: float, modulus_rate: float, residual_max: float,
                      n_nodes: int) -> QuadResult:
    """Integral over [0, 2 pi] of exp(modulus_rate sin b - residual_max + i phase_coeff cos b).

    The periodic trapezoid sum T_N on N = n_nodes equispaced nodes, N a
    multiple of 4 (see ``_trapezoid_nodes``), folded onto a quarter period by
    the integrand's two reflections (see the module docstring): with
    m = modulus_rate, r = residual_max and c = phase_coeff,

        T_N = (8 pi/N) [G(0)/2 + sum_{k=1}^{N/4-1} G(2 pi k/N) + G(pi/2)/2],
        G(b) = e^-r cosh(m sin b) cos(c cos b)
             = (e^(m sin b - r) + e^(-m sin b - r)) cos(c cos b) / 2,

    a real sum over N/4 + 1 distinct nodes.  The error estimate is
    |T_N - T_{N/2}|, where T_{N/2} sums every other node: the even entries of
    the same table, and pi/2 only when N/4 is even.  Raises
    QuadratureNoConvergence when the estimate exceeds INTEGRAL_REL_TARGET *
    2 pi.
    """
    sin, cos, weights = _quarter_nodes(n_nodes)
    g = np.cos(np.multiply(phase_coeff, cos))
    g *= np.cosh(np.multiply(modulus_rate, sin))
    full, half = (weights @ g) * math.exp(-residual_max)
    error = float(abs(full - half))
    target = INTEGRAL_REL_TARGET * 2.0 * math.pi
    if error > target:
        raise QuadratureNoConvergence(
            f"trapezoid error estimate {error:.2e} above target {target:.2e} "
            f"with {n_nodes} nodes"
        )
    return QuadResult(complex(full), error, n_nodes)


def synth_integral(p: SuperoscParams, z: float) -> QuadResult:
    """Circle-integral route for a single point; returns value with error estimate.

    The periodic trapezoid rule on the shifted contour, with N nodes from
    ``_trapezoid_nodes``; ``n_evals`` is N, the rule's node count, although
    the folded sum evaluates only N/4 + 1 distinct nodes (see
    ``_circle_trapezoid``).  The value's imaginary part comes from the
    carrier alone.  The error estimate is
    scale * (|T_N - T_{N/2}| + (16 + r) eps 2 pi), r = |phase_coeff| +
    |modulus_rate|, the second term the rounding floor of the sum and of
    the nodes' exponents.  Raises QuadratureNoConvergence where the
    residual growth at z > 0 exceeds INTEGRAL_HONEST_CAP, or the estimate
    the target.
    """
    if p.growth_exponent > INTEGRAL_OVERFLOW_CAP:
        raise OverflowRegime(
            f"sinh(A)/delta^2 = {p.growth_exponent:.1f} > {INTEGRAL_OVERFLOW_CAP:.0f}: "
            "amplitude scale not representable"
        )
    if p.amplitude == 0.0:
        return QuadResult(0.0 + 0.0j, 0.0, 0)
    z = float(z)
    log_pref = math.log(abs(p.amplitude) / (2.0 * p.delta * math.sqrt(2.0 * math.pi)))
    inv2 = p.inv_sq_delta
    half_phase = 0.5 * z * p.band_limit  # of the carrier e^(i z k0/2)

    if z <= 0.0:
        shift = _flattening_shift(p, z)
        residual_max = 0.0
    else:
        shift = p.boost
        residual_max = half_phase * math.sinh(p.boost)
        if residual_max > INTEGRAL_HONEST_CAP:
            raise QuadratureNoConvergence(
                f"residual amplitude e^{residual_max:.1f} defeats double-precision "
                "cancellation; the closed form is authoritative here"
            )
    phase_coeff = half_phase * math.cosh(shift) - math.cosh(p.boost - shift) * inv2
    modulus_rate = math.sinh(p.boost - shift) * inv2 + half_phase * math.sinh(shift)
    result = _circle_trapezoid(phase_coeff, modulus_rate, residual_max,
                               _trapezoid_nodes(phase_coeff, modulus_rate))
    scale = math.exp(log_pref + residual_max)
    # rounding of the sum, and of each node's exponent, whose size is up to
    # |phase_coeff| + |modulus_rate|
    rounding_floor = (16.0 + abs(phase_coeff) + abs(modulus_rate)) * _MACHINE_EPS * 2.0 * math.pi
    error = scale * (result.error + rounding_floor)
    value = result.value.real  # the folded sum is real
    return QuadResult(complex(scale * math.cos(half_phase) * value,
                              scale * math.sin(half_phase) * value), error, result.n_evals)


class PairSynthesizer:
    """Two phase-locked components combined as F1 + branch * i * F2.

    Inside [-extent, 0] the combination approximates
    amplitude * exp(i z k0 (1 + branch*cosh A)/2).
    """

    def __init__(self, p1: SuperoscParams, p2: SuperoscParams, branch: int):
        self.p1 = p1
        self.p2 = p2
        self.branch = branch

    @property
    def wavenumber(self) -> float:
        """Local wavenumber held inside the window."""
        return self.p1.superosc_wavenumber(self.branch)

    @property
    def k_max(self) -> float:
        """Fastest oscillation anywhere on the line (sampling requirement)."""
        return self.p1.superosc_wavenumber(+1)

    @property
    def extent(self) -> float:
        return self.p1.extent

    def _unit(self, window: WindowSpec, grid: tuple) -> _UnitPair:
        """The pair's cached unit-amplitude combine on ``grid`` = (z_min, dz, n).

        The amplitude must be nonzero.
        """
        p1, p2 = self.p1, self.p2
        # combine_pair guarantees a shared boost, band limit and amplitude magnitude
        return _unit_pair((p1.delta, p1.inv_sq_delta, p1.amplitude < 0.0),
                          (p2.delta, p2.inv_sq_delta, p2.amplitude < 0.0),
                          p1.boost, p1.band_limit, self.branch, window, grid,
                          _Unkeyed(math.log(abs(p1.amplitude))))

    def _combine(self, window: WindowSpec, grid: tuple,
                 imag_only: bool = False) -> np.ndarray:
        """F1 + branch * i * F2 on ``grid`` = (z_min, dz, n), or only its imaginary part.

        The cached unit-amplitude combine times e^(peak + log|amplitude|).
        """
        if self.p1.amplitude == 0.0:
            # combine_pair guarantees a shared amplitude magnitude: exact +0 samples
            return np.zeros(grid[2], dtype=float if imag_only else complex)
        u = self._unit(window, grid)
        log_amplitude = math.log(abs(self.p1.amplitude))
        _refuse_overflow(log_amplitude + u.top)
        scale = np.add(u.peak, log_amplitude)
        np.exp(scale, out=scale)
        if not imag_only:
            # numpy's complex-by-real product, so that underflowed samples
            # keep their signed zeros
            return u.unit * scale
        imag = np.multiply(u.unit.imag, scale, out=scale)
        # The complex product takes re*0 + im*e^peak as its imaginary part:
        # an exact zero there is -0 only where both re and im are negative.
        zero = np.flatnonzero(imag == 0.0)
        if zero.size:
            imag[zero] = np.where(np.signbit(u.unit.real[zero]) & np.signbit(imag[zero]),
                                  -0.0, 0.0)
        return imag

    def sample(
        self,
        z_min: float,
        dz: float,
        n: int,
        window: WindowSpec = WindowSpec(),
        label: str = "",
    ) -> SampledSignal:
        vals = self._combine(window, (z_min, dz, n))
        return SampledSignal(z_min=z_min, dz=dz, values=vals, k_max=self.k_max, label=label)

    def sample_real(
        self,
        z_min: float,
        dz: float,
        n: int,
        window: WindowSpec = WindowSpec(),
        label: str = "",
    ) -> SampledSignal:
        """Imaginary part of the combination: ~ amplitude*sin(k' z) in-window."""
        vals = self._combine(window, (z_min, dz, n), imag_only=True)
        return SampledSignal(z_min=z_min, dz=dz, values=vals, k_max=self.k_max, label=label)


def combine_pair(p1: SuperoscParams, p2: SuperoscParams, branch: int | None = None) -> PairSynthesizer:
    """Validate the phase-locked pair and return its synthesizer."""
    if p1.phase_branch != QUARTER or p2.phase_branch != THREE_QUARTER:
        raise PhaseLockViolation(
            "pair must be (quarter, three_quarter) phase-locked; got "
            f"({p1.phase_branch!r}, {p2.phase_branch!r})"
        )
    if p1.m_phase != p2.m_phase:
        raise PhaseLockViolation("pair members must share m_phase")
    for name in ("boost", "band_limit", "extent"):
        if getattr(p1, name) != getattr(p2, name):
            raise PhaseLockViolation(f"pair members must share {name}")
    if abs(p1.amplitude) != abs(p2.amplitude):
        raise PhaseLockViolation("pair members must share amplitude magnitude")
    branch = p1.branch_sign if branch is None else branch
    if branch not in (+1, -1):
        raise ValueError("branch must be +1 or -1")
    return PairSynthesizer(p1, p2, branch)


def make_real_superosc(
    pair: PairSynthesizer,
    target_wavenumber: float,
    z_min: float,
    dz: float,
    n: int,
    window: WindowSpec = WindowSpec(),
    label: str = "",
) -> SampledSignal:
    """Real signal ~ amplitude * sin(target_wavenumber * z) inside the window.

    The imaginary part of the combined complex envelope supplies the sine:
    the carrier and the boosted phase merge into a single oscillation at the
    pair's wavenumber, and the three-quarter lock puts a node at z = 0.
    Outside the window the signal follows the analytic continuation of the
    two-term combination.
    """
    if not math.isclose(target_wavenumber, pair.wavenumber, rel_tol=1e-9):
        raise DomainError(
            f"target wavenumber {target_wavenumber} inconsistent with the pair's "
            f"boost (expected {pair.wavenumber})"
        )
    return pair.sample_real(z_min, dz, n, window=window, label=label)


def sample_component(
    p: SuperoscParams,
    z_min: float,
    dz: float,
    n: int,
    window: WindowSpec = WindowSpec(),
    label: str = "",
) -> SampledSignal:
    """Sample one component (closed-form route), optionally windowed in log space."""
    z = grid_points(z_min, dz, np.arange(n))
    logmag, unit = component_log(p, z)
    if not window.is_identity:
        logmag = logmag + window.log_profile(z)
    if np.any(logmag > LOG_DOUBLE_MAX):
        raise OverflowRegime(
            f"magnitude reaches e^{logmag.max():.0f} on the grid; "
            "apply a window or restrict the grid"
        )
    vals = unit * np.exp(logmag)
    return SampledSignal(z_min=z_min, dz=dz, values=vals,
                         k_max=p.superosc_wavenumber(+1), label=label)

