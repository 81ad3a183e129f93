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
part rounds identically.  ``sample_real`` computes only the imaginary part.
``sample`` finishes with numpy's complex-by-real product, as the complex
formula did, and ``sample_real`` gives an exact zero the sign that product
gives it (-0 only where both parts of the sum are negative), so signed zeros
in underflowed tails match too.  The uncached ``PairSynthesizer.__call__``
runs the same combine on ``_bessel_kernel`` arrays.

Caching: the waveform is linear in its amplitude, and the amplitude enters
the log-magnitude only as the additive constant log_pref and the sign only
as its sign.  So on a regular grid z_min + dz * arange(n) the costly parts
are the same for every amplitude, and three bounded LRU caches hold them as
read-only, full-length arrays (memory per entry at n = 2^16):

* ``_bessel_branches``, keyed by (inv_sq_delta, boost, band_limit, z_min,
  dz, n), maxsize 8, 1.06 MiB: ``base`` (log|j0| on oscillatory points, xi
  on growth points), ``extra`` (0 on oscillatory points, log i0e(xi) on
  growth points) and the int8 ``sign`` of the Bessel factor.  Then
  logmag = (log_pref + base) + extra, the order of additions of the
  uncached route, with no boolean scatter per call.  It wraps
  ``_bessel_kernel``, the kernel ``component_log`` runs uncached on
  arbitrary points;
* ``_grid_carrier``, keyed by (band_limit, z_min, dz, n), maxsize 4,
  1 MiB: cos and sin of z k0/2 as contiguous arrays, copied from the same
  np.exp(0.5j z k0) as the uncached route (np.cos and np.sin need not round
  the same way);
* ``_grid_log_window``, keyed by (half_width, z_min, dz, n), maxsize 4,
  0.5 MiB: the window's log-profile, which does not depend on the amplitude.

``PairSynthesizer.sample``, ``sample_real`` and ``sample_component`` go
through the caches, so their samples are bit-for-bit those of the uncached
route.

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
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np
from scipy.special import i0e, j0

from .errors import DomainError, OverflowRegime, PhaseLockViolation, QuadratureNoConvergence
from .params import QUARTER, THREE_QUARTER, SuperoscParams, WindowSpec
# adaptive_gk is no longer called here; the benchmark tracer looks the name up in this module.
from .quadrature import QuadResult, adaptive_gk  # noqa: F401
from .signal import SampledSignal

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

_MACHINE_EPS = np.finfo(float).eps


def _radicand(inv_sq_delta: float, boost: float, band_limit: float, z):
    """1 - delta^2 z k0 cosh A + delta^4 z^2 k0^2 / 4 (negative in the growth region)."""
    u = z * band_limit / inv_sq_delta
    return 1.0 - u * math.cosh(boost) + 0.25 * u**2


def growth_region(p: SuperoscParams) -> tuple[float, float]:
    """(z_lo, z_hi) between which the radicand is negative; empty at boost 0."""
    if p.boost == 0.0:
        zp = 2.0 * p.inv_sq_delta / p.band_limit
        return (zp, zp)
    s = 2.0 * p.inv_sq_delta / p.band_limit
    return (s * math.exp(-p.boost), s * math.exp(p.boost))


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


def _grid(z_min: float, dz: float, n: int) -> np.ndarray:
    return z_min + dz * np.arange(n)


def _read_only(*arrays: np.ndarray) -> None:
    for arr in arrays:
        arr.flags.writeable = False


@functools.lru_cache(maxsize=8)
def _bessel_branches(inv_sq_delta: float, boost: float, band_limit: float,
                     z_min: float, dz: float, n: int) -> _Branches:
    """``_bessel_kernel`` on the grid z_min + dz * arange(n), cached read-only."""
    branches = _bessel_kernel(inv_sq_delta, boost, band_limit, _grid(z_min, dz, n))
    _read_only(*branches)
    return branches


@functools.lru_cache(maxsize=4)
def _grid_carrier(band_limit: float, z_min: float, dz: float, n: int):
    """(cos, sin) of z k0/2 on the grid z_min + dz * arange(n), cached read-only.

    The parts of exp(i z k0/2), copied out contiguous; np.cos and np.sin need
    not round the same way.
    """
    carrier = np.exp(0.5j * _grid(z_min, dz, n) * band_limit)
    parts = (carrier.real.copy(), carrier.imag.copy())
    _read_only(*parts)
    return parts


@functools.lru_cache(maxsize=4)
def _grid_log_window(half_width: float, z_min: float, dz: float, n: int) -> np.ndarray:
    """The window's log h(z) on the grid z_min + dz * arange(n), cached read-only."""
    logh = WindowSpec(half_width=half_width).log_profile(_grid(z_min, dz, n))
    _read_only(logh)
    return logh


def _branches(p: SuperoscParams, z, grid: tuple | None) -> _Branches:
    """One component's Bessel branches on z.

    ``grid`` is (z_min, dz, n) when z is that grid (z may then be None); its
    branches then come from the cache.
    """
    if grid is None:
        return _bessel_kernel(p.inv_sq_delta, p.boost, p.band_limit, z)
    return _bessel_branches(p.inv_sq_delta, p.boost, p.band_limit, *grid)


def _carrier(band_limit: float, z, grid: tuple | None):
    """(cos, sin) of z k0/2; ``grid`` as in ``_branches``."""
    if grid is None:
        carrier = np.exp(0.5j * z * band_limit)
        return carrier.real, carrier.imag
    return _grid_carrier(band_limit, *grid)


def _logmag(p: SuperoscParams, b: _Branches) -> np.ndarray:
    """log|component| as a new array: (log_pref + base) + extra.  p.amplitude must be nonzero."""
    logmag = math.log(abs(p.amplitude) * math.sqrt(math.pi) / (math.sqrt(2.0) * p.delta)) + b.base
    logmag += b.extra
    return logmag


def _component_log(p: SuperoscParams, z, grid: tuple | None = None):
    if p.amplitude == 0.0:
        return np.full(z.shape, -np.inf), np.zeros(z.shape, dtype=complex)
    b = _branches(p, z, grid)
    sign = b.sign.astype(float)
    if p.amplitude < 0.0:
        sign = -sign
    carrier = np.empty(sign.shape, dtype=complex)
    carrier.real, carrier.imag = _carrier(p.band_limit, z, grid)
    return _logmag(p, b), sign * carrier


def component_log(p: SuperoscParams, z):
    """One component as (log-magnitude, unit factor): value = unit * exp(logmag).

    Vectorized.  ``unit`` carries the carrier exp(i z k0/2), the sign of the
    Bessel factor, and the sign of the amplitude; its modulus is 1 (or 0 at
    an exact Bessel zero, where logmag is -inf).
    """
    return _component_log(p, np.asarray(z, dtype=float))


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


def _circle_trapezoid(phase_coeff: float, modulus_rate: float, residual_max: float,
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


def synth_integral(p: SuperoscParams, z: float) -> QuadResult:
    """Circle-integral route for a single point; returns value with error estimate.

    The periodic trapezoid rule on the shifted contour, with N nodes from
    ``_trapezoid_nodes``; ``n_evals`` is N.  The error estimate is
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
    z = float(z)
    log_pref = -np.inf if p.amplitude == 0.0 else math.log(
        abs(p.amplitude) / (2.0 * p.delta * math.sqrt(2.0 * math.pi))
    )
    if p.amplitude == 0.0:
        return QuadResult(0.0 + 0.0j, 0.0, 0)
    inv2 = p.inv_sq_delta

    if z <= 0.0:
        shift = _flattening_shift(p, z)
        residual_max = 0.0
    else:
        shift = p.boost
        residual_max = 0.5 * z * p.band_limit * math.sinh(p.boost)
        if residual_max > INTEGRAL_HONEST_CAP:
            raise QuadratureNoConvergence(
                f"residual amplitude e^{residual_max:.1f} defeats double-precision "
                "cancellation; the closed form is authoritative here"
            )
    phase_coeff = 0.5 * z * p.band_limit * math.cosh(shift) - math.cosh(p.boost - shift) * inv2
    modulus_rate = math.sinh(p.boost - shift) * inv2 + 0.5 * z * p.band_limit * math.sinh(shift)
    result = _circle_trapezoid(phase_coeff, modulus_rate, residual_max,
                               _trapezoid_nodes(phase_coeff, modulus_rate))
    scale = math.exp(log_pref + residual_max)
    carrier = np.exp(0.5j * z * p.band_limit)
    # rounding of the sum, and of each node's exponent, whose size is up to
    # |phase_coeff| + |modulus_rate|
    rounding_floor = (16.0 + abs(phase_coeff) + abs(modulus_rate)) * _MACHINE_EPS * 2.0 * math.pi
    error = scale * (result.error + rounding_floor)
    return QuadResult(complex(scale * carrier * result.value), error, result.n_evals)


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

    def _combine(self, z, window: WindowSpec | None = None, grid: tuple | None = None,
                 imag_only: bool = False) -> np.ndarray:
        """F1 + branch * i * F2 on z, or only its imaginary part; ``grid`` as in ``_branches``.

        With signs s1, s2 in {-1, 0, 1}, F1 = s1 e^l1 (cos + i sin) and
        F2 = s2 e^l2 (cos + i sin).  Scaled by the larger log-magnitude, the
        pair is ((cos A - sin B) + i (sin A + cos B)) e^peak with
        A = s1 e^(l1 - peak) and B = branch s2 e^(l2 - peak).
        """
        shape = z.shape if grid is None else (grid[2],)
        if self.p1.amplitude == 0.0:
            # combine_pair guarantees a shared amplitude magnitude: exact +0 samples
            return np.zeros(shape, dtype=float if imag_only else complex)
        b1 = _branches(self.p1, z, grid)
        b2 = _branches(self.p2, z, grid)
        l1 = _logmag(self.p1, b1)
        l2 = _logmag(self.p2, b2)
        if window is not None and not window.is_identity:
            logh = (window.log_profile(z) if grid is None
                    else _grid_log_window(window.half_width, *grid))
            l1 += logh
            l2 += logh
        peak = np.maximum(l1, l2)
        top = peak.max()
        if top > LOG_DOUBLE_MAX:
            raise OverflowRegime(
                f"combined magnitude reaches e^{top:.0f}; apply a window or "
                "restrict the grid to the representable range"
            )
        peak[np.isneginf(peak)] = 0.0
        a = np.exp(np.subtract(l1, peak, out=l1), out=l1)
        a *= b1.sign
        if self.p1.amplitude < 0.0:
            np.negative(a, out=a)
        b = np.exp(np.subtract(l2, peak, out=l2), out=l2)
        b *= b2.sign
        if (self.p2.amplitude < 0.0) != (self.branch < 0):
            np.negative(b, out=b)
        scale = np.exp(peak, out=peak)
        # combine_pair guarantees a shared band limit, hence one carrier.
        cos, sin = _carrier(self.p1.band_limit, z, grid)
        imag = sin * a
        imag += cos * b
        if not imag_only:
            out = np.empty(shape, dtype=complex)
            out.imag = imag
            re = out.real
            np.multiply(cos, a, out=re)
            re -= sin * b
            # numpy's complex-by-real product, as in the complex route, so
            # that underflowed samples keep their signed zeros
            out *= scale
            return out
        imag *= scale
        # The complex product takes Re(sum)*0 + Im(sum)*e^peak as its
        # imaginary part: an exact zero there is -0 only where both parts
        # of the sum are negative.
        zero = np.flatnonzero(imag == 0.0)
        if zero.size:
            real = cos[zero] * a[zero] - sin[zero] * b[zero]
            imag[zero] = np.where(np.signbit(real) & np.signbit(imag[zero]), -0.0, 0.0)
        return imag

    def __call__(self, z, window: WindowSpec | None = None):
        scalar = np.isscalar(z)
        vals = self._combine(np.atleast_1d(np.asarray(z, dtype=float)), window)
        return complex(vals[0]) if scalar else vals

    def sample(
        self,
        z_min: float,
        dz: float,
        n: int,
        window: WindowSpec | None = None,
        label: str = "",
    ) -> SampledSignal:
        vals = self._combine(None, window, (z_min, dz, n))
        return SampledSignal(z_min=z_min, dz=dz, values=vals, k_max=self.k_max, label=label)

    def sample_real(
        self,
        z_min: float,
        dz: float,
        n: int,
        window: WindowSpec | None = None,
        label: str = "",
    ) -> SampledSignal:
        """Imaginary part of the combination: ~ amplitude*sin(k' z) in-window."""
        vals = self._combine(None, window, (z_min, dz, n), imag_only=True)
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
    window: WindowSpec | None = None,
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
    window: WindowSpec | None = None,
    label: str = "",
) -> SampledSignal:
    """Sample one component (closed-form route), optionally windowed in log space."""
    grid = (z_min, dz, n)
    logmag, unit = _component_log(p, _grid(*grid), grid)
    if window is not None and not window.is_identity:
        logmag = logmag + _grid_log_window(window.half_width, *grid)
    if np.any(logmag > LOG_DOUBLE_MAX):
        raise OverflowRegime(
            f"magnitude reaches e^{logmag.max():.0f} on the grid; "
            "apply a window or restrict the grid"
        )
    vals = unit * np.exp(logmag)
    return SampledSignal(z_min=z_min, dz=dz, values=vals,
                         k_max=p.superosc_wavenumber(+1), label=label)

