"""Synthesis of the superoscillatory band-limited waveform.

Three routes to the same single-component function F(z):

* ``synth_integral``  -- the defining circle integral, evaluated by adaptive
  Gauss-Kronrod quadrature on an imaginary-shifted contour that removes the
  exponential amplitude of the integrand analytically (see below);
* ``synth_bessel``    -- the closed form, a carrier times the zeroth Bessel
  function of argument sqrt(radicand)/delta^2, which continues to a modified
  Bessel function of the first kind inside the growth region where the
  radicand goes negative;
* ``synth_asymptotic``-- the large-argument cosine approximation, valid for
  z < 0 and small delta.

Two phase-locked components combine into a complex signal that inside
[-extent, 0] approximates amplitude * exp(i*z*k0*(1 +- cosh A)/2), i.e. a
clean oscillation faster than the band limit.  All sampling is done in
log-magnitude space so that the exponential growth outside the window (up to
e^700 in admissible regimes) never overflows intermediates.  Each point
evaluates only the Bessel branch of its own region (j0 where the radicand is
>= 0, the scaled i0e inside the growth region), and a pair computes the
carrier exp(i z k0/2) once for both components.

Caching: the waveform is linear in its amplitude, and the amplitude enters
the log-magnitude only as the additive constant log|amplitude| and the sign
only as its sign.  So on a regular grid z_min + dz * arange(n) the costly
parts are the same for every amplitude, and two bounded LRU caches hold
them as read-only arrays:

* ``_bessel_branches``, keyed by (inv_sq_delta, boost, band_limit, z_min,
  dz, n), maxsize 8: the oscillatory-region mask, log|j0| and its sign on the
  oscillatory points, and xi and log i0e(xi) on the growth points.  It wraps
  ``_bessel_kernel``, the same kernel ``component_log`` runs uncached on
  arbitrary points;
* ``_grid_carrier``, keyed by (band_limit, z_min, dz, n), maxsize 4: the
  carrier.

``PairSynthesizer.sample``, ``sample_real`` and ``sample_component`` go
through the caches.  Each call still adds log_pref to log|j0| and to xi,
then adds log i0e, builds the signs and combines, in the same order as the
uncached route, so the samples are bit-for-bit those of the uncached route.

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
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np
from scipy.special import i0e, j0

from .errors import DomainError, OverflowRegime, PhaseLockViolation, QuadratureNoConvergence
from .params import QUARTER, THREE_QUARTER, SuperoscParams, WindowSpec
from .quadrature import QuadResult, adaptive_gk
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
    u = z * band_limit / inv_sq_delta
    return 1.0 - u * math.cosh(boost) + 0.25 * u**2


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


class _Branches(NamedTuple):
    """The amplitude-independent Bessel factor of one component on a set of points."""

    oscillatory: np.ndarray  # radicand >= 0
    log_abs_j0: np.ndarray   # log|j0| on the oscillatory points (-inf at a zero)
    sign_j0: np.ndarray      # sign of j0 there, as int8
    xi: np.ndarray           # i0e argument on the growth points, where radicand < 0
    log_i0e: np.ndarray      # log i0e(xi) there


def _bessel_kernel(inv_sq_delta: float, boost: float, band_limit: float, z) -> _Branches:
    """The Bessel branches on points z; each point evaluates only its own branch.

    j0 where the radicand is >= 0, the scaled i0e in the growth region.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        rad = _radicand(inv_sq_delta, boost, band_limit, z)
    if not np.isfinite(rad).all():
        raise DomainError("the Bessel radicand is not finite on these points")
    oscillatory = rad >= 0.0
    jval = j0(inv_sq_delta * np.sqrt(rad[oscillatory]))
    with np.errstate(divide="ignore"):
        log_abs_j0 = np.log(np.abs(jval))
    xi = inv_sq_delta * np.sqrt(-rad[~oscillatory])
    return _Branches(oscillatory, log_abs_j0, np.sign(jval).astype(np.int8),
                     xi, np.log(i0e(xi)))


def _grid(z_min: float, dz: float, n: int) -> np.ndarray:
    return z_min + dz * np.arange(n)


@functools.lru_cache(maxsize=8)
def _bessel_branches(inv_sq_delta: float, boost: float, band_limit: float,
                     z_min: float, dz: float, n: int) -> _Branches:
    """``_bessel_kernel`` on the grid z_min + dz * arange(n), cached read-only."""
    branches = _bessel_kernel(inv_sq_delta, boost, band_limit, _grid(z_min, dz, n))
    for arr in branches:
        arr.flags.writeable = False
    return branches


@functools.lru_cache(maxsize=4)
def _grid_carrier(band_limit: float, z_min: float, dz: float, n: int) -> np.ndarray:
    """exp(i z k0/2) on the grid z_min + dz * arange(n), cached read-only."""
    carrier = np.exp(0.5j * _grid(z_min, dz, n) * band_limit)
    carrier.flags.writeable = False
    return carrier


def _carrier(band_limit: float, z, grid: tuple | None = None) -> np.ndarray:
    """exp(i z k0/2); ``grid`` as in ``_logmag_sign``."""
    if grid is None:
        return np.exp(0.5j * z * band_limit)
    return _grid_carrier(band_limit, *grid)


def _logmag_sign(p: SuperoscParams, z, grid: tuple | None = None):
    """One component without its carrier: value = sign * exp(logmag) * exp(i z k0/2).

    ``sign`` is the sign of the Bessel factor times the sign of the amplitude
    (0 at an exact Bessel zero, where logmag is -inf).  ``grid`` is
    (z_min, dz, n) when z is that grid; its Bessel branches then come from
    the cache.  p.amplitude must be nonzero.
    """
    if grid is None:
        b = _bessel_kernel(p.inv_sq_delta, p.boost, p.band_limit, z)
    else:
        b = _bessel_branches(p.inv_sq_delta, p.boost, p.band_limit, *grid)
    log_pref = math.log(abs(p.amplitude) * math.sqrt(math.pi) / (math.sqrt(2.0) * p.delta))
    logmag = np.empty(z.shape)
    sign = np.ones(z.shape)
    logmag[b.oscillatory] = log_pref + b.log_abs_j0
    sign[b.oscillatory] = b.sign_j0
    logmag[~b.oscillatory] = log_pref + b.xi + b.log_i0e
    if p.amplitude < 0.0:
        sign = -sign
    return logmag, sign


def _component_log(p: SuperoscParams, z, grid: tuple | None = None):
    if p.amplitude == 0.0:
        return np.full(z.shape, -np.inf), np.zeros(z.shape, dtype=complex)
    logmag, sign = _logmag_sign(p, z, grid)
    return logmag, sign * _carrier(p.band_limit, z, grid)


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


def synth_integral(p: SuperoscParams, z: float, max_subdivisions: int = 2000) -> QuadResult:
    """Quadrature route for a single point; returns value with error estimate."""
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

    def integrand(beta):
        return np.exp(
            (modulus_rate * np.sin(beta) - residual_max) + 1j * phase_coeff * np.cos(beta)
        )

    target = INTEGRAL_REL_TARGET * 2.0 * math.pi
    # Aim well below the contract target; the flat-modulus integrand allows
    # it.  Seed the partition with the known oscillation count so deep
    # phase budgets start resolved instead of bisecting their way down.
    result = adaptive_gk(integrand, 0.0, 2.0 * math.pi, abs_tol=min(target, 2e-13),
                         max_subdivisions=max_subdivisions,
                         initial_intervals=int(abs(phase_coeff) / 3.0) + 1)
    if result.error > target:
        raise QuadratureNoConvergence(
            f"quadrature error estimate {result.error:.2e} above target {target:.2e} "
            f"after {max_subdivisions} subdivisions"
        )
    scale = math.exp(log_pref + residual_max)
    carrier = np.exp(0.5j * z * p.band_limit)
    cancellation_floor = 16.0 * _MACHINE_EPS * 2.0 * math.pi
    error = scale * (result.error + cancellation_floor)
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

    def components_log(self, z, window: WindowSpec | None = None, grid: tuple | None = None):
        """(l1, u1, l2, u2) of the two components; ``grid`` as in ``_logmag_sign``."""
        z = np.asarray(z, dtype=float)
        if self.p1.amplitude == 0.0:
            # exact +0 units: a zero sign times the carrier leaves -0.0 parts
            l1, u1 = _component_log(self.p1, z)
            l2, u2 = _component_log(self.p2, z)
        else:
            # combine_pair guarantees a shared band limit, hence one carrier.
            l1, s1 = _logmag_sign(self.p1, z, grid)
            l2, s2 = _logmag_sign(self.p2, z, grid)
            carrier = _carrier(self.p1.band_limit, z, grid)
            u1 = s1 * carrier
            u2 = s2 * carrier
        u2 = u2 * (1j * self.branch)
        if window is not None and not window.is_identity:
            logh = window.log_profile(z)
            l1 = l1 + logh
            l2 = l2 + logh
        return l1, u1, l2, u2

    def _combine(self, l1, u1, l2, u2):
        peak = np.maximum(l1, l2)
        if np.any(peak > LOG_DOUBLE_MAX):
            raise OverflowRegime(
                f"combined magnitude reaches e^{peak.max():.0f}; apply a window or "
                "restrict the grid to the representable range"
            )
        peak = np.where(np.isneginf(peak), 0.0, peak)
        return (u1 * np.exp(l1 - peak) + u2 * np.exp(l2 - peak)) * np.exp(peak)

    def __call__(self, z, window: WindowSpec | None = None):
        scalar = np.isscalar(z)
        vals = self._combine(*self.components_log(np.atleast_1d(z), window))
        return complex(vals[0]) if scalar else vals

    def sample(
        self,
        z_min: float,
        dz: float,
        n: int,
        window: WindowSpec | None = None,
        label: str = "",
    ) -> SampledSignal:
        z = _grid(z_min, dz, n)
        vals = self._combine(*self.components_log(z, window, (z_min, dz, n)))
        route = "combined" if window is None else "windowed"
        return SampledSignal(z_min=z_min, dz=dz, values=vals, route=route,
                             k_max=self.k_max, label=label)

    def sample_real(
        self,
        z_min: float,
        dz: float,
        n: int,
        window: WindowSpec | None = None,
        label: str = "",
    ) -> SampledSignal:
        """Imaginary part of the combination: ~ amplitude*sin(k' z) in-window."""
        z = _grid(z_min, dz, n)
        vals = np.imag(self._combine(*self.components_log(z, window, (z_min, dz, n))))
        route = "combined" if window is None else "windowed"
        return SampledSignal(z_min=z_min, dz=dz, values=vals, route=route,
                             k_max=self.k_max, label=label)


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
    z = _grid(z_min, dz, n)
    logmag, unit = _component_log(p, z, (z_min, dz, n))
    if window is not None and not window.is_identity:
        logmag = logmag + window.log_profile(z)
        route = "windowed"
    else:
        route = "bessel"
    if np.any(logmag > LOG_DOUBLE_MAX):
        raise OverflowRegime(
            f"magnitude reaches e^{logmag.max():.0f} on the grid; "
            "apply a window or restrict the grid"
        )
    vals = unit * np.exp(logmag)
    return SampledSignal(z_min=z_min, dz=dz, values=vals, route=route,
                         k_max=p.superosc_wavenumber(+1), label=label)


def apply_window(s: SampledSignal, w: WindowSpec) -> SampledSignal:
    """Pointwise product with the window profile; blurs the spectrum by its half-width."""
    if w.is_identity:
        return s.with_values(s.values.copy(), route=s.route)
    return s.with_values(s.values * w.profile(s.z), route="windowed")
