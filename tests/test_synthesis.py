import math

import numpy as np
import pytest

from superosc import (
    SampledSignal,
    SuperoscParams,
    WindowSpec,
    combine_pair,
    component_log,
    make_real_superosc,
    sample_component,
    synth_bessel,
    synth_integral,
)
from superosc.errors import (
    DomainError,
    OverflowRegime,
    PhaseLockViolation,
    QuadratureNoConvergence,
)
from superosc.params import QUARTER
from superosc.synthesis import INTEGRAL_HONEST_CAP

from superosc.cli import _grid_from, _pair_from, _window_from

from conftest import (MILD_PAIR_DZ, MILD_PAIR_WINDOW, mild_component, mild_pair_of,
                      regime)
from oracles import (all_points_component_log, all_points_pair, growth_region, in_log_pair,
                     radicand, synth_asymptotic, zero_crossings)

# Frozen closed-form oracle values (mpmath, 30 digits):
#   J0(4)                                  = -0.397149809863847372...
#   sqrt(pi)/(sqrt(2)*0.5) * J0(4)         = -0.995506942669045643...
#   radicand(z=-10; delta=0.5, A=1)        =  6.42020158703810944...
#   sqrt(pi)/(sqrt(2)*0.5) * J0(sqrt(r)*4) = -0.625459591943692197...
F0_HALF_DELTA = -0.995506942669045643
FM10_HALF_DELTA_MAG = -0.625459591943692197


def _p(delta, boost, extent=0.05, amplitude=1.0):
    return SuperoscParams(amplitude=amplitude, delta=delta, boost=boost, extent=extent)


# ------------------------------------------------------------- bessel ----


def test_bessel_matches_frozen_oracle_at_origin():
    # at z = 0 the radicand is exactly 1 for any boost
    for boost in (0.0, 1.0, 2.0):
        val = synth_bessel(_p(0.5, boost), 0.0)
        assert val == pytest.approx(F0_HALF_DELTA, rel=1e-12)


def test_bessel_matches_frozen_oracle_off_origin():
    val = synth_bessel(_p(0.5, 1.0), -10.0)
    expected = FM10_HALF_DELTA_MAG * np.exp(-5.0j)
    assert val == pytest.approx(expected, rel=1e-12)


def test_bessel_growth_peak_location_and_magnitude():
    from superosc import component_log

    p = _p(0.3, 1.0, extent=0.7)
    z = np.linspace(1e-3, 2.0 * p.growth_peak_z, 400_000)
    vals_log, _ = component_log(p, z)
    i = np.argmax(vals_log)
    assert abs(z[i] - p.growth_peak_z) / p.growth_peak_z < 0.05
    predicted = p.amplitude / (2.0 * math.sqrt(math.sinh(1.0))) * math.exp(p.growth_exponent)
    assert math.exp(vals_log[i]) == pytest.approx(predicted, rel=0.20)


def test_bessel_overflow_regime_per_point():
    p = SuperoscParams.phase_locked(40, QUARTER, boost=math.acosh(3.0), extent=2.0)
    # growth peak reaches e^713: linear-space evaluation must refuse there
    with pytest.raises(OverflowRegime):
        synth_bessel(p, p.growth_peak_z)
    # but the window region stays representable
    assert np.isfinite(synth_bessel(p, -1.0))


# ------------------------------------------------------------ integral ----


def test_integral_zero_amplitude():
    res = synth_integral(_p(0.5, 1.0, amplitude=0.0), -1.0)
    assert res.value == 0.0


@pytest.mark.parametrize(
    "delta,boost,z",
    [(0.5, 1.0, 0.0), (0.5, 0.0, -10.0), (0.3, 1.5, -20.0), (0.7, 0.75, -5.0)],
)
def test_integral_agrees_with_bessel(delta, boost, z):
    p = _p(delta, boost)
    quad = synth_integral(p, z)
    closed = synth_bessel(p, z)
    assert abs(quad.value - closed) <= 1e-8 * (abs(closed) + 1e-30)
    assert quad.error < 1e-8


def test_integral_growth_side_honest_regime():
    # z > 0 with modest residual growth: still agrees with the closed form
    p = _p(0.3, 1.0)
    z = 5.0  # residual exponent z*k0*sinh(A)/2 ~ 2.9
    quad = synth_integral(p, z)
    closed = synth_bessel(p, z)
    assert abs(quad.value - closed) <= 1e-8 * abs(closed)


def test_integral_refuses_deep_growth():
    p = _p(0.3, 1.0)
    # residual exponent 40*1.1752/2 = 23.5 < 30 passes; 60 -> 35 refuses
    with pytest.raises(QuadratureNoConvergence):
        synth_integral(p, 60.0)


def test_integral_overflow_precondition():
    p = SuperoscParams.phase_locked(40, QUARTER, boost=math.acosh(3.0), extent=2.0)
    assert p.growth_exponent > 600.0
    with pytest.raises(OverflowRegime):
        synth_integral(p, -1.0)


def _shifted_coefficients(p, z):
    """(phase_coeff, modulus_rate) of the z <= 0 contour, as synth_integral forms them."""
    from superosc.synthesis import _flattening_shift

    t = _flattening_shift(p, z)
    phase = 0.5 * z * p.band_limit * math.cosh(t) - math.cosh(p.boost - t) * p.inv_sq_delta
    return phase, _modulus_rate(p, z, t)


# (phase_coeff, modulus_rate) of the circle-integral trapezoid tests
_TRAPEZOID_CASES = [(1.0, 0.0), (47.3, 0.0), (400.0, 0.0), (0.0, 0.5), (0.0, 5.0), (0.0, 29.0),
                    (40.0, 10.0), (3.0, 25.0)]


@pytest.mark.parametrize("phase,modulus", _TRAPEZOID_CASES)
def test_trapezoid_converges_to_mpmath_bessel(phase, modulus):
    # integral over [0, 2 pi] of exp(m sin b + i c cos b) = 2 pi I0(sqrt(m^2 - c^2)):
    # 2 pi J0(c) at m = 0, 2 pi I0(m) at c = 0; scaled by e^-m as on the growth side
    import mpmath

    from superosc.synthesis import _MACHINE_EPS, _circle_trapezoid, _trapezoid_nodes

    with mpmath.workdps(40):
        arg = mpmath.sqrt(mpmath.mpf(modulus) ** 2 - mpmath.mpf(phase) ** 2)
        ref = complex(2 * mpmath.pi * mpmath.besseli(0, arg) * mpmath.exp(-modulus))
    # synth_integral's rounding floor: the sum's, and that of each node's exponent
    rounding = (16.0 + abs(phase) + abs(modulus)) * _MACHINE_EPS * 2.0 * math.pi
    rule = _trapezoid_nodes(phase, modulus)
    accepted = []
    for n_nodes in range(8, rule + 1, 4):
        try:
            res = _circle_trapezoid(phase, modulus, modulus, n_nodes)
        except QuadratureNoConvergence:
            continue
        # the estimate |T_N - T_N/2| bounds the true error, up to rounding
        assert abs(res.value - ref) <= res.error + rounding
        assert res.n_evals == n_nodes
        accepted.append(n_nodes)
    assert accepted and accepted[-1] == rule
    assert abs(res.value - ref) <= 1e-13 * (1.0 + abs(ref))


def _accepts(route, *args) -> bool:
    try:
        route(*args)
    except QuadratureNoConvergence:
        return False
    return True


@pytest.mark.parametrize("phase,modulus", _TRAPEZOID_CASES)
def test_folded_trapezoid_matches_complex_sum(phase, modulus, monkeypatch):
    # the quarter-period real sum against the full complex T_N at every N up to
    # the rule, N/4 odd and even: value, estimate and verdict agree to rounding
    import oracles
    from superosc import synthesis

    rounding = (16.0 + abs(phase) + abs(modulus)) * synthesis._MACHINE_EPS * 2.0 * math.pi
    target = synthesis.INTEGRAL_REL_TARGET * 2.0 * math.pi
    routes = (synthesis._circle_trapezoid, oracles.complex_circle_trapezoid)
    parities = set()
    for n_nodes in range(8, synthesis._trapezoid_nodes(phase, modulus) + 1, 4):
        args = (phase, modulus, modulus, n_nodes)
        with monkeypatch.context() as m:  # no refusal: compare the sums at every N
            m.setattr(synthesis, "INTEGRAL_REL_TARGET", math.inf)
            m.setattr(oracles, "INTEGRAL_REL_TARGET", math.inf)
            folded, full = (route(*args) for route in routes)
        assert folded.value.imag == 0.0
        assert abs(folded.value - full.value) <= rounding, n_nodes
        assert abs(folded.error - full.error) <= rounding, n_nodes
        assert folded.n_evals == full.n_evals == n_nodes
        if abs(full.error - target) > rounding:
            assert _accepts(routes[0], *args) == _accepts(routes[1], *args), n_nodes
        parities.add(n_nodes // 4 % 2)
    assert parities == {0, 1}


def test_deepest_acceptance_point_uses_node_rule():
    from superosc.synthesis import _trapezoid_nodes

    p, z = _p(0.3, 1.5), -20.0  # deepest phase budget of the acceptance-1 domain
    res = synth_integral(p, z)
    assert res.n_evals == _trapezoid_nodes(*_shifted_coefficients(p, z))
    closed = synth_bessel(p, z)
    assert abs(res.value - closed) <= 1e-8 * abs(closed)
    assert res.error < 1e-8


def test_trapezoid_refuses_too_few_nodes():
    from superosc.synthesis import _circle_trapezoid

    phase, modulus = _shifted_coefficients(_p(0.3, 1.5), -20.0)
    with pytest.raises(QuadratureNoConvergence):
        _circle_trapezoid(phase, modulus, 0.0, 32)


def test_integral_wide_domain_seeded():
    # z far past the acceptance-1 domain, where the phase budget and the node count peak
    rng = np.random.default_rng(20261019)
    max_evals, n_flat, n_growth = 0, 0, 0
    for _ in range(2000):
        delta = float(rng.uniform(0.05, 0.9))
        boost = float(rng.uniform(0.0, 3.0))
        z = float(rng.uniform(-200.0, 20.0))
        p = SuperoscParams(delta=delta, boost=boost, extent=1e-3)
        if p.growth_exponent > 600.0:
            continue
        if z > 0.0:
            try:
                quad = synth_integral(p, z)
            except QuadratureNoConvergence:  # only the honest-cancellation cap refuses
                assert 0.5 * z * p.band_limit * math.sinh(boost) > INTEGRAL_HONEST_CAP
                continue
            assert abs(quad.value - synth_bessel(p, z)) <= quad.error
            n_growth += 1
        else:
            quad = synth_integral(p, z)  # never refused on the flat contour
            closed = synth_bessel(p, z)
            assert abs(quad.value - closed) <= 1e-9 * (abs(closed) + 1e-30)
            assert abs(quad.value - closed) <= quad.error
            n_flat += 1
        max_evals = max(max_evals, quad.n_evals)
    assert n_flat > 1500 and n_growth > 20
    assert max_evals <= 1500


# ------------------------------------------------------- contour shift ----


def _modulus_rate(p, z, t):
    return math.sinh(p.boost - t) * p.inv_sq_delta + 0.5 * z * p.band_limit * math.sinh(t)


def test_flattening_shift_in_range():
    from superosc.synthesis import _flattening_shift

    rng = np.random.default_rng(7)
    for _ in range(500):
        p = _p(float(rng.uniform(0.05, 0.9)), float(rng.uniform(0.0, 3.0)), extent=1e-3)
        for z in (0.0, -1e-12, float(rng.uniform(-50.0, 0.0)), -1e9):
            t = _flattening_shift(p, z)
            assert 0.0 <= t <= p.boost
    assert _flattening_shift(_p(0.5, 0.0), -3.0) == 0.0
    assert _flattening_shift(_p(0.5, 1.2), 0.0) == 1.2


def test_flattening_shift_zeroes_modulus_rate():
    # seeded draws over the acceptance-1 domain
    from superosc.synthesis import _flattening_shift

    rng = np.random.default_rng(11)
    for _ in range(2000):
        p = _p(float(rng.uniform(0.3, 0.7)), float(rng.uniform(0.0, 1.5)))
        z = float(rng.uniform(-20.0, 0.0))
        t = _flattening_shift(p, z)
        assert abs(_modulus_rate(p, z, t)) <= 1e-13 * p.growth_exponent


@pytest.mark.parametrize(
    "delta,boost,z",
    [(0.3, 1.5, -20.0), (0.5, 1.0, -10.0), (0.7, 0.01, -0.5), (0.3, 3.0, -1e-6), (0.9, 2.0, -50.0)],
)
def test_flattening_shift_matches_mpmath_root(delta, boost, z):
    import mpmath

    from superosc.synthesis import _flattening_shift

    p = _p(delta, boost, extent=1e-3)
    with mpmath.workdps(40):
        a, inv2, zz = mpmath.mpf(p.boost), mpmath.mpf(p.inv_sq_delta), mpmath.mpf(z)
        root = mpmath.findroot(
            lambda t: mpmath.sinh(a - t) * inv2 + zz * p.band_limit * mpmath.sinh(t) / 2,
            a / 2)
    assert abs(_flattening_shift(p, z) - float(root)) <= 1e-14


# ---------------------------------------------------------- asymptotic ----


def test_asymptotic_matches_bessel():
    p = _p(0.1, 1.0)
    a = synth_asymptotic(p, -1.0)
    b = synth_bessel(p, -1.0)
    assert abs(a - b) / abs(b) < 1e-3


def test_asymptotic_zero_boost_degenerates_smoothly():
    p = _p(0.1, 0.0)
    val = synth_asymptotic(p, -1.0)
    assert np.isfinite(val)
    # radicand collapses to a perfect square (1 + delta^2 k0 |z| / 2)^2
    assert radicand(p, -1.0) == pytest.approx((1.0 + 0.01 / 2.0) ** 2, rel=1e-12)


def test_asymptotic_domain_checks():
    with pytest.raises(DomainError):
        synth_asymptotic(_p(0.1, 1.0), 0.5)
    with pytest.raises(DomainError):
        synth_asymptotic(_p(0.3, 1.0), -1.0)


def test_asymptotic_reduces_in_window():
    # with delta^2 z_c k0 cosh A <= 0.01 the in-window form is a plain
    # carrier times cos(budget - z k0 cosh A / 2 - pi/4) to 1%
    p = _p(0.1, 1.0, extent=0.6)
    z = np.linspace(-0.6, -1e-3, 500)
    full = synth_asymptotic(p, z)
    reduced = (
        p.amplitude
        * np.exp(0.5j * z)
        * np.cos(p.inv_sq_delta - 0.5 * z * math.cosh(1.0) - math.pi / 4.0)
    )
    assert np.max(np.abs(full - reduced)) < 0.01 * np.max(np.abs(full))


def test_asymptotic_converges_with_smaller_delta():
    # regularized max deviation over the window shrinks along the ladder
    boost, extent = 1.0, 1.5
    devs = []
    for delta in (0.2, 0.14, 0.1, 0.05):
        p = SuperoscParams(delta=delta, boost=boost, extent=extent,
                           window_criterion=0.2)
        z = np.linspace(-extent, -1e-6, 4001)
        b = synth_bessel(p, z)
        a = synth_asymptotic(p, z)
        ref = np.maximum(np.abs(b), 1e-2 * np.abs(b).max())
        devs.append(np.max(np.abs(a - b) / ref))
    assert all(d1 < d0 for d0, d1 in zip(devs, devs[1:]))


# ---------------------------------------------------------------- pair ----


def test_combine_pair_validation():
    p1, p2 = SuperoscParams.locked_pair(40, boost=1.0, extent=0.5)
    q1, _ = SuperoscParams.locked_pair(41, boost=1.0, extent=0.5)
    with pytest.raises(PhaseLockViolation):
        combine_pair(p1, q1)  # mismatched lock branches / m
    with pytest.raises(PhaseLockViolation):
        combine_pair(p2, p1)  # swapped branches
    with pytest.raises(PhaseLockViolation):
        combine_pair(p1, SuperoscParams.phase_locked(
            40, "three_quarter", boost=2.0, extent=0.5))


def test_pair_wavenumbers():
    p1, p2 = SuperoscParams.locked_pair(40, boost=math.acosh(3.0), extent=2.0)
    assert combine_pair(p1, p2, branch=+1).wavenumber == pytest.approx(2.0)
    assert combine_pair(p1, p2, branch=-1).wavenumber == pytest.approx(-1.0)
    z1, z2 = SuperoscParams.locked_pair(40, boost=0.0, extent=2.0)
    assert combine_pair(z1, z2, branch=+1).wavenumber == pytest.approx(1.0)


def test_pair_constant_modulus_in_window(cert_pair):
    n = 400
    mags = np.abs(cert_pair.sample(-cert_pair.extent, cert_pair.extent / (n - 1), n).values)
    assert np.max(np.abs(mags - 1.0)) < 0.05  # amplitude 1 in the window


def test_pair_sample_overflow_without_window():
    p1, p2 = SuperoscParams.locked_pair(40, boost=math.acosh(3.0), extent=2.0)
    pair = combine_pair(p1, p2)
    with pytest.raises(OverflowRegime):
        pair.sample(-3800.0, 0.25, 2**15)  # unwindowed growth bump at e^713


# -------------------------------------------------------------- window ----


def test_apply_window_identity():
    # the identity window's profile is exactly 1: the pointwise product is the signal
    p = _p(0.3, 1.0, extent=0.7)
    s = sample_component(p, -100.0, 0.25, 1024)
    assert np.array_equal(s.values * WindowSpec(half_width=0.0).profile(s.z), s.values)


def test_apply_window_far_tail_decays(mild_signal):
    p = _p(0.3, 1.0, extent=0.7)
    tail_z = 10.0 * p.far_field_onset
    sel = np.abs(mild_signal.z) >= tail_z
    assert sel.any()
    tail_max = np.abs(mild_signal.values[sel]).max()
    assert tail_max < 1e-6 * mild_signal.max_abs


def test_windowed_pair_all_finite(cert_signal):
    assert np.all(np.isfinite(cert_signal.values))


# ------------------------------------------------------------ real form ----


def test_make_real_target_mismatch():
    p1, p2 = SuperoscParams.locked_pair(40, boost=1.0, extent=0.5)
    pair = combine_pair(p1, p2)
    with pytest.raises(DomainError):
        make_real_superosc(pair, 3.33, -10.0, 0.1, 256)


def test_real_signal_node_at_origin(dyn_signal, dyn_pair):
    i0 = dyn_signal.index_of(0.0)
    amp = abs(dyn_pair.p1.amplitude)
    assert abs(dyn_signal.values[i0]) < 1e-3 * amp


def test_real_signal_crossing_spacing(dyn_signal, dyn_pair):
    crossings = zero_crossings(dyn_signal)
    inside = crossings[(crossings >= -dyn_pair.extent) & (crossings <= 0.0)]
    spacing = np.diff(inside)
    expected = math.pi / dyn_pair.wavenumber
    assert np.all(np.abs(spacing - expected) / expected < 0.02)


# ------------------------------------------------------- sampled signal ----


def test_signal_grid_validation():
    with pytest.raises(ValueError, match="underresolved"):
        SampledSignal(z_min=0.0, dz=1.0, values=np.ones(16), k_max=2.0)
    with pytest.raises(ValueError, match="finite"):
        SampledSignal(z_min=0.0, dz=0.1, values=np.array([1.0, np.inf]), k_max=1.0)
    with pytest.raises(ValueError):
        SampledSignal(z_min=0.0, dz=0.1, values=np.ones(1), k_max=1.0)


def test_route_agreement_fuzz_seeded():
    # seeded sweep across the admissible space: flat-contour side exact,
    # growth side bounded by its own reported error estimate
    rng = np.random.default_rng(20240817)
    n_checked = 0
    for _ in range(300):
        delta = float(rng.uniform(0.05, 0.9))
        boost = float(rng.uniform(0.0, 3.0))
        if math.sinh(boost) / delta**2 > 600.0:
            continue
        p = SuperoscParams(delta=delta, boost=boost, extent=1e-3)
        z = float(rng.uniform(-50.0, 10.0))
        try:
            quad = synth_integral(p, z)
        except QuadratureNoConvergence:
            assert z > 0.0  # refusal happens only in the growth regime
            continue
        closed = synth_bessel(p, z)
        if z <= 0.0:
            assert abs(quad.value - closed) <= 1e-9 * (abs(closed) + 1e-30)
        else:
            assert abs(quad.value - closed) <= max(quad.error, 1e-12 * abs(closed))
        n_checked += 1
    assert n_checked > 200


# ------------------------------------------------- masked Bessel branches ----


@pytest.mark.parametrize("amplitude", [1.0, -1.0, 0.0])
def test_masked_component_log_matches_all_points(amplitude):
    from superosc import component_log

    p = mild_component(amplitude)
    z_lo, z_hi = growth_region(p)
    z = np.linspace(z_lo - 20.0, z_hi + 20.0, 5001)  # straddles both edges
    logmag, unit = component_log(p, z)
    ref_logmag, ref_unit = all_points_component_log(p, z)
    assert np.array_equal(logmag, ref_logmag)
    assert np.array_equal(unit, ref_unit)


@pytest.mark.parametrize("amplitude", [1.0, -1.0, 0.0])
def test_masked_pair_samples_match_all_points(amplitude):
    pair = mild_pair_of(amplitude)
    lo = min(growth_region(pair.p1)[0], growth_region(pair.p2)[0])
    hi = max(growth_region(pair.p1)[1], growth_region(pair.p2)[1])
    z_min, dz = lo - 30.0, MILD_PAIR_DZ
    n = int((hi + 30.0 - z_min) / dz)
    z = z_min + dz * np.arange(n)
    for window in (WindowSpec(), MILD_PAIR_WINDOW):
        ref = all_points_pair(pair, z, window)
        assert np.array_equal(pair.sample(z_min, dz, n, window=window).values, ref)
        assert np.array_equal(pair.sample_real(z_min, dz, n, window=window).values,
                              np.imag(ref))


def test_masked_bessel_scalar_and_0d_input():
    from superosc import component_log

    p = mild_component(-1.0)
    for z in (-3.0, 0.0, p.growth_peak_z, 200.0):  # window, origin, growth peak, beyond it
        ref_logmag, ref_unit = all_points_component_log(p, np.asarray(z))
        assert synth_bessel(p, z) == complex(ref_unit * np.exp(ref_logmag))
        logmag, unit = component_log(p, np.asarray(z))
        assert logmag.shape == () and unit.shape == ()
        assert np.array_equal(logmag, ref_logmag) and np.array_equal(unit, ref_unit)


# ------------------------------------------- 40-digit component_log ----
# Reference F(z) = A sqrt(pi)/(sqrt(2) delta) e^{i z k0/2} J0(x), x = sqrt(rad)/delta^2,
# with I0(x), x = sqrt(-rad)/delta^2, inside the growth region; mpmath at 40
# digits on the stored knobs.  Tolerances are about 3x the worst case measured
# for the current route: near the growth edges rad cancels to ~1e-9, and near
# J0 zeros the error is measured against the envelope pref * min(1, sqrt(2/(pi x))).

_CL_REGIMES = {
    # name: (params, growth-edge relative tolerance, J0-zero envelope tolerance)
    "delta0.3": (SuperoscParams(delta=0.3, boost=1.0, extent=0.05), 1e-13, 2e-14),
    "delta0.05": (SuperoscParams(delta=0.05, boost=1.0, extent=0.01), 2e-10, 2e-11),
    "cert": (SuperoscParams.phase_locked(40, QUARTER, boost=math.acosh(3.0), extent=1e-3),
             2e-10, 1e-11),
}


def _component_reference(p, z, dps=40):
    """(F, prefactor, Bessel argument) at z, ``dps`` digits."""
    import mpmath

    with mpmath.workdps(dps):
        zz, inv2, k0 = mpmath.mpf(z), mpmath.mpf(p.inv_sq_delta), mpmath.mpf(p.band_limit)
        u = zz * k0 / inv2
        rad = 1 - u * mpmath.cosh(mpmath.mpf(p.boost)) + u**2 / 4
        pref = mpmath.mpf(p.amplitude) * mpmath.sqrt(mpmath.pi) / (mpmath.sqrt(2)
                                                                    * mpmath.mpf(p.delta))
        x = inv2 * mpmath.sqrt(abs(rad))
        bessel = mpmath.besselj(0, x) if rad >= 0 else mpmath.besseli(0, x)
        return pref * mpmath.expj(zz * k0 / 2) * bessel, pref, x


def _component_value(p, z):
    logmag, unit = component_log(p, np.array([z]))
    return complex(unit[0]) * math.exp(logmag[0])


@pytest.mark.parametrize("regime_name", list(_CL_REGIMES))
def test_component_log_matches_mpmath_at_growth_edges(regime_name):
    p, edge_tol, _ = _CL_REGIMES[regime_name]
    for edge in growth_region(p):
        for rel in (-1e-9, 0.0, 1e-9):
            z = edge * (1.0 + rel)
            ref = complex(_component_reference(p, z)[0])
            assert abs(_component_value(p, z) - ref) <= edge_tol * abs(ref), (z, rel)


@pytest.mark.parametrize("regime_name", list(_CL_REGIMES))
def test_component_log_matches_mpmath_near_j0_zeros(regime_name):
    # every fifth J0 zero with x up to 4 / delta^2, on the branch through z = 0:
    # x below 1/delta^2 lies at 0 < z < z_lo, above it at z < 0
    from scipy.special import jn_zeros

    p, _, zero_tol = _CL_REGIMES[regime_name]
    cosh_a = math.cosh(p.boost)
    zeros = jn_zeros(0, int(4.0 * p.inv_sq_delta / math.pi))[::5]
    zs = [2.0 * (cosh_a - math.sqrt(cosh_a**2 - 1.0 + (j / p.inv_sq_delta) ** 2))
          * p.inv_sq_delta / p.band_limit for j in zeros]
    assert min(zs) < 0.0 < max(zs)
    for z0 in zs:
        for z in (z0 * (1.0 - 1e-7), z0, z0 * (1.0 + 1e-7)):
            ref, pref, x = _component_reference(p, z)
            envelope = float(pref) * min(1.0, math.sqrt(2.0 / (math.pi * float(x))))
            assert abs(_component_value(p, z) - complex(ref)) <= zero_tol * envelope, z


def test_both_routes_at_rounding_near_acceptance_domain_j0_zero():
    # A quadrature_grid draw (seed 54) whose Bessel argument lies 2.7e-9 from
    # the third J0 zero, the zero itself and x 5.6e-10 either side.  There |F|
    # is under 3e-9 of the envelope, so a relative 1e-8 check between the two
    # routes asks for less than one rounding unit of the envelope; against the
    # envelope both routes sit at rounding level (7 eps measured).
    from scipy.special import jn_zeros

    p = _p(0.6299395309258813, 0.9197042314092413)
    cosh_a = math.cosh(p.boost)
    j = jn_zeros(0, 3)[-1]
    z0 = (2.0 * (cosh_a - math.sqrt(cosh_a**2 - 1.0 + (j / p.inv_sq_delta) ** 2))
          * p.inv_sq_delta / p.band_limit)
    for z in (-10.779622506727298, z0, z0 * (1.0 - 1e-10), z0 * (1.0 + 1e-10)):
        ref, pref, x = _component_reference(p, z, dps=50)
        envelope = float(pref) * min(1.0, math.sqrt(2.0 / (math.pi * float(x))))
        assert abs(float(x) - j) <= 3e-9, z
        assert 1e-8 * abs(complex(ref)) < np.finfo(float).eps * envelope, z
        for value in (synth_integral(p, z).value, synth_bessel(p, z)):
            assert abs(value - complex(ref)) <= 16.0 * np.finfo(float).eps * envelope, z


def test_component_log_matches_mpmath_at_cert_growth_peak():
    # logmag ~ 711.87 overflows a double: compare log-magnitude and phase
    import mpmath

    p = _CL_REGIMES["cert"][0]
    for z in (p.growth_peak_z * (1.0 - 1e-3), p.growth_peak_z, p.growth_peak_z * (1.0 + 1e-3)):
        logmag, unit = component_log(p, np.array([z]))
        ref = _component_reference(p, z)[0]
        with mpmath.workdps(40):
            log_ref, unit_ref = float(mpmath.log(abs(ref))), complex(ref / abs(ref))
        assert logmag[0] == pytest.approx(711.87, abs=0.01)
        assert abs(logmag[0] - log_ref) <= 1e-13
        assert abs(complex(unit[0]) - unit_ref) <= 1e-13


# ------------------------------------------------------ pipeline grids ----


def _bits(values):
    """int64 view of the samples, so that signed zeros count."""
    return np.ascontiguousarray(values).view(np.int64)


@pytest.mark.parametrize("fixture,refine", [("spectrum_cert.cfg", 1), ("energy.cfg", 1),
                                            ("energy.cfg", 2)],
                         ids=["cert", "dyn-2^15", "dyn-2^16"])
def test_pipeline_grid_samples_match_complex_combine_bitwise(fixture, refine):
    # pipeline_warm's grids: the certificate grid, and the dyn box at 2^15 and 2^16 samples
    conf = regime(fixture)
    window = _window_from(conf)
    z_min, dz, n = _grid_from(conf)
    dz, n = dz / refine, n * refine
    z = z_min + dz * np.arange(n)
    for amplitude in (1e-4, -3e-3, 1e-2, 0.0):
        pair = _pair_from(regime(fixture, amplitude=amplitude))
        ref = all_points_pair(pair, z, window)
        assert np.array_equal(_bits(pair.sample(z_min, dz, n, window=window).values),
                              _bits(ref))
        assert np.array_equal(_bits(pair.sample_real(z_min, dz, n, window=window).values),
                              _bits(np.imag(ref)))


@pytest.mark.parametrize("branch", [+1, -1])
@pytest.mark.parametrize("amplitude", [1.0, -1e-3])
def test_underflowed_samples_keep_complex_signed_zeros(amplitude, branch):
    # a window this narrow takes the samples through the subnormal range to
    # exact zeros of both signs; the real combine must sign them as the
    # complex product does
    p1, p2 = SuperoscParams.locked_pair(3, amplitude=amplitude, boost=1.0, extent=1.2)
    pair = combine_pair(p1, p2, branch=branch)
    window = WindowSpec(half_width=0.05)
    z_min, dz, n = -1200.0, 0.125, 19200
    z = z_min + dz * np.arange(n)
    ref = all_points_pair(pair, z, window)
    zero = ref.imag == 0.0
    assert np.signbit(ref.imag[zero]).any() and not np.signbit(ref.imag[zero]).all()
    assert np.array_equal(_bits(pair.sample(z_min, dz, n, window=window).values), _bits(ref))
    assert np.array_equal(_bits(pair.sample_real(z_min, dz, n, window=window).values),
                          _bits(ref.imag))


# Rounding bound of the factored combine against the in-log formula, relative
# to each sample's envelope e^peak.  log|a| is added once to the peak instead
# of inside each log-magnitude, which moves a sample by a few units in the
# last place of its exponent: up to 2.3e-13 on the certificate grid, where
# the peak reaches e^689, and 1.1e-14 on the dyn grids (measured at the
# amplitudes below).  The bounds are about twice that.
FACTORED_TOL = {"cert": 5e-13, "dyn-2^15": 3e-14, "dyn-2^16": 3e-14}
PIPELINE_GRIDS = pytest.mark.parametrize(
    "fixture,refine,grid_id",
    [("spectrum_cert.cfg", 1, "cert"), ("energy.cfg", 1, "dyn-2^15"),
     ("energy.cfg", 2, "dyn-2^16")],
    ids=["cert", "dyn-2^15", "dyn-2^16"])


def _pipeline_grid(fixture, refine):
    conf = regime(fixture)
    z_min, dz, n = _grid_from(conf)
    dz, n = dz / refine, n * refine
    return _window_from(conf), (z_min, dz, n), z_min + dz * np.arange(n)


@PIPELINE_GRIDS
def test_factored_combine_within_rounding_of_in_log_formula(fixture, refine, grid_id):
    window, grid, z = _pipeline_grid(fixture, refine)
    for amplitude in (1e-4, -3e-3, 1e-2):
        pair = _pair_from(regime(fixture, amplitude=amplitude))
        ref, envelope = in_log_pair(pair, z, window)
        tol = FACTORED_TOL[grid_id] * envelope
        assert np.all(np.abs(pair.sample(*grid, window=window).values - ref) <= tol)
        assert np.all(np.abs(pair.sample_real(*grid, window=window).values - ref.imag) <= tol)


@PIPELINE_GRIDS
def test_factored_combine_at_unit_amplitude_is_in_log_formula_bitwise(fixture, refine, grid_id):
    # log|a| = 0: the peak and both log-magnitudes are those of the in-log formula
    window, grid, z = _pipeline_grid(fixture, refine)
    for amplitude in (1.0, -1.0):
        pair = _pair_from(regime(fixture, amplitude=amplitude))
        ref, _ = in_log_pair(pair, z, window)
        assert np.array_equal(_bits(pair.sample(*grid, window=window).values), _bits(ref))
        assert np.array_equal(_bits(pair.sample_real(*grid, window=window).values),
                              _bits(ref.imag))


# ------------------------------------------------------- index ranges ----


def test_index_range_is_mask_selection():
    # dz = 0.1 is not a binary fraction, so z[i] differs from the decimal
    # z_min + i/10; bounds taken from the samples themselves lie exactly on them
    s = SampledSignal(z_min=-5.0, dz=0.1, values=np.ones(101), k_max=1.0)
    z = s.z_min + s.dz * np.arange(s.n)
    on_samples = [float(z[i]) for i in (0, 1, 37, 50, 99, 100)]
    bounds = on_samples + [np.nextafter(v, -np.inf) for v in on_samples] + [
        np.nextafter(v, np.inf) for v in on_samples] + [-4.3, -0.1, 0.0, 2.7, -7.0, 6.0]
    for z_lo in bounds + [-np.inf, np.nan]:
        for z_hi in bounds + [np.inf, np.nan]:
            i_lo, i_hi = s.index_range(z_lo, z_hi)
            sel = np.flatnonzero((z >= z_lo) & (z <= z_hi))
            assert np.array_equal(np.arange(i_lo, i_hi), sel), (z_lo, z_hi)
            assert np.array_equal(s.z_slice(i_lo, i_hi), z[sel])
    assert np.array_equal(s.z, z)
    assert all(s.z_at(i) == z[i] for i in range(s.n))
