import math

import numpy as np
import pytest

from superosc import (
    ProbabilityCurve,
    SampledSignal,
    TwoLevelParticle,
    detuning_scan,
    fit_exponent,
    matched_sine_amplitude,
    monochromatic_reference,
    probability_curve,
    transition_probability,
)
from superosc.errors import DomainError, InsufficientData

OMEGA = 2.0


def _sine_signal(amplitude=1.0, omega=OMEGA, z_lo=-700.0, per_period=64):
    dz = 2 * math.pi / omega / per_period
    n = int((0.5 - z_lo) / dz)
    z = z_lo + dz * np.arange(n)
    return SampledSignal(z_min=z_lo, dz=dz, values=amplitude * np.sin(omega * z),
                         route="combined", k_max=omega)


def test_zero_field_zero_probability():
    s = _sine_signal(amplitude=0.0)
    p = TwoLevelParticle(gap_frequency=OMEGA)
    for t in (0.0, 3.0, 40.0):
        assert transition_probability(s, p, t) == 0.0


def test_sine_full_period_closed_form():
    # at t = n * 2 pi / Omega the excitation integral is exactly i t / 2
    s = _sine_signal()
    p = TwoLevelParticle(gap_frequency=OMEGA)
    for cycles in (10, 20):
        t = cycles * 2 * math.pi / OMEGA
        assert transition_probability(s, p, t) == pytest.approx(t**2 / 4.0, rel=1e-6)


def test_monochromatic_reference_trivials():
    assert monochromatic_reference(OMEGA, 1.0, 0.0) == 0.0
    p1 = monochromatic_reference(OMEGA, 1.0, 7.0)
    assert monochromatic_reference(OMEGA, 2.0, 7.0) == pytest.approx(4.0 * p1)


def test_quadrature_matches_reference_closed_form():
    s = _sine_signal()
    p = TwoLevelParticle(gap_frequency=OMEGA)
    t = 40.0 * math.pi / OMEGA  # Omega t = 40 pi
    quad = transition_probability(s, p, t)
    ref = monochromatic_reference(OMEGA, 1.0, t)
    assert abs(quad / ref - 1.0) < 1e-6


def test_coupling_scales_quadratically():
    s = _sine_signal()
    t = 10.0
    p1 = transition_probability(s, TwoLevelParticle(OMEGA, coupling=1.0), t)
    p2 = transition_probability(s, TwoLevelParticle(OMEGA, coupling=2.0), t)
    assert p2 == pytest.approx(4.0 * p1, rel=1e-12)


def test_coverage_check():
    s = _sine_signal(z_lo=-20.0)
    p = TwoLevelParticle(gap_frequency=OMEGA)
    with pytest.raises(DomainError):
        transition_probability(s, p, 50.0)


def test_superosc_matches_sine_reference(dyn_signal, dyn_particle, dyn_pair):
    t = dyn_pair.extent / 2.0
    amp = matched_sine_amplitude(dyn_signal, OMEGA, -dyn_pair.extent, 0.0)
    p_so = transition_probability(dyn_signal, dyn_particle, t)
    p_ref = monochromatic_reference(OMEGA, amp, t)
    assert abs(p_so / p_ref - 1.0) < 0.05


def test_matched_amplitude_recovers_sine():
    s = _sine_signal(amplitude=0.37)
    assert matched_sine_amplitude(s, OMEGA, -50.0, 0.0) == pytest.approx(0.37, rel=1e-6)


def test_fit_exponent_exact_quadratic():
    times = np.geomspace(1.0, 30.0, 24)
    curve = ProbabilityCurve(times=times, values=0.01 * times**2,
                             gap_frequency=OMEGA, coupling=1.0)
    fit = fit_exponent(curve, (1.0, 30.0))
    assert fit.exponent == pytest.approx(2.0, abs=1e-6)
    assert fit.residual_rms < 1e-12
    assert fit.prefactor == pytest.approx(0.01, rel=1e-6)


def test_fit_exponent_requires_points():
    times = np.geomspace(1.0, 30.0, 24)
    curve = ProbabilityCurve(times=times, values=0.01 * times**2,
                             gap_frequency=OMEGA, coupling=1.0)
    with pytest.raises(InsufficientData):
        fit_exponent(curve, (25.0, 30.0))


def test_quadratic_law_on_superosc(dyn_signal, dyn_particle, dyn_pair):
    t_lo = 5.0 * 2.0 * math.pi / OMEGA
    t_hi = dyn_pair.extent
    times = np.geomspace(t_lo, t_hi, 40)
    curve = probability_curve(dyn_signal, dyn_particle, times)
    fit = fit_exponent(curve, (t_lo, t_hi))
    assert 1.95 <= fit.exponent <= 2.05
    assert fit.residual_rms <= 0.05
    assert not curve.any_breakdown  # amplitude 1e-3 keeps P tiny


def test_detuned_curve_is_not_clean_power_law(dyn_signal, dyn_pair):
    detuned = TwoLevelParticle(gap_frequency=1.37 * OMEGA)
    t_lo = 5.0 * 2.0 * math.pi / OMEGA
    times = np.geomspace(t_lo, dyn_pair.extent, 40)
    curve = probability_curve(dyn_signal, detuned, times)
    fit = fit_exponent(curve, (t_lo, dyn_pair.extent))  # reports, never asserts
    clean = 1.95 <= fit.exponent <= 2.05 and fit.residual_rms <= 0.05
    assert not clean


def test_monochromatic_equivalence_window(dyn_signal, dyn_particle, dyn_pair):
    amp = matched_sine_amplitude(dyn_signal, OMEGA, -dyn_pair.extent, 0.0)
    times = np.linspace(10.0 * 2.0 * math.pi / OMEGA, dyn_pair.extent, 25)
    curve = probability_curve(dyn_signal, dyn_particle, times)
    mono = np.array([monochromatic_reference(OMEGA, amp, t) for t in times])
    assert np.max(np.abs(curve.values / mono - 1.0)) <= 0.05


def test_breakdown_flag_for_large_amplitude():
    s = _sine_signal(amplitude=1.0)
    p = TwoLevelParticle(gap_frequency=OMEGA)
    times = np.array([0.1, 5.0, 40.0])
    curve = probability_curve(s, p, times)
    assert curve.any_breakdown
    assert curve.breakdown[-1]
    assert not curve.breakdown[0]


def test_detuning_selectivity(dyn_signal, dyn_pair):
    t = 100.0 * math.pi / OMEGA
    gaps = [OMEGA, 0.8 * OMEGA, 1.2 * OMEGA, 1.6 * OMEGA]
    scan = detuning_scan(dyn_signal, gaps, t)
    assert scan.selectivity(OMEGA) >= 100.0
    # matched gap is the maximum of the scan
    assert np.argmax(scan.probabilities) == 0


def test_in_band_probe_reported_not_enhanced(dyn_signal):
    # a probe inside the band interacts via real spectral weight; the scan
    # reports it without any assertion beyond positivity
    t = 20.0 * math.pi / OMEGA
    scan = detuning_scan(dyn_signal, [0.5], t)
    assert scan.probabilities[0] > 0.0


def test_long_time_boundedness(dyn_signal, dyn_particle):
    t1 = 2500.0
    p1 = transition_probability(dyn_signal, dyn_particle, t1)
    p2 = transition_probability(dyn_signal, dyn_particle, 2.0 * t1)
    assert p2 / p1 <= 1.2


# ------------------------------------------------ spline on the reach only ----


def _whole_grid_probability(s, particle, t):
    """Reference: the spline through every sample of the grid, one Simpson sum per t."""
    from scipy.interpolate import CubicSpline

    from superosc.dynamics import N_PER_PERIOD

    if t == 0.0:
        return 0.0
    fastest = particle.gap_frequency + s.k_max
    n = max(8, int(math.ceil(t * fastest / (2.0 * math.pi) * N_PER_PERIOD)))
    n += n % 2
    ts = np.linspace(0.0, t, n + 1)
    w = CubicSpline(s.z, s.values)(particle.detector_z - ts) * np.exp(1j * particle.gap_frequency * ts)
    amp = (t / n / 3.0) * (w[0] + w[-1] + 4.0 * w[1:-1:2].sum() + 2.0 * w[2:-2:2].sum())
    return particle.coupling**2 * abs(amp) ** 2


def _near_left_edge_signal(pair):
    """dyn pair on a short grid whose left edge sits 40 samples below -extent."""
    from superosc.cli import _window_from

    from conftest import DYN

    dz = DYN["grid"]["dz"]
    z_min = -pair.extent - 40 * dz
    return pair.sample_real(z_min, dz, int((10.0 - z_min) / dz), window=_window_from(DYN))


def _assert_rel_close(values, refs, rel=1e-13):
    values, refs = np.asarray(values), np.asarray(refs)
    assert np.all(np.abs(values - refs) <= rel * np.abs(refs))


@pytest.mark.parametrize("grid", ["dyn", "near_left_edge"])
def test_local_spline_matches_whole_grid(grid, dyn_signal, dyn_particle, dyn_pair):
    s = dyn_signal if grid == "dyn" else _near_left_edge_signal(dyn_pair)
    t_max = dyn_pair.extent
    if grid == "near_left_edge":
        from superosc.dynamics import SPLINE_MARGIN

        # the reach starts inside the margin, so the fitted slice is clipped
        assert (-t_max - s.z_min) / s.dz < SPLINE_MARGIN
    times = np.linspace(0.0, t_max, 12)
    curve = probability_curve(s, dyn_particle, times)
    refs = [_whole_grid_probability(s, dyn_particle, t) for t in times]
    assert curve.values[0] == 0.0
    _assert_rel_close(curve.values[1:], refs[1:])
    for t in (times[3], t_max):
        _assert_rel_close(transition_probability(s, dyn_particle, t),
                          _whole_grid_probability(s, dyn_particle, t))
    gaps = dyn_particle.gap_frequency * np.array([0.5, 0.8, 1.0, 1.2, 1.6])
    scan = detuning_scan(s, gaps, t_max)
    _assert_rel_close(scan.probabilities,
                      [_whole_grid_probability(s, TwoLevelParticle(gap_frequency=g), t_max)
                       for g in gaps])


def test_detector_rejects_negative_or_uncovered_times(dyn_signal, dyn_particle):
    too_long = dyn_signal.z_max - dyn_signal.z_min + 1.0
    for t in (too_long, -1.0):
        with pytest.raises(DomainError):
            detuning_scan(dyn_signal, [OMEGA], t)
    with pytest.raises(DomainError):
        probability_curve(dyn_signal, dyn_particle, [-1.0, 5.0])
