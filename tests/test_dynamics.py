import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superosc import (
    ProbabilityCurve,
    SampledSignal,
    TwoLevelParticle,
    detuning_scan,
    fit_exponent,
    matched_sine_amplitude,
    monochromatic_reference,
    probability_curve,
)
from superosc.cli import _pair_from, _real_signal_from, _resolve_gap
from superosc.errors import DegenerateDenominator, DomainError, InsufficientData

from conftest import regime, with_values
from oracles import lstsq_sine_amplitude

OMEGA = 2.0


def _sine_signal(amplitude=1.0, omega=OMEGA, z_lo=-700.0, per_period=64):
    dz = 2 * math.pi / omega / per_period
    n = int((0.5 - z_lo) / dz)
    z = z_lo + dz * np.arange(n)
    return SampledSignal(z_min=z_lo, dz=dz, values=amplitude * np.sin(omega * z), k_max=omega)


def test_zero_field_zero_probability():
    s = _sine_signal(amplitude=0.0)
    p = TwoLevelParticle(gap_frequency=OMEGA)
    for t in (0.0, 3.0, 40.0):
        assert probability_curve(s, p, [t]).values[0] == 0.0


def test_sine_full_period_closed_form():
    # at t = n * 2 pi / Omega the excitation integral is exactly i t / 2
    s = _sine_signal()
    p = TwoLevelParticle(gap_frequency=OMEGA)
    for cycles in (10, 20):
        t = cycles * 2 * math.pi / OMEGA
        assert probability_curve(s, p, [t]).values[0] == pytest.approx(t**2 / 4.0, rel=1e-6)


def test_monochromatic_reference_trivials():
    assert monochromatic_reference(1.0, 0.0) == 0.0
    p1 = monochromatic_reference(1.0, 7.0)
    assert monochromatic_reference(2.0, 7.0) == pytest.approx(4.0 * p1)
    times = np.array([0.0, 7.0])
    assert np.array_equal(monochromatic_reference(1.0, times), [0.0, p1])
    with pytest.raises(DomainError):
        monochromatic_reference(1.0, np.array([7.0, -1.0]))


def test_quadrature_matches_reference_closed_form():
    s = _sine_signal()
    p = TwoLevelParticle(gap_frequency=OMEGA)
    t = 40.0 * math.pi / OMEGA  # Omega t = 40 pi
    quad = probability_curve(s, p, [t]).values[0]
    ref = monochromatic_reference(1.0, t)
    assert abs(quad / ref - 1.0) < 1e-6


def test_coupling_scales_quadratically():
    s = _sine_signal()
    t = 10.0
    p1 = probability_curve(s, TwoLevelParticle(OMEGA, coupling=1.0), [t]).values[0]
    p2 = probability_curve(s, TwoLevelParticle(OMEGA, coupling=2.0), [t]).values[0]
    assert p2 == pytest.approx(4.0 * p1, rel=1e-12)


def test_coverage_check():
    s = _sine_signal(z_lo=-20.0)
    p = TwoLevelParticle(gap_frequency=OMEGA)
    with pytest.raises(DomainError):
        probability_curve(s, p, [50.0])


def test_superosc_matches_sine_reference(dyn_signal, dyn_particle, dyn_pair):
    t = dyn_pair.extent / 2.0
    amp = matched_sine_amplitude(dyn_signal, OMEGA, -dyn_pair.extent, 0.0)
    p_so = probability_curve(dyn_signal, dyn_particle, [t]).values[0]
    p_ref = monochromatic_reference(amp, t)
    assert abs(p_so / p_ref - 1.0) < 0.05


def test_matched_amplitude_recovers_sine():
    s = _sine_signal(amplitude=0.37)
    assert matched_sine_amplitude(s, OMEGA, -50.0, 0.0) == pytest.approx(0.37, rel=1e-6)


@pytest.fixture(scope="module")
def energy_window():
    conf = regime("energy.cfg")
    pair = _pair_from(conf)
    return _real_signal_from(conf, pair), _resolve_gap(conf, pair), (-pair.extent, 0.0)


def test_closed_form_sine_fit_matches_lstsq(dyn_signal, dyn_pair, energy_window):
    s_energy, gap_energy, window_energy = energy_window
    z8 = dyn_signal.z_at(dyn_signal.index_of(-3.0))
    windows = [(dyn_signal, OMEGA, (-dyn_pair.extent, 0.0)),  # the transition fit
               (s_energy, gap_energy, window_energy),  # the energy ledger's fit
               (dyn_signal, OMEGA, (z8, z8 + 7.5 * dyn_signal.dz)),  # 8 samples
               (_sine_signal(amplitude=0.37), OMEGA, (-50.0, 0.0)),
               (_sine_signal(amplitude=0.37), 1.7, (-50.0, 0.0))]  # off the signal's wavenumber
    for s, k, (z_lo, z_hi) in windows:
        ref = lstsq_sine_amplitude(s, k, z_lo, z_hi)
        assert ref > 0.0
        assert abs(matched_sine_amplitude(s, k, z_lo, z_hi) - ref) <= 1e-13 * ref
    i_lo, i_hi = dyn_signal.index_range(z8, z8 + 7.5 * dyn_signal.dz)
    assert i_hi - i_lo == 8


def test_sine_fit_refuses_collinear_basis():
    s = _sine_signal()
    # wavenumber * dz = pi: sin and cos alternate in sign together; 2 pi: both constant
    for wavenumber in (math.pi / s.dz, 2.0 * math.pi / s.dz):
        with pytest.raises(DegenerateDenominator, match="collinear"):
            matched_sine_amplitude(s, wavenumber, -50.0, 0.0)


def test_sine_fit_refuses_overflowing_phase():
    # wavenumber * z past double range would reach sin and cos as inf
    with pytest.raises(DomainError, match="^wavenumber 1e[+]307 times z overflows a double"):
        matched_sine_amplitude(_sine_signal(), 1e307, -50.0, 0.0)


def test_overflowing_probabilities_are_named(dyn_signal, dyn_particle):
    loud = with_values(dyn_signal, dyn_signal.values * 1e250)
    with pytest.raises(DomainError, match=r"^P = g\^2 \|A\|\^2 overflows a double on the"):
        probability_curve(loud, dyn_particle, [1.0, 50.0])
    with pytest.raises(DomainError, match=r"^P = g\^2 \|A\|\^2 overflows a double in the"):
        detuning_scan(loud, [OMEGA, 1.2 * OMEGA], 50.0)
    louder = with_values(dyn_signal, dyn_signal.values / dyn_signal.max_abs * 1e308)
    with pytest.raises(DomainError, match="^the detector amplitude A overflows a double"):
        detuning_scan(louder, [OMEGA, 1.2 * OMEGA], 50.0)


@pytest.mark.parametrize("max_entries", [None, 0])  # W kept, and W applied block by block
def test_overflowing_detector_amplitude_is_named_on_every_path(max_entries, dyn_signal,
                                                               dyn_particle, monkeypatch):
    # a matrix-vector product need not raise the overflow flag, so A itself is checked
    from superosc import dynamics

    if max_entries is not None:
        monkeypatch.setattr(dynamics, "MATRIX_MAX_ENTRIES", max_entries)
    louder = with_values(dyn_signal, dyn_signal.values / dyn_signal.max_abs * 1e307)
    with pytest.raises(DomainError, match="^the detector amplitude A overflows a double"):
        probability_curve(louder, dyn_particle, np.linspace(1.0, 50.0, 48))
    with pytest.raises(DomainError, match="^the detector amplitude A overflows a double"):
        detuning_scan(louder, [OMEGA, 1.2 * OMEGA], 50.0)


@pytest.mark.parametrize("t", [1e10, np.array([1.0, 1e10])])
def test_overflowing_monochromatic_reference_is_named(t):
    with pytest.raises(DomainError, match="^the monochromatic reference P"):
        monochromatic_reference(1e200, t)


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


def _polyfit_line(curve, window):
    """(slope, intercept, residual rms) of numpy's general least-squares line fit."""
    sel = (curve.times >= window[0]) & (curve.times <= window[1])
    logt, logp = np.log(curve.times[sel]), np.log(curve.values[sel])
    slope, intercept = np.polyfit(logt, logp, 1)
    return slope, intercept, np.sqrt(np.mean((logp - (slope * logt + intercept)) ** 2))


def _assert_fit_matches_polyfit(curve, window):
    fit = fit_exponent(curve, window)
    slope, intercept, rms = _polyfit_line(curve, window)
    assert fit.exponent == pytest.approx(slope, rel=1e-12)
    assert fit.prefactor == pytest.approx(np.exp(intercept), rel=1e-12)
    assert fit.residual_rms == pytest.approx(rms, rel=1e-12)


def test_fit_exponent_matches_polyfit_on_dyn_curve(dyn_signal, dyn_particle, dyn_pair):
    t_lo = 5.0 * 2.0 * math.pi / OMEGA
    times = np.geomspace(t_lo, dyn_pair.extent, 40)
    _assert_fit_matches_polyfit(probability_curve(dyn_signal, dyn_particle, times),
                                (t_lo, dyn_pair.extent))


def test_fit_exponent_matches_polyfit_on_noisy_data():
    rng = np.random.default_rng(20261019)
    for _ in range(20):
        times = np.geomspace(rng.uniform(0.1, 10.0), rng.uniform(20.0, 500.0),
                             int(rng.integers(10, 200)))
        values = (rng.uniform(1e-8, 1e-2) * times ** rng.uniform(0.5, 4.0)
                  * np.exp(rng.normal(0.0, 0.3, times.size)))
        curve = ProbabilityCurve(times=times, values=values, gap_frequency=OMEGA, coupling=1.0)
        _assert_fit_matches_polyfit(curve, (times[0], times[-1]))


def test_fit_exponent_refuses_non_positive_probability():
    times = np.geomspace(1.0, 30.0, 24)
    values = 0.01 * times**2
    values[5] = 0.0
    curve = ProbabilityCurve(times=times, values=values, gap_frequency=OMEGA, coupling=1.0)
    with pytest.raises(InsufficientData, match="non-positive"):
        fit_exponent(curve, (1.0, 30.0))


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
    mono = np.array([monochromatic_reference(amp, t) for t in times])
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
    p1 = probability_curve(dyn_signal, dyn_particle, [t1]).values[0]
    p2 = probability_curve(dyn_signal, dyn_particle, [2.0 * t1]).values[0]
    assert p2 / p1 <= 1.2


# ------------------------------------------------ spline on the reach only ----


def _whole_grid_probability(s, particle, t):
    """Reference: the same exact integral over the spline through every sample."""
    from scipy.interpolate import CubicSpline

    from oracles import spline_amplitudes

    spline = CubicSpline(s.z, s.values)
    (amp,) = spline_amplitudes(spline, np.array([particle.gap_frequency]),
                               particle.detector_z, np.array([t]))[0]
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
        _assert_rel_close(probability_curve(s, dyn_particle, [t]).values[0],
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


# ------------------------------------------------ cached detector matrix ----


def _dyn_grid_signal(n, complex_valued=False):
    """The dyn fixture's pair on its box sampled with n points, real or complex."""
    from superosc.cli import _grid_from, _pair_from, _real_signal_from, _window_from

    from conftest import DYN

    conf = {**DYN, "grid": {**DYN["grid"], "n_samples": n,
                            "dz": DYN["grid"]["dz"] * DYN["grid"]["n_samples"] / n}}
    pair = _pair_from(conf)
    if complex_valued:
        return pair.sample(*_grid_from(conf, pair.k_max), window=_window_from(conf))
    return _real_signal_from(conf, pair)


def _detector_cases(dyn_pair):
    """(signal, gaps, times) in the transition and detune regimes of the fixtures."""
    from conftest import DYN, regime

    gap = dyn_pair.wavenumber
    tr = DYN["transition"]
    curve_times = np.geomspace(tr["t_lo_periods"] * 2 * math.pi / gap, tr["t_hi"],
                               tr["n_points"])
    det = regime("detune.cfg")["detune"]
    scan_gaps = gap * np.array([1.0, *det["probes_rel"]])
    scan_t = det["theta_over_pi"] * math.pi / gap
    cases = {}
    for n in (2**15, 2**16):
        s = _dyn_grid_signal(n)
        cases[f"transition-{n}"] = (s, [gap], curve_times)
        cases[f"detune-{n}"] = (s, scan_gaps, [scan_t])
    cases["clipped-reach"] = (_near_left_edge_signal(dyn_pair), [gap],
                              np.linspace(0.0, dyn_pair.extent, 12))
    cases["complex-signal"] = (_dyn_grid_signal(2**15, complex_valued=True), scan_gaps,
                               curve_times)
    return cases


def test_detector_matrix_matches_per_call_route(dyn_pair):
    # W = Phi . S, its unit-sample splines fitted a block at a time, against
    # one spline fitted on the whole reach per call
    from superosc.dynamics import SPLINE_MARGIN, _excitation_amplitudes

    from oracles import per_call_amplitudes

    for name, (s, gaps, times) in _detector_cases(dyn_pair).items():
        if name == "clipped-reach":
            assert (-max(times) - s.z_min) / s.dz < SPLINE_MARGIN
        probs = np.abs(_excitation_amplitudes(s, gaps, times, 0.0)) ** 2
        refs = np.abs(per_call_amplitudes(s, gaps, times, 0.0)) ** 2
        assert probs.shape == (len(gaps), len(times)), name
        assert np.all(np.abs(probs - refs) <= 1e-12 * refs), name


def test_detector_matrix_cache(dyn_signal, dyn_particle):
    from superosc.dynamics import _detector_key, _detector_matrix, _excitation_amplitudes

    gap, z0 = dyn_particle.gap_frequency, 0.0
    times = np.array([0.0, 7.0, 30.0])
    _detector_matrix.cache_clear()
    first = probability_curve(dyn_signal, dyn_particle, times)
    assert first.values[0] == 0.0  # no time, no integral: exactly 0
    matrix = _detector_matrix(*_detector_key(dyn_signal, gap, times, z0))
    assert not matrix.flags.writeable and not np.any(matrix[:, 0])
    second = probability_curve(dyn_signal, dyn_particle, times)
    assert _detector_matrix(*_detector_key(dyn_signal, gap, times, z0)) is matrix
    assert _detector_matrix.cache_info()[:2] == (3, 1)  # (hits, misses)
    assert np.array_equal(second.values, first.values)

    # each key part makes its own entry
    moved = with_values(dyn_signal, dyn_signal.values, z_min=dyn_signal.z_min + dyn_signal.dz)
    finer = _dyn_grid_signal(2 * dyn_signal.n)
    calls = {"gaps": (dyn_signal, [gap, 1.5 * gap], times, z0),
             "times": (dyn_signal, gap, times + 1e-3, z0),
             "reach": (dyn_signal, gap, times[:2], z0),
             "z0": (dyn_signal, gap, times, z0 + 0.1),
             "z_min": (moved, gap, times, z0),
             "dz": (finer, gap, times, z0)}
    for i, (part, args) in enumerate(calls.items(), start=2):
        _excitation_amplitudes(*args)
        assert _detector_matrix.cache_info()[1:] == (i, 8, i), part  # (misses, maxsize, size)
    for args in calls.values():
        _excitation_amplitudes(*args)
    assert _detector_matrix.cache_info()[:2] == (3 + len(calls), 1 + len(calls))

    # a refused build is never cached: the error comes on every call
    for _ in range(2):
        with pytest.raises(DomainError, match="overflows"):
            _excitation_amplitudes(dyn_signal, 1e308, times, z0)
    assert _detector_matrix.cache_info().currsize == 1 + len(calls)


def test_oversized_detector_key_applies_phi_to_the_samples_spline(dyn_signal, monkeypatch):
    # above MATRIX_MAX_ENTRIES no W is built: Phi weighs the samples' own spline
    from superosc import dynamics

    s, gaps, times = dyn_signal, [OMEGA, 2.5], np.linspace(0.0, 50.0, 48)
    kept = dynamics._excitation_amplitudes(s, gaps, times, 0.0)
    monkeypatch.setattr(dynamics, "MATRIX_MAX_ENTRIES", 0)
    dynamics._detector_matrix.cache_clear()
    direct = dynamics._excitation_amplitudes(s, gaps, times, 0.0)
    assert dynamics._detector_matrix.cache_info().currsize == 0
    assert np.abs(direct - kept).max() <= 1e-14 * np.abs(kept).max()
    assert not np.any(direct[:, 0])  # no time, no integral: exactly 0


_WARM_OPS_CHILD = """
import os, random, resource, sys, time
sys.path[:0] = sys.argv[1:3]
import superosc, worker

def cpu_s():
    # utime + stime of each thread, in seconds
    tick, out = os.sysconf("SC_CLK_TCK"), {}
    for tid in os.listdir("/proc/self/task"):
        with open(f"/proc/self/task/{tid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        out[int(tid)] = (int(fields[11]) + int(fields[12])) / tick
    return out

wl = worker.Pipeline(superosc, random.Random("pipeline_warm:0:0"))
wl.run(wl.warmup_draw())
for n in wl.sizes:
    wl.run({"amplitude": 1e-3, "n": n})
time.sleep(0.5)  # past any BLAS worker's spin-wait
before, faults = cpu_s(), resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(int(sys.argv[3])):
    wl.run(wl.draw())
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
after = cpu_s()
main = after.pop(os.getpid()) - before.pop(os.getpid())
others = sum(t - before.get(tid, 0.0) for tid, t in after.items())
print(main, others, faults)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/task")
def test_warm_pipeline_ops_take_few_page_faults_and_wake_no_thread():
    # a warm op reuses its buffers and runs on one thread: no BLAS worker
    # spins beside it, and the allocator hands it no fresh pages
    root = Path(__file__).resolve().parent.parent
    ops = 200
    proc = subprocess.run([sys.executable, "-c", _WARM_OPS_CHILD, str(root / "perfbench"),
                           str(root / "src"), str(ops)],
                          capture_output=True, text=True, check=True, cwd=root, timeout=300)
    main, others, faults = (float(v) for v in proc.stdout.split())
    assert main > 0.0
    assert others <= 0.1 * main, (main, others)
    assert faults <= 20 * ops, faults


# ------------------------------------------------ exact spline integral ----


def _moment_reference(x, p):
    """m_p(x) = int_0^1 u^p exp(-i x u) du, from its closed form at 60 digits."""
    import mpmath

    with mpmath.workdps(60):
        x = mpmath.mpf(x)
        if x < mpmath.mpf("1e-6"):  # the series: the closed form cancels here
            return complex(mpmath.fsum((-1j * x) ** k / mpmath.factorial(k) / (k + p + 1)
                                       for k in range(12)))
        ix = mpmath.mpc(0, x)
        head = mpmath.fsum(ix**k / mpmath.factorial(k) for k in range(p + 1))
        return complex(mpmath.factorial(p) / ix ** (p + 1) * (1 - mpmath.exp(-ix) * head))


def test_moments_match_mpmath():
    from superosc.dynamics import _GL_NODES, _GL_WEIGHTS, MOMENT_SWITCH, _moments

    nodes, weights = np.polynomial.legendre.leggauss(10)  # the rule's table, on [0, 1]
    assert np.abs(_GL_NODES - 0.5 * (nodes + 1.0)).max() <= 1e-15
    assert np.abs(_GL_WEIGHTS - 0.5 * weights).max() <= 1e-15

    omega = 1.7
    x = np.concatenate([[0.0, 1e-300, 1e-9, 1e-3, MOMENT_SWITCH, np.nextafter(MOMENT_SWITCH, 3),
                         2 * math.pi, 1e4], np.geomspace(1e-4, 1e4, 80)])
    tau = x / omega
    mu = _moments(np.float64(omega), tau)
    assert mu.shape == (x.size, 4)
    for i, xi in enumerate(x):
        for p in range(4):
            ref = tau[i] ** (p + 1) * _moment_reference(xi, p)
            assert abs(mu[i, p] - ref) <= 1e-14 * tau[i] ** (p + 1), (xi, p)


@pytest.mark.parametrize("z_min,dz,z0", [(-60.0, 0.25, 1.1), (-1234.5678, 0.1234567, -1160.3)],
                         ids=["exact-knots", "rounded-knots"])
def test_cubic_signal_matches_closed_form(z_min, dz, z0):
    # a not-a-knot spline reproduces a cubic F, and with s = z0 - z, by parts,
    # int_{z0-t}^{z0} F(z) e^{i W (z0 - z)} dz = [e^{i W s} sum_j F^(j)(z0 - s) / (i W)^(j+1)]_0^t
    # On the second grid z_min + j dz is off by up to 1e-13, so the knot widths differ
    import mpmath

    from superosc.dynamics import _excitation_amplitudes

    coef = [1.0, 0.3, -0.02, 0.001]  # F(z) = sum_k coef[k] (z - z0)^k
    z = z_min + dz * np.arange(int((z0 + 5.0 - z_min) / dz))
    s = SampledSignal(z_min=z_min, dz=dz, values=np.polyval(coef[::-1], z - z0), k_max=1.0)
    gaps = np.array([0.5, 2.0, 13.0])  # 13 dz > 2: whole intervals by the recurrence
    times = np.array([0.1, 7.3, 33.0, 60.0])
    amps = _excitation_amplitudes(s, gaps, times, z0)

    def derivative(j, u):  # F^(j) at z0 + u
        return mpmath.fsum(mpmath.mpf(c) * mpmath.ff(k, j) * u ** (k - j)
                           for k, c in enumerate(coef) if k >= j)

    with mpmath.workdps(40):
        for gi, w in enumerate(gaps):
            iw = mpmath.mpc(0, w)

            def antiderivative(s_):
                return mpmath.exp(iw * s_) * mpmath.fsum(
                    derivative(j, -s_) / iw ** (j + 1) for j in range(4))

            for ti, t in enumerate(times):
                ref = complex(antiderivative(mpmath.mpf(t)) - antiderivative(0))
                # the limits z0 - t and z0 - x_j carry rounding of order ulp(z0) times F
                f_max = np.abs(np.polyval(coef[::-1], -np.linspace(0.0, t, 64))).max()
                tol = 1e-13 * abs(ref) + 2 * np.spacing(abs(z0)) * f_max
                assert abs(amps[gi, ti] - ref) <= tol, (w, t)


def _simpson_probability(s, gap, t, per_period=512):
    """Composite Simpson on the same local spline, per_period nodes per fastest period."""
    from oracles import local_spline

    spline = local_spline(s, -t, 0.0)
    n = max(8, math.ceil(t * (gap + s.k_max) / (2 * math.pi) * per_period))
    n += n % 2
    ts = np.linspace(0.0, t, n + 1)
    w = spline(-ts) * np.exp(1j * gap * ts)
    return abs((t / n / 3.0) * (w[0] + w[-1] + 4.0 * w[1:-1:2].sum() + 2.0 * w[2:-2:2].sum())) ** 2


def test_dyn_curve_and_scan_match_fine_simpson(dyn_signal, dyn_particle, dyn_pair):
    gap = dyn_particle.gap_frequency
    times = np.geomspace(5 * 2 * math.pi / gap, dyn_pair.extent, 12)
    curve = probability_curve(dyn_signal, dyn_particle, times)
    _assert_rel_close(curve.values, [_simpson_probability(dyn_signal, gap, t) for t in times],
                      rel=1e-10)
    gaps = gap * np.array([1.0, 0.8, 1.2, 1.6])
    t = 100 * math.pi / gap
    scan = detuning_scan(dyn_signal, gaps, t)
    _assert_rel_close(scan.probabilities, [_simpson_probability(dyn_signal, g, t) for g in gaps],
                      rel=1e-10)


def test_huge_gap_is_finite_or_refused(dyn_signal):
    for gap in (1e8, 1e300):
        scan = detuning_scan(dyn_signal, [gap], 50.0)
        assert np.all(np.isfinite(scan.probabilities))
        curve = probability_curve(dyn_signal, TwoLevelParticle(gap), [0.0, 1e-9, 50.0])
        assert np.all(np.isfinite(curve.values))
    for fn in (lambda: detuning_scan(dyn_signal, [1e308], 50.0),
               lambda: probability_curve(dyn_signal, TwoLevelParticle(1e307), [50.0])):
        with pytest.raises(DomainError, match="overflows"):
            fn()


def test_selectivity_refuses_zero_probes():
    from superosc.errors import DegenerateDenominator

    from superosc.dynamics import DetuningScan

    scan = DetuningScan(gaps=np.array([2.0, 1.6, 2.4]), probabilities=np.zeros(3), t=1.0,
                        coupling=0.0)
    with pytest.raises(DegenerateDenominator):
        scan.selectivity(2.0)


# ------------------------------------------ properties of the detector ----

_T_CURVE = np.geomspace(5 * 2 * math.pi / OMEGA, 50.0, 16)


@settings(max_examples=30, deadline=None)
@given(k=st.integers(-40, 40))
def test_probability_scales_as_amplitude_squared(k, dyn_signal, dyn_particle):
    # multiplying by 2^k is exact in every step, the product W @ F included
    curve = probability_curve(dyn_signal, dyn_particle, _T_CURVE)
    scaled = probability_curve(with_values(dyn_signal, dyn_signal.values * 2.0**k),
                               dyn_particle, _T_CURVE)
    assert np.array_equal(scaled.values, curve.values * 4.0**k)
    window = (_T_CURVE[0], _T_CURVE[-1])
    assert fit_exponent(scaled, window).exponent == pytest.approx(
        fit_exponent(curve, window).exponent, abs=1e-12)


_COEFF = st.floats(-10.0, 10.0).filter(lambda v: v == 0.0 or abs(v) >= 1e-6)  # no subnormal products


@settings(max_examples=30, deadline=None)
@given(a=_COEFF, b=_COEFF, roll=st.integers(1, 5000), gap=st.floats(0.2, 20.0))
def test_amplitudes_are_linear_in_the_samples(a, b, roll, gap, dyn_signal):
    from superosc.dynamics import _excitation_amplitudes

    f, g = dyn_signal.values, np.roll(dyn_signal.values, roll)
    times, gaps = _T_CURVE, np.array([gap, OMEGA])
    amp_f = _excitation_amplitudes(dyn_signal, gaps, times, 0.0)
    amp_g = _excitation_amplitudes(with_values(dyn_signal, g), gaps, times, 0.0)
    amp_fg = _excitation_amplitudes(with_values(dyn_signal, a * f + b * g), gaps, times, 0.0)
    scale = abs(a) * np.abs(amp_f).max() + abs(b) * np.abs(amp_g).max()
    assert np.abs(amp_fg - (a * amp_f + b * amp_g)).max() <= 1e-12 * scale


@settings(max_examples=30, deadline=None)
@given(m=st.integers(-2000, 2000), gap=st.floats(0.2, 20.0))
def test_shifting_signal_and_detector_is_a_unit_phase(m, gap, dyn_signal):
    # A is measured from the detector's own position, so the unit phase is 1
    from superosc.dynamics import _excitation_amplitudes

    shift = m * dyn_signal.dz
    moved = with_values(dyn_signal, dyn_signal.values, z_min=dyn_signal.z_min + shift)
    amp = _excitation_amplitudes(dyn_signal, gap, _T_CURVE, 0.0)
    amp_moved = _excitation_amplitudes(moved, gap, _T_CURVE, shift)
    assert np.abs(np.abs(amp_moved) - np.abs(amp)).max() <= 1e-11 * np.abs(amp).max()
    assert np.abs(amp_moved - amp).max() <= 1e-11 * np.abs(amp).max()
