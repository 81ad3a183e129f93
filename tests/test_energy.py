import json
import math

import numpy as np
import pytest

from superosc import (
    ModeGrid,
    TwoLevelParticle,
    amplitudes_from_spectrum,
    compute_I3,
    energy_balance,
    energy_before,
    i2_over_gap,
    matched_sine_amplitude,
    sine_overlap_denominator,
    spectrum,
)
from superosc.errors import BalanceViolation, CutoffMissing, DomainError
from superosc.field import CoherentAmplitudes

# Frozen oracle for the trig double integral at theta = 11 (scipy dblquad,
# epsabs 1e-13; the denominator from its exact antiderivative):
#   -N/D = -0.9828225156594506
I2_THETA11_ORACLE = -0.9828225156594506


def _dyn_amplitudes(dyn_signal, uv=50.0):
    sd = spectrum(dyn_signal, band_limit=1.0)
    grid = ModeGrid.for_signal(dyn_signal, uv_cutoff=uv)
    return amplitudes_from_spectrum(sd, grid), grid


# -------------------------------------------------------------------- I2 ----


def test_i2_matches_double_integral_oracle():
    assert i2_over_gap(11.0) == pytest.approx(I2_THETA11_ORACLE, abs=5e-9)


def test_i2_at_full_cycles():
    theta = 2.0 * math.pi * 25
    assert abs(i2_over_gap(theta) + 1.0) < 0.02


@pytest.mark.parametrize("theta_over_pi", [20, 100, 500])
def test_i2_ladder_converges(theta_over_pi):
    assert abs(i2_over_gap(theta_over_pi * math.pi) + 1.0) < 1.0 / theta_over_pi


def test_i2_ladder_monotone_off_lattice():
    devs = [abs(i2_over_gap(t * math.pi + 1.0) + 1.0) for t in (20, 100, 500)]
    assert devs[0] > devs[1] > devs[2]


def test_i2_depends_on_theta_only(dyn_signal):
    # same Omega*t, different Omega: the ledger's I2/E agrees to 1e-12
    ca, grid = _dyn_amplitudes(dyn_signal)
    vacuum = CoherentAmplitudes(grid=grid, alpha=np.zeros_like(ca.alpha),
                                z_min=ca.z_min, dz=ca.dz, n_samples=ca.n_samples)
    for theta in (40 * math.pi + 0.3, 777.1):
        a, b = (energy_balance(vacuum, TwoLevelParticle(gap_frequency=gap), theta / gap, grid)
                for gap in (1.0, 2.0))
        assert abs(a.i2 / a.gap_energy - b.i2 / b.gap_energy) <= 1e-12


def test_i2_deviation_bounded_by_inverse_theta():
    thetas = np.linspace(4 * math.pi, 2000.0, 4001)
    devs = np.array([abs(i2_over_gap(t) + 1.0) for t in thetas])
    c = np.max(devs * thetas)
    assert c <= 10.0


def test_i2_floor():
    for theta in (0.0, -2.0 * math.pi):
        with pytest.raises(DomainError):
            i2_over_gap(theta)


# -------------------------------------------------------------------- I3 ----


def _i3(box_length, theta_over_pi=100.0, gap=2.0, amplitude=1.0, uv=50.0):
    t = theta_over_pi * math.pi / gap
    grid = ModeGrid.for_box(box_length, k_cut=2.0, uv_cutoff=uv)
    denom = sine_overlap_denominator(gap, t, amplitude)
    return compute_I3(grid, gap, t, denom)


def test_i3_small_at_default_box():
    gap = 2.0
    assert abs(_i3(1e4)) / gap <= 1e-4


def test_i3_box_scaling_exact():
    assert _i3(1e5) == pytest.approx(_i3(1e4) * 1e-2, rel=1e-12)


def test_i3_cutoff_sensitivity_reported():
    # growth with the cutoff is at most linear-order (the integrand tends to
    # a constant); the value itself is diagnostic, not asserted further
    a = _i3(1e4, uv=50.0)
    b = _i3(1e4, uv=100.0)
    c = _i3(1e4, uv=200.0)
    assert a < b < c
    assert c <= 2.5 * b <= 6.25 * a


def test_i3_requires_cutoff():
    grid = ModeGrid.for_box(1e4, k_cut=2.0, uv_cutoff=None)
    with pytest.raises(CutoffMissing):
        compute_I3(grid, 2.0, 100.0, 1.0)


def _k_integral(gap, t, uv):
    """compute_I3's bare k integral: box 2 and denominator 1, so times 4 is exact."""
    grid = ModeGrid(box_length=2.0, n_modes=1, uv_cutoff=uv)
    return 4.0 * compute_I3(grid, gap, t, 1.0)


def _i3_integral_mp(k_uv, gap, t):
    """G(gap + k_uv) - G(gap) at 40 digits, its float arguments taken as exact."""
    import mpmath as mp

    with mp.workdps(40):
        k_uv, om, t = mp.mpf(k_uv), mp.mpf(gap), mp.mpf(t)

        def antiderivative(u):
            x = u * t
            return 2 * ((u - mp.sin(x) / t) - 2 * om * (mp.log(u) - mp.ci(x))
                        + om**2 * (mp.cos(x) / u - 1 / u + t * mp.si(x)))

        return antiderivative(om + k_uv) - antiderivative(om)


@pytest.mark.parametrize("uv", [50.0, 200.0])
@pytest.mark.parametrize("theta_over_pi", [40.0, 100.0, 400.0])
@pytest.mark.parametrize("gap", [1.5, 2.0, 3.0])
def test_i3_matches_mpmath_antiderivative(gap, theta_over_pi, uv):
    t = theta_over_pi * math.pi / gap
    ref = float(_i3_integral_mp(uv, gap, t))
    assert _k_integral(gap, t, uv) == pytest.approx(ref, rel=1e-13, abs=0.0)


def test_i3_antiderivative_matches_quadrature():
    # the raw integrand k^2 4 sin^2((Omega+k)t/2)/(Omega+k)^2, split at its zeros
    import mpmath as mp

    gap, uv = 2.0, 5.0
    t = 40.0 * math.pi / gap
    with mp.workdps(40):
        om, tt = mp.mpf(gap), mp.mpf(t)
        period = 2 * mp.pi / tt
        zeros = [n * period - om for n in range(int(mp.ceil(om / period)),
                                                int(mp.floor((om + uv) / period)) + 1)]
        nodes = [mp.mpf(0)] + [k for k in zeros if 0 < k < uv] + [mp.mpf(uv)]
        quad = mp.quad(lambda k: k**2 * 4 * mp.sin((om + k) * tt / 2) ** 2 / (om + k) ** 2,
                       nodes)
        assert abs(_i3_integral_mp(uv, gap, t) / quad - 1) < mp.mpf("1e-30")
    assert _k_integral(gap, t, uv) == pytest.approx(float(quad), rel=1e-13)


@pytest.mark.parametrize("gap,t,uv", [
    (2.0, 0.0, 50.0),
    (2.0, -50.0 * math.pi, 50.0),
    (2.0, math.nan, 50.0),
    (0.0, 50.0 * math.pi, 50.0),
    (2.0, 50.0 * math.pi, 1e308),  # (Omega + k_uv) t overflows
])
def test_i3_domain(gap, t, uv):
    with pytest.raises(DomainError):
        _k_integral(gap, t, uv)


# I3 past double range, and L^2 times the denominator underflowing to 0
@pytest.mark.parametrize("box_length,uv,t,denominator", [(2.0, 1e100, 50.0 * math.pi, 1e-300),
                                                         (1e-150, 1e151, 1e-155, 1e-30)])
def test_overflowing_i3_is_named(box_length, uv, t, denominator):
    grid = ModeGrid(box_length=box_length, n_modes=1, uv_cutoff=uv)
    with pytest.raises(DomainError, match="^I3 overflows a double"):
        compute_I3(grid, 2.0, t, denominator)


def test_sweep_box_ladder_i3_matches_mpmath(tmp_path):
    # off the matched gap: Omega is the pair's wavenumber, 1.5 and 3 here
    from superosc.cli import main

    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "[run]\nexperiment = sweep\n"
        "[superosc]\namplitude = 1.0\nm_phase = 2000\nband_limit = 1.0\nextent = 50\n"
        "[modes]\nuv_cutoff = 50\n"
        "[sweep]\nboost_arccosh = list:2,5\nbox_length = list:1e4,1e5\n"
    )
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"]) == 0
    lines = (tmp_path / "out" / "sweep_points.jsonl").read_text().splitlines()
    assert len(lines) == 4
    for line in lines:
        item = json.loads(line)
        gap, box = item["payload"]["target_wavenumber"], item["point"]["box_length"]
        t = 100.0 * math.pi / gap
        ref = float(_i3_integral_mp(50.0, gap, t)) / (
            box**2 * sine_overlap_denominator(gap, t, 1.0) * gap)
        assert item["payload"]["i3_over_gap"] == pytest.approx(ref, rel=1e-12, abs=0.0)


# -------------------------------------------------------------------- I1 ----


def test_i1_is_energy_before(dyn_signal, dyn_pair):
    ca, grid = _dyn_amplitudes(dyn_signal)
    gap = dyn_pair.wavenumber
    amp = matched_sine_amplitude(dyn_signal, gap, -dyn_pair.extent, 0.0)
    report = energy_balance(ca, TwoLevelParticle(gap_frequency=gap), 100.0 * math.pi / gap,
                            grid, amplitude=amp)
    assert report.i1 == energy_before(ca).value  # bit-for-bit delegation


def test_i1_amplitude_scaling(mild_pair_real):
    sd = spectrum(mild_pair_real, band_limit=1.0)
    grid = ModeGrid.for_signal(mild_pair_real)
    ca = amplitudes_from_spectrum(sd, grid)
    doubled = CoherentAmplitudes(grid=grid, alpha=2.0 * ca.alpha, z_min=ca.z_min,
                                 dz=ca.dz, n_samples=ca.n_samples)
    assert energy_before(doubled).value == pytest.approx(4.0 * energy_before(ca).value,
                                                         rel=1e-12)


# ----------------------------------------------------------------- balance ----


def test_energy_balance_matched_run(dyn_signal, dyn_pair):
    ca, grid = _dyn_amplitudes(dyn_signal)
    gap = dyn_pair.wavenumber
    particle = TwoLevelParticle(gap_frequency=gap)
    amp = matched_sine_amplitude(dyn_signal, gap, -dyn_pair.extent, 0.0)
    t = 100.0 * math.pi / gap
    report = energy_balance(ca, particle, t, grid, amplitude=amp)
    assert abs(report.residual) <= 0.05
    assert report.i1 == report.energy_before
    assert report.energy_after == pytest.approx(
        report.i1 + report.i2 + report.i3, rel=1e-15
    )


def test_energy_balance_ladder_non_increasing(dyn_signal, dyn_pair):
    ca, grid = _dyn_amplitudes(dyn_signal)
    gap = dyn_pair.wavenumber
    particle = TwoLevelParticle(gap_frequency=gap)
    amp = matched_sine_amplitude(dyn_signal, gap, -dyn_pair.extent, 0.0)
    residuals = []
    for theta_over_pi in (40.0, 100.0, 400.0):
        t = theta_over_pi * math.pi / gap
        report = energy_balance(ca, particle, t, grid, amplitude=amp)
        residuals.append(abs(report.residual))
    assert residuals[0] >= residuals[1] >= residuals[2]


def test_energy_balance_vacuum_flagged(dyn_signal):
    ca, grid = _dyn_amplitudes(dyn_signal)
    vacuum = CoherentAmplitudes(grid=grid, alpha=np.zeros_like(ca.alpha),
                                z_min=ca.z_min, dz=ca.dz, n_samples=ca.n_samples)
    particle = TwoLevelParticle(gap_frequency=2.0)
    report = energy_balance(vacuum, particle, 100.0 * math.pi / 2.0, grid)
    assert report.energy_before == 0.0
    assert report.i2 == pytest.approx(-2.0, abs=1e-9)  # formally still -E
    assert any("vacuum" in w for w in report.warnings)


def test_energy_balance_violation_raised(dyn_signal, dyn_pair):
    ca, grid = _dyn_amplitudes(dyn_signal)
    gap = dyn_pair.wavenumber
    particle = TwoLevelParticle(gap_frequency=gap)
    amp = matched_sine_amplitude(dyn_signal, gap, -dyn_pair.extent, 0.0)
    t = 100.0 * math.pi / gap
    with pytest.raises(BalanceViolation) as err:
        energy_balance(ca, particle, t, grid, amplitude=amp, max_residual=1e-9)
    assert err.value.args[1].residual != 0.0  # diagnostic payload attached


def test_energy_balance_theta_floor(dyn_signal, dyn_pair):
    ca, grid = _dyn_amplitudes(dyn_signal)
    particle = TwoLevelParticle(gap_frequency=2.0)
    with pytest.raises(DomainError):
        energy_balance(ca, particle, 10.0, grid)  # theta = 20 < 40 pi
