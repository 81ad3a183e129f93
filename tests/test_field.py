import math

import numpy as np
import pytest

from superosc import (
    ModeGrid,
    SampledSignal,
    amplitudes_from_spectrum,
    energy_before,
    expectation_B,
    fourier_coeffs,
    spectrum,
    two_point_function,
    vacuum_two_point,
)
from superosc.errors import CutoffMissing, TruncationError
from superosc.field import CoherentAmplitudes
from superosc.params import MAX_COUNT


def _windowed_wave(fn, k1=0.5, kappa=0.01, n=2**13, dz=0.25):
    z = -n * dz / 2 + dz * np.arange(n)
    vals = fn(k1 * z) * np.exp(-0.5 * (kappa * z) ** 2)
    return SampledSignal(z_min=z[0], dz=dz, values=vals, k_max=2.0)


def _amplitudes(signal, uv_cutoff=None):
    sd = spectrum(signal, band_limit=1.0)
    grid = ModeGrid.for_signal(signal, uv_cutoff=uv_cutoff)
    return amplitudes_from_spectrum(sd, grid)


# ------------------------------------------------------------ mode grid ----


def test_mode_grid_spacing_invariant():
    g = ModeGrid.for_box(1000.0, k_cut=2.0)
    assert g.dk == pytest.approx(2 * math.pi / 1000.0, rel=1e-15)
    assert g.wavenumbers[0] == pytest.approx(g.dk, rel=1e-12)
    assert np.allclose(np.diff(g.wavenumbers), g.dk, rtol=1e-12)


def test_mode_grid_refuses_counts_outside_range():
    for n in (0, -1, MAX_COUNT + 1):
        with pytest.raises(ValueError, match="n_modes"):
            ModeGrid(box_length=1000.0, n_modes=n)
    assert ModeGrid(box_length=1000.0, n_modes=1).wavenumbers.size == 1


def test_mode_grid_refuses_non_positive_box():
    for box in (0.0, -1000.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="box_length"):
            ModeGrid(box_length=box, n_modes=4)


def test_mode_grid_refuses_lattice_beyond_uv_cutoff():
    dk = 2 * math.pi / 1000.0
    ModeGrid(box_length=1000.0, n_modes=100, uv_cutoff=100 * dk * (1 + 1e-12))
    with pytest.raises(ValueError, match="UV cutoff"):
        ModeGrid(box_length=1000.0, n_modes=101, uv_cutoff=100 * dk * (1 + 1e-12))
    with pytest.raises(ValueError, match="uv_cutoff"):
        ModeGrid(box_length=1000.0, n_modes=1, uv_cutoff=0.0)


# -------------------------------------------------------- fourier coeffs ----


def test_cosine_picks_a_channel():
    k1 = 0.5  # on-lattice: 0.5 = n * 2 pi / 2048 for n = 163? no: pick exact below
    s = _windowed_wave(np.cos, k1=k1)
    grid = ModeGrid.for_box(s.box_length, 2.0)
    # snap k1 to the lattice for an exact statement
    k_on = grid.wavenumbers[np.argmin(np.abs(grid.wavenumbers - k1))]
    s = _windowed_wave(np.cos, k1=float(k_on))
    fc = fourier_coeffs(s, grid)
    i = np.argmax(np.abs(fc.a))
    assert grid.wavenumbers[i] == pytest.approx(k_on, rel=1e-12)
    assert np.max(np.abs(fc.b)) <= 1e-6 * np.abs(fc.a[i])


def test_sine_picks_b_channel():
    s = _windowed_wave(np.sin, k1=0.5)
    grid = ModeGrid.for_box(s.box_length, 2.0)
    k_on = grid.wavenumbers[np.argmin(np.abs(grid.wavenumbers - 0.5))]
    s = _windowed_wave(np.sin, k1=float(k_on))
    fc = fourier_coeffs(s, grid)
    i = np.argmax(np.abs(fc.b))
    assert grid.wavenumbers[i] == pytest.approx(k_on, rel=1e-12)
    assert np.max(np.abs(fc.a)) <= 1e-6 * np.abs(fc.b[i])


def test_round_trip_resummation(mild_pair_real):
    grid = ModeGrid.for_signal(mild_pair_real)
    fc = fourier_coeffs(mild_pair_real, grid)
    idx = np.arange(0, mild_pair_real.n, 257)
    z = mild_pair_real.z[idx]
    rebuilt = fc.reconstruct(z)
    err = np.abs(rebuilt - np.real(mild_pair_real.values[idx])).max()
    assert err <= 1e-4 * mild_pair_real.max_abs


def test_fourier_requires_matching_box(mild_pair_real):
    grid = ModeGrid.for_box(999.0, k_cut=2.0)
    with pytest.raises(TruncationError):
        fourier_coeffs(mild_pair_real, grid)


@pytest.mark.parametrize("n", [63, 64])
def test_fourier_coeffs_refuses_nyquist_mode(n):
    # a unit wave at the top mode index n // 2: below Nyquist for odd n, at it for even n,
    # where a cosine would read a = 2 and rebuild off by 1 at every sample
    dz = 0.25
    box = n * dz
    top = n // 2
    z = -4.0 + dz * np.arange(n)
    s = SampledSignal(z_min=-4.0, dz=dz, values=np.cos(2 * math.pi * top * z / box), k_max=1.0)
    grid = ModeGrid(box_length=box, n_modes=top)
    if n % 2 == 0:
        with pytest.raises(TruncationError):
            fourier_coeffs(s, grid)
        return
    fc = fourier_coeffs(s, grid)
    assert fc.a[-1] == pytest.approx(1.0, abs=1e-12)
    assert np.abs(fc.reconstruct(z) - s.values).max() <= 1e-12


# ------------------------------------------------------------ amplitudes ----


def test_vacuum_amplitudes():
    s = _windowed_wave(np.sin)
    sd = spectrum(s, band_limit=1.0)
    sd_zero = type(sd)(values=np.zeros_like(sd.values), band_limit=1.0, eps_band=sd.eps_band,
                       z_min=sd.z_min, dz=sd.dz)
    grid = ModeGrid.for_signal(s)
    ca = amplitudes_from_spectrum(sd_zero, grid)
    assert np.all(ca.alpha == 0.0)
    assert np.all(expectation_B(ca) == 0.0)
    assert energy_before(ca).value == 0.0


def test_classicality_flag_scales_with_amplitude(dyn_signal):
    ca = _amplitudes(dyn_signal)
    assert not ca.is_classical()  # amplitude 1e-3 is deeply quantum here
    boosted = CoherentAmplitudes(grid=ca.grid, alpha=ca.alpha * 1e8,
                                 z_min=ca.z_min, dz=ca.dz, n_samples=ca.n_samples)
    assert boosted.is_classical()


def test_alpha_linear_in_amplitude(mild_pair_real):
    ca1 = _amplitudes(mild_pair_real)
    doubled = mild_pair_real.with_values(mild_pair_real.values * 2.0)
    ca2 = _amplitudes(doubled)
    assert np.allclose(ca2.alpha, 2.0 * ca1.alpha, rtol=1e-12)


# --------------------------------------------------------- reconstruction ----


def test_reconstruction_at_t0(dyn_signal):
    ca = _amplitudes(dyn_signal)
    rebuilt = expectation_B(ca)
    err = np.abs(rebuilt - np.real(dyn_signal.values)).max()
    assert err <= 1e-4 * dyn_signal.max_abs


def test_translation_identity(dyn_signal, dyn_pair):
    # B(z, t) = F(z - c t): compare against a fresh synthesis at shifted points
    from superosc import make_real_superosc
    from superosc.cli import _window_from

    from conftest import DYN

    t = 15.0
    ca = _amplitudes(dyn_signal)
    moved = expectation_B(ca, t=t)
    z = dyn_signal.z
    sel = z - t >= dyn_signal.z_min
    shifted = make_real_superosc(
        dyn_pair, dyn_pair.wavenumber, dyn_signal.z_min - t, dyn_signal.dz,
        dyn_signal.n, window=None, label="shift-oracle"
    )
    # window profile must be evaluated at the *original* argument z - t
    h = _window_from(DYN).profile(z[sel] - t)
    expected = np.real(shifted.values[sel]) * h
    err = np.abs(moved[sel] - expected).max()
    assert err <= 1e-4 * dyn_signal.max_abs


def test_pointwise_matches_grid_path(dyn_signal):
    ca = _amplitudes(dyn_signal)
    grid_vals = expectation_B(ca)
    i = dyn_signal.index_of(-25.0)
    z_exact = float(dyn_signal.z[i])
    direct = expectation_B(ca, z=z_exact)
    assert direct == pytest.approx(grid_vals[i], rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("j", [1, 7, -300, 4096])
def test_grid_time_step_is_a_roll(dyn_signal, j):
    # omega = c k with c = 1: a time of j samples moves the field by j samples
    ca = _amplitudes(dyn_signal)
    assert np.array_equal(expectation_B(ca, t=j * dyn_signal.dz), np.roll(expectation_B(ca), j))


def test_grid_path_at_fractional_time_matches_mode_sum(dyn_signal):
    ca = _amplitudes(dyn_signal)
    t = 15.3  # 50.13... samples
    grid_vals = expectation_B(ca, t=t)
    idx = np.linspace(0, dyn_signal.n - 1, 64).astype(int)
    direct = expectation_B(ca, z=dyn_signal.z[idx], t=t)
    assert np.abs(direct - grid_vals[idx]).max() <= 1e-10 * np.abs(grid_vals).max()


@pytest.mark.parametrize("n", [63, 64])
def test_grid_path_refuses_modes_at_nyquist(n):
    dz = 0.25
    box = n * dz
    # the largest mode index below n/2 is accepted, one more is not
    top = (n - 1) // 2
    ok = ModeGrid(box_length=box, n_modes=top)
    ca = CoherentAmplitudes(grid=ok, alpha=np.ones(top, dtype=complex), z_min=-4.0, dz=dz,
                            n_samples=n)
    assert np.all(np.isfinite(expectation_B(ca)))
    grid = ModeGrid(box_length=box, n_modes=top + 1)
    ca = CoherentAmplitudes(grid=grid, alpha=np.ones(top + 1, dtype=complex), z_min=-4.0,
                            dz=dz, n_samples=n)
    with pytest.raises(TruncationError):
        expectation_B(ca)


def test_amplitudes_refuse_box_mismatch():
    grid = ModeGrid(box_length=16.0, n_modes=31)
    alpha = np.ones(31, dtype=complex)
    CoherentAmplitudes(grid=grid, alpha=alpha, z_min=-4.0, dz=0.25, n_samples=64)
    # half the grid's box: the grid path would rebuild a different field
    with pytest.raises(ValueError, match="box"):
        CoherentAmplitudes(grid=grid, alpha=alpha, z_min=-4.0, dz=0.25, n_samples=32)
    with pytest.raises(ValueError, match="box"):
        CoherentAmplitudes(grid=grid, alpha=alpha, z_min=-4.0, dz=0.5, n_samples=64)


def test_amplitudes_refuse_size_mismatch():
    grid = ModeGrid(box_length=16.0, n_modes=31)
    for alpha in (np.ones(30, dtype=complex), np.ones(32, dtype=complex),
                  np.ones((31, 1), dtype=complex)):
        with pytest.raises(ValueError, match="alpha"):
            CoherentAmplitudes(grid=grid, alpha=alpha, z_min=-4.0, dz=0.25, n_samples=64)


@pytest.mark.parametrize("n", [512, 513])
@pytest.mark.parametrize("origin", [-256.0, -255.63])
def test_lattice_slices_round_trip(n, origin):
    # a wave packet with no weight at k = 0 or near Nyquist: the spectral
    # slice must be the mode lattice, and the grid path must rebuild it
    dz = 0.05
    z_min = origin * dz
    z = z_min + dz * np.arange(n)
    vals = np.sin(10.0 * z + 0.3) * np.exp(-0.5 * (0.8 * z) ** 2)
    s = SampledSignal(z_min=z_min, dz=dz, values=vals, k_max=15.0)
    sd = spectrum(s, band_limit=10.0)
    grid = ModeGrid.for_signal(s)
    first = n // 2 + 1
    assert np.allclose(sd.k[first:first + grid.n_modes], grid.wavenumbers, rtol=1e-12, atol=0.0)
    ca = amplitudes_from_spectrum(sd, grid)
    assert np.abs(expectation_B(ca) - vals).max() <= 1e-12 * np.abs(vals).max()


def test_odd_grid_keeps_the_mode_below_nyquist():
    # at n = 513 bin 256 lies below Nyquist: a packet centred there must
    # round-trip through the mode lattice
    n, dz = 513, 0.05
    z_min = -256.0 * dz
    z = z_min + dz * np.arange(n)
    k_top = 256 * 2.0 * math.pi / (n * dz)
    vals = np.cos(k_top * z + 0.3) * np.exp(-0.5 * (0.8 * z) ** 2)
    # k_max only sizes the grid check; the packet sits far above it
    s = SampledSignal(z_min=z_min, dz=dz, values=vals, k_max=15.0)
    grid = ModeGrid.for_signal(s)
    assert grid.n_modes == 256
    ca = amplitudes_from_spectrum(spectrum(s, band_limit=10.0), grid)
    assert np.abs(ca.alpha[-1]) > 0.1 * np.abs(ca.alpha).max()
    assert np.abs(expectation_B(ca) - vals).max() <= 1e-12 * np.abs(vals).max()


# ------------------------------------------------------------- two-point ----


def test_vacuum_term_closed_form():
    # integral of w exp(i w tau) up to the cutoff, against numerical quadrature
    L, kuv, tau = 100.0, 10.0, 0.7
    w = np.linspace(0.0, kuv, 200001)
    num = np.trapezoid(w * np.exp(1j * w * tau), w) / L**2
    assert vacuum_two_point(L, kuv, tau) == pytest.approx(num, rel=1e-8)
    assert vacuum_two_point(L, kuv, 0.0) == pytest.approx(0.5 * kuv**2 / L**2)


def test_vacuum_term_box_scaling(dyn_signal):
    v1 = vacuum_two_point(1e4, 50.0, 0.7)
    v2 = vacuum_two_point(1e5, 50.0, 0.7)
    assert abs(v2) == pytest.approx(abs(v1) * 1e-2, rel=1e-12)


def test_two_point_classical_regime():
    # order-one waveform on the default 1e4 box: the explicit vacuum term is
    # at least a million times below the product term
    n, dz = 2**15, 10000.0 / 2**15
    z = -n * dz / 2 + dz * np.arange(n)
    vals = np.sin(0.5 * z) * np.exp(-0.5 * (0.005 * z) ** 2)
    s = SampledSignal(z_min=z[0], dz=dz, values=vals, k_max=2.0)
    ca = _amplitudes(s, uv_cutoff=50.0)
    res = two_point_function(ca, z0=math.pi, t1=0.0, t2=5.0)
    assert abs(res.product) > 0.1
    assert abs(res.vacuum) / abs(res.product) <= 1e-6
    assert res.total == pytest.approx(res.product + res.vacuum)


def test_two_point_requires_cutoff(mild_pair_real):
    ca = _amplitudes(mild_pair_real, uv_cutoff=None)
    with pytest.raises(CutoffMissing):
        two_point_function(ca, 0.0, 0.0, 1.0)


# ---------------------------------------------------------------- energy ----


def test_energy_routes_agree(dyn_signal, mild_pair_real):
    for sig in (dyn_signal, mild_pair_real):
        e = energy_before(_amplitudes(sig))
        assert abs(e.spectral_route - e.mode_sum_route) <= 1e-8 * e.mode_sum_route


def test_energy_quadratic_in_amplitude(mild_pair_real):
    e1 = energy_before(_amplitudes(mild_pair_real)).value
    doubled = mild_pair_real.with_values(mild_pair_real.values * 2.0)
    e2 = energy_before(_amplitudes(doubled)).value
    assert e2 == pytest.approx(4.0 * e1, rel=1e-12)


def test_energy_against_spatial_quadrature(dyn_signal):
    # half-line convention: E_b = (L^2 / 4 pi) * integral F(z)^2 dz
    ca = _amplitudes(dyn_signal)
    e = energy_before(ca).value
    L = ca.grid.box_length
    spatial = (L**2 / (4.0 * math.pi)) * float(
        np.sum(np.real(dyn_signal.values) ** 2) * dyn_signal.dz
    )
    assert e == pytest.approx(spatial, rel=1e-6)


def test_single_mode_occupation_consistency():
    # concentrated one-sided oscillation: total photon number matches the
    # energy-per-quantum ratio E_b / omega_1 (up to the line's relative
    # second moment, (kappa/k1)^2 = 4e-4)
    n, dz, kappa = 2**14, 0.25, 0.01
    z = -n * dz / 2 + dz * np.arange(n)
    k1_target = 0.5
    s0 = SampledSignal(z_min=z[0], dz=dz, values=np.exp(1j * k1_target * z)
                       * np.exp(-0.5 * (kappa * z) ** 2), k_max=2.0)
    grid = ModeGrid.for_signal(s0)
    k_on = float(grid.wavenumbers[np.argmin(np.abs(grid.wavenumbers - k1_target))])
    s = s0.with_values(np.exp(1j * k_on * z) * np.exp(-0.5 * (kappa * z) ** 2))
    ca = _amplitudes(s)
    e = energy_before(ca).value
    n_total = float(np.sum(ca.mean_photon_numbers))
    assert n_total == pytest.approx(e / k_on, rel=1e-3)  # omega = c k


def test_reconstruction_mild_pair(mild_pair_real):
    ca = _amplitudes(mild_pair_real)
    rebuilt = expectation_B(ca)
    err = np.abs(rebuilt - np.real(mild_pair_real.values)).max()
    assert err <= 1e-4 * mild_pair_real.max_abs


def test_mode_grid_uv_invariant():
    with pytest.raises(ValueError, match="UV cutoff"):
        ModeGrid.for_box(1000.0, k_cut=2.0, uv_cutoff=1.0)
    g = ModeGrid.for_box(1000.0, k_cut=2.0, uv_cutoff=50.0)
    assert g.wavenumbers[-1] <= g.uv_cutoff


def test_amplitudes_band_certificate_gate(dyn_signal, cert_signal):
    # the grid-truncated dynamics signal is a legitimate state but carries no
    # band certificate; the certified waveform passes the gate
    sd_dyn = spectrum(dyn_signal, band_limit=1.0)
    grid = ModeGrid.for_signal(dyn_signal)
    with pytest.raises(TruncationError, match="band-limited"):
        amplitudes_from_spectrum(sd_dyn, grid, require_band_limited=1.5e-3)
    sd_cert = spectrum(cert_signal, band_limit=1.0)
    grid_c = ModeGrid.for_signal(cert_signal)
    ca = amplitudes_from_spectrum(sd_cert, grid_c, require_band_limited=1.0 / 200.0)
    assert ca.alpha.size == grid_c.wavenumbers.size
