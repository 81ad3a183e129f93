import math

import numpy as np
import pytest

from superosc import (
    ModeGrid,
    SampledSignal,
    SpectralDensity,
    amplitudes_from_spectrum,
    energy_before,
    expectation_B,
    spectrum,
)
from superosc.errors import TruncationError
from superosc import make_real_superosc
from superosc.cli import _grid_from, _resolve_gap, _window_from
from superosc.field import CoherentAmplitudes, _mode_tables
from superosc.params import MAX_COUNT
from superosc.spectral import box_fft

from conftest import DYN, with_values
from oracles import (lattice_amplitudes, lattice_energy, lattice_expectation_B,
                     mode_sum_B)


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


def _same_bits(a, b) -> bool:
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("box,n", [(1000.0, 100), (10000.0, 2**15 - 1), (2.0**-3 * 4095, 2047)])
def test_mode_tables_are_the_lattice_bit_for_bit(box, n):
    g = ModeGrid(box_length=box, n_modes=n)
    k = (2.0 * math.pi / box) * np.arange(1, n + 1)
    assert _same_bits(g.wavenumbers, k)
    assert g.dk * n == k[-1]  # the UV-cutoff check's top wavenumber
    tables = _mode_tables(box, n)
    assert g.wavenumbers is tables.k
    assert _same_bits(tables.to_alpha, 1j * np.sqrt(box / (2.0 * math.pi * k)))
    assert _same_bits(tables.to_f, -1j * np.sqrt(2.0 * math.pi * k / box))
    assert _same_bits(tables.steps, np.diff(k))
    for table in tables:
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 0.0


def test_mode_tables_cached_per_box():
    misses = _mode_tables.cache_info().misses
    ModeGrid.for_box(1e7, k_cut=2.0, uv_cutoff=50.0)  # 3.2 million modes, never read
    assert _mode_tables.cache_info().misses == misses
    first = ModeGrid(box_length=1234.5, n_modes=321)
    again = ModeGrid(box_length=1234.5, n_modes=321, uv_cutoff=10.0)
    assert all(a is b for a, b in zip(first._tables, again._tables))
    misses = _mode_tables.cache_info().misses
    other = ModeGrid(box_length=1234.25, n_modes=321)
    assert other.wavenumbers[0] != first.wavenumbers[0]
    assert _mode_tables.cache_info().misses == misses + 1
    assert not any(a is b for a, b in zip(first._tables, other._tables))


@pytest.fixture(scope="module")
def dyn_signal_2_16(dyn_pair):
    z_min, dz, n = _grid_from(DYN, dyn_pair.k_max)
    return make_real_superosc(dyn_pair, _resolve_gap(DYN, dyn_pair), z_min, dz / 2, 2 * n,
                              window=_window_from(DYN), label="dyn")


@pytest.mark.parametrize("which", ["dyn 2^15", "dyn 2^16", "odd n"])
def test_spectral_chain_matches_per_call_expressions_bit_for_bit(which, dyn_signal,
                                                                  dyn_signal_2_16):
    s = {"dyn 2^15": dyn_signal, "dyn 2^16": dyn_signal_2_16,
         "odd n": _windowed_wave(np.sin, kappa=0.02, n=4095)}[which]
    sd = spectrum(s, band_limit=1.0)
    grid = ModeGrid.for_signal(s)
    ca = amplitudes_from_spectrum(sd, grid)
    alpha = lattice_amplitudes(sd, grid.box_length, grid.n_modes)
    assert _same_bits(ca.alpha, alpha)
    for t in (0.0, 3.7):
        assert _same_bits(expectation_B(ca, t),
                          lattice_expectation_B(alpha, grid.box_length, s.z_min, s.dz, s.n, t))
    assert _same_bits(np.float64(energy_before(ca)),
                      np.float64(lattice_energy(alpha, grid.box_length)))
    assert "values" not in vars(sd) and "k" not in vars(sd)


# ------------------------------------------------------ mode channels ----
# B's mode sum carries Im alpha on cos(k z - w t) and Re alpha on sin(k z - w t)


def _on_lattice_wave(fn, k1=0.5):
    """``_windowed_wave`` with k1 moved to the nearest mode of its box, and that mode."""
    k = ModeGrid.for_signal(_windowed_wave(fn, k1=k1)).wavenumbers
    k_on = float(k[np.argmin(np.abs(k - k1))])
    return _windowed_wave(fn, k1=k_on), k_on


def test_cosine_picks_a_channel():
    s, k_on = _on_lattice_wave(np.cos)
    ca = _amplitudes(s)
    i = np.argmax(np.abs(ca.alpha.imag))
    assert ca.grid.wavenumbers[i] == pytest.approx(k_on, rel=1e-12)
    assert np.max(np.abs(ca.alpha.real)) <= 1e-6 * np.abs(ca.alpha.imag[i])


def test_sine_picks_b_channel():
    s, k_on = _on_lattice_wave(np.sin)
    ca = _amplitudes(s)
    i = np.argmax(np.abs(ca.alpha.real))
    assert ca.grid.wavenumbers[i] == pytest.approx(k_on, rel=1e-12)
    assert np.max(np.abs(ca.alpha.imag)) <= 1e-6 * np.abs(ca.alpha.real[i])


def test_round_trip_resummation(mild_pair_real):
    ca = _amplitudes(mild_pair_real)
    idx = np.arange(0, mild_pair_real.n, 257)
    rebuilt = mode_sum_B(ca, mild_pair_real.z[idx])
    err = np.abs(rebuilt - np.real(mild_pair_real.values[idx])).max()
    assert err <= 1e-4 * mild_pair_real.max_abs


def test_fourier_requires_matching_box(mild_pair_real):
    grid = ModeGrid.for_box(999.0, k_cut=2.0)
    with pytest.raises(TruncationError):
        amplitudes_from_spectrum(spectrum(mild_pair_real, band_limit=1.0), grid)


@pytest.mark.parametrize("n", [63, 64])
def test_fourier_coeffs_refuses_nyquist_mode(n):
    # a unit wave at the top mode index n // 2: below Nyquist for odd n, at it for even n,
    # where a cosine would read twice its amplitude and rebuild off by 1 at every sample
    dz = 0.25
    box = n * dz
    top = n // 2
    z = -4.0 + dz * np.arange(n)
    values = np.cos(2 * math.pi * top * z / box)
    # the wave never decays, so ``spectrum`` would refuse the box: transform it directly
    sd = SpectralDensity(transform=box_fft(values.astype(complex), -4.0, dz), n_samples=n,
                         band_limit=1.0, eps_band=1e-4, z_min=-4.0, dz=dz)
    grid = ModeGrid(box_length=box, n_modes=top)
    if n % 2 == 0:
        with pytest.raises(TruncationError):
            amplitudes_from_spectrum(sd, grid)
        return
    ca = amplitudes_from_spectrum(sd, grid)
    cos_channel = math.sqrt(8 * math.pi * grid.wavenumbers[-1] / box**3) * ca.alpha[-1].imag
    assert cos_channel == pytest.approx(1.0, abs=1e-12)
    assert np.abs(expectation_B(ca) - values).max() <= 1e-12


# ------------------------------------------------------------ amplitudes ----


def test_vacuum_amplitudes():
    s = _windowed_wave(np.sin)
    sd = spectrum(s, band_limit=1.0)
    sd_zero = type(sd)(transform=np.zeros_like(sd.transform), n_samples=sd.n_samples,
                       band_limit=1.0, eps_band=sd.eps_band, z_min=sd.z_min, dz=sd.dz)
    grid = ModeGrid.for_signal(s)
    ca = amplitudes_from_spectrum(sd_zero, grid)
    assert np.all(ca.alpha == 0.0)
    assert np.all(expectation_B(ca) == 0.0)
    assert energy_before(ca) == 0.0


def test_classicality_flag_scales_with_amplitude(dyn_signal):
    # classical: at least 100 photons in every mode of the occupied support,
    # the modes holding at least 1e-6 of the largest occupation
    ca = _amplitudes(dyn_signal)
    boosted = CoherentAmplitudes(grid=ca.grid, alpha=ca.alpha * 1e8,
                                 z_min=ca.z_min, dz=ca.dz, n_samples=ca.n_samples)
    n, n_boosted = np.abs(ca.alpha) ** 2, np.abs(boosted.alpha) ** 2  # photon numbers
    support = n >= 1e-6 * n.max()
    assert np.array_equal(n_boosted >= 1e-6 * n_boosted.max(), support)
    assert n[support].min() < 100.0  # amplitude 1e-3 is deeply quantum here
    assert n_boosted[support].min() >= 100.0


def test_alpha_linear_in_amplitude(mild_pair_real):
    ca1 = _amplitudes(mild_pair_real)
    doubled = with_values(mild_pair_real, mild_pair_real.values * 2.0)
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
        dyn_signal.n, label="shift-oracle"
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
    direct = mode_sum_B(ca, z_exact)
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
    direct = mode_sum_B(ca, dyn_signal.z[idx], t=t)
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


# ---------------------------------------------------------------- energy ----


def test_energy_quadratic_in_amplitude(mild_pair_real):
    e1 = energy_before(_amplitudes(mild_pair_real))
    doubled = with_values(mild_pair_real, mild_pair_real.values * 2.0)
    e2 = energy_before(_amplitudes(doubled))
    assert e2 == pytest.approx(4.0 * e1, rel=1e-12)


def test_energy_against_spatial_quadrature(dyn_signal):
    # half-line convention: E_b = (L^2 / 4 pi) * integral F(z)^2 dz
    ca = _amplitudes(dyn_signal)
    e = energy_before(ca)
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
    s = with_values(s0, np.exp(1j * k_on * z) * np.exp(-0.5 * (kappa * z) ** 2))
    ca = _amplitudes(s)
    e = energy_before(ca)
    n_total = float(np.sum(np.abs(ca.alpha) ** 2))
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
    # band certificate (the CLI's 1 - band fraction <= eps_band); the
    # certified waveform passes it, and both give amplitudes
    for sig, kappa, certified in ((dyn_signal, 1.5e-3, False), (cert_signal, 1.0 / 200.0, True)):
        sd = spectrum(sig, band_limit=1.0)
        leakage = 1.0 - sd.band_energy_fraction(-kappa, sd.band_limit + kappa)
        assert (leakage <= sd.eps_band) == certified
        grid = ModeGrid.for_signal(sig)
        assert amplitudes_from_spectrum(sd, grid).alpha.size == grid.wavenumbers.size
