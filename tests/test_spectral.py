import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superosc import (ModeGrid, SampledSignal, SpectralDensity, WindowSpec,
                      amplitudes_from_spectrum, parseval_residual, spectrum)
from superosc.errors import TruncationError
from superosc.spectral import box_fft, box_irfft


def _gaussian_cos(k1=0.5, kappa=0.01, n=2**13, dz=0.25):
    z = -n * dz / 2 + dz * np.arange(n)
    vals = np.cos(k1 * z) * np.exp(-0.5 * (kappa * z) ** 2)
    return SampledSignal(z_min=z[0], dz=dz, values=vals, k_max=2.0)


def test_cosine_spectrum_peaks_symmetric():
    s = _gaussian_cos(k1=0.5)
    sd = spectrum(s, band_limit=1.0)
    mag = np.abs(sd.values)
    i_pos = np.argmax(np.where(sd.k > 0.0, mag, -1.0))
    i_neg = np.argmax(np.where(sd.k < 0.0, mag, -1.0))
    assert sd.k[i_pos] == pytest.approx(0.5, abs=2 * sd.dk)
    assert sd.k[i_neg] == pytest.approx(-0.5, abs=2 * sd.dk)
    assert mag[i_pos] == pytest.approx(mag[i_neg], rel=1e-9)


def test_parseval_identity():
    s = _gaussian_cos()
    sd = spectrum(s, band_limit=1.0)
    assert parseval_residual(s, sd) < 1e-6


def test_parseval_identity_huge_dynamic_range(cert_signal, cert_spectrum):
    # samples reach e^689; the scale-free form must still verify
    assert parseval_residual(cert_signal, cert_spectrum) < 1e-6


def test_truncation_error_for_undecayed_boundary():
    n, dz = 2048, 0.25
    z = dz * np.arange(n)
    s = SampledSignal(z_min=0.0, dz=dz, values=np.cos(z) + 2.0, k_max=2.0)
    with pytest.raises(TruncationError):
        spectrum(s, band_limit=1.0)


def test_k_grid_covers_band(cert_spectrum):
    assert cert_spectrum.k[0] <= -1.0
    assert cert_spectrum.k[-1] >= 2.0
    assert cert_spectrum.dk == pytest.approx(2 * np.pi / 8192.0, rel=1e-12)


@pytest.mark.parametrize("n", [512, 513, 2**15])
@pytest.mark.parametrize("dz", [0.25, 0.30517578125, 0.152587890625, 0.1953125])
def test_k_scalars_equal_the_k_array(n, dz):
    sd = SpectralDensity(values=np.zeros(n, dtype=complex), band_limit=1.0, eps_band=1e-4,
                         z_min=0.0, dz=dz)
    half = n // 2
    assert sd.dk == float(sd.k[1] - sd.k[0])
    assert sd.k_at(-half) == sd.k[0] and sd.k_at((n - 1) // 2) == sd.k[-1]
    assert np.array_equal(sd.k_at(np.arange(-half, n - half)), sd.k)


def test_dyn_spectrum_builds_no_k_array(dyn_signal):
    sd = spectrum(dyn_signal, band_limit=1.0)
    amplitudes_from_spectrum(sd, ModeGrid.for_signal(dyn_signal))
    parseval_residual(dyn_signal, sd)
    sd.band_energy_fraction(-0.005, sd.band_limit + 0.005)
    assert "k" not in vars(sd)


def test_certificate_band_confinement(cert_spectrum):
    kappa = 1.0 / 200.0
    frac = cert_spectrum.band_energy_fraction(-kappa, 1.0 + kappa)
    assert frac >= 0.9999
    assert 1.0 - frac <= cert_spectrum.eps_band


def _masked_band_fraction(sd, k_lo, k_hi):
    """Reference: the band as a boolean mask over the whole k array."""
    energy = (np.abs(sd.values) / np.abs(sd.values).max()) ** 2
    inside = (sd.k >= k_lo) & (sd.k <= k_hi)
    return float(energy[inside].sum() / energy.sum())


@pytest.mark.parametrize("n", [512, 513, 2**13, 2**15, 2**16])
def test_band_slice_matches_mask_bitwise(n):
    rng = np.random.default_rng(n)
    values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    sd = SpectralDensity(values=values, band_limit=1.0, eps_band=1e-4, z_min=0.0,
                         dz=0.30517578125)
    k = sd.k
    on_grid = rng.choice(k, size=(100, 2))  # edges exactly on a k value
    bands = [tuple(sorted(pair)) for pair in on_grid]
    bands += [tuple(sorted(rng.uniform(1.1 * k[0], 1.1 * k[-1], 2))) for _ in range(100)]
    bands += [(k[3], k[3]), (k[5], k[4]), (k[0], k[-1]), (-np.inf, np.inf),
              (2 * k[0], 0.5 * k[0]), (2 * k[-1], 3 * k[-1]), (np.nan, 1.0), (-1.0, np.nan)]
    for k_lo, k_hi in bands:
        for lo, hi in ((k_lo, k_hi), (np.nextafter(k_lo, -np.inf), np.nextafter(k_hi, np.inf)),
                       (np.nextafter(k_lo, np.inf), np.nextafter(k_hi, -np.inf))):
            assert sd.band_energy_fraction(lo, hi) == _masked_band_fraction(sd, lo, hi)


def test_window_blur_leakage_small():
    # windowing enlarges support by at most the kernel half-width: energy
    # outside [-kappa, k0+kappa] below 1e-4 of the total for an in-band
    # one-sided oscillation
    n, dz, kappa = 2**14, 0.25, 0.005
    z = -n * dz / 2 + dz * np.arange(n)
    vals = np.exp(0.5j * z) * np.exp(-0.5 * (kappa * z) ** 2)
    s = SampledSignal(z_min=z[0], dz=dz, values=vals, k_max=2.0)
    sd = spectrum(s, band_limit=1.0)
    assert 1.0 - sd.band_energy_fraction(-kappa, sd.band_limit + kappa) <= 1e-4


# ------------------------------------------------- box transform origin ----

# origins r = z0/dz, in samples: zero, small whole and half, and whole and
# fractional ones as large as the fixture grids'
_ORIGINS = [0.0, 5.0, 0.5, -15200.0, -10000.246]
_DZ = 0.3  # not a power of two, so z0 = r * dz rounds


def _exact_dft(values, z0, dz, j):
    """dz * sum_p v_p exp(-i k_j (z0 + p dz)) at exact k_j = 2 pi j / (n dz), 40 digits."""
    n = len(values)
    with mpmath.workdps(40):
        r = mpmath.mpf(z0) / mpmath.mpf(dz)
        v = [mpmath.mpc(complex(x)) for x in values]
        roots = [mpmath.expjpi(mpmath.mpf(-2 * q) / n) for q in range(n)]
        return np.array([complex(mpmath.mpf(dz) * mpmath.expjpi(-2 * r * jj / n) * mpmath.fsum(
            v[p] * roots[p * jj % n] for p in range(n))) for jj in j])


def _samples(n, kind, seed=0):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    return v + 1j * rng.standard_normal(n) if kind == "complex" else v


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("r", _ORIGINS)
@pytest.mark.parametrize("n", [63, 64])
def test_box_fft_matches_exact_dft(n, r, kind):
    v = _samples(n, kind)
    z0 = r * _DZ
    got = box_fft(v, z0, _DZ)
    signed = np.rint(np.fft.fftfreq(n) * n).astype(int)
    j = signed if kind == "complex" else np.arange(n // 2 + 1)
    ref = _exact_dft(v, z0, _DZ, j)
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


def _bump(n, r, kind, dz=_DZ):
    """A Gaussian-windowed oscillation, decayed to the box edges."""
    p = np.arange(n) - (n - 1) / 2
    z = (r + np.arange(n)) * dz
    carrier = np.exp(0.8j * z) if kind == "complex" else np.cos(0.8 * z)
    return SampledSignal(z_min=r * dz, dz=dz, values=carrier * np.exp(-0.5 * (p / 5.0) ** 2),
                         k_max=2.0)


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("r", [-15200.0, -10000.246])
@pytest.mark.parametrize("n", [63, 64])
def test_spectrum_matches_exact_dft(n, r, kind):
    s = _bump(n, r, kind)
    sd = spectrum(s, band_limit=1.0)
    j = np.arange(-(n // 2), n - n // 2)  # fftshift order
    ref = _exact_dft(s.values, s.z_min, s.dz, j)
    assert np.allclose(sd.k, 2 * np.pi * j / (n * s.dz), rtol=1e-15, atol=0.0)
    assert np.abs(sd.values - ref).max() <= 1e-14 * np.abs(ref).max()


def _assert_hermitian(sd):
    c = sd.values.size // 2  # k = 0
    j = np.arange(1, sd.values.size - c)
    assert sd.k[c] == 0.0 and sd.values[c].imag == 0.0
    assert np.array_equal(sd.values[c + j], np.conj(sd.values[c - j]))


@pytest.mark.parametrize("r", [0.0, -10000.246])
@pytest.mark.parametrize("n", [63, 64])
def test_real_spectrum_exactly_hermitian(n, r):
    _assert_hermitian(spectrum(_bump(n, r, "real"), band_limit=1.0))


def test_dyn_spectrum_exactly_hermitian(dyn_signal):
    _assert_hermitian(spectrum(dyn_signal, band_limit=1.0))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 300), r=st.floats(-1e5, 1e5, allow_nan=False),
       dz=st.floats(1e-3, 10.0), seed=st.integers(0, 2**32 - 1))
def test_box_transform_round_trip(n, r, dz, seed):
    v = _samples(n, "real", seed)
    z0 = r * dz
    back = box_irfft(box_fft(v, z0, dz), z0, dz, n)
    assert np.abs(back - v).max() <= 1e-13 * np.abs(v).max()
