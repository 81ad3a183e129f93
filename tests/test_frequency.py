import math

import numpy as np
import pytest

from superosc import (
    SampledSignal,
    SuperoscParams,
    combine_pair,
    frequency_profile,
    window_frequency,
)
from superosc.errors import DomainError, EdgeError

from oracles import crossing_frequency


def _around(s, z, k, periods=1.5):
    """Mean local wavenumber over ``periods`` periods of 2 pi / k either side of z."""
    half = periods * 2.0 * math.pi / k
    return window_frequency(s, z - half, z + half)


def _ramp_signal(k=1.7, n=2048, dz=0.25):
    z = -100.0 + dz * np.arange(n)
    return SampledSignal(z_min=-100.0, dz=dz, values=np.exp(1j * k * z), k_max=max(k, 2.0))


def test_pure_phase_ramp_exact():
    s = _ramp_signal(k=1.7)
    assert window_frequency(s, -50.0, 50.0) == pytest.approx(1.7, rel=1e-6)


def _crossings_around(s, z, k, periods=1.5):
    """``_around`` for a real signal, by the zero-crossing oracle."""
    half = periods * 2.0 * math.pi / k
    return crossing_frequency(s, z - half, z + half)


def test_pure_sine_crossing_estimator():
    dz = 0.19
    z = -60.0 + dz * np.arange(1024)
    s = SampledSignal(z_min=-60.0, dz=dz, values=np.sin(1.3 * z), k_max=2.0)
    assert _crossings_around(s, 0.0, 1.3) == pytest.approx(1.3, rel=1e-3)


def test_edge_error_near_boundary():
    s = _ramp_signal()
    with pytest.raises(EdgeError):
        window_frequency(s, s.z_min - s.dz, s.z_min + 10.0)


def test_cert_window_frequency(cert_signal, cert_pair):
    zc = cert_pair.extent
    measured = window_frequency(cert_signal, -0.9 * zc, -0.1 * zc)
    assert abs(measured - 2.0) / 2.0 < 0.01


def test_pointwise_frequency_mid_window_m300():
    p1, p2 = SuperoscParams.locked_pair(300, boost=math.acosh(3.0), extent=10.0)
    pair = combine_pair(p1, p2)
    dz = math.pi / 16.0 / 2.0
    n = int(40.0 / dz)
    sig = pair.sample(-20.0, dz, n)
    k_mid = _around(sig, -5.0, 2.0)
    assert abs(k_mid - 2.0) / 2.0 < 0.01


def test_far_field_frequency_near_band_limit(mild_pair_real, mild_pair):
    z_far = -100.0 * math.cosh(1.0) * mild_pair.p1.inv_sq_delta
    assert mild_pair_real.covers(z_far, 0.0)
    k_far = _crossings_around(mild_pair_real, z_far, 1.0)
    assert abs(k_far - 1.0) < 0.05


def test_real_window_frequency_dyn(dyn_signal, dyn_pair):
    zc = dyn_pair.extent
    measured = crossing_frequency(dyn_signal, -0.9 * zc, -0.1 * zc)
    assert abs(measured - 2.0) / 2.0 < 0.01


def test_far_field_envelope_bounded():
    # |F| * sqrt|z| stays within a fixed band over two decades of |z|: the
    # per-period maxima of the rescaled magnitude neither decay nor blow up
    from superosc import SuperoscParams, sample_component

    p = SuperoscParams(delta=0.3, boost=1.0, extent=0.05)
    dz = 0.39
    n = int(np.ceil((7000.0 - 65.0) / dz))
    sig = sample_component(p, -7000.0, dz, n)  # ends near z = -65, ~ onset
    z = sig.z
    v = np.abs(sig.values) * np.sqrt(np.abs(z))
    period = 2.0 * math.pi  # far-field oscillation sits at k0 = 1
    edges = np.arange(z[0], z[-1], period)
    maxima = np.array([
        v[(z >= a) & (z < a + period)].max() for a in edges[:-1]
    ])
    assert maxima.min() > 0.0
    assert maxima.max() / maxima.min() < 1.5


def test_profile_matches_pointwise(cert_signal):
    # against the phase difference of the two neighbours of one sample, unwrapped alone
    z_prof, k_prof = frequency_profile(cert_signal, -1.8, -0.2)
    i = np.argmin(np.abs(z_prof - (-1.0)))
    j = cert_signal.index_of(float(z_prof[i]))
    phase = np.unwrap(np.angle(cert_signal.values[j - 1:j + 2]))
    direct = (phase[2] - phase[0]) / (2.0 * cert_signal.dz)
    assert k_prof[i] == pytest.approx(direct, rel=1e-9)


def test_real_pointwise_frequency_across_window(dyn_signal, dyn_pair):
    # crossing-based frequency, a few periods around each probe, within 1%
    # across the middle 80%
    zc = dyn_pair.extent
    for zq in np.linspace(-0.9 * zc, -0.1 * zc, 9):
        k = _crossings_around(dyn_signal, float(zq), 2.0)
        assert abs(k - 2.0) / 2.0 < 0.01


def test_real_signal_is_refused():
    # a real signal has no phase; the profile and its mean refuse it, even on a
    # window where it oscillates
    dz = 0.2
    z = -100.0 + dz * np.arange(1024)
    vals = np.where(z < -30.0, np.sin(1.5 * z), 1e-30)
    s = SampledSignal(z_min=-100.0, dz=dz, values=vals, k_max=2.0)
    for measure in (frequency_profile, window_frequency):
        with pytest.raises(DomainError, match="real signal"):
            measure(s, -60.0, -40.0)


def _whole_grid_profile(s, z_lo, z_hi):
    """The profile from one unwrap of the whole grid."""
    k_loc = np.gradient(np.unwrap(np.angle(s.values)), s.dz)
    sel = np.ones(s.n, dtype=bool)
    sel[0] = sel[-1] = False
    if z_lo is not None:
        sel &= s.z >= z_lo
    if z_hi is not None:
        sel &= s.z <= z_hi
    return s.z[sel], k_loc[sel]


@pytest.mark.parametrize("window", [
    (None, None), (-1.8, -0.2), (None, -1.0), (-1.0, None),
    ("first", -100.0), (-100.0, "last"), ("first", "last"), ("second", "second"),
    (-1.0, -1.0 - 1e-9), (1e9, None), (None, -1e9),
], ids=str)
def test_windowed_profile_matches_whole_grid_unwrap(cert_signal, window):
    edges = {"first": cert_signal.z_min, "last": cert_signal.z_max,
             "second": float(cert_signal.z[1])}
    z_lo, z_hi = (edges.get(end, end) for end in window)
    z_ref, k_ref = _whole_grid_profile(cert_signal, z_lo, z_hi)
    z_got, k_got = frequency_profile(cert_signal, z_lo, z_hi)
    assert np.array_equal(z_got, z_ref)
    if k_ref.size:
        assert np.abs(k_got - k_ref).max() <= 1e-11 * np.abs(k_ref).max()
