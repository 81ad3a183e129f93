"""The amplitude-independent caches of synthesis.

Each cached sample must equal the uncached evaluation of the same points
exactly, whatever amplitude filled the cache first, and every cached array
must be read-only so that no caller can corrupt the next one's result.
"""

import numpy as np
import pytest

from superosc import SuperoscParams, combine_pair, sample_component
from superosc import synthesis
from superosc.cli import _window_from
from superosc.synthesis import component_log, growth_region

from conftest import MILD, MILD_PAIR_DZ, MILD_PAIR_WINDOW, mild_component, mild_pair_of

AMPLITUDES = (1e-4, 3e-3, -1.0, 0.0)
SYNTH_CACHES = (synthesis._bessel_branches, synthesis._grid_carrier)


def _clear():
    for cache in SYNTH_CACHES:
        cache.cache_clear()


def _pair_grid(pair):
    """A grid straddling both edges of both components' growth regions."""
    lo = min(growth_region(pair.p1)[0], growth_region(pair.p2)[0])
    hi = max(growth_region(pair.p1)[1], growth_region(pair.p2)[1])
    z_min, dz = lo - 30.0, MILD_PAIR_DZ
    return z_min, dz, int((hi + 30.0 - z_min) / dz)


def _component_reference(p, z, window):
    """sample_component's values from the uncached component_log."""
    logmag, unit = component_log(p, z)
    if window is not None:
        logmag = logmag + window.log_profile(z)
    return unit * np.exp(logmag)


@pytest.mark.parametrize("window", [None, MILD_PAIR_WINDOW])
def test_cached_pair_samples_equal_uncached(window):
    _clear()
    for repeat in range(2):  # cold, then warm
        for amplitude in AMPLITUDES:
            pair = mild_pair_of(amplitude)
            z_min, dz, n = _pair_grid(pair)
            z = z_min + dz * np.arange(n)
            ref = pair(z, window)
            assert np.array_equal(pair.sample(z_min, dz, n, window=window).values, ref)
            assert np.array_equal(pair.sample_real(z_min, dz, n, window=window).values,
                                  np.imag(ref))
    assert synthesis._bessel_branches.cache_info().hits > 0


@pytest.mark.parametrize("window", [None, _window_from(MILD)])
def test_cached_component_samples_equal_uncached(window):
    _clear()
    for repeat in range(2):
        for amplitude in AMPLITUDES:
            p = mild_component(amplitude)
            z_lo, z_hi = growth_region(p)
            z_min, dz = z_lo - 20.0, MILD["grid"]["dz"]
            n = int((z_hi + 20.0 - z_min) / dz)
            z = z_min + dz * np.arange(n)
            got = sample_component(p, z_min, dz, n, window=window).values
            assert np.array_equal(got, _component_reference(p, z, window))
    assert synthesis._grid_carrier.cache_info().hits > 0


def test_cached_arrays_are_read_only():
    _clear()
    pair = mild_pair_of(1.0)
    z_min, dz, n = _pair_grid(pair)
    pair.sample(z_min, dz, n)
    for p in (pair.p1, pair.p2):
        branches = synthesis._bessel_branches(p.inv_sq_delta, p.boost, p.band_limit,
                                              z_min, dz, n)
        assert branches.oscillatory.any() and not branches.oscillatory.all()
        for arr in branches:
            assert arr.flags.writeable is False
    assert synthesis._grid_carrier(pair.p1.band_limit, z_min, dz, n).flags.writeable is False
    assert synthesis._bessel_branches.cache_info().hits == 2


def test_boost_ladder_on_one_grid_stays_exact_and_bounded():
    # one grid for every boost, so only the boost tells the cache entries apart
    _clear()
    z_min, dz, n = -12.0, 0.05, 400
    z = z_min + dz * np.arange(n)
    for boost in np.arccosh(np.linspace(1.5, 5.0, 20)):
        p1, p2 = SuperoscParams.locked_pair(2000, amplitude=1e-3, boost=float(boost),
                                            extent=10.0)
        pair = combine_pair(p1, p2, branch=+1)
        assert np.array_equal(pair.sample(z_min, dz, n).values, pair(z))
    for cache in SYNTH_CACHES:
        info = cache.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize
