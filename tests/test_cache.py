"""The amplitude-independent cache of synthesis, ``_unit_pair``.

Each cached sample must equal the all-points reference on the same points
exactly, whatever amplitude filled the cache first; every cached array must
be read-only so that no caller can corrupt the next one's result; and a
sample keeps nothing alive beyond the cache entry and the signal it returns.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from superosc import SuperoscParams, WindowSpec, combine_pair, sample_component
from superosc import synthesis
from superosc.cli import _window_from
from superosc.errors import OverflowRegime
from superosc.synthesis import LOG_DOUBLE_MAX, component_log

from conftest import (MILD, MILD_PAIR_DZ, MILD_PAIR_N, MILD_PAIR_WINDOW, MILD_PAIR_Z_MIN,
                      mild_component, mild_pair_of)
from oracles import all_points_pair, growth_region, in_log_pair

AMPLITUDES = (1e-4, 3e-3, -1.0, 0.0)
SYNTH_CACHES = (synthesis._unit_pair,)
# Python objects a sample keeps besides its arrays: the cache entry's tuples
# and key, the SampledSignal; a few KiB.
RETAINED_SLACK = 16 * 1024


def _clear():
    for cache in SYNTH_CACHES:
        cache.cache_clear()


def _pair_grid(pair):
    """A grid straddling both edges of both components' growth regions."""
    lo = min(growth_region(pair.p1)[0], growth_region(pair.p2)[0])
    hi = max(growth_region(pair.p1)[1], growth_region(pair.p2)[1])
    z_min, dz = lo - 30.0, MILD_PAIR_DZ
    return z_min, dz, int((hi + 30.0 - z_min) / dz)


def _window_kw(window):
    """The window keyword of a sampler call; None passes none, so the default applies."""
    return {} if window is None else {"window": window}


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
            ref = all_points_pair(pair, z, window)
            assert np.array_equal(pair.sample(z_min, dz, n, **_window_kw(window)).values, ref)
            assert np.array_equal(pair.sample_real(z_min, dz, n, **_window_kw(window)).values,
                                  np.imag(ref))
    assert synthesis._unit_pair.cache_info().hits > 0


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
            got = sample_component(p, z_min, dz, n, **_window_kw(window)).values
            assert np.array_equal(got, _component_reference(p, z, window))


def test_cached_arrays_are_read_only():
    _clear()
    pair = mild_pair_of(1.0)
    grid = _pair_grid(pair)
    pair.sample(*grid, window=MILD_PAIR_WINDOW)
    entry = pair._unit(MILD_PAIR_WINDOW, grid)
    assert synthesis._unit_pair.cache_info().hits == 1
    for arr in entry.peak, entry.unit:
        assert arr.shape == (grid[2],) and arr.flags.writeable is False
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_sample_retains_only_the_unit_pair_entry():
    # a cold sample keeps the cache entry and the returned signal, and nothing
    # the entry was built from (Bessel branches, carrier, window profile)
    pair = mild_pair_of(2e-3)
    grid = (MILD_PAIR_Z_MIN, MILD_PAIR_DZ, MILD_PAIR_N)
    # numpy's and scipy's first-call state, on a grid no cache shares with ``grid``
    pair.sample(MILD_PAIR_Z_MIN, MILD_PAIR_DZ, 1024, window=MILD_PAIR_WINDOW)
    _clear()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sig = pair.sample(*grid, window=MILD_PAIR_WINDOW)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    entry = pair._unit(MILD_PAIR_WINDOW, grid)
    assert synthesis._unit_pair.cache_info()[:2] == (1, 1)  # (hits, misses): one entry
    allowed = entry.peak.nbytes + entry.unit.nbytes + sig.values.nbytes
    assert retained <= allowed + RETAINED_SLACK, (retained, allowed)


def test_boost_ladder_on_one_grid_stays_exact_and_bounded():
    # one grid for every boost, so only the boost tells the cache entries apart
    _clear()
    z_min, dz, n = -12.0, 0.05, 400
    z = z_min + dz * np.arange(n)
    for boost in np.arccosh(np.linspace(1.5, 5.0, 20)):
        p1, p2 = SuperoscParams.locked_pair(2000, amplitude=1e-3, boost=float(boost),
                                            extent=10.0)
        pair = combine_pair(p1, p2, branch=+1)
        assert np.array_equal(pair.sample(z_min, dz, n).values, all_points_pair(pair, z))
    for cache in SYNTH_CACHES:
        info = cache.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize


def test_second_amplitude_hits_unit_pair_cache():
    _clear()
    grid = _pair_grid(mild_pair_of(1.0))
    first = mild_pair_of(2e-3).sample_real(*grid, window=MILD_PAIR_WINDOW)
    second = mild_pair_of(5e-4).sample_real(*grid, window=MILD_PAIR_WINDOW)
    info = synthesis._unit_pair.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    # the waveform is linear in the amplitude, to rounding
    assert np.abs(second.values - 0.25 * first.values).max() <= 1e-14 * np.abs(first.values).max()
    entry = mild_pair_of(1.0)._unit(MILD_PAIR_WINDOW, grid)
    assert synthesis._unit_pair.cache_info().hits == 2
    assert entry.peak.shape == entry.unit.shape == (grid[2],)
    assert entry.peak.flags.writeable is False and entry.unit.flags.writeable is False
    # a sign, the branch and the window are part of the key
    mild_pair_of(-2e-3).sample_real(*grid, window=MILD_PAIR_WINDOW)
    p1, p2 = SuperoscParams.locked_pair(3, amplitude=2e-3, boost=1.0, extent=1.2)
    combine_pair(p1, p2, branch=-1).sample_real(*grid, window=MILD_PAIR_WINDOW)
    mild_pair_of(2e-3).sample_real(*grid)
    assert synthesis._unit_pair.cache_info().misses == 4


def test_overflow_threshold_unchanged():
    # the unwindowed mild pair peaks at e^top; an amplitude that takes the
    # peak just past LOG_DOUBLE_MAX is refused, as by the in-log formula
    _clear()
    grid = _pair_grid(mild_pair_of(1.0))
    z = grid[0] + grid[1] * np.arange(grid[2])
    top = mild_pair_of(1.0)._unit(WindowSpec(), grid).top
    for excess, refused in ((-0.01, False), (0.01, True)):
        pair = mild_pair_of(float(np.exp(LOG_DOUBLE_MAX - top + excess)))
        for values in (lambda: pair.sample(*grid).values, lambda: pair.sample_real(*grid).values,
                       lambda: in_log_pair(pair, z)[0]):
            if refused:
                with pytest.raises(OverflowRegime):
                    values()
            else:
                assert np.isfinite(values()).all()


@pytest.mark.parametrize("window", [None, MILD_PAIR_WINDOW])
def test_overflow_probe_refuses_only_what_the_build_would(window, monkeypatch):
    # the pre-build probe runs once per cold key, never on a warm op; just under
    # the grid's own threshold it refuses nothing, and what it refuses leaves no entry
    grid = _pair_grid(mild_pair_of(1.0))
    _clear()
    top = mild_pair_of(1.0)._unit(window or WindowSpec(), grid).top
    probes = []
    probe = synthesis._refuse_before_build
    monkeypatch.setattr(synthesis, "_refuse_before_build",
                        lambda *args: probes.append(args) or probe(*args))
    for excess in (-1e-9, -1.0):
        _clear()
        for _ in range(2):  # cold, then warm
            pair = mild_pair_of(float(np.exp(LOG_DOUBLE_MAX - top + excess)))
            assert np.isfinite(pair.sample(*grid, **_window_kw(window)).values).all()
    assert len(probes) == 2
    _clear()
    with pytest.raises(OverflowRegime):
        mild_pair_of(float(np.exp(LOG_DOUBLE_MAX - top + 5.0))).sample(*grid,
                                                                       **_window_kw(window))
    assert len(probes) == 3 and synthesis._unit_pair.cache_info().currsize == 0


def test_zero_amplitude_gives_exact_positive_zeros():
    _clear()
    grid = _pair_grid(mild_pair_of(1.0))
    mild_pair_of(1e-3).sample(*grid)  # a warm entry does not leak into amplitude 0
    pair = mild_pair_of(0.0)
    for values in (pair.sample(*grid).values, pair.sample_real(*grid).values):
        assert np.array_equal(np.ascontiguousarray(values).view(np.int64),
                              np.zeros(values.size * values.itemsize // 8, dtype=np.int64))
    assert synthesis._unit_pair.cache_info().currsize == 1
