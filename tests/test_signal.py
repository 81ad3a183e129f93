import numpy as np
import pytest

from superosc import SampledSignal


def _signal(values):
    return SampledSignal(z_min=0.0, dz=0.25, values=np.asarray(values), k_max=2.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(np.nan, 0.0),
                                 complex(0.0, np.inf), complex(-np.inf, np.nan)])
def test_non_finite_samples_refused(bad):
    values = np.zeros(16, dtype=type(bad) if isinstance(bad, complex) else float)
    values[5] = bad
    with pytest.raises(ValueError, match="^signal contains non-finite samples$"):
        _signal(values)


def test_finite_sample_with_overflowing_modulus_kept():
    # both parts are finite doubles; only |v| = 2.1e308 is out of range
    s = _signal([0.0, 1.5e308 + 1.5e308j, 1.0])
    assert s.max_abs == np.inf


def test_max_abs_taken_at_construction():
    values = np.array([0.5, -3.0, 2.0 + 2.0j, 0.0])
    s = _signal(values)
    assert s.max_abs == float(np.abs(values).max())
    assert type(s.max_abs) is float
    assert "max_abs" in vars(s)
