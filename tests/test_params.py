import math

import numpy as np
import pytest

from superosc import (QUARTER, THREE_QUARTER, ModeGrid, SuperoscParams, TwoLevelParticle,
                      WindowSpec, locked_delta)
from superosc.errors import PhaseLockViolation


def test_defaults_valid():
    p = SuperoscParams(delta=0.1, boost=1.0, extent=0.5)
    assert p.amplitude == 1.0
    assert p.band_limit == 1.0


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(delta=0.0),
        dict(delta=1.0),
        dict(delta=-0.3),
        dict(delta=0.1, boost=-0.1),
        dict(delta=0.1, band_limit=0.0),
        dict(delta=0.1, extent=0.0),
        dict(delta=0.1, branch_sign=2),
    ],
)
def test_invalid_knobs_rejected(kwargs):
    with pytest.raises(ValueError):
        SuperoscParams(**{"extent": 0.5, **kwargs})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("make", [
    lambda v: SuperoscParams(delta=0.3, extent=0.05, amplitude=v),
    lambda v: SuperoscParams(delta=v, extent=0.05),
    lambda v: SuperoscParams(delta=0.3, extent=0.05, boost=v),
    lambda v: SuperoscParams(delta=0.3, extent=0.05, band_limit=v),
    lambda v: SuperoscParams(delta=0.3, extent=v),
    lambda v: SuperoscParams(delta=0.3, extent=0.05, window_criterion=v),
    lambda v: SuperoscParams(delta=0.3, extent=0.05, inv_sq_delta=v),
    lambda v: TwoLevelParticle(gap_frequency=v),
    lambda v: TwoLevelParticle(gap_frequency=2.0, coupling=v),
    lambda v: TwoLevelParticle(gap_frequency=2.0, detector_z=v),
    lambda v: WindowSpec(half_width=v),
    lambda v: ModeGrid(10.0, 3, uv_cutoff=v),
], ids=["amplitude", "delta", "boost", "band_limit", "extent", "window_criterion",
        "inv_sq_delta", "gap_frequency", "coupling", "detector_z", "half_width", "uv_cutoff"])
def test_non_finite_knobs_rejected(make, bad):
    with pytest.raises(ValueError):
        make(bad)


def test_window_criterion_enforced():
    # delta^2 * z_c * k0 * cosh(A) = 0.09 * 10 * cosh(1) = 1.39 >> 0.1
    with pytest.raises(ValueError, match="window criterion"):
        SuperoscParams(delta=0.3, boost=1.0, extent=10.0)
    # tunable
    p = SuperoscParams(delta=0.3, boost=1.0, extent=10.0, window_criterion=2.0)
    assert p.extent == 10.0


def test_phase_lock_values():
    assert locked_delta(40, QUARTER) == pytest.approx(
        1.0 / math.sqrt(2 * math.pi * 40 + math.pi / 4), rel=1e-15
    )
    p1 = SuperoscParams.phase_locked(40, QUARTER, boost=1.0, extent=0.5)
    p2 = SuperoscParams.phase_locked(40, THREE_QUARTER, boost=1.0, extent=0.5)
    assert p1.inv_sq_delta == pytest.approx(2 * math.pi * 40 + math.pi / 4, abs=1e-12)
    assert p2.inv_sq_delta == pytest.approx(2 * math.pi * 40 + 3 * math.pi / 4, abs=1e-12)
    assert p2.delta < p1.delta


def test_phase_lock_exact_for_large_budget():
    # the inverse-square knob is stored exactly, so the 1e-12 lock condition
    # holds even when delta itself cannot represent it
    p = SuperoscParams.phase_locked(2000, QUARTER, boost=math.acosh(3), extent=50.0)
    assert abs(p.inv_sq_delta - (2 * math.pi * 2000 + math.pi / 4)) == 0.0


def test_unlocked_delta_with_branch_rejected():
    with pytest.raises(PhaseLockViolation):
        SuperoscParams(delta=0.1, extent=0.5, m_phase=40, phase_branch=QUARTER)


def test_locked_pair_shares_knobs():
    p1, p2 = SuperoscParams.locked_pair(40, boost=1.0, extent=0.5, amplitude=2.0)
    assert p1.m_phase == p2.m_phase == 40
    assert p1.boost == p2.boost
    assert p1.amplitude == p2.amplitude


def test_derived_scales():
    p = SuperoscParams(delta=0.3, boost=1.0, extent=0.7)
    assert p.growth_peak_z == pytest.approx(2 * math.cosh(1.0) / 0.09, rel=1e-12)
    assert p.growth_exponent == pytest.approx(math.sinh(1.0) / 0.09, rel=1e-12)
    assert p.far_field_onset == pytest.approx(2 * p.growth_peak_z, rel=1e-12)
    assert p.superosc_wavenumber(+1) == pytest.approx(0.5 * (1 + math.cosh(1.0)))
    assert p.superosc_wavenumber(-1) == pytest.approx(0.5 * (1 - math.cosh(1.0)))


def test_no_growth_peak_magnitude_at_zero_boost():
    p = SuperoscParams(delta=0.3, boost=0.0, extent=1.0)
    with pytest.raises(ValueError):
        p.log_growth_peak_magnitude


def test_window_profile_properties():
    w = WindowSpec(half_width=0.01)
    z = np.linspace(-500.0, 500.0, 401)
    h = w.profile(z)
    assert h[200] == 1.0  # h(0) = 1
    assert np.allclose(h, h[::-1])  # even
    assert np.all(np.diff(h[200:]) <= 0)  # decreasing in |z|
    assert np.all(h >= 0)


def test_window_identity_and_validation():
    assert WindowSpec(half_width=0.0).is_identity
    assert np.all(WindowSpec(half_width=0.0).profile(np.arange(5.0)) == 1.0)
    with pytest.raises(ValueError):
        WindowSpec(half_width=-1e-3)
