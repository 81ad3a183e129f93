"""The test corpus: three parameter regimes, built from the shipped fixtures.

* ``cert`` (``fixtures/spectrum_cert.cfg``) -- the band-confinement
  certificate.  Sharpness lock m = 40 and boost arccosh(3) put the growth
  bump at e^713; the window tames the sampled product to e^689, which still
  fits in a double, so one grid carries the fast window oscillation, the
  bump, and decayed tails at once.
* ``dyn`` (``fixtures/transition.cfg``) -- the excitation experiments.  The
  fit window [5 * 2pi/Omega, z_c] needs z_c ~ 50, hence m = 2000; the growth
  region (e^35000) cannot be represented and the grid stops before it, which
  is physically immaterial: the wave moves toward +z, so the detector at the
  origin never meets the bump.
* ``mild`` (``fixtures/synth.cfg``) -- delta = 0.3, boost 1, growth peak only
  e^13: everything is representable unwindowed.  ``mild_pair_of`` is a
  phase-locked pair of the same scale, which no fixture runs.

Each regime goes through the CLI's own parser and builders, so a fixture
edit reaches every test.  The pytest fixtures are session-scoped: synthesis
of the big grids is the dominant cost.
"""

from pathlib import Path

import pytest

from superosc import (
    SuperoscParams,
    TwoLevelParticle,
    WindowSpec,
    combine_pair,
    make_real_superosc,
    sample_component,
    spectrum,
)
from superosc.cli import (
    _component_from,
    _grid_from,
    _pair_from,
    _parse,
    _real_signal_from,
    _resolve_gap,
    _window_from,
    load_config,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def regime(fixture: str, **superosc) -> dict:
    """Parsed ``fixtures/<fixture>``, with the given [superosc] keys replaced."""
    cfg = load_config(FIXTURES / fixture)
    cfg["superosc"].update({key: repr(value) for key, value in superosc.items()})
    return _parse(cfg)


CERT = regime("spectrum_cert.cfg")
DYN = regime("transition.cfg")
MILD = regime("synth.cfg")


def cert_signal_of(pair):
    return pair.sample(*_grid_from(CERT, pair.k_max), window=_window_from(CERT), label="cert")


def mild_component(amplitude: float = 1.0) -> SuperoscParams:
    return _component_from(regime("synth.cfg", amplitude=amplitude))


# the mild pair: m = 3, boost 1, window extent 1.2 on a box of length 8192
MILD_PAIR_WINDOW = WindowSpec(half_width=1.0 / 400.0)
MILD_PAIR_Z_MIN, MILD_PAIR_DZ, MILD_PAIR_N = -8000.0, 0.125, 2**16


def mild_pair_of(amplitude: float = 1.0):
    p1, p2 = SuperoscParams.locked_pair(3, amplitude=amplitude, boost=1.0, extent=1.2)
    return combine_pair(p1, p2, branch=+1)


@pytest.fixture(scope="session")
def cert_pair():
    return _pair_from(CERT)


@pytest.fixture(scope="session")
def cert_signal(cert_pair):
    return cert_signal_of(cert_pair)


@pytest.fixture(scope="session")
def cert_spectrum(cert_signal):
    return spectrum(cert_signal, band_limit=1.0)


@pytest.fixture(scope="session")
def dyn_pair():
    return _pair_from(DYN)


@pytest.fixture(scope="session")
def dyn_signal(dyn_pair):
    return _real_signal_from(DYN, dyn_pair)


@pytest.fixture(scope="session")
def dyn_particle(dyn_pair):
    return TwoLevelParticle(gap_frequency=_resolve_gap(DYN, dyn_pair),
                            coupling=DYN["particle"]["coupling"])


@pytest.fixture(scope="session")
def mild_signal():
    return sample_component(mild_component(), *_grid_from(MILD), window=_window_from(MILD),
                            label="mild")


@pytest.fixture(scope="session")
def mild_pair():
    return mild_pair_of()


@pytest.fixture(scope="session")
def mild_pair_real(mild_pair):
    return make_real_superosc(mild_pair, mild_pair.wavenumber, MILD_PAIR_Z_MIN, MILD_PAIR_DZ,
                              MILD_PAIR_N, window=MILD_PAIR_WINDOW, label="mild-pair")
