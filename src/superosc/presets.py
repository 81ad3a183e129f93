"""Canonical parameter sets used by the CLI defaults and the test corpus.

Three regimes, chosen so that every verification runs inside double
precision:

* ``cert`` -- the band-confinement certificate.  Sharpness lock m = 40 and
  boost arccosh(3) put the growth bump at e^713; the default window tames
  the sampled product to e^689, which still fits in a double, so one grid
  carries the fast window oscillation, the bump, and decayed tails at once.
  The window extent is kept short (criterion value 0.024) because the local
  wavenumber droops quadratically across the window.

* ``dyn`` -- the excitation experiments.  The quadratic-law fit window
  [5 * 2pi/Omega, z_c] needs z_c ~ 50, hence a much finer sharpness
  (m = 2000) to hold the wavenumber across it.  The growth region then
  starts near z = +4300 and cannot be represented (e^35000); the grid stops
  before it, which is physically immaterial: the wave moves toward +z, so
  the detector at the origin never meets the bump.

* ``mild`` -- small phase budget (delta = 0.3, boost 1), growth peak only
  e^13: everything is representable unwindowed, which makes this the corpus
  for growth-peak and far-field checks and for figure emission.
"""

from __future__ import annotations

import math

import numpy as np

from .dynamics import TwoLevelParticle
from .params import SuperoscParams, WindowSpec
from .signal import SampledSignal
from .spectral import SpectralDensity, spectrum
from .synthesis import PairSynthesizer, combine_pair, make_real_superosc, sample_component

BOOST_3 = math.acosh(3.0)


def matched_gap(pair: PairSynthesizer) -> float:
    """Gap frequency resonant with the pair's window oscillation (c = 1)."""
    return pair.wavenumber


# ---------------------------------------------------------------- cert ----

CERT_M_PHASE = 40
CERT_EXTENT = 2.0
CERT_WINDOW = WindowSpec(half_width=1.0 / 200.0)
CERT_Z_MIN = -3800.0
CERT_DZ = 0.25
CERT_N = 2**15  # box length 8192


def cert_pair(amplitude: float = 1.0, boost: float = BOOST_3) -> PairSynthesizer:
    p1, p2 = SuperoscParams.locked_pair(
        CERT_M_PHASE, amplitude=amplitude, boost=boost, extent=CERT_EXTENT
    )
    return combine_pair(p1, p2, branch=+1)


def cert_signal(pair: PairSynthesizer | None = None) -> SampledSignal:
    pair = pair or cert_pair()
    return pair.sample(CERT_Z_MIN, CERT_DZ, CERT_N, window=CERT_WINDOW, label="cert")


def cert_spectrum(signal: SampledSignal | None = None) -> SpectralDensity:
    signal = signal if signal is not None else cert_signal()
    return spectrum(signal, band_limit=1.0)


# ----------------------------------------------------------------- dyn ----

DYN_M_PHASE = 2000
DYN_EXTENT = 50.0
DYN_AMPLITUDE = 1e-3
DYN_WINDOW = WindowSpec(half_width=1.5e-3)
DYN_N = 2**15
DYN_BOX = 10_000.0
DYN_DZ = DYN_BOX / DYN_N
DYN_Z_MIN = -20_972 * DYN_DZ  # z = 0 lands on the grid; box ends near +3600
DYN_UV_CUTOFF = 50.0


def dyn_pair(amplitude: float = DYN_AMPLITUDE) -> PairSynthesizer:
    p1, p2 = SuperoscParams.locked_pair(
        DYN_M_PHASE, amplitude=amplitude, boost=BOOST_3, extent=DYN_EXTENT
    )
    return combine_pair(p1, p2, branch=+1)


def dyn_signal(pair: PairSynthesizer | None = None) -> SampledSignal:
    """Real windowed waveform ~ amplitude*sin(2 z) on [-50, 0]."""
    pair = pair or dyn_pair()
    return make_real_superosc(pair, pair.wavenumber, DYN_Z_MIN, DYN_DZ, DYN_N,
                              window=DYN_WINDOW, label="dyn")


def dyn_particle(pair: PairSynthesizer | None = None,
                 coupling: float = 1.0) -> TwoLevelParticle:
    pair = pair or dyn_pair()
    return TwoLevelParticle(gap_frequency=matched_gap(pair), coupling=coupling)


# ---------------------------------------------------------------- mild ----

MILD_DELTA = 0.3
MILD_BOOST = 1.0
MILD_EXTENT = 0.7
MILD_WINDOW = WindowSpec(half_width=1.0 / 200.0)
MILD_Z_MIN = -800.0
MILD_DZ = 0.1953125
MILD_N = 2**13  # box length 1600


def mild_component(amplitude: float = 1.0) -> SuperoscParams:
    return SuperoscParams(amplitude=amplitude, delta=MILD_DELTA, boost=MILD_BOOST,
                          extent=MILD_EXTENT)


def mild_signal(p: SuperoscParams | None = None,
                window: WindowSpec | None = None) -> SampledSignal:
    p = p or mild_component()
    return sample_component(p, MILD_Z_MIN, MILD_DZ, MILD_N,
                            window=window or MILD_WINDOW, label="mild")


MILD_PAIR_M_PHASE = 3
MILD_PAIR_EXTENT = 1.2
MILD_PAIR_WINDOW = WindowSpec(half_width=1.0 / 400.0)
MILD_PAIR_Z_MIN = -8000.0
MILD_PAIR_DZ = 0.125
MILD_PAIR_N = 2**16  # box length 8192


def mild_pair(amplitude: float = 1.0) -> PairSynthesizer:
    p1, p2 = SuperoscParams.locked_pair(
        MILD_PAIR_M_PHASE, amplitude=amplitude, boost=MILD_BOOST,
        extent=MILD_PAIR_EXTENT
    )
    return combine_pair(p1, p2, branch=+1)


def mild_pair_signal_real(pair: PairSynthesizer | None = None) -> SampledSignal:
    pair = pair or mild_pair()
    return make_real_superosc(pair, pair.wavenumber, MILD_PAIR_Z_MIN, MILD_PAIR_DZ,
                              MILD_PAIR_N, window=MILD_PAIR_WINDOW, label="mild-pair")
