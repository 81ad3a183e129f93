"""Superoscillatory band-limited waveforms, their coherent-state field
description, the first-order excitation of an above-band two-level detector,
and the energy ledger of the absorption.

Working units: c = hbar = 1, band limit k0 = 1 by default.
"""

from . import errors
from .dynamics import (
    DetuningScan,
    ExponentFit,
    ProbabilityCurve,
    TwoLevelParticle,
    detuning_scan,
    fit_exponent,
    matched_sine_amplitude,
    monochromatic_reference,
    probability_curve,
)
from .energy import (
    EnergyReport,
    compute_I3,
    energy_balance,
    i2_over_gap,
    sine_overlap_denominator,
)
from .field import (
    CoherentAmplitudes,
    ModeGrid,
    amplitudes_from_spectrum,
    energy_before,
    expectation_B,
)
from .frequency import frequency_profile, window_frequency, zero_crossings
from .params import QUARTER, THREE_QUARTER, SuperoscParams, WindowSpec, locked_delta
from .signal import SampledSignal
from .spectral import SpectralDensity, parseval_residual, spectrum
from .synthesis import (
    PairSynthesizer,
    combine_pair,
    component_log,
    growth_region,
    make_real_superosc,
    sample_component,
    synth_bessel,
    synth_integral,
)

__version__ = "0.1.0"
