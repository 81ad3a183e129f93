"""Superoscillatory band-limited waveforms, their coherent-state field
description, the first-order excitation of an above-band two-level detector,
and the energy ledger of the absorption.

Working units: c = hbar = 1, band limit k0 = 1 by default.

The public names below are exported lazily (PEP 562): ``import superosc``
loads only this file and ``superosc.errors``, and no numpy or scipy.  The
first use of a name, such as ``superosc.spectrum`` or ``from superosc import
spectrum``, imports its defining submodule and keeps the name here, so later
uses are ordinary attribute reads.  A submodule import (``superosc.cli``,
``superosc.synthesis``) loads only what that submodule needs: synthesis takes
numpy and ``scipy.special``, not ``scipy.interpolate``.
"""

import importlib

from . import errors

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(["DetuningScan", "ExponentFit", "ProbabilityCurve", "TwoLevelParticle",
                     "detuning_scan", "fit_exponent", "matched_sine_amplitude",
                     "monochromatic_reference", "probability_curve"], "dynamics"),
    **dict.fromkeys(["EnergyReport", "compute_I3", "energy_balance", "i2_over_gap",
                     "sine_overlap_denominator"], "energy"),
    **dict.fromkeys(["CoherentAmplitudes", "ModeGrid", "amplitudes_from_spectrum",
                     "energy_before", "expectation_B"], "field"),
    **dict.fromkeys(["frequency_profile", "window_frequency"], "frequency"),
    **dict.fromkeys(["QUARTER", "THREE_QUARTER", "SuperoscParams", "WindowSpec",
                     "locked_delta"], "params"),
    "SampledSignal": "signal",
    **dict.fromkeys(["SpectralDensity", "parseval_residual", "spectrum"], "spectral"),
    **dict.fromkeys(["PairSynthesizer", "combine_pair", "component_log", "make_real_superosc",
                     "sample_component", "synth_bessel", "synth_integral"], "synthesis"),
}

__all__ = ["errors", *_EXPORTS]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _EXPORTS.keys())
