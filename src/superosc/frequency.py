"""Local-frequency measurement on sampled signals: a profile over a window,
and its mean.

Complex signals: spatial derivative of the unwrapped phase by central
differences.  A profile over [z_lo, z_hi] unwraps only the samples inside
the window plus the one stencil sample beyond each end: central differences
of an unwrapped phase are local, so the result is the whole-grid unwrap's,
without the rounding of a phase that has grown across the whole box.  Nor
does the magnitude enter: admissible waveforms carry an exponential bump
elsewhere on the grid that exceeds the window amplitude by hundreds of
orders of magnitude, while the phase remains well conditioned locally.

Real signals: pi over the spacing of consecutive zero crossings, linearly
interpolated between samples (exact-zero samples count as crossings), at
the crossings' midpoints.
"""

from __future__ import annotations

import numpy as np

from .errors import EdgeError, NodeError
from .signal import SampledSignal


def zero_crossings(s: SampledSignal) -> np.ndarray:
    """Positions of sign changes of a real signal, linearly interpolated."""
    v = np.real(s.values)
    z = s.z
    sgn = np.sign(v)
    flip = np.where(sgn[:-1] * sgn[1:] < 0)[0]
    pos = z[flip] - v[flip] * s.dz / (v[flip + 1] - v[flip])
    exact = z[np.where(v == 0.0)[0]]
    return np.unique(np.concatenate([pos, exact]))


def frequency_profile(s: SampledSignal, z_lo: float | None = None,
                      z_hi: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(z, local wavenumber) over [z_lo, z_hi]; see the module docstring."""
    if s.real_valued:
        crossings = zero_crossings(s)
        if z_lo is not None:
            crossings = crossings[crossings >= z_lo]
        if z_hi is not None:
            crossings = crossings[crossings <= z_hi]
        mids = 0.5 * (crossings[:-1] + crossings[1:])
        return mids, np.pi / np.diff(crossings)
    z = s.z
    # interior samples only (the grid ends have no central difference); an
    # empty window leaves an empty slice
    lo = 1 if z_lo is None else max(1, int(np.searchsorted(z, z_lo, side="left")))
    hi = s.n - 2 if z_hi is None else min(s.n - 2, int(np.searchsorted(z, z_hi, side="right")) - 1)
    phase = np.unwrap(np.angle(s.values[lo - 1:hi + 2]))
    return z[lo:hi + 1].copy(), (phase[2:] - phase[:-2]) / (2.0 * s.dz)


def window_frequency(s: SampledSignal, z_lo: float, z_hi: float) -> float:
    """Mean local wavenumber over [z_lo, z_hi].

    This is the certificate measurement for the in-window oscillation rate:
    averaging removes the small two-term interference ripple that modulates
    the pointwise value.
    """
    if not s.covers(z_lo, z_hi):
        raise EdgeError(f"window [{z_lo}, {z_hi}] not inside the grid")
    _, k_loc = frequency_profile(s, z_lo, z_hi)
    if k_loc.size == 0:
        raise NodeError("no frequency samples inside the window")
    return float(np.mean(k_loc))
