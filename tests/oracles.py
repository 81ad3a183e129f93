"""Independent routes that tests compare the package against.

None of these is reached by the CLI.  Each computes a quantity the package
computes another way:

* ``radicand`` and ``synth_asymptotic`` -- the large-argument cosine
  approximation of one component, against ``synth_bessel``;
* ``mode_sum_B`` -- the field expectation as a direct sum over modes at
  arbitrary z, against the inverse FFT of ``expectation_B``.
"""

import math

import numpy as np

from superosc import SuperoscParams
from superosc.errors import DomainError
from superosc.field import CoherentAmplitudes
from superosc.synthesis import _radicand


def radicand(p: SuperoscParams, z):
    """1 - delta^2 z k0 cosh A + delta^4 z^2 k0^2 / 4 (negative in the growth region)."""
    return _radicand(p.inv_sq_delta, p.boost, p.band_limit, np.asarray(z, dtype=float))


def synth_asymptotic(p: SuperoscParams, z):
    """Large-argument cosine approximation, z < 0 only, delta <= 0.2."""
    if p.delta > 0.2:
        raise DomainError(f"asymptotic route requires delta <= 0.2, got {p.delta}")
    scalar = np.isscalar(z)
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if np.any(z >= 0.0):
        raise DomainError("asymptotic route is defined for z < 0 only")
    rad = radicand(p, z)
    vals = (
        p.amplitude
        * rad**-0.25
        * np.exp(0.5j * z * p.band_limit)
        * np.cos(np.sqrt(rad) * p.inv_sq_delta - math.pi / 4.0)
    )
    return complex(vals[0]) if scalar else vals


def _mode_sum(k: np.ndarray, a: np.ndarray, b: np.ndarray, z, t: float) -> np.ndarray:
    """Direct sum_n a_n cos(k_n z - w_n t) + b_n sin(k_n z - w_n t), w = c k.

    Chunked over modes to bound memory.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    out = np.zeros(z.size)
    step = 4096
    for i in range(0, k.size, step):
        kk = k[i:i + step]
        ph = np.outer(z, kk) - kk * t
        out += np.sin(ph) @ b[i:i + step]
        out += np.cos(ph) @ a[i:i + step]
    return out


def mode_sum_B(ca: CoherentAmplitudes, z, t: float = 0.0):
    """Field expectation at points z (scalar or array) and time t, mode by mode."""
    coeff = np.sqrt(8.0 * math.pi * ca.grid.omega / ca.grid.box_length**3)
    out = _mode_sum(ca.grid.wavenumbers, coeff * np.imag(ca.alpha),
                    coeff * np.real(ca.alpha), z, t)
    return out if out.size > 1 else float(out[0])
