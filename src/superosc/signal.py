"""Uniformly sampled signals on a z grid.

The grid is the half-open box [z_min, z_min + n*dz): its length n*dz is what
discrete Fourier analysis treats as the periodic box, so spectral spacing is
exactly 2*pi/(n*dz).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


def max_dz(k_max: float) -> float:
    """Sampling rule: 8 samples per period of the fastest oscillation, dz <= pi / (4 k_max)."""
    return math.pi / (4.0 * k_max)


@dataclass(frozen=True, eq=False)
class SampledSignal:
    z_min: float
    dz: float
    values: np.ndarray
    k_max: float
    label: str = ""
    _z: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values)
        if vals.ndim != 1 or vals.size < 2:
            raise ValueError("values must be a 1-d array with n >= 2")
        if self.dz <= 0.0:
            raise ValueError("dz must be > 0")
        if self.k_max <= 0.0:
            raise ValueError("k_max must be > 0")
        if self.dz > max_dz(self.k_max) * (1.0 + 1e-12):
            raise ValueError(
                f"grid underresolved: dz = {self.dz:.4g} exceeds "
                f"pi/(4*k_max) = {max_dz(self.k_max):.4g}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("signal contains non-finite samples")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "_z", self.z_min + self.dz * np.arange(vals.size))

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def z(self) -> np.ndarray:
        return self._z

    @property
    def z_max(self) -> float:
        """Last sample position (the box extends one dz further)."""
        return self.z_min + (self.n - 1) * self.dz

    @property
    def box_length(self) -> float:
        return self.n * self.dz

    @property
    def real_valued(self) -> bool:
        return not np.iscomplexobj(self.values)

    @property
    def max_abs(self) -> float:
        return float(np.abs(self.values).max())

    def index_of(self, z: float) -> int:
        """Nearest grid index; raises if z is outside the grid."""
        i = int(round((z - self.z_min) / self.dz))
        if not 0 <= i < self.n:
            raise ValueError(f"z = {z} outside grid [{self.z_min}, {self.z_max}]")
        return i

    def covers(self, z_lo: float, z_hi: float) -> bool:
        return self.z_min <= z_lo and z_hi <= self.z_max

    def with_values(self, values: np.ndarray) -> "SampledSignal":
        return SampledSignal(
            z_min=self.z_min,
            dz=self.dz,
            values=values,
            k_max=self.k_max,
            label=self.label,
        )
