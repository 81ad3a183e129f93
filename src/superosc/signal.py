"""Uniformly sampled signals on a z grid.

The grid is the half-open box [z_min, z_min + n*dz): its length n*dz is what
discrete Fourier analysis treats as the periodic box, so spectral spacing is
exactly 2*pi/(n*dz).

A signal stores its box (z_min, dz and the sample count), not the sample
positions: ``z`` is built from z[i] = z_min + dz * i on first use only, by
``grid_points``, the one array form of that formula every module uses.
Readers of a window take its index range from ``index_range``, which bisects
that formula with the comparisons of the mask z_lo <= z <= z_hi and so
selects the same samples, and build only those positions with ``z_slice``.

``max_abs`` is taken once, at construction: the one abs-max pass over the
samples is also the finite check, because a NaN or an infinity carries into
the max.  Only a max that is not finite sends the samples through
``isfinite``, so a finite complex sample whose modulus overflows is kept,
with ``max_abs`` = inf.  The samples are not copied, so writing into
``values`` after construction leaves ``max_abs`` stale.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, field

import numpy as np


def max_dz(k_max: float) -> float:
    """Sampling rule: 8 samples per period of the fastest oscillation, dz <= pi / (4 k_max)."""
    return math.pi / (4.0 * k_max)


def grid_points(z_min: float, dz: float, index) -> np.ndarray:
    """Grid positions z_min + dz * i at the integer indices ``index`` (an array or a list)."""
    return z_min + dz * np.array(index, dtype=float)


@dataclass(frozen=True, eq=False)
class SampledSignal:
    z_min: float
    dz: float
    values: np.ndarray
    k_max: float
    label: str = ""
    max_abs: float = field(init=False, repr=False)

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
        max_abs = float(np.abs(vals).max())  # NaN and inf carry into the max
        if not math.isfinite(max_abs) and not np.all(np.isfinite(vals)):
            raise ValueError("signal contains non-finite samples")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "max_abs", max_abs)

    @property
    def n(self) -> int:
        return self.values.size

    @functools.cached_property
    def z(self) -> np.ndarray:
        return self.z_slice(0, self.n)

    def z_at(self, i: int) -> float:
        """z[i] without building ``z``: the grid's own arithmetic, bit for bit."""
        return self.z_min + self.dz * i

    def z_slice(self, i_lo: int, i_hi: int) -> np.ndarray:
        """z[i_lo:i_hi] without building ``z``, bit for bit."""
        return grid_points(self.z_min, self.dz, np.arange(i_lo, i_hi))

    def index_range(self, z_lo: float, z_hi: float) -> tuple[int, int]:
        """(i_lo, i_hi), i_lo <= i_hi, such that z[i_lo:i_hi] is z[(z >= z_lo) & (z <= z_hi)].

        The samples inside [z_lo, z_hi] are one contiguous run, found by
        bisecting the monotone ``z_at``; a NaN bound, like z_lo > z_hi,
        selects none.
        """
        if not z_lo <= z_hi:
            return 0, 0
        idx = range(self.n)
        return (bisect.bisect_left(idx, z_lo, key=self.z_at),
                bisect.bisect_right(idx, z_hi, key=self.z_at))

    @property
    def z_max(self) -> float:
        """Last sample position (the box extends one dz further)."""
        return self.z_at(self.n - 1)

    @property
    def box_length(self) -> float:
        return self.n * self.dz

    def index_of(self, z: float) -> int:
        """Nearest grid index; raises if z is outside the grid."""
        i = int(round((z - self.z_min) / self.dz))
        if not 0 <= i < self.n:
            raise ValueError(f"z = {z} outside grid [{self.z_min}, {self.z_max}]")
        return i

    def covers(self, z_lo: float, z_hi: float) -> bool:
        return self.z_min <= z_lo and z_hi <= self.z_max
