"""Machine-speed probe that every reported time is expressed against.

On a shared 2-vCPU virtual machine (Intel Xeon) the same code runs up to
~50% slower for seconds to minutes at a time, and the guest sees no steal
time.  So each measured time t is reported as t * REF / p, where p is the
mean time of a fixed probe run just before and just after it, and REF is
that probe's typical time on the reference machine (Intel Xeon, 2 vCPUs,
Python 3.11, numpy 2.4).  The result reads as seconds
on that machine at its usual speed.  The probe never runs superosc code, so
a change to the program moves the reported time and leaves the probe alone.
Raw times are kept in the run report.

Each probe shares the resources of the ops it brackets:

* ``Probe("vector")`` (pipeline_warm): a pure-Python loop plus numpy FFT and
  transcendental kernels on 2^14-sample arrays, run in the worker between ops.
* ``Probe("scalar")`` (quadrature_grid): a pure-Python loop plus numpy calls
  on 15-element arrays, the shape of the adaptive quadrature's work.
* ``PROBE_CMD`` (cli_cold): a fresh interpreter that imports numpy, spawned
  by the client between CLI children.
"""

from __future__ import annotations

import sys
import time

IN_PROCESS_REF_S = {"vector": 1.3e-3, "scalar": 1.3e-3}
CLI_REF_S = 0.18
PROBE_CMD = [sys.executable, "-c", "import numpy"]


class Probe:
    """One in-process probe sample per call, in seconds."""

    def __init__(self, kind: str):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np, self.kind = np, kind
        self.ref_s = IN_PROCESS_REF_S[kind]
        size = 2**14 if kind == "vector" else 15
        self.x = rng.standard_normal(size)
        self.z = self.x + 1j * rng.standard_normal(size)

    def __call__(self) -> float:
        np, x, z = self.np, self.x, self.z
        t0 = time.perf_counter()
        acc = 0
        if self.kind == "vector":
            for j in range(20_000):
                acc += j
            np.fft.fft(z)
            np.exp(x)
            np.sin(x)
        else:
            for j in range(15_000):
                acc += j
            for _ in range(150):
                np.sum(np.exp(z) * x)
        return time.perf_counter() - t0


def bracketed(times: list[float], before: list[int], probes: list[float], ref: float) -> list[float]:
    """Scale each time by ref over the mean of the probes just before and after it.

    ``before[i]`` indexes the last probe taken before measurement i; a probe
    follows the last measurement, so ``before[i] + 1`` always exists.
    """
    return [t * ref / (0.5 * (probes[j] + probes[j + 1])) for t, j in zip(times, before)]
