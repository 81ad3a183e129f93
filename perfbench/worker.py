"""In-process worker for the pipeline_warm and quadrature_grid workloads.

    python3 perfbench/worker.py --workload W --seed S --index K --seconds T --trace 0|1 --out F

Imports superosc from ``src/``, builds the workload from ``fixtures/``, runs
one untimed warm-up op (import plus warm-up is the set-up time), then runs
ops back to back for T seconds.  Each op's latency is timed alone, and
reported scaled by the speed probes run around it (see probe.py); its
outputs are checked after the clock stops.  With --trace 1 the first half of
the time runs untraced and the second half with the tracer installed, so
the two halves give the tracing overhead.  The result goes to F as JSON.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import random
import sys
import time
from pathlib import Path

from probe import Probe, bracketed

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
PROBE_EVERY_S = 0.02


def _fixture(name: str) -> configparser.ConfigParser:
    cfg = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    if not cfg.read(FIXTURES / name):
        raise FileNotFoundError(FIXTURES / name)
    return cfg


def _floats(raw: str) -> list[float]:
    return [float(tok) for tok in raw.split(",")]


class Pipeline:
    """Certificate chain plus the full dyn chain on one seeded draw.

    Draw: amplitude log-uniform in [1e-4, 1e-2]; dyn grid 2^15 or 2^16
    samples on the same box, one 2^16 op in every shuffled block of four,
    so the median sits inside the 2^15 cluster and the tail inside the 2^16
    one rather than on the edge between them.
    """

    probe = "vector"

    def __init__(self, so, rng: random.Random):
        self.so, self.rng = so, rng
        spec, fmap = _fixture("spectrum_cert.cfg"), _fixture("freqmap_cert.cfg")
        energy, trans, det = _fixture("energy.cfg"), _fixture("transition.cfg"), _fixture("detune.cfg")
        self.cert = dict(
            m_phase=spec.getint("superosc", "m_phase"),
            boost=math.acosh(spec.getfloat("superosc", "boost_arccosh")),
            extent=spec.getfloat("superosc", "extent"),
            window=so.WindowSpec(half_width=spec.getfloat("window", "half_width")),
            z_min=spec.getfloat("grid", "z_min"), dz=spec.getfloat("grid", "dz"),
            n=spec.getint("grid", "n_samples"), eps_band=spec.getfloat("spectrum", "eps_band"),
            fraction=fmap.getfloat("freqmap", "window_fraction"),
        )
        n = energy.getint("grid", "n_samples")
        self.dyn = dict(
            m_phase=energy.getint("superosc", "m_phase"),
            boost=math.acosh(energy.getfloat("superosc", "boost_arccosh")),
            extent=energy.getfloat("superosc", "extent"),
            window=so.WindowSpec(half_width=energy.getfloat("window", "half_width")),
            z_min=energy.getfloat("grid", "z_min"), box=energy.getfloat("grid", "dz") * n,
            uv_cutoff=energy.getfloat("modes", "uv_cutoff"),
            theta_over_pi=energy.getfloat("energy", "theta_over_pi"),
            ladder=_floats(energy.get("energy", "ladder_over_pi")),
            max_residual=energy.getfloat("energy", "max_residual"),
            t_lo_periods=trans.getfloat("transition", "t_lo_periods"),
            t_hi=trans.getfloat("transition", "t_hi"),
            n_points=trans.getint("transition", "n_points"),
            exponent_range=_floats(trans.get("transition", "exponent_range")),
            fit_residual=trans.getfloat("transition", "max_residual"),
            probes_rel=_floats(det.get("detune", "probes_rel")),
            detune_theta_over_pi=det.getfloat("detune", "theta_over_pi"),
        )
        self.sizes = (n, 2 * n)
        self._block: list[int] = []

    def draw(self) -> dict:
        if not self._block:
            self._block = [self.sizes[0]] * 3 + [self.sizes[1]]
            self.rng.shuffle(self._block)
        return {"amplitude": 10.0 ** self.rng.uniform(-4.0, -2.0), "n": self._block.pop()}

    def warmup_draw(self) -> dict:
        return {"amplitude": 10.0 ** self.rng.uniform(-4.0, -2.0), "n": self.sizes[1]}

    def _pair(self, c: dict, amplitude: float):
        p1, p2 = self.so.SuperoscParams.locked_pair(
            c["m_phase"], amplitude=amplitude, boost=c["boost"], extent=c["extent"])
        return self.so.combine_pair(p1, p2, branch=+1)

    def run(self, d: dict) -> dict:
        import numpy as np

        so, c, y = self.so, self.cert, self.dyn
        out: dict = {}
        # certificate: fast window, band confinement, in-window wavenumber
        pair = self._pair(c, d["amplitude"])
        sig = pair.sample(c["z_min"], c["dz"], c["n"], window=c["window"], label="cert")
        sd = so.spectrum(sig, band_limit=1.0, eps_band=c["eps_band"])
        kappa = c["window"].half_width
        out["leakage"] = 1.0 - sd.band_energy_fraction(-kappa, sd.band_limit + kappa)
        zc, frac = pair.extent, c["fraction"]
        measured = so.window_frequency(sig, -0.5 * (1 + frac) * zc, -0.5 * (1 - frac) * zc)
        out["freq_rel_dev"] = abs(measured - pair.wavenumber) / pair.wavenumber

        # dyn chain: synthesis -> spectrum -> amplitudes -> detector -> ledger
        n = d["n"]
        pair = self._pair(y, d["amplitude"])
        gap = pair.wavenumber
        sig = so.make_real_superosc(pair, gap, y["z_min"], y["box"] / n, n,
                                    window=y["window"], label="dyn")
        sd = so.spectrum(sig, band_limit=1.0)
        grid = so.ModeGrid.for_signal(sig, uv_cutoff=y["uv_cutoff"])
        ca = so.amplitudes_from_spectrum(sd, grid)
        out["signal"], out["field"] = sig.values, so.expectation_B(ca)
        particle = so.TwoLevelParticle(gap_frequency=gap)
        t_lo, t_hi = y["t_lo_periods"] * 2.0 * math.pi / gap, y["t_hi"]
        times = np.geomspace(t_lo, t_hi, y["n_points"])
        curve = so.probability_curve(sig, particle, times)
        out["fit"] = so.fit_exponent(curve, (t_lo, t_hi))
        scan = so.detuning_scan(sig, [gap] + [gap * r for r in y["probes_rel"]],
                                y["detune_theta_over_pi"] * math.pi / gap)
        out["selectivity"] = [scan.probabilities[0] / p for p in scan.probabilities[1:]]
        amp = so.matched_sine_amplitude(sig, gap, -pair.extent, 0.0)
        report = so.energy_balance(ca, particle, y["theta_over_pi"] * math.pi / gap, grid,
                                   amplitude=amp, max_residual=y["max_residual"])
        out["residual"] = report.residual
        ladder = []
        for tp in y["ladder"]:
            t = tp * math.pi / gap
            i3 = so.compute_I3(grid, gap, t, so.sine_overlap_denominator(gap, t, amp))
            ladder.append(abs(1.0 + so.i2_over_gap(tp * math.pi) + i3 / particle.gap_energy))
        out["ladder"] = ladder
        return out

    def check(self, d: dict, out: dict) -> list[str]:
        import numpy as np

        y, bad = self.dyn, []
        if not out["leakage"] <= self.cert["eps_band"]:
            bad.append(f"certificate not band-limited: leakage {out['leakage']:.3g}")
        if not out["freq_rel_dev"] <= 0.01:
            bad.append(f"certificate wavenumber rel dev {out['freq_rel_dev']:.3g} > 0.01")
        sig = np.real(out["signal"])
        round_trip = float(np.abs(out["field"] - sig).max() / np.abs(sig).max())
        if not round_trip <= 1e-10:
            bad.append(f"expectation_B round trip {round_trip:.3g} > 1e-10 of max")
        lo, hi = y["exponent_range"]
        fit = out["fit"]
        if not (lo <= fit.exponent <= hi and fit.residual_rms <= y["fit_residual"]):
            bad.append(f"transition exponent {fit.exponent:.4f}, residual {fit.residual_rms:.3g}")
        if not min(out["selectivity"]) >= 100.0:
            bad.append(f"detune selectivity {min(out['selectivity']):.3g} < 100")
        if not abs(out["residual"]) <= y["max_residual"]:
            bad.append(f"energy residual {out['residual']:.3g}")
        ladder = out["ladder"]
        if any(b > a * (1 + 1e-12) for a, b in zip(ladder, ladder[1:])):
            bad.append(f"energy ladder residuals not non-increasing: {ladder}")
        return bad

    @staticmethod
    def meta(d: dict) -> int:
        return d["n"]


class Quadrature:
    """One synth_integral point, drawn uniformly over the acceptance-1 domain.

    Draws come in Latin-hypercube blocks of BLOCK points (each of delta,
    boost and z hits every 1/BLOCK slice of its range once per block), so
    every worker sees nearly the same mix of cheap and expensive points and
    its tail percentile does not hinge on how many hard draws it got.
    """

    probe = "scalar"
    BLOCK = 64
    DOMAIN = ((0.3, 0.7), (0.0, 1.5), (-20.0, 0.0))  # delta, boost, z

    def __init__(self, so, rng: random.Random):
        self.so, self.rng = so, rng
        self._block: list[tuple] = []

    def draw(self) -> dict:
        if not self._block:
            columns = []
            for lo, hi in self.DOMAIN:
                strata = list(range(self.BLOCK))
                self.rng.shuffle(strata)
                columns.append([lo + (hi - lo) * (k + self.rng.random()) / self.BLOCK
                                for k in strata])
            self._block = list(zip(*columns))
        delta, boost, z = self._block.pop()
        return {"p": self.so.SuperoscParams(delta=delta, boost=boost, extent=0.05), "z": z}

    warmup_draw = draw

    def run(self, d: dict):
        return self.so.synth_integral(d["p"], d["z"])

    def check(self, d: dict, out) -> list[str]:
        closed = self.so.synth_bessel(d["p"], d["z"])
        dev = abs(out.value - closed) / (abs(closed) + 1e-30)
        return [] if dev <= 1e-8 else [f"synth_integral rel dev {dev:.3g} > 1e-8 at z = {d['z']}"]

    @staticmethod
    def meta(d: dict) -> int:
        return 0


WORKLOADS = {"pipeline_warm": Pipeline, "quadrature_grid": Quadrature}


def loop(wl, seconds: float, probe, tracer=None) -> dict:
    """Closed loop: ops back to back until ``seconds`` have passed (at least one).

    A speed probe runs before an op whenever PROBE_EVERY_S has passed since
    the last one, and once after the last op; each op's latency is also
    reported against the probes around it (see probe.py).
    """
    lat, before, meta, failures, failed = [], [], [], [], 0
    clock = time.perf_counter
    probes, last_probe = [probe()], clock()
    deadline = clock() + seconds
    while True:
        if clock() - last_probe >= PROBE_EVERY_S:
            probes.append(probe())
            last_probe = clock()
        d = wl.draw()
        if tracer is not None:
            tracer.op = len(lat)
        t0 = clock()
        try:
            out = wl.run(d)
            problems = None
        except Exception as exc:  # an op that raises is a failed op, not a crash
            problems = [f"{type(exc).__name__}: {exc}"]
        lat.append(clock() - t0)
        before.append(len(probes) - 1)
        meta.append(wl.meta(d))
        if problems is None:
            problems = wl.check(d, out)
        failed += bool(problems)
        failures += [f"op {len(lat) - 1}: {p}" for p in problems]
        if clock() >= deadline:
            probes.append(probe())
            return {"lat": bracketed(lat, before, probes, probe.ref_s), "raw": lat,
                    "meta": meta, "failed": failed, "failures": failures}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--index", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import superosc

    rng = random.Random(f"{args.workload}:{args.seed}:{args.index}")
    wl = WORKLOADS[args.workload](superosc, rng)
    d = wl.warmup_draw()
    warm_problems = wl.check(d, wl.run(d))
    setup_s = time.perf_counter() - t0

    probe = Probe(wl.probe)
    result = {"setup_s": bracketed([setup_s], [0], [probe(), probe()], probe.ref_s)[0],
              "setup_raw_s": setup_s, "setup_failures": warm_problems}
    if args.trace:
        from tracer import Tracer

        result["untraced"] = loop(wl, args.seconds / 2, probe)
        tracer = Tracer()
        tracer.install()
        result["traced"] = loop(wl, args.seconds / 2, probe, tracer)
        result["trace"] = tracer.dump()
    else:
        result["untraced"] = loop(wl, args.seconds, probe)
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
