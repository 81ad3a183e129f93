"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the PASS/FAIL lines.
"""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from superosc import (
    ModeGrid,
    SuperoscParams,
    TwoLevelParticle,
    amplitudes_from_spectrum,
    detuning_scan,
    expectation_B,
    fit_exponent,
    i2_over_gap,
    make_real_superosc,
    matched_sine_amplitude,
    monochromatic_reference,
    probability_curve,
    sine_overlap_denominator,
    spectrum,
    synth_bessel,
    synth_integral,
    window_frequency,
)
from superosc import component_log, compute_I3, energy_balance
from superosc.cli import _pair_from, _real_signal_from, _window_from

from conftest import CERT, DYN, cert_signal_of, regime

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _gate(num: int, desc: str, ok: bool):
    print(f"\n[acceptance {num}] {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"acceptance criterion {num} failed: {desc}"


def test_acceptance_1_route_agreement():
    t0 = time.perf_counter()
    worst = 0.0
    for delta in np.linspace(0.3, 0.7, 5):
        for boost in np.linspace(0.0, 1.5, 5):
            p = SuperoscParams(delta=float(delta), boost=float(boost), extent=0.05)
            for z in np.linspace(-20.0, 0.0, 5):
                quad = synth_integral(p, float(z)).value
                closed = synth_bessel(p, float(z))
                worst = max(worst, abs(quad - closed) / (abs(closed) + 1e-30))
    elapsed = time.perf_counter() - t0
    _gate(1, f"route agreement 5x5x5: worst rel dev {worst:.2e} <= 1e-8, "
             f"runtime {elapsed:.2f}s <= 10s", worst <= 1e-8 and elapsed <= 10.0)


def test_acceptance_2_superoscillation_certificate():
    t0 = time.perf_counter()
    pair = _pair_from(CERT)             # m_phase = 40, boost = arccosh 3
    sig = cert_signal_of(pair)
    zc = pair.extent
    measured = window_frequency(sig, -0.9 * zc, -0.1 * zc)
    freq_dev = abs(measured - 2.0) / 2.0
    sd = spectrum(sig, band_limit=1.0)
    kappa = _window_from(CERT).half_width
    fraction = sd.band_energy_fraction(-kappa, 1.0 + kappa)
    elapsed = time.perf_counter() - t0
    _gate(2, f"in-window frequency {measured:.4f} (dev {freq_dev:.2%} <= 1%), "
             f"band energy fraction {fraction:.6f} >= 0.9999, "
             f"runtime {elapsed:.2f}s <= 5s",
          freq_dev <= 0.01 and fraction >= 0.9999 and elapsed <= 5.0)


def test_acceptance_3_growth_peak():
    p = SuperoscParams(delta=0.3, boost=1.0, extent=0.7)
    z = np.linspace(1e-3, 2.0 * p.growth_peak_z, 400_000)
    logmag, _ = component_log(p, z)
    i = int(np.argmax(logmag))
    loc_dev = abs(z[i] - p.growth_peak_z) / p.growth_peak_z
    predicted = math.log(1.0 / (2.0 * math.sqrt(math.sinh(1.0)))) + p.growth_exponent
    mag_ratio = math.exp(logmag[i] - predicted)
    _gate(3, f"growth peak at z = {z[i]:.2f} (dev {loc_dev:.2%} <= 5%), "
             f"magnitude ratio to estimate {mag_ratio:.3f} within 20%",
          loc_dev <= 0.05 and 0.8 <= mag_ratio <= 1.2)


def test_acceptance_4_coherent_reconstruction(dyn_signal, dyn_pair):
    sd = spectrum(dyn_signal, band_limit=1.0)
    grid = ModeGrid.for_signal(dyn_signal)
    ca = amplitudes_from_spectrum(sd, grid)
    tol = 1e-4 * dyn_signal.max_abs

    err0 = np.abs(expectation_B(ca) - np.real(dyn_signal.values)).max()

    t = 0.3 * dyn_pair.extent
    moved = expectation_B(ca, t=t)
    z = dyn_signal.z
    sel = z - t >= dyn_signal.z_min
    shifted = make_real_superosc(dyn_pair, dyn_pair.wavenumber,
                                 dyn_signal.z_min - t, dyn_signal.dz, dyn_signal.n)
    expected = np.real(shifted.values[sel]) * _window_from(DYN).profile(z[sel] - t)
    err_t = np.abs(moved[sel] - expected).max()
    _gate(4, f"reconstruction max err: t=0 {err0:.2e}, t=0.3*z_c {err_t:.2e} "
             f"(tolerance {tol:.2e})", err0 <= tol and err_t <= tol)


def test_acceptance_5_quadratic_law():
    t0 = time.perf_counter()
    pair = _pair_from(DYN)
    sig = _real_signal_from(DYN, pair)
    gap = pair.wavenumber            # 2*c*k0, above the band limit c*k0
    particle = TwoLevelParticle(gap_frequency=gap)
    t_lo = 5.0 * 2.0 * math.pi / gap
    t_hi = pair.extent
    times = np.geomspace(t_lo, t_hi, 40)
    curve = probability_curve(sig, particle, times)
    fit = fit_exponent(curve, (t_lo, t_hi))
    elapsed = time.perf_counter() - t0
    _gate(5, f"exponent {fit.exponent:.4f} in [1.95, 2.05], "
             f"log-residual {fit.residual_rms:.4f} <= 0.05, "
             f"runtime {elapsed:.2f}s <= 30s",
          1.95 <= fit.exponent <= 2.05 and fit.residual_rms <= 0.05
          and elapsed <= 30.0)


def test_acceptance_6_monochromatic_equivalence(dyn_signal, dyn_pair):
    gap = dyn_pair.wavenumber
    particle = TwoLevelParticle(gap_frequency=gap)
    amp = matched_sine_amplitude(dyn_signal, gap, -dyn_pair.extent, 0.0)
    times = np.linspace(10.0 * 2.0 * math.pi / gap, dyn_pair.extent, 25)
    curve = probability_curve(dyn_signal, particle, times)
    mono = np.array([monochromatic_reference(amp, t) for t in times])
    dev = float(np.max(np.abs(curve.values / mono - 1.0)))
    _gate(6, f"max |P_superosc/P_mono - 1| = {dev:.4f} <= 0.05", dev <= 0.05)


def test_acceptance_7_selectivity(dyn_signal, dyn_pair):
    gap = dyn_pair.wavenumber
    t = 100.0 * math.pi / gap
    # above-band members of the +-20% and +-60% probe families
    probes = [0.8 * gap, 1.2 * gap, 1.6 * gap]
    scan = detuning_scan(dyn_signal, [gap] + probes, t)
    ratios = scan.probabilities[0] / scan.probabilities[1:]
    _gate(7, "matched-gap advantage at Omega*t = 100 pi: "
             + ", ".join(f"{r:.0f}x" for r in ratios) + " (all >= 100x)",
          bool(np.all(ratios >= 100.0)))


def test_acceptance_8_energy_ledger():
    t0 = time.perf_counter()
    # I2 at theta = 50 pi by exact antiderivatives
    i2_dev = abs(i2_over_gap(50.0 * math.pi) + 1.0)

    # I3 at the default box, plus the exact box-size scaling
    gap = 2.0
    t100 = 100.0 * math.pi / gap
    denom = sine_overlap_denominator(gap, t100, 1.0)
    g1 = ModeGrid.for_box(1e4, k_cut=2.0, uv_cutoff=50.0)
    g2 = ModeGrid.for_box(1e5, k_cut=2.0, uv_cutoff=50.0)
    i3_small = compute_I3(g1, gap, t100, denom) / gap
    scaling = compute_I3(g2, gap, t100, denom) / compute_I3(g1, gap, t100, denom)

    # full balance on the matched corpus run, plus the time ladder
    pair = _pair_from(DYN)
    sig = _real_signal_from(DYN, pair)
    sd = spectrum(sig, band_limit=1.0)
    grid = ModeGrid.for_signal(sig, uv_cutoff=regime("energy.cfg")["modes"]["uv_cutoff"])
    ca = amplitudes_from_spectrum(sd, grid)
    particle = TwoLevelParticle(gap_frequency=pair.wavenumber)
    amp = matched_sine_amplitude(sig, pair.wavenumber, -pair.extent, 0.0)
    residuals = []
    for theta_over_pi in (40.0, 100.0, 400.0):
        rep = energy_balance(ca, particle, theta_over_pi * math.pi / pair.wavenumber,
                             grid, amplitude=amp)
        residuals.append(abs(rep.residual))
    elapsed = time.perf_counter() - t0
    ok = (
        i2_dev <= 0.02
        and abs(i3_small) <= 1e-4
        and abs(scaling - 1e-2) <= 1e-12
        and residuals[1] <= 0.05
        and residuals[0] >= residuals[1] >= residuals[2]
        and elapsed <= 10.0
    )
    _gate(8, f"I2/E dev {i2_dev:.2e} <= 2%; |I3|/E {abs(i3_small):.2e} <= 1e-4 "
             f"with box scaling {scaling:.6e}; balance |r| at 100pi "
             f"{residuals[1]:.2e} <= 5%, ladder {residuals} non-increasing; "
             f"runtime {elapsed:.2f}s <= 10s", ok)


def test_acceptance_9_determinism(tmp_path):
    records = []
    for sub in ("r1", "r2"):
        out = tmp_path / sub
        env = {k: v for k, v in os.environ.items() if k != "SUPEROSC_OUT"}
        proc = subprocess.run(
            [sys.executable, "-m", "superosc", "energy", "--config",
             str(FIXTURES / "energy.cfg"), "--out", str(out), "--quiet"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        rec = json.loads((out / "energy_record.json").read_text())
        rec.pop("wall_clock_s")
        records.append(json.dumps(rec, sort_keys=True).encode())
    _gate(9, "repeated energy runs byte-identical (wall clock excluded)",
          records[0] == records[1])
