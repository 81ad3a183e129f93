"""Experiment driver.

    superosc <experiment> --config <path> [--out <dir>] [--quiet]

Experiments: synth | spectrum | freq-map | transition | detune | energy |
sweep.  Configs are flat INI files, one section per parameter block (see
the shipped fixtures).  Each run writes one JSON record plus zero or more
CSV series into the output directory; the record payload is deterministic
for a given config (wall clock is kept outside the payload).

Exit codes: 0 success, 2 config/validation error, 3 assertion failure
(e.g. an energy-balance violation or a failed quadratic-law assertion).
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import (
    TwoLevelParticle,
    detuning_scan,
    fit_exponent,
    matched_sine_amplitude,
    probability_curve,
)
from .energy import compute_I3, energy_balance, i2_over_gap, sine_overlap_denominator
from .errors import BalanceViolation, ConfigError, SuperoscError
from .field import ModeGrid, amplitudes_from_spectrum
from .frequency import frequency_profile, window_frequency
from .params import SuperoscParams, WindowSpec
from .signal import SampledSignal
from .spectral import parseval_residual, spectrum
from .synthesis import PairSynthesizer, combine_pair, make_real_superosc, sample_component, synth_bessel

EXPERIMENTS = ("synth", "spectrum", "freq-map", "transition", "detune", "energy", "sweep")

_FLOAT_FMT = "%.16e"  # 17 significant digits
_CSV_BLOCK_ROWS = 4096


# ------------------------------------------------------------ run record --


@dataclass
class RunRecord:
    experiment: str
    config_hash: str
    payload: dict
    warnings: list[str] = field(default_factory=list)
    wall_clock_s: float = 0.0
    series: dict = field(default_factory=dict)  # in-memory arrays, not serialized

    def to_dict(self) -> dict:
        return {
            "config_hash": self.config_hash,
            "experiment": self.experiment,
            "payload": self.payload,
            "tool_version": __version__,
            "wall_clock_s": self.wall_clock_s,
            "warnings": list(self.warnings),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def _format_column(col: np.ndarray) -> list[str]:
    """Cells of one column: strings as-is, integers in decimal, the rest as floats."""
    if col.dtype.kind in "OUiu":
        return [str(v) for v in col.tolist()]
    return [_FLOAT_FMT % v for v in col.astype(float).tolist()]


def write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    """Fixed header, comma separation, 17-significant-digit scientific floats."""
    columns = [np.asarray(col) for col in columns]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        # a block of rows at a time, so the formatted strings stay few
        for lo in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
            cells = [_format_column(col[lo:lo + _CSV_BLOCK_ROWS]) for col in columns]
            fh.writelines(",".join(row) + "\n" for row in zip(*cells))


# ---------------------------------------------------------------- config --


def load_config(path: str | Path) -> dict[str, dict[str, str]]:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc
    if not read:
        raise ConfigError(f"config file not found: {path}")
    return {section: dict(parser[section]) for section in parser.sections()}


def config_hash(cfg: dict[str, dict[str, str]]) -> str:
    canonical = json.dumps(
        {s: {k: v.strip() for k, v in kv.items()} for s, kv in cfg.items()},
        sort_keys=True,
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


class _Block:
    """One config section with typed getters and precise error messages."""

    def __init__(self, cfg: dict, section: str):
        self._cfg = cfg
        self._section = section
        self._kv = cfg.get(section, {})

    def has(self, key: str) -> bool:
        return key in self._kv

    def _fetch(self, key, default, required):
        if key not in self._kv:
            if required:
                raise ConfigError(f"missing key [{self._section}] {key}")
            return None, default
        return self._kv[key], default

    def get_float(self, key, default=None, required=False) -> float:
        raw, dflt = self._fetch(key, default, required)
        if raw is None:
            return dflt
        try:
            value = float(raw)
        except ValueError as exc:
            raise ConfigError(f"[{self._section}] {key} = {raw!r}: not a number") from exc
        if not math.isfinite(value):
            raise ConfigError(f"[{self._section}] {key} = {raw!r}: not a finite number")
        return value

    def get_int(self, key, default=None, required=False) -> int:
        raw, dflt = self._fetch(key, default, required)
        if raw is None:
            return dflt
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(f"[{self._section}] {key} = {raw!r}: not an integer") from exc

    def get_str(self, key, default=None, required=False) -> str:
        raw, dflt = self._fetch(key, default, required)
        return dflt if raw is None else raw.strip()

    def get_bool(self, key, default=False) -> bool:
        raw = self._kv.get(key)
        if raw is None:
            return default
        norm = raw.strip().lower()
        if norm in ("1", "true", "yes", "on"):
            return True
        if norm in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"[{self._section}] {key} = {raw!r}: not a boolean")

    def get_floats(self, key, default=None, required=False) -> list[float]:
        raw, dflt = self._fetch(key, default, required)
        if raw is None:
            return dflt
        try:
            values = [float(tok) for tok in raw.split(",") if tok.strip()]
        except ValueError as exc:
            raise ConfigError(f"[{self._section}] {key} = {raw!r}: not a float list") from exc
        if not all(math.isfinite(v) for v in values):
            raise ConfigError(f"[{self._section}] {key} = {raw!r}: not a finite float list")
        return values


def _boost_from(block: _Block, default: float | None = None) -> float:
    if block.has("boost_arccosh"):
        return math.acosh(block.get_float("boost_arccosh"))
    return block.get_float("boost", default=default, required=default is None)


def _component_from(cfg: dict) -> SuperoscParams:
    so = _Block(cfg, "superosc")
    kwargs = dict(
        amplitude=so.get_float("amplitude", 1.0),
        boost=_boost_from(so),
        band_limit=so.get_float("band_limit", 1.0),
        extent=so.get_float("extent", required=True),
        branch_sign=so.get_int("branch_sign", +1),
        window_criterion=so.get_float("window_criterion", 0.1),
    )
    try:
        if so.has("m_phase"):
            return SuperoscParams.phase_locked(so.get_int("m_phase"), **kwargs)
        return SuperoscParams(delta=so.get_float("delta", required=True), **kwargs)
    except (ValueError, SuperoscError) as exc:
        raise ConfigError(f"[superosc]: {exc}") from exc


def _pair_from(cfg: dict) -> PairSynthesizer:
    so = _Block(cfg, "superosc")
    if not so.has("m_phase"):
        raise ConfigError("missing key [superosc] m_phase (pair experiments need the phase lock)")
    kwargs = dict(
        amplitude=so.get_float("amplitude", 1.0),
        boost=_boost_from(so),
        band_limit=so.get_float("band_limit", 1.0),
        extent=so.get_float("extent", required=True),
        window_criterion=so.get_float("window_criterion", 0.1),
    )
    try:
        p1, p2 = SuperoscParams.locked_pair(so.get_int("m_phase"), **kwargs)
        return combine_pair(p1, p2, branch=so.get_int("branch_sign", +1))
    except (ValueError, SuperoscError) as exc:
        raise ConfigError(f"[superosc]: {exc}") from exc


def _window_from(cfg: dict) -> WindowSpec:
    w = _Block(cfg, "window")
    try:
        return WindowSpec(half_width=w.get_float("half_width", 0.0))
    except ValueError as exc:
        raise ConfigError(f"[window]: {exc}") from exc


def _grid_from(cfg: dict, pair_k_max: float | None = None):
    g = _Block(cfg, "grid")
    z_min = g.get_float("z_min", required=True)
    n = g.get_int("n_samples", required=True)
    if g.has("dz"):
        dz = g.get_float("dz")
    elif g.has("box_length"):
        dz = g.get_float("box_length") / n
    else:
        raise ConfigError("missing key [grid] dz (or box_length)")
    if n < 2:
        raise ConfigError("[grid] n_samples must be >= 2")
    if pair_k_max is not None and dz > math.pi / (4.0 * pair_k_max):
        raise ConfigError(
            f"[grid] dz = {dz:g} too coarse for k_max = {pair_k_max:g} "
            f"(need dz <= {math.pi / (4 * pair_k_max):g})"
        )
    return z_min, dz, n


def _resolve_gap(cfg: dict, pair: PairSynthesizer) -> float:
    """'matched' resolves to the pair's window frequency (times c = 1)."""
    p = _Block(cfg, "particle")
    raw = p.get_str("gap", "matched")
    if raw == "matched":
        return pair.wavenumber
    try:
        gap = float(raw)
    except ValueError as exc:
        raise ConfigError(f"[particle] gap = {raw!r}: use 'matched' or a number") from exc
    if not math.isfinite(gap):
        raise ConfigError(f"[particle] gap = {raw!r}: not a finite number")
    if gap <= 0.0:
        raise ConfigError(f"[particle] gap = {raw!r}: must be > 0")
    return gap


def _focused_grid(pair: PairSynthesizer, pad: float = 1.0):
    """Small grid around the fast-oscillation window (no growth region)."""
    dz = math.pi / (8.0 * pair.k_max)
    z_min = -pair.extent - pad
    n = int(math.ceil((pair.extent + 2.0 * pad) / dz)) + 1
    return z_min, dz, n


# ----------------------------------------------------------- experiments --


def _region_labels(z: np.ndarray, p: SuperoscParams) -> np.ndarray:
    regions = np.full(z.shape, "farfield", dtype=object)
    regions[(z >= -p.extent) & (z <= 0.0)] = "superoscillatory"
    regions[(z > 0.0) & (z <= p.far_field_onset)] = "growth"
    return regions


def run_synth(cfg: dict) -> RunRecord:
    p = _component_from(cfg)
    window = _window_from(cfg)
    z_min, dz, n = _grid_from(cfg, p.superosc_wavenumber(+1))
    sig = sample_component(p, z_min, dz, n, window=window, label="synth")
    z = sig.z
    v = sig.values

    i0 = sig.index_of(0.0)
    ref = synth_bessel(p, float(z[i0])) * float(window.profile(z[i0]))
    z0_rel = abs(v[i0] - ref) / (abs(ref) + 1e-300)

    payload: dict = {
        "amplitude": p.amplitude,
        "boost": p.boost,
        "delta": p.delta,
        "band_limit": p.band_limit,
        "extent": p.extent,
        "window_half_width": window.half_width,
        "grid": {"z_min": z_min, "dz": dz, "n_samples": n},
        "z0_value": {"re": float(np.real(v[i0])), "im": float(np.imag(v[i0]))},
        "z0_bessel_rel_dev": float(z0_rel),
    }
    cover_growth = z[-1] >= p.growth_peak_z and p.boost > 0.0
    if cover_growth:
        grow = (z > 0.0) & (z <= p.far_field_onset)
        i_peak = np.argmax(np.where(grow, np.abs(v), -np.inf))
        payload["growth_peak"] = {
            "z": float(z[i_peak]),
            "z_predicted": p.growth_peak_z,
            "z_rel_dev": float(abs(z[i_peak] - p.growth_peak_z) / p.growth_peak_z),
            "log_magnitude": float(np.log(np.abs(v[i_peak]))),
            "log_magnitude_predicted": p.log_growth_peak_magnitude,
        }
    interior_max = sig.max_abs
    tail = np.abs(v[(np.abs(z) >= min(10.0 * p.far_field_onset, abs(z_min)))])
    if tail.size:
        payload["tail_max_over_interior"] = float(tail.max() / interior_max)

    rec = RunRecord(experiment="synth", config_hash="", payload=payload)
    rec.series = {
        "z": z,
        "re": np.real(v),
        "im": np.imag(v),
        "abs": np.abs(v),
        "region": _region_labels(z, p),
    }
    return rec


def run_spectrum(cfg: dict) -> RunRecord:
    pair = _pair_from(cfg)
    window = _window_from(cfg)
    z_min, dz, n = _grid_from(cfg, pair.k_max)
    sig = pair.sample(z_min, dz, n, window=window, label="spectrum")
    sd = spectrum(sig, band_limit=pair.p1.band_limit,
                  eps_band=_Block(cfg, "spectrum").get_float("eps_band", 1e-4))
    kappa = window.half_width
    frac = sd.band_energy_fraction(-kappa, sd.band_limit + kappa)
    payload = {
        "band_limit": sd.band_limit,
        "window_half_width": kappa,
        "band_energy_fraction": frac,
        "leakage": 1.0 - frac,
        "eps_band": sd.eps_band,
        "band_limited": bool(1.0 - frac <= sd.eps_band),
        "parseval_rel_residual": parseval_residual(sig, sd),
        "log_max_abs_spectrum": float(np.log(np.abs(sd.values).max())),
    }
    rec = RunRecord(experiment="spectrum", config_hash="", payload=payload)
    mag = np.abs(sd.values)
    scale = mag.max() or 1.0
    rec.series = {
        "k": sd.k,
        "re_norm": np.real(sd.values) / scale,
        "im_norm": np.imag(sd.values) / scale,
        "abs2_norm": (mag / scale) ** 2,
    }
    return rec


def run_freq_map(cfg: dict) -> RunRecord:
    pair = _pair_from(cfg)
    window = _window_from(cfg)
    if "grid" in cfg:
        z_min, dz, n = _grid_from(cfg, pair.k_max)
    else:
        z_min, dz, n = _focused_grid(pair)
    sig = pair.sample(z_min, dz, n, window=window if not window.is_identity else None,
                      label="freq-map")
    frac = _Block(cfg, "freqmap").get_float("window_fraction", 0.8)
    zc = pair.extent
    lo, hi = -0.5 * (1 + frac) * zc, -0.5 * (1 - frac) * zc
    measured = window_frequency(sig, lo, hi)
    target = pair.wavenumber
    payload = {
        "target_wavenumber": target,
        "measured_wavenumber": measured,
        "rel_dev": abs(measured - target) / target,
        "window": {"lo": lo, "hi": hi},
        "extent": zc,
        "band_limit": pair.p1.band_limit,
        "exceeds_band_limit": bool(measured > pair.p1.band_limit * (1.0 + 1e-6)),
    }
    rec = RunRecord(experiment="freq-map", config_hash="", payload=payload)
    z_prof, k_prof = frequency_profile(sig, -zc, 0.0)
    rec.series = {"z": z_prof, "k_local": k_prof}
    return rec


def _real_signal_from(cfg: dict, pair: PairSynthesizer) -> SampledSignal:
    window = _window_from(cfg)
    z_min, dz, n = _grid_from(cfg, pair.k_max)
    return make_real_superosc(pair, pair.wavenumber, z_min, dz, n,
                              window=window, label="real")


def run_transition(cfg: dict) -> RunRecord:
    pair = _pair_from(cfg)
    sig = _real_signal_from(cfg, pair)
    gap = _resolve_gap(cfg, pair)
    pblock = _Block(cfg, "particle")
    particle = TwoLevelParticle(gap_frequency=gap,
                                coupling=pblock.get_float("coupling", 1.0),
                                detector_z=pblock.get_float("detector_z", 0.0))
    tr = _Block(cfg, "transition")
    t_lo = tr.get_float("t_lo_periods", 5.0) * 2.0 * math.pi / gap
    t_hi = tr.get_float("t_hi", pair.extent)
    n_points = tr.get_int("n_points", 48)
    if t_hi <= t_lo:
        raise ConfigError("[transition] empty fit window: t_hi <= 5 periods; "
                          "increase extent or t_hi")
    times = np.geomspace(t_lo, t_hi, n_points)
    curve = probability_curve(sig, particle, times, label="transition")
    fit = fit_exponent(curve, (t_lo, t_hi))
    amp = matched_sine_amplitude(sig, gap, -pair.extent, 0.0)
    mono = (particle.coupling * amp * times) ** 2 / 4.0
    equiv_sel = times >= 10.0 * 2.0 * math.pi / gap
    equiv = np.abs(curve.values[equiv_sel] / mono[equiv_sel] - 1.0)
    payload = {
        "gap_frequency": gap,
        "coupling": particle.coupling,
        "amplitude": amp,
        "fit": {
            "exponent": fit.exponent,
            "prefactor": fit.prefactor,
            "residual_rms": fit.residual_rms,
            "window": {"t_lo": fit.window[0], "t_hi": fit.window[1]},
            "n_points": fit.n_points,
        },
        "mono_equivalence_max_dev": float(equiv.max()) if equiv.size else None,
        "breakdown_any": curve.any_breakdown,
    }
    warnings = []
    if curve.any_breakdown:
        warnings.append("first-order validity flag: some P exceed 0.1")
    rec = RunRecord(experiment="transition", config_hash="", payload=payload,
                    warnings=warnings)
    rec.series = {"t": times, "P": curve.values,
                  "breakdown": curve.breakdown.astype(int)}
    if tr.get_bool("assert_quadratic", False):
        lo, hi = tr.get_floats("exponent_range", [1.95, 2.05])
        max_resid = tr.get_float("max_residual", 0.05)
        if not (lo <= fit.exponent <= hi) or fit.residual_rms > max_resid:
            raise BalanceViolation(
                f"quadratic-law assertion failed: exponent {fit.exponent:.4f} "
                f"(range [{lo}, {hi}]), residual {fit.residual_rms:.4f} "
                f"(max {max_resid})", rec.payload)
    return rec


def run_detune(cfg: dict) -> RunRecord:
    pair = _pair_from(cfg)
    sig = _real_signal_from(cfg, pair)
    gap = _resolve_gap(cfg, pair)
    det = _Block(cfg, "detune")
    probes_rel = det.get_floats("probes_rel", [0.8, 1.2, 1.6])
    theta_over_pi = det.get_float("theta_over_pi", 100.0)
    t = theta_over_pi * math.pi / gap
    coupling = _Block(cfg, "particle").get_float("coupling", 1.0)
    gaps = np.array([gap] + [gap * r for r in probes_rel])
    scan = detuning_scan(sig, gaps, t, coupling=coupling)
    ratios = {
        f"{r:g}": float(scan.probabilities[0] / scan.probabilities[i + 1])
        for i, r in enumerate(probes_rel)
    }
    payload = {
        "matched_gap": gap,
        "t": t,
        "theta_over_pi": theta_over_pi,
        "probes_rel": probes_rel,
        "selectivity": scan.selectivity(gap),
        "ratio_by_probe": ratios,
    }
    rec = RunRecord(experiment="detune", config_hash="", payload=payload)
    rec.series = {"gap": scan.gaps, "P": scan.probabilities}
    return rec


def run_energy(cfg: dict) -> RunRecord:
    pair = _pair_from(cfg)
    sig = _real_signal_from(cfg, pair)
    gap = _resolve_gap(cfg, pair)
    coupling = _Block(cfg, "particle").get_float("coupling", 1.0)
    particle = TwoLevelParticle(gap_frequency=gap, coupling=coupling)
    modes = _Block(cfg, "modes")
    uv = modes.get_float("uv_cutoff", required=True)
    grid = ModeGrid.for_signal(sig, uv_cutoff=uv)
    sd = spectrum(sig, band_limit=pair.p1.band_limit)
    ca = amplitudes_from_spectrum(sd, grid)
    amp = matched_sine_amplitude(sig, gap, -pair.extent, 0.0)

    en = _Block(cfg, "energy")
    theta_over_pi = en.get_float("theta_over_pi", 100.0)
    max_residual = en.get_float("max_residual", 0.05)
    t = theta_over_pi * math.pi / gap
    report = energy_balance(ca, particle, t, grid, amplitude=amp,
                            max_residual=max_residual)

    ladder_over_pi = en.get_floats("ladder_over_pi", [40.0, 100.0, 400.0])
    ladder = []
    for tp in ladder_over_pi:
        th = tp * math.pi
        i2 = i2_over_gap(th)
        i3 = compute_I3(grid, gap, th / gap,
                        sine_overlap_denominator(gap, th / gap, amp))
        ladder.append({
            "theta_over_pi": tp,
            "i2_over_gap": i2,
            "i3_over_gap": i3 / particle.gap_energy,
            "residual": 1.0 + i2 + i3 / particle.gap_energy,
        })
    residuals = [abs(item["residual"]) for item in ladder]
    payload = {
        "report": report.to_dict(),
        "amplitude": amp,
        "theta_over_pi": theta_over_pi,
        "ladder": ladder,
        "ladder_non_increasing": bool(
            all(residuals[i + 1] <= residuals[i] * (1 + 1e-12)
                for i in range(len(residuals) - 1))
        ),
    }
    return RunRecord(experiment="energy", config_hash="", payload=payload,
                     warnings=list(report.warnings))


# ---------------------------------------------------------------- sweep --

_SWEEP_KEYS = ("m_phase", "boost", "boost_arccosh", "extent", "amplitude",
               "box_length", "theta_over_pi")


def _parse_ladder(section: str, key: str, raw: str) -> list[float]:
    tok = raw.strip().split(":")
    kind = tok[0].lower()
    if kind not in ("lin", "log", "list"):
        raise ConfigError(f"[{section}] {key} = {raw!r}: kind must be lin|log|list")
    try:
        if kind == "list":
            values = [float(x) for x in tok[1].split(",") if x.strip()]
        else:
            lo, hi, n = float(tok[1]), float(tok[2]), int(tok[3])
            if n < 0:
                raise ValueError("negative count")
            fn = np.linspace if kind == "lin" else np.geomspace
            with np.errstate(all="ignore"):  # a non-finite value is reported below
                values = [float(v) for v in fn(lo, hi, n)] if n else []
    except (IndexError, ValueError) as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r}: malformed ladder") from exc
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"[{section}] {key} = {raw!r}: not a finite number")
    return values


def _sweep_point(cfg: dict, point: dict) -> dict:
    """One sweep evaluation: waveform certificate (+ ledger terms if swept)."""
    so = _Block(cfg, "superosc")
    boost = point.get("boost")
    if boost is None and "boost_arccosh" in point:
        boost = math.acosh(point["boost_arccosh"])
    if boost is None:
        boost = _boost_from(so)
    m_phase = int(point.get("m_phase", so.get_int("m_phase", required=True)))
    amplitude = float(point.get("amplitude", so.get_float("amplitude", 1.0)))
    band_limit = so.get_float("band_limit", 1.0)
    criterion = so.get_float("window_criterion", 0.1)

    from .params import locked_delta

    delta1 = locked_delta(m_phase, "quarter")
    admissible = criterion / (delta1**2 * band_limit * math.cosh(boost))
    extent = float(point.get("extent", min(so.get_float("extent", required=True),
                                           0.9 * admissible)))
    p1, p2 = SuperoscParams.locked_pair(
        m_phase, amplitude=amplitude, boost=boost, band_limit=band_limit,
        extent=extent, window_criterion=criterion
    )
    pair = combine_pair(p1, p2, branch=+1)
    z_min, dz, n = _focused_grid(pair)
    sig = pair.sample(z_min, dz, n, label="sweep")
    lo, hi = -0.9 * extent, -0.1 * extent
    measured = window_frequency(sig, lo, hi)
    target = pair.wavenumber
    out = {
        "m_phase": m_phase,
        "boost": boost,
        "delta1": delta1,
        "extent": extent,
        "max_admissible_extent": admissible,
        "target_wavenumber": target,
        "measured_wavenumber": measured,
        "rel_dev": abs(measured - target) / target,
        "certificate_ok": bool(abs(measured - target) / target <= 0.01),
    }
    if "theta_over_pi" in point:
        out["i2_over_gap"] = i2_over_gap(point["theta_over_pi"] * math.pi)
    if "box_length" in point:
        gap = target
        t = 100.0 * math.pi / gap
        grid = ModeGrid.for_box(point["box_length"], k_cut=2.0 * band_limit,
                                uv_cutoff=_Block(cfg, "modes").get_float("uv_cutoff", 50.0))
        out["i3_over_gap"] = compute_I3(
            grid, gap, t, sine_overlap_denominator(gap, t, 1.0)
        ) / gap
    return out


def run_sweep(cfg: dict) -> tuple[RunRecord, list[dict]]:
    sw = dict(cfg.get("sweep", {}))
    shuffle = sw.pop("shuffle", "false").strip().lower() in ("1", "true", "yes", "on")
    keys = [k for k in sw if k in _SWEEP_KEYS]
    unknown = [k for k in sw if k not in _SWEEP_KEYS]
    if unknown:
        raise ConfigError(f"[sweep] unknown ladder keys: {', '.join(sorted(unknown))}")
    ladders = {k: _parse_ladder("sweep", k, sw[k]) for k in keys}
    points: list[dict] = [{}]
    for k in keys:  # Cartesian product in declaration order
        points = [dict(pt, **{k: v}) for pt in points for v in ladders[k]]
    if any(len(v) == 0 for v in ladders.values()):
        points = []

    order = list(range(len(points)))
    if shuffle:
        import random

        random.Random(_Block(cfg, "run").get_int("seed", 0)).shuffle(order)

    results: dict[int, dict] = {}
    for i in order:
        try:
            results[i] = {"point": points[i], "payload": _sweep_point(cfg, points[i]),
                          "error": None}
        except (SuperoscError, ValueError) as exc:
            results[i] = {"point": points[i], "payload": None,
                          "error": f"{type(exc).__name__}: {exc}"}

    records = [results[i] for i in range(len(points))]  # deterministic order
    n_failed = sum(1 for r in records if r["error"])
    payload = {"n_points": len(points), "n_failed": n_failed,
               "keys": keys, "shuffled_execution": shuffle}
    return RunRecord(experiment="sweep", config_hash="", payload=payload), records


# ------------------------------------------------------------------ main --

_RUNNERS = {
    "synth": run_synth,
    "spectrum": run_spectrum,
    "freq-map": run_freq_map,
    "transition": run_transition,
    "detune": run_detune,
    "energy": run_energy,
}


def _series_files(rec: RunRecord, out_dir: Path) -> list[Path]:
    written = []
    if rec.series:
        name = f"{rec.experiment.replace('-', '_')}_series.csv"
        cols = list(rec.series.keys())
        write_csv(out_dir / name, cols, [np.asarray(rec.series[c]) for c in cols])
        written.append(out_dir / name)
    return written


def run_experiment(experiment: str, config_path: str, out_dir: Path,
                   quiet: bool = False) -> RunRecord:
    cfg = load_config(config_path)
    declared = cfg.get("run", {}).get("experiment")
    if declared and declared.strip() != experiment:
        raise ConfigError(
            f"config declares experiment {declared.strip()!r} but {experiment!r} requested"
        )
    chash = config_hash(cfg)
    t0 = time.perf_counter()
    if experiment == "sweep":
        rec, points = run_sweep(cfg)
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "sweep_points.jsonl", "w", encoding="utf-8") as fh:
            for item in points:
                fh.write(json.dumps(item, sort_keys=True) + "\n")
    else:
        rec = _RUNNERS[experiment](cfg)
        out_dir.mkdir(parents=True, exist_ok=True)
    rec.config_hash = chash
    rec.wall_clock_s = time.perf_counter() - t0
    _series_files(rec, out_dir)
    record_path = out_dir / f"{experiment.replace('-', '_')}_record.json"
    record_path.write_text(rec.to_json(), encoding="utf-8")
    if not quiet:
        print(f"{experiment}: wrote {record_path}")
    return rec


def resolve_out_dir(cli_out: str | None, cfg: dict | None) -> Path:
    """SUPEROSC_OUT overrides the out dir; then --out, config, default."""
    env = os.environ.get("SUPEROSC_OUT")
    if env:
        return Path(env)
    if cli_out:
        return Path(cli_out)
    if cfg and cfg.get("output", {}).get("dir"):
        return Path(cfg["output"]["dir"].strip())
    return Path("out")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="superosc", description=__doc__)
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=None)
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    try:
        out_dir = resolve_out_dir(args.out, load_config(args.config))
        run_experiment(args.experiment, args.config, out_dir, quiet=args.quiet)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BalanceViolation as exc:
        print(f"assertion failure: {exc.args[0]}", file=sys.stderr)
        if len(exc.args) > 1:
            print(json.dumps(exc.args[1] if isinstance(exc.args[1], dict)
                             else exc.args[1].to_dict(), sort_keys=True, indent=2),
                  file=sys.stderr)
        return 3
    except SuperoscError as exc:
        print(f"validation error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
