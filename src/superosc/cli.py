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
    monochromatic_reference,
    probability_curve,
)
from .energy import compute_I3, energy_balance, i2_over_gap, sine_overlap_denominator
from .errors import BalanceViolation, ConfigError, DegenerateDenominator, SuperoscError
from .field import ModeGrid, amplitudes_from_spectrum
from .frequency import frequency_profile, window_frequency
from .params import MAX_COUNT, SuperoscParams, WindowSpec, locked_delta
from .signal import SampledSignal, max_dz
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
        return json.dumps(self.to_dict(), sort_keys=True, indent=2, allow_nan=False) + "\n"


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


# Every config key, one row each: (section, key) -> (kind, default, range).
# A key left out of the file takes its default; a row without one (None) is
# optional, or required by the experiment that reads it (see ``_need``).
# Ranges are intervals with "[" "]" inclusive and "(" ")" exclusive ends; each
# count is bounded here or where it is derived, before anything is allocated.
_MAX_SWEEP_POINTS = 100_000  # per ladder and for their Cartesian product
_KEYS = {
    ("run", "experiment"): ("str", None, None),
    ("run", "seed"): ("int", 0, None),
    ("output", "dir"): ("str", None, None),
    ("superosc", "amplitude"): ("float", 1.0, None),
    ("superosc", "boost"): ("float", None, None),  # required without boost_arccosh
    ("superosc", "boost_arccosh"): ("float", None, "[1, inf)"),
    ("superosc", "band_limit"): ("float", 1.0, None),
    ("superosc", "extent"): ("float", None, None),  # required
    ("superosc", "branch_sign"): ("int", +1, None),
    ("superosc", "window_criterion"): ("float", 0.1, None),
    ("superosc", "m_phase"): ("int", None, None),  # required by pair experiments
    ("superosc", "delta"): ("float", None, None),  # required by synth without m_phase
    ("window", "half_width"): ("float", 0.0, "[0, inf)"),
    ("grid", "z_min"): ("float", None, None),  # [grid] keys: required where a grid is read
    ("grid", "n_samples"): ("int", None, f"[2, {MAX_COUNT}]"),
    ("grid", "dz"): ("float", None, "(0, inf)"),  # or box_length
    ("grid", "box_length"): ("float", None, "(0, inf)"),
    ("spectrum", "eps_band"): ("float", 1e-4, None),
    ("freqmap", "window_fraction"): ("float", 0.8, "(0, 1]"),
    ("particle", "gap"): ("gap", "matched", "(0, inf)"),
    ("particle", "coupling"): ("float", 1.0, None),
    ("particle", "detector_z"): ("float", 0.0, None),
    ("transition", "t_lo_periods"): ("float", 5.0, "(0, inf)"),
    ("transition", "t_hi"): ("float", None, None),  # defaults to the pair's extent
    ("transition", "n_points"): ("int", 48, "[2, 4096]"),
    ("transition", "assert_quadratic"): ("bool", False, None),
    ("transition", "exponent_range"): ("pair", (1.95, 2.05), None),  # lo < hi
    ("transition", "max_residual"): ("float", 0.05, None),
    ("detune", "probes_rel"): ("floats", (0.8, 1.2, 1.6), None),
    ("detune", "theta_over_pi"): ("float", 100.0, None),
    ("modes", "uv_cutoff"): ("float", None, "(0, inf)"),  # required by energy, box_length
    ("energy", "theta_over_pi"): ("float", 100.0, None),
    ("energy", "max_residual"): ("float", 0.05, None),
    ("energy", "ladder_over_pi"): ("floats", (40.0, 100.0, 400.0), None),
    ("sweep", "shuffle"): ("bool", False, None),
    **{("sweep", key): ("ladder", None, None) for key in ("m_phase", "boost", "boost_arccosh",
                                                          "extent", "amplitude", "box_length",
                                                          "theta_over_pi")},
}
_SECTIONS = {section for section, _ in _KEYS}
_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


def _number(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError("not a number") from None
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _ladder(text: str) -> list[float]:
    """``lin:lo:hi:n``, ``log:lo:hi:n`` or ``list:a,b,...``."""
    kind, _, spec = text.lower().partition(":")
    if kind == "list":
        return [_number(x) for x in spec.split(",") if x.strip()]
    if kind not in ("lin", "log"):
        raise ValueError("kind must be lin|log|list")
    try:
        lo, hi, n = spec.split(":")
        n = int(n)
    except ValueError:
        raise ValueError("malformed ladder") from None
    if not 0 <= n <= _MAX_SWEEP_POINTS:
        raise ValueError(f"count not in [0, {_MAX_SWEEP_POINTS}]")
    with np.errstate(all="ignore"):  # a non-finite value is reported below
        values = [float(v) for v in (np.linspace if kind == "lin" else np.geomspace)(
            _number(lo), _number(hi), n)]
    if not all(math.isfinite(v) for v in values):
        raise ValueError("not a finite number")
    return values


def _typed(kind: str, text: str):
    """One stripped config string as a value of its row's kind."""
    if kind == "float" or (kind == "gap" and text != "matched"):
        return _number(text)
    if kind == "int":
        try:
            return int(text)
        except ValueError:
            raise ValueError("not an integer") from None
    if kind == "bool":
        if text.lower() not in _BOOLS:
            raise ValueError("not a boolean")
        return _BOOLS[text.lower()]
    if kind in ("floats", "pair"):
        values = [_number(tok) for tok in text.split(",") if tok.strip()]
        if kind == "pair" and not (len(values) == 2 and values[0] < values[1]):
            raise ValueError("not two values lo < hi")
        return values
    if kind == "ladder":
        return _ladder(text)
    return text  # str, and gap = matched


def _within(span: str, value) -> bool:
    lo, hi = (float(end) for end in span[1:-1].split(","))
    return ((lo < value if span[0] == "(" else lo <= value)
            and (value < hi if span[-1] == ")" else value <= hi))


def _parse(cfg: dict[str, dict[str, str]]) -> dict[str, dict]:
    """Typed values of every key in the file, plus every default, by ``_KEYS``."""
    conf: dict[str, dict] = {}
    for section, kv in cfg.items():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
        conf[section] = {}
        for key, raw in kv.items():
            if (section, key) not in _KEYS:
                raise ConfigError(f"unknown key [{section}] {key}")
            kind, _, span = _KEYS[section, key]
            try:
                value = _typed(kind, raw.strip())
                if span and not isinstance(value, str) and not _within(span, value):
                    raise ValueError(f"not in {span}")
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from None
            conf[section][key] = value
    for (section, key), (_, default, _) in _KEYS.items():
        if default is not None:
            conf.setdefault(section, {}).setdefault(key, default)
    return conf


def _need(conf: dict, section: str, key: str):
    try:
        return conf[section][key]
    except KeyError:
        raise ConfigError(f"missing key [{section}] {key}") from None


def _boost(conf: dict, point: dict):
    """A swept boost, else a swept or configured boost_arccosh, else [superosc] boost."""
    if "boost" in point:
        return point["boost"]
    arccosh = point.get("boost_arccosh", conf["superosc"].get("boost_arccosh"))
    if arccosh is not None:
        return math.acosh(arccosh)
    return _need(conf, "superosc", "boost")


def _knobs(conf: dict, point: dict | None = None) -> dict:
    """SuperoscParams keywords from [superosc], with a sweep point's values in place."""
    so, point = conf["superosc"], point or {}
    return dict(
        amplitude=point.get("amplitude", so["amplitude"]),
        boost=_boost(conf, point),
        band_limit=so["band_limit"],
        extent=point["extent"] if "extent" in point else _need(conf, "superosc", "extent"),
        window_criterion=so["window_criterion"],
    )


def _component_from(conf: dict) -> SuperoscParams:
    so = conf["superosc"]
    kwargs = dict(_knobs(conf), branch_sign=so["branch_sign"])
    delta = None if "m_phase" in so else _need(conf, "superosc", "delta")
    try:
        if delta is None:
            return SuperoscParams.phase_locked(so["m_phase"], **kwargs)
        return SuperoscParams(delta=delta, **kwargs)
    except (ValueError, SuperoscError) as exc:
        raise ConfigError(f"[superosc]: {exc}") from exc


def _pair_from(conf: dict) -> PairSynthesizer:
    so = conf["superosc"]
    if "m_phase" not in so:
        raise ConfigError("missing key [superosc] m_phase (pair experiments need the phase lock)")
    kwargs = _knobs(conf)
    try:
        p1, p2 = SuperoscParams.locked_pair(so["m_phase"], **kwargs)
        return combine_pair(p1, p2, branch=so["branch_sign"])
    except (ValueError, SuperoscError) as exc:
        raise ConfigError(f"[superosc]: {exc}") from exc


def _window_from(conf: dict) -> WindowSpec:
    return WindowSpec(half_width=conf["window"]["half_width"])


def _grid_from(conf: dict, pair_k_max: float | None = None):
    z_min = _need(conf, "grid", "z_min")
    n = _need(conf, "grid", "n_samples")
    g = conf["grid"]
    if "dz" not in g and "box_length" not in g:
        raise ConfigError("missing key [grid] dz (or box_length)")
    dz = g["dz"] if "dz" in g else g["box_length"] / n
    if pair_k_max is not None and dz > max_dz(pair_k_max):
        raise ConfigError(
            f"[grid] dz = {dz:g} too coarse for k_max = {pair_k_max:g} "
            f"(need dz <= {max_dz(pair_k_max):g})"
        )
    return z_min, dz, n


def _resolve_gap(conf: dict, pair: PairSynthesizer) -> float:
    """'matched' resolves to the pair's window frequency (times c = 1)."""
    gap = conf["particle"]["gap"]
    return pair.wavenumber if gap == "matched" else gap


def _focused_grid(pair: PairSynthesizer, pad: float = 1.0):
    """Small grid around the fast-oscillation window (no growth region)."""
    dz = math.pi / (8.0 * pair.k_max)
    z_min = -pair.extent - pad
    n = int(math.ceil((pair.extent + 2.0 * pad) / dz)) + 1
    if n > MAX_COUNT:
        raise ValueError(f"focused grid of {n} samples exceeds {MAX_COUNT}")
    return z_min, dz, n


# ----------------------------------------------------------- experiments --


def _region_labels(z: np.ndarray, p: SuperoscParams) -> np.ndarray:
    regions = np.full(z.shape, "farfield", dtype=object)
    regions[(z >= -p.extent) & (z <= 0.0)] = "superoscillatory"
    regions[(z > 0.0) & (z <= p.far_field_onset)] = "growth"
    return regions


def _refuse_zero_signal(amplitude: float, sig: SampledSignal) -> None:
    """The zero signal has no log-magnitude, phase or normalized value.

    It comes from a zero amplitude, or from a grid on which every sample underflows.
    """
    if sig.max_abs == 0.0:
        cause = ("amplitude = 0" if amplitude == 0.0 else
                 f"every sample underflows to 0 on [{sig.z_min:g}, {sig.z_max:g}]")
        raise DegenerateDenominator(
            f"{cause}: the signal is identically zero, so its log-magnitudes, "
            "phases and normalized values are undefined")


def run_synth(conf: dict) -> RunRecord:
    p = _component_from(conf)
    window = _window_from(conf)
    z_min, dz, n = _grid_from(conf, p.superosc_wavenumber(+1))
    sig = sample_component(p, z_min, dz, n, window=window, label="synth")
    _refuse_zero_signal(p.amplitude, sig)
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
        if v[i_peak] == 0.0:
            raise DegenerateDenominator(
                f"every sample of the growth region (0, {p.far_field_onset:g}] underflows "
                "to 0, so its peak has no log-magnitude")
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
        "region": _region_labels(z, p),
    }
    return rec


def run_spectrum(conf: dict) -> RunRecord:
    pair = _pair_from(conf)
    window = _window_from(conf)
    z_min, dz, n = _grid_from(conf, pair.k_max)
    sig = pair.sample(z_min, dz, n, window=window, label="spectrum")
    _refuse_zero_signal(pair.p1.amplitude, sig)
    sd = spectrum(sig, band_limit=pair.p1.band_limit, eps_band=conf["spectrum"]["eps_band"])
    kappa = window.half_width
    frac = sd.band_energy_fraction(-kappa, sd.band_limit + kappa)
    peak = np.abs(sd.values).max()
    payload = {
        "band_limit": sd.band_limit,
        "window_half_width": kappa,
        "band_energy_fraction": frac,
        "leakage": 1.0 - frac,
        "eps_band": sd.eps_band,
        "band_limited": bool(1.0 - frac <= sd.eps_band),
        "parseval_rel_residual": parseval_residual(sig, sd),
        "log_max_abs_spectrum": float(np.log(peak)),
    }
    rec = RunRecord(experiment="spectrum", config_hash="", payload=payload)
    scale = peak or 1.0
    rec.series = {
        "k": sd.k,
        "re_norm": np.real(sd.values) / scale,
        "im_norm": np.imag(sd.values) / scale,
    }
    return rec


def run_freq_map(conf: dict) -> RunRecord:
    pair = _pair_from(conf)
    window = _window_from(conf)
    z_min, dz, n = _grid_from(conf, pair.k_max) if "grid" in conf else _focused_grid(pair)
    sig = pair.sample(z_min, dz, n, window=window if not window.is_identity else None,
                      label="freq-map")
    _refuse_zero_signal(pair.p1.amplitude, sig)
    frac = conf["freqmap"]["window_fraction"]
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


def _real_signal_from(conf: dict, pair: PairSynthesizer) -> SampledSignal:
    return make_real_superosc(pair, pair.wavenumber, *_grid_from(conf, pair.k_max),
                              window=_window_from(conf), label="real")


def run_transition(conf: dict) -> RunRecord:
    pair = _pair_from(conf)
    sig = _real_signal_from(conf, pair)
    gap = _resolve_gap(conf, pair)
    particle = TwoLevelParticle(gap_frequency=gap, coupling=conf["particle"]["coupling"],
                                detector_z=conf["particle"]["detector_z"])
    tr = conf["transition"]
    t_lo = tr["t_lo_periods"] * 2.0 * math.pi / gap
    t_hi = tr.get("t_hi", pair.extent)
    if t_hi <= t_lo:
        raise ConfigError("[transition] empty fit window: t_hi <= 5 periods; "
                          "increase extent or t_hi")
    times = np.geomspace(t_lo, t_hi, tr["n_points"])
    curve = probability_curve(sig, particle, times, label="transition")
    fit = fit_exponent(curve, (t_lo, t_hi))
    amp = matched_sine_amplitude(sig, gap, -pair.extent, 0.0)
    mono = monochromatic_reference(amp, times, particle.coupling)
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
    if tr["assert_quadratic"]:
        lo, hi = tr["exponent_range"]
        max_resid = tr["max_residual"]
        if not (lo <= fit.exponent <= hi) or fit.residual_rms > max_resid:
            raise BalanceViolation(
                f"quadratic-law assertion failed: exponent {fit.exponent:.4f} "
                f"(range [{lo}, {hi}]), residual {fit.residual_rms:.4f} "
                f"(max {max_resid})", rec.payload)
    return rec


def run_detune(conf: dict) -> RunRecord:
    pair = _pair_from(conf)
    sig = _real_signal_from(conf, pair)
    gap = _resolve_gap(conf, pair)
    probes_rel = conf["detune"]["probes_rel"]
    theta_over_pi = conf["detune"]["theta_over_pi"]
    t = theta_over_pi * math.pi / gap
    gaps = np.array([gap] + [gap * r for r in probes_rel])
    scan = detuning_scan(sig, gaps, t, coupling=conf["particle"]["coupling"])
    matched, probes = scan.probabilities[0], scan.probabilities[1:]
    if not np.all(probes > 0.0):
        raise DegenerateDenominator("a detuned probe has P = 0: ratio_by_probe undefined")
    ratios = {f"{r:g}": float(matched / p) for r, p in zip(probes_rel, probes)}
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


def run_energy(conf: dict) -> RunRecord:
    pair = _pair_from(conf)
    sig = _real_signal_from(conf, pair)
    gap = _resolve_gap(conf, pair)
    particle = TwoLevelParticle(gap_frequency=gap, coupling=conf["particle"]["coupling"])
    uv = _need(conf, "modes", "uv_cutoff")
    grid = ModeGrid.for_signal(sig, uv_cutoff=uv)
    sd = spectrum(sig, band_limit=pair.p1.band_limit)
    ca = amplitudes_from_spectrum(sd, grid)
    amp = matched_sine_amplitude(sig, gap, -pair.extent, 0.0)

    en = conf["energy"]
    theta_over_pi = en["theta_over_pi"]
    t = theta_over_pi * math.pi / gap
    report = energy_balance(ca, particle, t, grid, amplitude=amp,
                            max_residual=en["max_residual"])

    ladder = []
    for tp in en["ladder_over_pi"]:
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


def _sweep_point(conf: dict, point: dict) -> dict:
    """One sweep evaluation: waveform certificate (+ ledger terms if swept)."""
    m_phase = int(point["m_phase"] if "m_phase" in point else _need(conf, "superosc", "m_phase"))
    kwargs = _knobs(conf, point)
    delta1 = locked_delta(m_phase, "quarter")
    admissible = kwargs["window_criterion"] / (
        delta1**2 * kwargs["band_limit"] * math.cosh(kwargs["boost"]))
    if "extent" not in point:
        kwargs["extent"] = min(kwargs["extent"], 0.9 * admissible)
    extent = kwargs["extent"]
    p1, p2 = SuperoscParams.locked_pair(m_phase, **kwargs)
    pair = combine_pair(p1, p2, branch=+1)
    z_min, dz, n = _focused_grid(pair)
    sig = pair.sample(z_min, dz, n, label="sweep")
    _refuse_zero_signal(pair.p1.amplitude, sig)
    lo, hi = -0.9 * extent, -0.1 * extent
    measured = window_frequency(sig, lo, hi)
    target = pair.wavenumber
    out = {
        "m_phase": m_phase,
        "boost": kwargs["boost"],
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
        grid = ModeGrid.for_box(point["box_length"], k_cut=2.0 * kwargs["band_limit"],
                                uv_cutoff=conf["modes"]["uv_cutoff"])
        out["i3_over_gap"] = compute_I3(grid, gap, t, sine_overlap_denominator(gap, t, 1.0)) / gap
    return out


def run_sweep(conf: dict) -> tuple[RunRecord, list[dict]]:
    ladders = {k: v for k, v in conf["sweep"].items() if k != "shuffle"}
    keys = list(ladders)
    if "box_length" in ladders:
        _need(conf, "modes", "uv_cutoff")
    if math.prod(len(v) for v in ladders.values()) > _MAX_SWEEP_POINTS:
        raise ConfigError(f"[sweep] more than {_MAX_SWEEP_POINTS} points")
    points: list[dict] = [{}] if all(ladders.values()) else []
    for k in keys:  # Cartesian product in declaration order
        points = [dict(pt, **{k: v}) for pt in points for v in ladders[k]]

    order = list(range(len(points)))
    if conf["sweep"]["shuffle"]:
        import random

        random.Random(conf["run"]["seed"]).shuffle(order)

    results: dict[int, dict] = {}
    for i in order:
        try:
            payload = _sweep_point(conf, points[i])
            json.dumps(payload, allow_nan=False)  # a non-finite value fails the point
            results[i] = {"point": points[i], "payload": payload, "error": None}
        except (SuperoscError, ValueError, ArithmeticError) as exc:
            results[i] = {"point": points[i], "payload": None,
                          "error": f"{type(exc).__name__}: {exc}"}

    records = [results[i] for i in range(len(points))]  # deterministic order
    n_failed = sum(1 for r in records if r["error"])
    payload = {"n_points": len(points), "n_failed": n_failed,
               "keys": keys, "shuffled_execution": conf["sweep"]["shuffle"]}
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


def _series_files(rec: RunRecord, out_dir: Path) -> None:
    if rec.series:
        cols = list(rec.series.keys())
        write_csv(out_dir / f"{rec.experiment.replace('-', '_')}_series.csv", cols,
                  [np.asarray(rec.series[c]) for c in cols])


def run_experiment(experiment: str, cfg: dict[str, dict[str, str]], out_dir: Path,
                   quiet: bool = False) -> RunRecord:
    """Run one experiment on a loaded config (see ``load_config``)."""
    chash = config_hash(cfg)
    conf = _parse(cfg)
    declared = conf["run"].get("experiment")
    if declared and declared != experiment:
        raise ConfigError(f"config declares experiment {declared!r} but {experiment!r} requested")
    t0 = time.perf_counter()
    rec, points = run_sweep(conf) if experiment == "sweep" else (_RUNNERS[experiment](conf), None)
    rec.config_hash = chash
    rec.wall_clock_s = time.perf_counter() - t0
    record = rec.to_json()  # a non-finite payload fails before any file is written
    out_dir.mkdir(parents=True, exist_ok=True)
    if points is not None:
        with open(out_dir / "sweep_points.jsonl", "w", encoding="utf-8") as fh:
            for item in points:
                fh.write(json.dumps(item, sort_keys=True, allow_nan=False) + "\n")
    _series_files(rec, out_dir)
    record_path = out_dir / f"{experiment.replace('-', '_')}_record.json"
    record_path.write_text(record, encoding="utf-8")
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
        cfg = load_config(args.config)
        run_experiment(args.experiment, cfg, resolve_out_dir(args.out, cfg), quiet=args.quiet)
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
    except (SuperoscError, ValueError, ArithmeticError) as exc:
        print(f"validation error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
