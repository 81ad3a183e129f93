"""Span tracing of superosc's public functions, installed from outside the package.

``Tracer.install()`` replaces each function listed in ``LAYERS`` with a
wrapper that records one span per call: (name, start, end, parent span,
op id, raised).  The wrapper is bound everywhere the original is bound
inside ``superosc.*`` (the defining module, every module that imported it by
name, and the package namespace), so calls made from inside the package are
traced too.  Spans stay in memory; ``dump()`` hands them out once, at the
end of a process.  Nothing in ``src/`` is modified.

A listed function that no longer exists is recorded as absent: its metrics
are reported as ``absent`` rather than as a failure.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time

# layer -> (module the name is looked up in, names).  "Class.method" names a
# method.  adaptive_gk is wrapped at its call site in superosc.synthesis.
LAYERS = {
    "cli": ("superosc.cli", ["load_config", "run_experiment", "run_sweep", "write_csv"]),
    "synthesis": ("superosc.synthesis", ["PairSynthesizer.sample", "PairSynthesizer.sample_real",
                                         "sample_component", "synth_integral"]),
    "quadrature": ("superosc.synthesis", ["adaptive_gk"]),
    "spectral": ("superosc.spectral", ["spectrum", "SpectralDensity.band_energy_fraction",
                                       "parseval_residual"]),
    "frequency": ("superosc.frequency", ["window_frequency", "frequency_profile"]),
    "field": ("superosc.field", ["amplitudes_from_spectrum", "expectation_B", "energy_before"]),
    "dynamics": ("superosc.dynamics", ["probability_curve", "detuning_scan",
                                       "matched_sine_amplitude", "fit_exponent"]),
    "energy": ("superosc.energy", ["energy_balance", "compute_I3"]),
}

# Counters recorded at the same boundaries: counter -> (unit, functions it
# needs).  Each is normalised per op, except the two ratios.
COUNTERS = {
    "cli.emit_bytes": ("B/op", ["cli.write_csv"]),
    "cli.emit_share": ("ratio", ["cli.write_csv"]),
    "synthesis.samples": ("1/op", ["synthesis.PairSynthesizer.sample",
                                   "synthesis.PairSynthesizer.sample_real",
                                   "synthesis.sample_component"]),
    "synthesis.integral_evals_per_point": ("count", ["synthesis.synth_integral"]),
}


def _count_samples(counts, args, kwargs, result):
    counts["synthesis.samples"] += result.n


def _count_integral(counts, args, kwargs, result):
    counts["synthesis.integral_evals"] += result.n_evals


def _count_emit(counts, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    counts["cli.emit_bytes"] += os.path.getsize(path)


HOOKS = {
    "synthesis.PairSynthesizer.sample": _count_samples,
    "synthesis.PairSynthesizer.sample_real": _count_samples,
    "synthesis.sample_component": _count_samples,
    "synthesis.synth_integral": _count_integral,
    "cli.write_csv": _count_emit,
}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, op, raised]
        self.counts = {"synthesis.samples": 0, "synthesis.integral_evals": 0,
                       "cli.emit_bytes": 0}
        self.absent: list[str] = []
        self.op = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every function in LAYERS; record the ones that are gone."""
        for layer, (modname, fns) in LAYERS.items():
            try:
                module = importlib.import_module(modname)
            except ImportError:
                self.absent += [f"{layer}.{fn}" for fn in fns]
                continue
            for fn in fns:
                name = f"{layer}.{fn}"
                owner_name, _, attr = fn.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                original = vars(owner).get(attr) if owner is not None else None
                if original is None:
                    self.absent.append(name)
                    continue
                wrapper = self.wrap(name, original)
                if owner_name:
                    setattr(owner, attr, wrapper)
                else:
                    _rebind(original, wrapper)

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": self.counts, "absent": self.absent}


def _rebind(original, wrapper) -> None:
    """Point every superosc.* global bound to ``original`` at ``wrapper``."""
    for modname, module in list(sys.modules.items()):
        if modname == "superosc" or modname.startswith("superosc."):
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)


def aggregate(spans, keep=lambda op: True) -> dict[str, dict]:
    """Per span name: calls, busy and self seconds, and calls that raised.

    Self time is a span's duration minus the time its child spans cover.
    ``keep`` filters by op id.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, op, raised in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict] = {}
    for i, (name, start, end, parent, op, raised) in enumerate(spans):
        if not keep(op):
            continue
        row = out.setdefault(name, {"calls": 0, "busy": 0.0, "self": 0.0, "failed": 0})
        row["calls"] += 1
        row["busy"] += end - start
        row["self"] += end - start - child[i]
        row["failed"] += raised
    return out


def catalog() -> list[tuple[str, str]]:
    """(metric, unit) of every span and counter metric, in report order."""
    rows = []
    for layer, (_, fns) in LAYERS.items():
        for fn in fns:
            rows += [(f"{layer}.{fn}.calls", "1/op"), (f"{layer}.{fn}.busy_ms", "ms/op"),
                     (f"{layer}.{fn}.self_ms", "ms/op")]
        rows.append((f"{layer}.failed", "1/op"))
    return rows + [(name, unit) for name, (unit, _) in COUNTERS.items()]


def layer_metrics(dump: dict, n_ops: int, op_wall_s: float) -> dict[str, tuple]:
    """metric -> (value, unit), value None when its function is absent.

    Span totals and counts are divided by the number of traced ops;
    ``op_wall_s`` is the summed wall time of those ops.
    """
    rows = aggregate(dump["spans"])
    absent = set(dump["absent"])
    counts = dump["counts"]
    zero = {"calls": 0, "busy": 0.0, "self": 0.0, "failed": 0}
    per_op = {"calls": 1.0 / n_ops, "busy": 1e3 / n_ops, "self": 1e3 / n_ops}
    values = {}
    for layer, (_, fns) in LAYERS.items():
        failed = 0
        for fn in fns:
            name = f"{layer}.{fn}"
            row = rows.get(name, zero)
            failed += row["failed"]
            for key, suffix in (("calls", "calls"), ("busy", "busy_ms"), ("self", "self_ms")):
                values[f"{name}.{suffix}"] = None if name in absent else row[key] * per_op[key]
        gone = all(f"{layer}.{fn}" in absent for fn in fns)
        values[f"{layer}.failed"] = None if gone else failed / n_ops
    write = rows.get("cli.write_csv", zero)
    integral = rows.get("synthesis.synth_integral", zero)
    values["cli.emit_bytes"] = counts["cli.emit_bytes"] / n_ops
    values["cli.emit_share"] = write["busy"] / op_wall_s
    values["synthesis.samples"] = counts["synthesis.samples"] / n_ops
    values["synthesis.integral_evals_per_point"] = (
        counts["synthesis.integral_evals"] / integral["calls"] if integral["calls"] else 0.0)
    for name, (_, needs) in COUNTERS.items():
        if all(need in absent for need in needs):
            values[name] = None
    return {name: (values[name], unit) for name, unit in catalog()}
