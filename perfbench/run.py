"""superosc benchmark: three workloads, each a closed loop with one client.

    python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1

Run it from the root of a source checkout (it needs ``src/`` and
``fixtures/``; nothing has to be installed).  Workloads:

* ``cli_cold``: one op is one ``python -m superosc <exp> --config <cfg>
  --out <dir> --quiet`` child, timed from spawn to exit.  A round runs the
  six single experiments on their fixtures, one sweep over a seeded ~100-point
  ``boost_arccosh`` x ``extent`` ladder, and the two forced-failure fixtures
  (expected exits 3 and 2), in a seeded order; round(T / 8.5) whole rounds
  run, about T seconds here.  Most of an op is interpreter start, imports and
  CSV output, so import and output changes show here and kernel changes do
  not.
* ``pipeline_warm``: one op is the certificate chain plus the whole dyn
  chain (synthesis -> spectrum -> amplitudes -> detector -> energy ledger) in
  a warm worker process on a seeded draw.  No import and no output: all the
  time is in the numerical layers.
* ``quadrature_grid``: one op is one ``synth_integral`` point, seeded
  uniformly over the acceptance-1 domain and checked against
  ``synth_bessel``.  The only workload that runs the adaptive quadrature.

The in-process workloads run in ``WORKERS`` worker processes one after the
other, each for T / WORKERS seconds, so each run takes that many set-up
samples.  Every op's outputs are checked; an op fails on a wrong exit code,
a failed check or an exception.  Every reported time is scaled by a speed
probe timed next to it (see ``probe.py``); raw medians go to the report.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced run (spans
recorded by ``tracer.py`` around each layer's public functions), the
``-X importtime`` breakdown and the tracing overhead.  A report with
provenance, sample counts and (traced) the per-layer predictions and the
baseline reconciliation goes to ``perfbench/.work/<workload>/report.json``.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import tracer
from probe import CLI_REF_S, PROBE_CMD, bracketed

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
FIXTURES = ROOT / "fixtures"
SCHEMA = ROOT / "src" / "superosc" / "schemas" / "runrecord.schema.json"

WORKLOADS = ("cli_cold", "pipeline_warm", "quadrature_grid")
SETUP_REPEATS = 5       # fresh-interpreter imports per cli_cold run
CLI_ROUND_S = 8.5       # nominal seconds per cli_cold round
WORKERS = 5             # worker processes (set-up samples) per in-process run
IMPORT_REPEATS = 3      # -X importtime runs per traced run
RUN_BUDGET_S = 165.0    # a run must end within 180 s
CHILD_TIMEOUT_S = 60.0

E2E_UNITS = {
    "setup_s": "s",
    "wall_s_p50": "s/op",
    "wall_s_tail": "s/op",
    "throughput_ops_per_s": "ops/s",
    "success_frac": "ratio",
    "peak_rss_mb": "MB",
}

# name, experiment, fixture, expected exit code
CLI_OPS = [
    ("synth", "synth", "synth.cfg", 0),
    ("spectrum", "spectrum", "spectrum_cert.cfg", 0),
    ("freq-map", "freq-map", "freqmap_cert.cfg", 0),
    ("transition", "transition", "transition.cfg", 0),
    ("detune", "detune", "detune.cfg", 0),
    ("energy", "energy", "energy.cfg", 0),
    ("sweep", "sweep", "sweep_boost_ladder.cfg", 0),
    ("transition_detuned_assert", "transition", "transition_detuned_assert.cfg", 3),
    ("bad_missing_section", "energy", "bad_missing_section.cfg", 2),
]
SWEEP_LADDER = 10  # values per swept key; 10 x 10 points
STDERR_PREFIX = {2: "config error:", 3: "assertion failure:"}

IMPORT_PACKAGES = ("numpy", "scipy.special", "scipy.optimize", "scipy.interpolate")

# Which end-to-end metric each layer should move, on which workload; every
# other (metric, workload) pair is predicted "no change".
PREDICTIONS = {
    "import": {"setup_s": list(WORKLOADS), "wall_s_p50": ["cli_cold"],
               "throughput_ops_per_s": ["cli_cold"]},
    "cli": {"wall_s_p50": ["cli_cold"]},
    "synthesis": {"wall_s_p50": ["pipeline_warm"], "throughput_ops_per_s": ["quadrature_grid"]},
    "quadrature": {"wall_s_p50": ["quadrature_grid"], "throughput_ops_per_s": ["quadrature_grid"]},
    "spectral": {"wall_s_p50": ["pipeline_warm", "cli_cold"]},
    "frequency": {"wall_s_p50": ["pipeline_warm", "cli_cold"]},
    "field": {"wall_s_p50": ["pipeline_warm"]},
    "dynamics": {"wall_s_p50": ["pipeline_warm"], "peak_rss_mb": ["pipeline_warm"]},
    "energy": {"wall_s_p50": ["pipeline_warm"]},
}

# ROADMAP item-1 baseline: (label, span, ms per call).  BASELINE_FILTER keeps
# the traced ops the baseline was measured on: 2^15-sample dyn grids, the
# spectrum op, every quadrature point.
BASELINE = {
    "pipeline_warm": [
        ("dyn synthesis", "synthesis.PairSynthesizer.sample_real", 17.0),
        ("cert synthesis", "synthesis.PairSynthesizer.sample", 15.0),
        ("FFT spectrum", "spectral.spectrum", 3.1),
        ("expectation_B", "field.expectation_B", 2.9),
        ("48-point probability_curve", "dynamics.probability_curve", 8.0),
        ("4-gap detuning_scan", "dynamics.detuning_scan", 4.8),
        ("compute_I3", "energy.compute_I3", 0.6),
    ],
    "quadrature_grid": [("synth_integral per point", "synthesis.synth_integral", 1.6)],
    "cli_cold": [("spectrum write_csv", "cli.write_csv", 320.0)],
}
BASELINE_FILTER = {"pipeline_warm": 2**15, "quadrature_grid": 0, "cli_cold": "spectrum"}


# ------------------------------------------------------------ processes --


class Deadline:
    """The whole run's time budget."""

    def __init__(self, seconds: float):
        self.end = time.perf_counter() + seconds

    def left(self) -> float:
        return self.end - time.perf_counter()


def run_child(cmd: list[str], timeout: float, **popen) -> tuple[int | None, float, int]:
    """Spawn, wait and reap one child: (exit code or None on timeout, seconds, ru_maxrss KiB).

    The child is reaped with wait4 so its own peak resident memory is read.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, **popen)
    status = usage = None

    def expire(signum, frame):
        raise TimeoutError

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.1))
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except TimeoutError:
        pass
    except BaseException:  # interrupted or terminated: take the child down too
        proc.kill()
        os.waitpid(proc.pid, 0)
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    elapsed = time.perf_counter() - t0
    if status is None:
        try:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        except ChildProcessError:
            pass
        proc.returncode = -9
        return None, elapsed, usage.ru_maxrss if usage else 0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, elapsed, usage.ru_maxrss


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("SUPEROSC_OUT", "PYTHONPATH")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


# ----------------------------------------------------------- statistics --


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with ten samples beyond it."""
    s = sorted(values)
    i = max(len(s) - 11, 0)
    return s[i], 100.0 * i / max(len(s) - 1, 1)


class Run:
    """What one benchmark run collected."""

    def __init__(self):
        self.setup: list[float] = []        # probe-scaled, see probe.py
        self.setup_raw: list[float] = []
        self.lat: list[float] = []          # untraced op latencies, probe-scaled
        self.lat_raw: list[float] = []
        self.lat_traced: list[float] = []
        self.sessions: list[list[float]] = []  # untraced latencies per client session
        self.attempted = 0
        self.failed = 0                     # ops with at least one problem
        self.problems: list[str] = []       # every problem, set-up ones included
        self.rss_kib = 0
        self.dump = {"spans": [], "counts": {}, "absent": []}
        self.meta: dict[int, object] = {}   # traced op id -> op kind
        self.traced_wall_s = 0.0           # raw, like the spans

    def merge(self, dump: dict, op_base: int) -> None:
        """Append one process's spans, making span and op ids run-wide."""
        offset = len(self.dump["spans"])
        for name, start, end, parent, op, raised in dump["spans"]:
            self.dump["spans"].append([name, start, end, parent + offset if parent >= 0 else -1,
                                       op_base + op, raised])
        for key, value in dump["counts"].items():
            self.dump["counts"][key] = self.dump["counts"].get(key, 0) + value
        self.dump["absent"] = sorted(set(self.dump["absent"]) | set(dump["absent"]))


# ------------------------------------------------------------- cli_cold --


def write_cli_configs(rng: random.Random, cfg_dir: Path) -> dict[str, Path]:
    """Each op's config, derived from fixtures/; the sweep ladder is seeded."""
    cfg_dir.mkdir(parents=True)
    paths = {}
    for name, _, fixture, _ in CLI_OPS:
        path = cfg_dir / f"{name}.cfg"
        if name == "sweep":
            cfg = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
            cfg.read(FIXTURES / fixture)
            # certificate_ok (rel dev <= 1%) holds for every point of this box
            boosts = [rng.uniform(1.5, 5.0) for _ in range(SWEEP_LADDER)]
            extents = [rng.uniform(10.0, 100.0) for _ in range(SWEEP_LADDER)]
            cfg["sweep"] = {"boost_arccosh": "list:" + ",".join(f"{b:.6g}" for b in boosts),
                            "extent": "list:" + ",".join(f"{e:.6g}" for e in extents)}
            with open(path, "w", encoding="utf-8") as fh:
                cfg.write(fh)
        else:
            shutil.copyfile(FIXTURES / fixture, path)
        paths[name] = path
    return paths


def _gates(name: str, payload: dict, out_dir: Path) -> list[str]:
    bad = []
    if name == "synth" and not payload["z0_bessel_rel_dev"] <= 1e-8:
        bad.append(f"z0_bessel_rel_dev {payload['z0_bessel_rel_dev']}")
    if name == "spectrum" and payload["band_limited"] is not True:
        bad.append("band_limited is false")
    if name == "freq-map" and not payload["rel_dev"] <= 0.01:
        bad.append(f"freq-map rel_dev {payload['rel_dev']}")
    if name == "transition" and not 1.95 <= payload["fit"]["exponent"] <= 2.05:
        bad.append(f"transition exponent {payload['fit']['exponent']}")
    if name == "detune" and not payload["selectivity"] >= 100.0:
        bad.append(f"detune selectivity {payload['selectivity']}")
    if name == "energy" and not abs(payload["report"]["residual"]) <= 0.05:
        bad.append(f"energy residual {payload['report']['residual']}")
    if name == "sweep":
        points = [json.loads(line) for line in
                  (out_dir / "sweep_points.jsonl").read_text(encoding="utf-8").splitlines()]
        if payload["n_failed"] != 0 or payload["n_points"] != SWEEP_LADDER**2:
            bad.append(f"sweep n_failed {payload['n_failed']} of {payload['n_points']}")
        if not all(p["error"] is None and p["payload"]["certificate_ok"] for p in points):
            bad.append("sweep point without certificate_ok")
    return bad


def check_cli_op(name: str, expected: int, rc: int | None, out_dir: Path, err: Path,
                 validator, fingerprints: dict[str, str]) -> list[str]:
    """Exit code, schema, gate fields and byte-identical payloads for one op."""
    if rc != expected:
        tail_lines = err.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-3:]
        return [f"exit {rc}, expected {expected}: {' | '.join(tail_lines)}"]
    stderr = err.read_text(encoding="utf-8", errors="replace")
    if expected:
        if not stderr.startswith(STDERR_PREFIX[expected]) or "Traceback" in stderr:
            return [f"exit {rc} without the expected one-line message"]
        return []
    records = list(out_dir.glob("*_record.json"))
    if len(records) != 1:
        return [f"{len(records)} record files"]
    record = json.loads(records[0].read_text(encoding="utf-8"))
    bad = [f"schema: {e.message}" for e in validator.iter_errors(record)]
    if bad:
        return bad
    try:
        bad = _gates(name, record["payload"], out_dir)
    except (KeyError, TypeError, ValueError, OSError) as exc:
        bad = [f"malformed output: {type(exc).__name__}: {exc}"]
    record.pop("wall_clock_s")
    digest = hashlib.sha256(json.dumps(record, sort_keys=True).encode())
    for path in sorted(out_dir.iterdir()):
        if path != records[0]:
            digest.update(path.name.encode() + path.read_bytes())
    if fingerprints.setdefault(name, digest.hexdigest()) != digest.hexdigest():
        bad.append("outputs differ from an earlier op on the same config")
    return bad


def run_cli_cold(seed: int, seconds: float, trace: bool, work: Path, deadline: Deadline) -> Run:
    """Set-up samples, then round(seconds / CLI_ROUND_S) whole rounds of CLI children.

    A fixed number of rounds keeps the sample count, and so the percentile
    behind wall_s_tail, the same on every commit.  Traced, each op runs
    twice (untraced and traced) in half as many rounds.  A probe child runs
    before every measured child and after the last one.
    """
    import jsonschema

    run = Run()
    env = child_env()
    rng = random.Random(f"cli_cold:{seed}")
    configs = write_cli_configs(rng, work / "cfg")
    probes: list[float] = []

    def measure(cmd: list[str], **popen) -> tuple[int | None, float, int]:
        probes.append(run_child(PROBE_CMD, min(CHILD_TIMEOUT_S, deadline.left()),
                                cwd=work, env=env, stdout=subprocess.DEVNULL)[1])
        return run_child(cmd, min(CHILD_TIMEOUT_S, deadline.left()), cwd=work, env=env,
                         stdout=subprocess.DEVNULL, **popen)

    setup_raw = []
    for _ in range(SETUP_REPEATS):
        rc, elapsed, _ = measure([sys.executable, "-c", "import superosc.cli"])
        setup_raw.append(elapsed)
        if rc != 0:
            run.problems.append(f"set-up: import superosc.cli exited {rc}")

    done = []  # (op index, name, expected, rc, out dir, stderr file, traced, seconds)
    for _ in range(max(1, round(seconds / (CLI_ROUND_S * (1 + trace))))):
        if deadline.left() < 2 * CHILD_TIMEOUT_S / 3:
            run.problems.append("run budget exhausted before the last round")
            break
        order = list(CLI_OPS)
        rng.shuffle(order)
        for name, experiment, _, expected in order:
            variants = [False]
            if trace:  # untraced and traced back to back, alternating which goes first
                variants = [False, True] if len(done) % 4 == 0 else [True, False]
            for traced in variants:
                i = len(done)
                out_dir, err = work / "out" / str(i), work / "out" / f"{i}.err"
                out_dir.mkdir(parents=True)
                args = [experiment, "--config", str(configs[name]), "--out", str(out_dir), "--quiet"]
                cmd = ([sys.executable, str(BENCH / "traced_cli.py"), str(work / "out" / f"{i}.spans"),
                        str(i)] if traced else [sys.executable, "-m", "superosc"]) + args
                with open(err, "wb") as fh:
                    rc, elapsed, rss = measure(cmd, stderr=fh)
                run.rss_kib = max(run.rss_kib, rss)
                done.append((i, name, expected, rc, out_dir, err, traced, elapsed))
    probes.append(run_child(PROBE_CMD, min(CHILD_TIMEOUT_S, deadline.left()),
                            cwd=work, env=env, stdout=subprocess.DEVNULL)[1])

    n_setup = len(setup_raw)
    run.setup_raw = setup_raw
    run.setup = bracketed(setup_raw, list(range(n_setup)), probes, CLI_REF_S)
    scaled = bracketed([d[7] for d in done], [n_setup + d[0] for d in done], probes, CLI_REF_S)
    for d, value in zip(done, scaled):
        (run.lat_traced if d[6] else run.lat).append(value)
        if not d[6]:
            run.lat_raw.append(d[7])
    run.sessions = [run.lat]

    validator = jsonschema.Draft7Validator(json.loads(SCHEMA.read_text(encoding="utf-8")))
    fingerprints: dict[str, str] = {}
    run.attempted = len(done)
    for i, name, expected, rc, out_dir, err, traced, elapsed in done:
        problems = check_cli_op(name, expected, rc, out_dir, err, validator, fingerprints)
        spans = work / "out" / f"{i}.spans"
        if traced and spans.exists():
            run.merge(json.loads(spans.read_text(encoding="utf-8")), 0)
            run.meta[i] = name
            run.traced_wall_s += elapsed
        elif traced:
            problems.append("no spans written")
        run.failed += bool(problems)
        run.problems += [f"op {i} ({name}{', traced' if traced else ''}): {p}" for p in problems]
    shutil.rmtree(work / "out")
    return run


# ------------------------------------------------------ in-process runs --


def run_in_process(workload: str, seed: int, seconds: float, trace: bool, work: Path,
                   deadline: Deadline) -> Run:
    run = Run()
    env = child_env()
    for k in range(WORKERS):
        out = work / f"worker{k}.json"
        cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
               "--seed", str(seed), "--index", str(k), "--seconds", repr(seconds / WORKERS),
               "--trace", str(int(trace)), "--out", str(out)]
        rc, _, rss = run_child(cmd, min(seconds / WORKERS + CHILD_TIMEOUT_S, deadline.left()),
                               cwd=work, env=env, stdout=subprocess.DEVNULL)
        run.rss_kib = max(run.rss_kib, rss)
        if rc != 0 or not out.exists():
            run.problems.append(f"worker {k} exited {rc} without a result")
            continue
        res = json.loads(out.read_text(encoding="utf-8"))
        out.unlink()
        run.setup.append(res["setup_s"])
        run.setup_raw.append(res["setup_raw_s"])
        run.problems += [f"worker {k} warm-up: {p}" for p in res["setup_failures"]]
        for part, lat in (("untraced", run.lat), ("traced", run.lat_traced)):
            if part in res:
                lat += res[part]["lat"]
                run.attempted += len(res[part]["lat"])
                run.failed += res[part]["failed"]
                run.problems += [f"worker {k} {part} {p}" for p in res[part]["failures"]]
        run.lat_raw += res["untraced"]["raw"]
        run.sessions.append(res["untraced"]["lat"])
        if trace:
            base = k * 10**6
            run.merge(res["trace"], base)
            run.meta.update({base + op: m for op, m in enumerate(res["traced"]["meta"])})
            run.traced_wall_s += sum(res["traced"]["raw"])
    return run


# --------------------------------------------------------------- import --


def parse_importtime(text: str) -> dict[str, float]:
    """``-X importtime`` stderr -> import.* values in ms (absent packages omitted).

    ``<pkg>_ms`` is the cumulative time of the ``import <pkg>`` entry;
    ``<pkg>_self_ms`` sums the self time of every ``<pkg>`` and ``<pkg>.*``
    module wherever it was imported.  numpy loads submodules such as
    ``numpy.fft`` lazily, under whichever package first touches them, so its
    self total can exceed its cumulative time.  ``total_ms`` is the
    cumulative time of ``import superosc.cli`` itself.
    """
    rows = []  # (depth, name, self us, cumulative us)
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        raw = fields[2].rstrip()
        name = raw.lstrip()
        depth = (len(raw) - len(name) - 1) // 2
        rows.append((depth, name, int(fields[0]), int(fields[1])))

    def own(pkg):
        return [r for r in rows if r[1] == pkg or r[1].startswith(pkg + ".")]

    out = {"import.total_ms": 1e-3 * sum(r[3] for r in own("superosc") if r[0] == 0)}
    for pkg in IMPORT_PACKAGES:
        cumulative = [r[3] for r in rows if r[1] == pkg]
        if cumulative:
            key = "import." + pkg.replace(".", "_")
            out[key + "_ms"] = 1e-3 * cumulative[0]
            out[key + "_self_ms"] = 1e-3 * sum(r[2] for r in own(pkg))
    out["import.superosc_self_ms"] = 1e-3 * sum(r[2] for r in own("superosc"))
    return out


def import_catalog() -> list[tuple[str, str]]:
    rows = [("import.total_ms", "ms")]
    for pkg in IMPORT_PACKAGES:
        key = "import." + pkg.replace(".", "_")
        rows += [(key + "_ms", "ms"), (key + "_self_ms", "ms")]
    return rows + [("import.superosc_self_ms", "ms"), ("import.failed", "count")]


def import_breakdown(work: Path, deadline: Deadline) -> dict[str, tuple]:
    """Median over IMPORT_REPEATS fresh ``-X importtime -c 'import superosc.cli'`` runs."""
    samples, failed = [], 0
    for _ in range(IMPORT_REPEATS):
        try:
            proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import superosc.cli"],
                                  cwd=work, env=child_env(), capture_output=True, text=True,
                                  timeout=min(CHILD_TIMEOUT_S, deadline.left()))
        except subprocess.TimeoutExpired:
            failed += 1
            continue
        if proc.returncode != 0:
            failed += 1
            continue
        samples.append(parse_importtime(proc.stderr))
    out = {}
    for name, unit in import_catalog():
        values = [s[name] for s in samples if name in s]
        out[name] = (statistics.median(values) if values else None, unit)
    out["import.failed"] = (failed, "count")
    return out


# ---------------------------------------------------------------- report --


def per_layer_catalog() -> list[tuple[str, str]]:
    """Every per-layer metric a traced run reports, with its unit."""
    return (import_catalog() + tracer.catalog()
            + [("trace.overhead_s", "s/op")])


def end_to_end(run: Run) -> tuple[dict[str, float], dict]:
    """The six end-to-end metrics and their sample counts.

    wall_s_tail is taken per client session (the one cli_cold client, or
    each worker process) and the median over sessions is reported, so a
    burst of host noise inside one session does not set a run's tail.
    throughput_ops_per_s divides the ops by the time spent in them, leaving
    out the benchmark's own probes and output checks between ops.
    """
    lat = run.lat
    tails = [tail(s) for s in run.sessions if s]
    values = {
        "setup_s": statistics.median(run.setup) if run.setup else float("nan"),
        "wall_s_p50": statistics.median(lat) if lat else float("nan"),
        "wall_s_tail": statistics.median(t[0] for t in tails) if tails else float("nan"),
        "throughput_ops_per_s": len(lat) / sum(lat) if lat else float("nan"),
        "success_frac": 1.0 - run.failed / max(run.attempted, 1),
        "peak_rss_mb": run.rss_kib / 1024.0,
    }
    samples = {"setup_s": len(run.setup), "wall_s_p50": len(lat),
               "wall_s_tail": [len(s) for s in run.sessions],
               "wall_s_tail_percentile": statistics.median(t[1] for t in tails) if tails else 0.0,
               "throughput_ops_per_s": len(lat),
               "success_frac": run.attempted, "peak_rss_mb": 1}
    return values, samples


def per_layer(run: Run, imports: dict[str, tuple]) -> dict[str, tuple]:
    n_ops = max(len(run.lat_traced), 1)
    values = dict(imports)
    values.update(tracer.layer_metrics(run.dump, n_ops, run.traced_wall_s or 1.0))
    overhead = (statistics.median(run.lat_traced) - statistics.median(run.lat)
                if run.lat and run.lat_traced else None)
    values["trace.overhead_s"] = (overhead, "s/op")
    return values


def reconciliation(workload: str, run: Run) -> list[dict]:
    wanted = BASELINE_FILTER[workload]
    rows = tracer.aggregate(run.dump["spans"], keep=lambda op: run.meta.get(op) == wanted)
    out = []
    for label, span, baseline_ms in BASELINE[workload]:
        row = rows.get(span)
        measured = 1e3 * row["busy"] / row["calls"] if row and row["calls"] else None
        ratio = measured / baseline_ms if measured else None
        out.append({"layer": label, "span": span, "baseline_ms": baseline_ms,
                    "traced_ms_per_call": measured, "ratio": ratio,
                    "flag": ratio is None or not 0.5 <= ratio <= 2.0})
    return out


def predictions() -> dict[str, dict[str, str]]:
    table = {}
    for layer, moves in PREDICTIONS.items():
        table[layer] = {
            f"{metric}@{wl}": ("moves" if wl in moves.get(metric, []) else "no change")
            for wl in WORKLOADS for metric in E2E_UNITS
        }
    return table


def provenance(seed: int) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "git_commit": git_commit(), "seed": seed}


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git (None outside a repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _fmt(value) -> str:
    return "absent" if value is None else f"{value:.6g}"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    needed = [ROOT / "src" / "superosc" / "__init__.py", SCHEMA] + [FIXTURES / op[2] for op in CLI_OPS]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        print(f"benchmark: not a superosc source checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    deadline = Deadline(RUN_BUDGET_S)
    work = BENCH / ".work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    trace = bool(args.trace)
    if args.workload == "cli_cold":
        run = run_cli_cold(args.seed, args.seconds, trace, work, deadline)
    else:
        run = run_in_process(args.workload, args.seed, args.seconds, trace, work, deadline)

    e2e, samples = end_to_end(run)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "provenance": provenance(args.seed),
              "end_to_end": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()},
              "raw_seconds": {"setup_s": statistics.median(run.setup_raw) if run.setup_raw else None,
                              "wall_s_p50": statistics.median(run.lat_raw) if run.lat_raw else None},
              "samples": samples, "attempted": run.attempted, "failed": run.failed,
              "problems": run.problems[:50]}
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("provenance " + json.dumps(report["provenance"], sort_keys=True))
    label = "untraced half: " if trace else ""
    for name, value in e2e.items():
        print(f"  {label}{name:<22} {_fmt(value):>12} {E2E_UNITS[name]:<6} n={samples[name]}")
    print(f"  wall_s_tail: p{samples['wall_s_tail_percentile']:.1f} (ten ops beyond it), median over "
          f"{len(run.sessions)} session(s) of {samples['wall_s_tail']} ops")
    for problem in run.problems[:10]:
        print(f"FAILED {problem}", file=sys.stderr)

    if trace:
        layers = per_layer(run, import_breakdown(work, deadline))
        metrics = {name: ({"value": v, "unit": u} if v is not None
                          else {"value": None, "unit": u, "absent": True})
                   for name, (v, u) in layers.items()}
        report["per_layer"] = metrics
        report["reconciliation"] = reconciliation(args.workload, run)
        report["predictions"] = predictions()
        (work / "spans.json").write_text(json.dumps(run.dump), encoding="utf-8")
        print(f"per-layer, {len(run.lat_traced)} traced ops (per-op values):")
        for name, (value, unit) in layers.items():
            print(f"  {name:<52} {_fmt(value):>12} {unit}")
        print("reconciliation with the ROADMAP item-1 baseline (ms per call):")
        for row in report["reconciliation"]:
            print(f"  {row['layer']:<28} baseline {row['baseline_ms']:>7g}  traced "
                  f"{_fmt(row['traced_ms_per_call']):>9}  ratio {_fmt(row['ratio']):>7}"
                  f"{'  <-- off by more than 2x' if row['flag'] else ''}")
        print("predicted moves (all other metric/workload pairs: no change):")
        for layer, moves in PREDICTIONS.items():
            print(f"  {layer:<11} " + "; ".join(f"{m} on {', '.join(w)}" for m, w in moves.items()))
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()}
    (work / "report.json").write_text(json.dumps(report, indent=1), encoding="utf-8")

    correct = not run.problems and run.attempted > 0
    print(json.dumps({"correct": correct, "attempted": max(run.attempted, 1),
                      "failed": run.failed if run.attempted else 1, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
