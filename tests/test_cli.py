import configparser
import contextlib
import gc
import importlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superosc.cli import config_hash, load_config, main, run_experiment

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "src/superosc/schemas/runrecord.schema.json")
    .read_text()
)


def _run(experiment, fixture, out_dir, extra=()):
    os.environ.pop("SUPEROSC_OUT", None)
    rc = main([experiment, "--config", str(FIXTURES / fixture),
               "--out", str(out_dir), "--quiet", *extra])
    return rc


def _record(out_dir, experiment):
    name = experiment.replace("-", "_") + "_record.json"
    return json.loads((Path(out_dir) / name).read_text())


def test_config_hash_stable_under_reordering(tmp_path):
    a = tmp_path / "a.cfg"
    b = tmp_path / "b.cfg"
    a.write_text("[superosc]\namplitude = 1.0\nboost = 1.0\n[window]\nhalf_width = 0\n")
    b.write_text("[window]\nhalf_width = 0\n[superosc]\nboost = 1.0\namplitude = 1.0\n")
    assert config_hash(load_config(a)) == config_hash(load_config(b))
    c = tmp_path / "c.cfg"
    c.write_text("[superosc]\namplitude = 2.0\nboost = 1.0\n[window]\nhalf_width = 0\n")
    assert config_hash(load_config(a)) != config_hash(load_config(c))


@pytest.mark.parametrize(
    "experiment,fixture",
    [
        ("synth", "synth.cfg"),
        ("spectrum", "spectrum_cert.cfg"),
        ("freq-map", "freqmap_cert.cfg"),
        ("transition", "transition.cfg"),
        ("detune", "detune.cfg"),
        ("energy", "energy.cfg"),
        ("sweep", "sweep_boost_ladder.cfg"),
    ],
)
def test_every_record_validates_against_schema(experiment, fixture, tmp_path):
    assert _run(experiment, fixture, tmp_path) == 0
    rec = _record(tmp_path, experiment)
    jsonschema.validate(rec, SCHEMA)


def test_determinism_byte_identical(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert _run("energy", "energy.cfg", out1) == 0
    assert _run("energy", "energy.cfg", out2) == 0
    rec1 = json.loads((out1 / "energy_record.json").read_text())
    rec2 = json.loads((out2 / "energy_record.json").read_text())
    rec1.pop("wall_clock_s")
    rec2.pop("wall_clock_s")
    blob1 = json.dumps(rec1, sort_keys=True)
    blob2 = json.dumps(rec2, sort_keys=True)
    assert blob1 == blob2


def test_exit_code_contract(tmp_path):
    assert _run("energy", "energy.cfg", tmp_path / "ok") == 0
    assert _run("energy", "bad_missing_section.cfg", tmp_path / "bad") == 2
    assert _run("transition", "transition_detuned_assert.cfg", tmp_path / "det") == 3


def test_declared_experiment_mismatch(tmp_path):
    assert _run("detune", "energy.cfg", tmp_path) == 2


def test_missing_config_file(tmp_path):
    assert main(["energy", "--config", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path), "--quiet"]) == 2


def test_console_entry_point(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "SUPEROSC_OUT"}
    proc = subprocess.run(
        [sys.executable, "-m", "superosc", "energy", "--config",
         str(FIXTURES / "energy.cfg"), "--out", str(tmp_path), "--quiet"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "energy_record.json").exists()


# ------------------------------------------------------ the CLI process ----

# `python -m superosc` skips GC passes and interpreter teardown; this command
# runs the same main with both
PLAIN_CLI = [sys.executable, "-c", "from superosc.cli import main; raise SystemExit(main())"]
MODULE_CLI = [sys.executable, "-m", "superosc"]

# run name, experiment, fixture, expected exit code
FIXTURE_RUNS = [
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


def _cli_env():
    """The environment of a CLI child that runs in another directory.

    Without PYTHONUNBUFFERED, stdout through a pipe is block-buffered as by
    default, so a line that is never flushed is lost.
    """
    env = {k: v for k, v in os.environ.items() if k not in ("SUPEROSC_OUT", "PYTHONUNBUFFERED")}
    env["PYTHONPATH"] = os.pathsep.join([str(FIXTURES.parent / "src"),
                                         *filter(None, [env.get("PYTHONPATH")])])
    return env


def _outputs(run_dir):
    """Each file a run wrote, by name; a record without its wall clock."""
    files = {}
    for path in sorted(run_dir.glob("out/*")):
        data = path.read_bytes()
        if path.name.endswith("_record.json"):
            record = json.loads(data)
            record.pop("wall_clock_s")
            data = json.dumps(record, sort_keys=True).encode()
        files[path.name] = data
    return files


@pytest.mark.parametrize("experiment,fixture,code", [
    ("energy", "energy.cfg", 0),
    ("transition", "transition.cfg", 0),  # numpy.ma, deferred, loads mid-run
    ("spectrum", "spectrum_cert.cfg", 0),  # the largest CSV
    ("sweep", "sweep_boost_ladder.cfg", 0),
    ("energy", "bad_missing_section.cfg", 2),
    ("transition", "transition_detuned_assert.cfg", 3),
    ("no-such-experiment", "energy.cfg", 2),  # argparse's SystemExit out of main
])
def test_module_cli_matches_plain_main(experiment, fixture, code, tmp_path):
    # same outputs, stdout, stderr and exit code; a relative --out makes stdout comparable
    args = [experiment, "--config", str(FIXTURES / fixture), "--out", "out"]
    procs = {}
    for name, cmd in (("module", MODULE_CLI), ("plain", PLAIN_CLI)):
        (tmp_path / name).mkdir()
        procs[name] = subprocess.Popen(cmd + args, cwd=tmp_path / name, env=_cli_env(),
                                       stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    done = {name: (proc.communicate(), proc.returncode) for name, proc in procs.items()}
    assert done["module"] == done["plain"]
    (stdout, stderr), got = done["module"]
    assert got == code, stderr
    assert _outputs(tmp_path / "module") == _outputs(tmp_path / "plain")
    if code == 0:  # the one stdout line, whole through the pipe
        assert stdout == f"{experiment}: wrote out/{experiment}_record.json\n".encode()
        assert _outputs(tmp_path / "module")
    else:
        assert stdout == b"" and stderr


@pytest.mark.parametrize("stdout", ["closed", "broken pipe", "broken pipe, unbuffered"])
def test_module_cli_exit_status_on_an_unwritable_stdout(stdout, tmp_path):
    # a closed descriptor leaves sys.stdout None; a pipe with no reader fails the
    # "wrote" line, block-buffered or not: either way each route writes every file
    # and exits with the run's own status, 0, with nothing on stderr
    args = ["energy", "--config", str(FIXTURES / "energy.cfg"), "--out", "out"]
    env = _cli_env()
    if stdout.endswith("unbuffered"):
        env["PYTHONUNBUFFERED"] = "1"
    procs = {}
    for name, cmd in (("module", MODULE_CLI), ("plain", PLAIN_CLI)):
        (tmp_path / name).mkdir()
        if stdout == "closed":
            cmd, write = ["sh", "-c", 'exec "$@" >&-', "sh", *cmd], None
        else:
            read, write = os.pipe()
            os.close(read)
        procs[name] = subprocess.Popen(cmd + args, cwd=tmp_path / name, env=env,
                                       stdout=write, stderr=subprocess.PIPE)
        if write is not None:
            os.close(write)
    done = {name: (proc.communicate()[1], proc.returncode) for name, proc in procs.items()}
    assert done == {"module": (b"", 0), "plain": (b"", 0)}
    assert _outputs(tmp_path / "module") == _outputs(tmp_path / "plain")
    assert "energy_record.json" in _outputs(tmp_path / "module")


def _numpy_modules():
    return {name for name in sys.modules if name.split(".")[0] == "numpy"}


def test_importing_main_module_changes_no_gc_state_and_runs_nothing():
    sys.modules.pop("superosc.__main__", None)
    before = (gc.isenabled(), gc.get_freeze_count(), _numpy_modules())
    module = importlib.import_module("superosc.__main__")
    assert (gc.isenabled(), gc.get_freeze_count(), _numpy_modules()) == before
    assert callable(module.run)


# modules that only the deferred numpy submodules import
DEFERRED_ONLY = ["charset_normalizer", "numpy.f2py.crackfortran", "numpy.testing._private.utils"]


def test_module_cli_runs_without_the_deferred_modules(tmp_path):
    # run() itself, in a child whose os._exit first reports what was loaded
    code = "\n".join([
        "import json, os, sys",
        "from superosc.__main__ import run",
        "exit_now = os._exit",
        "def report(code):",
        f"    print(json.dumps([name in sys.modules for name in {DEFERRED_ONLY!r}]), flush=True)",
        "    exit_now(code)",
        "os._exit = report",
        f"sys.argv = ['superosc', 'transition', '--config', {str(FIXTURES / 'transition.cfg')!r},",
        "            '--out', 'out', '--quiet']",
        "raise SystemExit(run())",
    ])
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=_cli_env(),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [False] * len(DEFERRED_ONLY)
    assert (tmp_path / "out" / "transition_record.json").exists()


def test_deferred_numpy_modules_load_on_first_use():
    code = "\n".join([
        "import json, sys",
        "import superosc.__main__ as entry",
        "bare = sorted(m for m in sys.modules if m.split('.')[0] == 'numpy')",
        "entry._defer()",
        "import superosc.cli",
        "import numpy as np",
        f"deferred = [name in sys.modules for name in {DEFERRED_ONLY!r}]",
        "np.testing.assert_allclose(np.ones(3), np.ones(3))",
        "masked = np.ma.isMaskedArray(np.ma.masked_invalid([1.0, np.nan]))",
        "from numpy.f2py import get_include",
        "print(json.dumps([bare, deferred, masked, bool(get_include()),",
        f"                  [name in sys.modules for name in {DEFERRED_ONLY!r}]]))",
    ])
    proc = subprocess.run([sys.executable, "-c", code], env=_cli_env(), capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    n = len(DEFERRED_ONLY)
    assert json.loads(proc.stdout) == [[], [False] * n, True, True, [True] * n]


def test_every_deferred_module_is_one_a_cli_import_loads():
    # a name the import never loaded would defer nothing
    code = ("import json, sys, superosc.cli; from superosc.__main__ import _DEFERRED; "
            "print(json.dumps([_DEFERRED, [name in sys.modules for name in _DEFERRED]]))")
    proc = subprocess.run([sys.executable, "-c", code], env=_cli_env(), capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    names, loaded = json.loads(proc.stdout)
    assert names and loaded == [True] * len(names)


def test_fixture_runs_leave_no_unclosed_file(tmp_path):
    # `python -m superosc` ends without teardown, where an unclosed file would
    # warn; here every run goes through main in one -X dev interpreter whose
    # ResourceWarnings are errors, and a full collection follows the last run
    code = "\n".join([
        "import gc, sys",
        "from superosc.cli import main",
        f"for name, experiment, fixture, _ in {FIXTURE_RUNS!r}:",
        "    print('-- ' + name, file=sys.stderr, flush=True)",
        f"    code = main([experiment, '--config', {str(FIXTURES)!r} + '/' + fixture,",
        "                 '--out', 'out/' + name, '--quiet'])",
        "    print(name, code)",
        "gc.collect()",
        "print('-- end', file=sys.stderr, flush=True)",
    ])
    proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
                           "-c", code], cwd=tmp_path, env=_cli_env(), capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [f"{name} {want}"
                                        for name, _, _, want in FIXTURE_RUNS]
    sections = proc.stderr.split("-- ")[1:]
    assert [s.split("\n", 1)[0] for s in sections] == [r[0] for r in FIXTURE_RUNS] + ["end"]
    for (name, _, _, want), section in zip(FIXTURE_RUNS, sections):
        lines = section.splitlines()[1:]
        if want == 0:
            assert lines == [], (name, section)
        elif want == 2:
            assert len(lines) == 1 and lines[0].startswith("config error:"), section
        else:  # the failed assertion's line, then the report as JSON
            assert lines[0].startswith("assertion failure:"), section
            json.loads("\n".join(lines[1:]))
    assert sections[-1] == "end\n"


def test_import_superosc_loads_no_numpy_or_scipy():
    code = ("import sys, json, superosc; "
            "bare = sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')); "
            "import superosc.synthesis; "
            "print(json.dumps([bare, 'scipy.interpolate' in sys.modules, "
            "'scipy.special' in sys.modules]))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[], False, True]


def test_lazy_exports_resolve_to_their_defining_modules():
    import superosc

    assert superosc.__all__ and "errors" in superosc.__all__
    listed = dir(superosc)
    for name in superosc.__all__:
        assert name in listed, name
        if name == "errors":
            assert superosc.errors is importlib.import_module("superosc.errors")
            continue
        defining = importlib.import_module(f"superosc.{superosc._EXPORTS[name]}")
        assert getattr(superosc, name) is getattr(defining, name), name
        assert vars(superosc)[name] is getattr(defining, name), name  # kept after first use
    namespace = {}
    exec("from superosc import *", namespace)
    assert set(superosc.__all__) <= namespace.keys()
    with pytest.raises(AttributeError, match="no_such_name"):
        superosc.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from superosc import no_such_name", {})


def test_traced_layers_all_resolve():
    # every function perfbench/tracer.py LAYERS names must still exist, looked
    # up as Tracer.install does it; an absent one reads as a null metric
    root = FIXTURES.parent
    code = ("import json, superosc.cli; from tracer import Tracer; t = Tracer(); "
            "t.install(); print(json.dumps(t.absent))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"),
                                                       str(root / "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, cwd=root)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_import_rows_all_numeric():
    # every -X importtime row perfbench/run.py reports must read as a number
    # for a fresh `import superosc.cli`; a package no longer imported would
    # read as a null metric
    root = FIXTURES.parent
    code = ("import json, subprocess, sys, run; "
            "proc = subprocess.run([sys.executable, '-X', 'importtime', '-c', "
            "'import superosc.cli'], cwd=run.ROOT, env=run.child_env(), "
            "capture_output=True, text=True, check=True); "
            "print(json.dumps({'packages': run.IMPORT_PACKAGES, "
            "'rows': run.parse_importtime(proc.stderr)}))")
    env = dict(os.environ, PYTHONPATH=str(root / "perfbench"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, cwd=root)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    rows = out["rows"]
    assert out["packages"]
    for pkg in out["packages"]:
        for key in (f"import.{pkg.replace('.', '_')}_ms", f"import.{pkg.replace('.', '_')}_self_ms"):
            assert isinstance(rows.get(key), float) and math.isfinite(rows[key]), key
    for key in ("import.total_ms", "import.superosc_self_ms"):
        assert isinstance(rows.get(key), float) and rows[key] > 0.0, key


def test_out_dir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("SUPEROSC_OUT", str(tmp_path / "env_out"))
    assert main(["energy", "--config", str(FIXTURES / "energy.cfg"), "--quiet"]) == 0
    assert (tmp_path / "env_out" / "energy_record.json").exists()


# ------------------------------------------------------------- payloads ----


def test_energy_payload_residual(tmp_path):
    assert _run("energy", "energy.cfg", tmp_path) == 0
    rec = _record(tmp_path, "energy")
    assert abs(rec["payload"]["report"]["residual"]) <= 0.05
    assert rec["payload"]["ladder_non_increasing"]


def test_transition_payload_exponent(tmp_path):
    assert _run("transition", "transition.cfg", tmp_path) == 0
    rec = _record(tmp_path, "transition")
    fit = rec["payload"]["fit"]
    assert 1.95 <= fit["exponent"] <= 2.05
    assert fit["residual_rms"] <= 0.05
    assert rec["payload"]["mono_equivalence_max_dev"] <= 0.05


def test_synth_payload_cross_module_identity(tmp_path):
    assert _run("synth", "synth.cfg", tmp_path) == 0
    rec = _record(tmp_path, "synth")
    assert rec["payload"]["z0_bessel_rel_dev"] <= 1e-12
    gp = rec["payload"]["growth_peak"]
    assert gp["z_rel_dev"] <= 0.05
    assert rec["payload"]["tail_max_over_interior"] < 1e-6


def test_figure_csv_regions(tmp_path):
    assert _run("synth", "synth.cfg", tmp_path) == 0
    assert not (tmp_path / "figure.csv").exists()  # synth_series.csv is the figure data
    lines = (tmp_path / "synth_series.csv").read_text().splitlines()
    assert lines[0] == "z,re,im,region"
    regions = {row.rsplit(",", 1)[1] for row in lines[1:]}
    assert regions == {"superoscillatory", "growth", "farfield"}
    # growth-region maximum sits at the predicted location
    z, mag, reg = [], [], []
    for row in lines[1:]:
        cells = row.split(",")
        z.append(float(cells[0]))
        mag.append(math.hypot(float(cells[1]), float(cells[2])))
        reg.append(cells[3])
    z, mag = np.array(z), np.array(mag)
    grow = np.array([r == "growth" for r in reg])
    i = np.argmax(np.where(grow, mag, -1.0))
    rec = _record(tmp_path, "synth")
    predicted = rec["payload"]["growth_peak"]["z_predicted"]
    assert abs(z[i] - predicted) / predicted <= 0.05


def test_spectrum_payload_certificate(tmp_path):
    assert _run("spectrum", "spectrum_cert.cfg", tmp_path) == 0
    rec = _record(tmp_path, "spectrum")
    assert rec["payload"]["band_energy_fraction"] >= 0.9999
    assert rec["payload"]["band_limited"] is True
    assert rec["payload"]["parseval_rel_residual"] < 1e-6


def test_freqmap_payload(tmp_path):
    assert _run("freq-map", "freqmap_cert.cfg", tmp_path) == 0
    rec = _record(tmp_path, "freq-map")
    assert rec["payload"]["rel_dev"] <= 0.01
    assert rec["payload"]["exceeds_band_limit"] is True


def test_detune_payload_selectivity(tmp_path):
    assert _run("detune", "detune.cfg", tmp_path) == 0
    rec = _record(tmp_path, "detune")
    assert rec["payload"]["selectivity"] >= 100.0
    for ratio in rec["payload"]["ratio_by_probe"].values():
        assert ratio >= 100.0


def test_detune_zero_coupling_exits_2_with_one_line(tmp_path):
    # every P is 0: the ratios are 0/0, refused before any division
    cfg = _edited("detune.cfg", tmp_path, "particle", "coupling", "0")
    env = {k: v for k, v in os.environ.items() if k != "SUPEROSC_OUT"}
    proc = subprocess.run(
        [sys.executable, "-W", "default", "-m", "superosc", "detune", "--config", str(cfg),
         "--out", str(tmp_path / "out"), "--quiet"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("validation error: DegenerateDenominator:")
    assert "RuntimeWarning" not in proc.stderr


@pytest.mark.parametrize("experiment,fixture", [("synth", "synth.cfg"),
                                                ("spectrum", "spectrum_cert.cfg"),
                                                ("freq-map", "freqmap_cert.cfg")])
def test_zero_amplitude_exits_2_with_one_line(experiment, fixture, tmp_path):
    # the zero signal has no log-magnitude, phase or normalized value
    cfg = _edited(fixture, tmp_path, "superosc", "amplitude", "0")
    env = {k: v for k, v in os.environ.items() if k != "SUPEROSC_OUT"}
    proc = subprocess.run(
        [sys.executable, "-W", "default", "-m", "superosc", experiment, "--config", str(cfg),
         "--out", str(tmp_path / "out"), "--quiet"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("validation error: DegenerateDenominator: amplitude = 0:")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("experiment,fixture,section,key,value,message", [
    ("synth", "synth.cfg", "window", "half_width", "1e4",
     "every sample of the growth region (0, 68.5814] underflows to 0"),
    ("spectrum", "spectrum_cert.cfg", "grid", "z_min", "1e8",
     "every sample underflows to 0 on [1e+08, 1.00008e+08]: the signal is identically zero"),
])
def test_underflowed_signal_exits_2_with_one_line(experiment, fixture, section, key, value,
                                                  message, tmp_path):
    # a nonzero amplitude whose samples underflow has no log-magnitude either
    cfg = _edited(fixture, tmp_path, section, key, value)
    env = {k: v for k, v in os.environ.items() if k != "SUPEROSC_OUT"}
    proc = subprocess.run(
        [sys.executable, "-W", "default", "-m", "superosc", experiment, "--config", str(cfg),
         "--out", str(tmp_path / "out"), "--quiet"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith(f"validation error: DegenerateDenominator: {message}")
    assert not (tmp_path / "out").exists()


def test_energy_residual_survives_large_amplitude(tmp_path, capsys):
    # at amplitude 1e4, e_before is 4.7e17, whose ulp (64) exceeds the gap (2):
    # e_after - e_before + gap cancelled to 0 and the residual read -1
    cfg = _edited("energy.cfg", tmp_path, "superosc", "amplitude", "1e4")
    rc, err = _main_err("energy", cfg, tmp_path / "out", capsys)
    assert rc == 0, err
    report = _record(tmp_path / "out", "energy")["payload"]["report"]
    assert report["energy_before"] > 1e17
    i3_over_gap = report["i3"] / report["gap_energy"]
    assert abs(report["residual"] - i3_over_gap) <= 1e-12 * abs(i3_over_gap)


def test_energy_residual_scales_as_inverse_amplitude_squared(tmp_path, capsys):
    # at Omega t = 100 pi, I2 = -E_gap to rounding, so the residual is I3 / E_gap,
    # and I3 divides by the matched-sine denominator, which grows as a^2
    scaled = []
    for amplitude in ("1e-3", "1e4", "1e100"):
        cfg = _edited("energy.cfg", tmp_path, "superosc", "amplitude", amplitude)
        rc, err = _main_err("energy", cfg, tmp_path / amplitude, capsys)
        assert rc == 0, err
        residual = _record(tmp_path / amplitude, "energy")["payload"]["report"]["residual"]
        scaled.append(residual * float(amplitude) ** 2)
    assert max(scaled) - min(scaled) <= 1e-12 * abs(scaled[0]), scaled


# ----------------------------------------------------------------- sweep ----


def test_sweep_boost_ladder(tmp_path):
    assert _run("sweep", "sweep_boost_ladder.cfg", tmp_path) == 0
    points = [json.loads(line)
              for line in (tmp_path / "sweep_points.jsonl").read_text().splitlines()]
    assert len(points) == 3
    measured = [pt["payload"]["measured_wavenumber"] for pt in points]
    for got, want in zip(measured, (1.5, 2.0, 3.0)):
        assert abs(got - want) / want <= 0.01
    assert all(pt["payload"]["certificate_ok"] for pt in points)


def test_sweep_empty_range(tmp_path):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text(
        "[run]\nexperiment = sweep\n"
        "[superosc]\nm_phase = 2000\nboost_arccosh = 3\nextent = 50\n"
        "[sweep]\nboost_arccosh = lin:2:3:0\n"
    )
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
    assert (tmp_path / "sweep_points.jsonl").read_text() == ""
    rec = _record(tmp_path, "sweep")
    assert rec["payload"]["n_points"] == 0


def test_sweep_failures_recorded_without_abort(tmp_path):
    cfg = tmp_path / "mixed.cfg"
    # extent 1e6 violates the window criterion -> per-point error, run goes on
    cfg.write_text(
        "[run]\nexperiment = sweep\n"
        "[superosc]\nm_phase = 2000\nboost_arccosh = 3\nextent = 50\n"
        "[sweep]\nextent = list:50,1000000\n"
    )
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
    points = [json.loads(line)
              for line in (tmp_path / "sweep_points.jsonl").read_text().splitlines()]
    assert len(points) == 2
    assert points[0]["error"] is None
    assert points[1]["error"] is not None
    rec = _record(tmp_path, "sweep")
    assert rec["payload"]["n_failed"] == 1


def test_sweep_delta_ladder_window_extent(tmp_path):
    # finer sharpness admits a longer window: max admissible extent grows
    cfg = tmp_path / "delta.cfg"
    cfg.write_text(
        "[run]\nexperiment = sweep\n"
        "[superosc]\nm_phase = 100\nboost_arccosh = 3\nextent = 5\n"
        "[sweep]\nm_phase = list:100,400,1600\n"
    )
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
    points = [json.loads(line)
              for line in (tmp_path / "sweep_points.jsonl").read_text().splitlines()]
    admissible = [pt["payload"]["max_admissible_extent"] for pt in points]
    assert admissible[0] < admissible[1] < admissible[2]
    assert all(pt["payload"]["certificate_ok"] for pt in points)


@pytest.mark.parametrize("measured,ok", [
    (101.0, True), (math.nextafter(101.0, math.inf), False),
    (99.0, True), (math.nextafter(99.0, -math.inf), False),
])
def test_sweep_certificate_ok_at_the_one_percent_bound(measured, ok, monkeypatch):
    # boost 0 and k0 = 100 make the target wavenumber exactly 100, so a measured
    # 101 or 99 is a rel_dev of exactly 0.01, and one ulp further is past it
    import superosc.cli as cli

    conf = cli._parse({"superosc": {"m_phase": "2000", "boost": "0", "band_limit": "100",
                                    "extent": "5"}})
    monkeypatch.setattr(cli, "window_frequency", lambda s, lo, hi: measured)
    out = cli._sweep_point(conf, {})
    assert out["target_wavenumber"] == 100.0
    assert (out["rel_dev"] == 0.01) is ok
    assert out["certificate_ok"] is ok


@pytest.mark.parametrize("ladder", ["list:5,nan", "lin:1:inf:3"])
def test_sweep_non_finite_ladder_exits_2(ladder, tmp_path, capsys):
    cfg = tmp_path / "nonfinite.cfg"
    cfg.write_text(
        "[run]\nexperiment = sweep\n"
        "[superosc]\nm_phase = 2000\nboost_arccosh = 3\nextent = 50\n"
        f"[sweep]\nextent = {ladder}\n"
    )
    rc = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error:") and "not a finite number" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_zero_boost_window_stays_at_band_limit(tmp_path):
    # degenerate pair: no superoscillation, window frequency = k0
    cfg = tmp_path / "a0.cfg"
    cfg.write_text(
        "[run]\nexperiment = freq-map\n"
        "[superosc]\nm_phase = 2000\nboost = 0\nextent = 50\n"
        "[window]\nhalf_width = 0\n"
        "[freqmap]\nwindow_fraction = 0.8\n"
    )
    assert main(["freq-map", "--config", str(cfg), "--out", str(tmp_path),
                 "--quiet"]) == 0
    rec = _record(tmp_path, "freq-map")
    assert abs(rec["payload"]["measured_wavenumber"] - 1.0) <= 0.01
    assert rec["payload"]["exceeds_band_limit"] is False


def test_env_overrides_flag_and_config(tmp_path, monkeypatch):
    monkeypatch.setenv("SUPEROSC_OUT", str(tmp_path / "env_wins"))
    assert main(["energy", "--config", str(FIXTURES / "energy.cfg"),
                 "--out", str(tmp_path / "flag"), "--quiet"]) == 0
    assert (tmp_path / "env_wins" / "energy_record.json").exists()
    assert not (tmp_path / "flag").exists()


def test_config_output_dir_used(tmp_path, monkeypatch):
    monkeypatch.delenv("SUPEROSC_OUT", raising=False)
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "detune.cfg"
    body = (FIXTURES / "detune.cfg").read_text()
    cfg.write_text(body + "\n[output]\ndir = cfg_out\n")
    assert main(["detune", "--config", str(cfg), "--quiet"]) == 0
    assert (tmp_path / "cfg_out" / "detune_record.json").exists()


def test_malformed_config_exits_2(tmp_path):
    bad = tmp_path / "malformed.cfg"
    bad.write_text("amplitude = 1.0\nno section header above\n")
    assert main(["energy", "--config", str(bad), "--out", str(tmp_path),
                 "--quiet"]) == 2


@pytest.mark.parametrize("fixture,section,key,value", [
    ("synth.cfg", "superosc", "extent", "nan"),
    ("synth.cfg", "superosc", "boost", "inf"),
    ("synth.cfg", "grid", "dz", "nan"),
    ("detune.cfg", "detune", "probes_rel", "0.8,-inf"),
    ("detune.cfg", "particle", "gap", "nan"),
    ("transition.cfg", "particle", "gap", "-1"),
])
def test_non_finite_config_value_exits_2(fixture, section, key, value, tmp_path, capsys):
    cfg = tmp_path / fixture
    lines = [ln for ln in (FIXTURES / fixture).read_text().splitlines()
             if not ln.startswith(f"{key} =")]
    lines.insert(lines.index(f"[{section}]") + 1, f"{key} = {value}")
    cfg.write_text("\n".join(lines) + "\n")
    experiment = fixture.removesuffix(".cfg")
    rc = main([experiment, "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error:") and f"{key} = " in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_write_csv_matches_per_cell_formatting(tmp_path):
    from superosc.cli import _CSV_BLOCK_ROWS, write_csv

    n = 2 * _CSV_BLOCK_ROWS + 3  # two full blocks and a partial one
    rng = np.random.default_rng(7)
    floats = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    floats[:3] = [0.0, -0.0, 1.0]
    ints = rng.integers(-5, 5, n)
    labels = np.array(["growth", "farfield", "superoscillatory"], dtype=object)[ints % 3]
    flags = floats > 0.0
    columns = [floats, ints, labels, flags, rng.standard_normal(n).astype(np.float32)]
    write_csv(tmp_path / "out.csv", ["f", "i", "s", "b", "f32"], columns)

    def cell(v):  # reference: type checked per cell
        if isinstance(v, (str, np.str_)):
            return str(v)
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        return "%.16e" % float(v)

    expected = "f,i,s,b,f32\n" + "".join(
        ",".join(cell(col[i]) for col in columns) + "\n" for i in range(n))
    assert (tmp_path / "out.csv").read_text(encoding="utf-8") == expected


# ------------------------------------------------------ config contract ----


def _edited(fixture, tmp_path, section, key, value):
    """fixtures/<fixture> with [section] key set to value, written under tmp_path."""
    cfg = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cfg.read(FIXTURES / fixture)
    if not cfg.has_section(section):
        cfg.add_section(section)
    cfg[section][key] = value
    path = tmp_path / f"{section}.{key}.cfg"
    with open(path, "w", encoding="utf-8") as fh:
        cfg.write(fh)
    return path


def _main_err(experiment, cfg, out_dir, capsys):
    rc = main([experiment, "--config", str(cfg), "--out", str(out_dir), "--quiet"])
    return rc, capsys.readouterr().err


@pytest.mark.parametrize("fixture,experiment,section,key,value,message", [
    ("transition_detuned_assert.cfg", "transition", "transition", "assert_quadatic", "true",
     "unknown key [transition] assert_quadatic"),
    ("synth.cfg", "synth", "grdi", "dz", "0.1", "unknown section [grdi]"),
    ("transition.cfg", "transition", "transition", "assert_quadratic", "maybe",
     "[transition] assert_quadratic = 'maybe': not a boolean"),
    ("spectrum_cert.cfg", "spectrum", "superosc", "m_phase", "1e3",
     "[superosc] m_phase = '1e3': not an integer"),
    ("transition_detuned_assert.cfg", "transition", "transition", "exponent_range", "1.95",
     "[transition] exponent_range = '1.95': not two values lo < hi"),
    ("transition.cfg", "transition", "transition", "exponent_range", "2.05, 1.95",
     "[transition] exponent_range = '2.05, 1.95': not two values lo < hi"),
    ("transition.cfg", "transition", "transition", "exponent_range", "1.9, 2.0, 2.1",
     "[transition] exponent_range = '1.9, 2.0, 2.1': not two values lo < hi"),
], ids=["key-typo", "section-typo", "assert_quadratic-maybe", "m_phase-1e3", "exponent_range-one",
        "exponent_range-reversed", "exponent_range-three"])
def test_config_typos_exit_2_with_one_message(fixture, experiment, section, key, value,
                                              message, tmp_path, capsys):
    cfg = _edited(fixture, tmp_path, section, key, value)
    rc, err = _main_err(experiment, cfg, tmp_path / "out", capsys)
    assert (rc, err) == (2, f"config error: {message}\n")
    assert not (tmp_path / "out").exists()


def test_config_read_once_per_run(tmp_path, monkeypatch):
    import superosc.cli as cli

    paths = []
    load = cli.load_config
    monkeypatch.setattr(cli, "load_config", lambda path: paths.append(path) or load(path))
    assert _run("synth", "synth.cfg", tmp_path) == 0
    assert paths == [str(FIXTURES / "synth.cfg")]


@pytest.mark.parametrize("fixture,experiment,section,key,value", [
    ("synth.cfg", "synth", "grid", "n_samples", str(2**24 + 1)),
    ("transition.cfg", "transition", "transition", "n_points", "4097"),
    ("freqmap_cert.cfg", "freq-map", "freqmap", "window_fraction", "5"),
    ("freqmap_cert.cfg", "freq-map", "freqmap", "window_fraction", "0"),
    ("sweep_boost_ladder.cfg", "sweep", "sweep", "extent", f"lin:10:20:{10**9}"),
    ("sweep_boost_ladder.cfg", "sweep", "sweep", "extent", "lin:10:20:40000"),  # x 3 boosts
])
def test_oversized_counts_exit_2(fixture, experiment, section, key, value, tmp_path, capsys):
    cfg = _edited(fixture, tmp_path, section, key, value)
    rc, err = _main_err(experiment, cfg, tmp_path / "out", capsys)
    assert rc == 2 and "Traceback" not in err
    assert err.startswith(("config error:", "validation error:"))


@pytest.mark.parametrize("section,key,value,code", [
    ("modes", "uv_cutoff", "1e6", 3),  # I3 grows linearly with the cutoff
    ("energy", "theta_over_pi", "1e6", 0),
    ("energy", "ladder_over_pi", "40,1e9", 0),
])
def test_energy_has_no_count_in_cutoff_or_theta(section, key, value, code, tmp_path, capsys):
    # I3 is in closed form, so a large cutoff or Omega t allocates nothing
    cfg = _edited("energy.cfg", tmp_path, section, key, value)
    rc, err = _main_err("energy", cfg, tmp_path / "out", capsys)
    assert rc == code, err
    if code == 3:
        assert err.startswith("assertion failure: |residual|")


@pytest.mark.parametrize("fixture,experiment,section,key,value", [
    ("synth.cfg", "synth", "superosc", "boost", "800"),
    ("synth.cfg", "synth", "grid", "n_samples", "3"),
    ("transition.cfg", "transition", "transition", "n_points", "0"),
    ("transition.cfg", "transition", "particle", "coupling", "1e200"),
    ("transition.cfg", "transition", "transition", "exponent_range", "1.95"),
    ("energy.cfg", "energy", "modes", "uv_cutoff", "0"),
    ("energy.cfg", "energy", "modes", "uv_cutoff", "1e308"),
    ("energy.cfg", "energy", "energy", "theta_over_pi", "1e300"),
])
def test_run_time_failures_exit_2_without_traceback(fixture, experiment, section, key, value,
                                                    tmp_path, capsys):
    cfg = _edited(fixture, tmp_path, section, key, value)
    rc, err = _main_err(experiment, cfg, tmp_path / "out", capsys)
    assert rc == 2 and "Traceback" not in err
    assert err.startswith(("config error:", "validation error:"))


@pytest.mark.parametrize("fixture,experiment,section,key,value,quantity", [
    ("transition.cfg", "transition", "particle", "coupling", "1e200", "coupling^2"),
    ("energy.cfg", "energy", "energy", "theta_over_pi", "1e300", "theta^2"),
])
def test_overflowing_square_is_named(fixture, experiment, section, key, value, quantity,
                                     tmp_path, capsys):
    cfg = _edited(fixture, tmp_path, section, key, value)
    rc, err = _main_err(experiment, cfg, tmp_path / "out", capsys)
    assert rc == 2 and len(err.splitlines()) == 1, err
    assert err.startswith(f"validation error: DomainError: {quantity} overflows a double")


@pytest.mark.parametrize("experiment,amplitude,quantity", [
    ("transition", "1e250", "P = g^2 |A|^2 overflows a double on the probability curve"),
    ("detune", "1e250", "P = g^2 |A|^2 overflows a double in the detuning scan"),
    ("energy", "1e250", "the field energy overflows a double"),
    ("energy", "1e305", "a coherent amplitude alpha overflows a double"),
    ("energy", "1e307", "the spectrum of samples up to"),
    ("detune", "1e307", "the detector amplitude A overflows a double"),
    ("transition", "1e307", "the detector amplitude A overflows a double"),
])
def test_overflowing_amplitude_exits_2_with_one_line(experiment, amplitude, quantity,
                                                     tmp_path, capsys):
    # the pair stages are linear in the amplitude, so P and the field energy scale as a^2;
    # RuntimeWarning is an error here, so a warning on the way would fail the run
    cfg = _edited(f"{experiment}.cfg", tmp_path, "superosc", "amplitude", amplitude)
    rc, err = _main_err(experiment, cfg, tmp_path / "out", capsys)
    assert rc == 2 and len(err.splitlines()) == 1, err
    assert err.startswith(f"validation error: DomainError: {quantity}")
    assert not (tmp_path / "out").exists()


# Payload values that do not depend on the amplitude, with how closely a
# rescaled run must reproduce the fixture's: relative, or absolute for values
# that sit at rounding level.
SCALE_FREE = {
    "spectrum": ("spectrum_cert.cfg", {"leakage": "abs", "parseval_rel_residual": "abs"}),
    "freq-map": ("freqmap_cert.cfg", {"rel_dev": "rel"}),
    "transition": ("transition.cfg", {"fit.exponent": "rel", "fit.residual_rms": "rel"}),
    "detune": ("detune.cfg", {"selectivity": "rel"}),
}


def _payload_value(payload, path):
    for key in path.split("."):
        payload = payload[key]
    return payload


@pytest.mark.parametrize("experiment", sorted(SCALE_FREE))
def test_amplitude_changes_no_scale_free_output(experiment, tmp_path, capsys):
    # every pair stage is linear in the amplitude: a rescaled run is refused
    # with one line, or it reproduces the fixture's scale-free values;
    # RuntimeWarning is an error here, so a warning on the way fails the run
    fixture, fields = SCALE_FREE[experiment]
    assert _run(experiment, fixture, tmp_path / "ref") == 0
    ref = _record(tmp_path / "ref", experiment)["payload"]
    matched = 0
    for amplitude in ("1e-100", "1e-8", "1e4", "1e8", "1e100", "1e250"):
        cfg = _edited(fixture, tmp_path, "superosc", "amplitude", amplitude)
        out = tmp_path / f"a{amplitude}"
        rc, err = _main_err(experiment, cfg, out, capsys)
        if rc == 2:
            assert len(err.splitlines()) == 1, (amplitude, err)
            continue
        assert rc == 0, (amplitude, err)
        matched += 1
        got = _record(out, experiment)["payload"]
        for path, kind in fields.items():
            want = _payload_value(ref, path)
            bound = 1e-12 * (abs(want) if kind == "rel" else 1.0)
            assert abs(_payload_value(got, path) - want) <= bound, (amplitude, path)
    assert matched > 0


def test_sweep_records_zero_amplitude_point_and_goes_on(tmp_path, capsys):
    cfg = _edited("sweep_boost_ladder.cfg", tmp_path, "sweep", "amplitude", "list:0,1")
    rc, err = _main_err("sweep", cfg, tmp_path, capsys)
    assert rc == 0, err
    points = [json.loads(line)
              for line in (tmp_path / "sweep_points.jsonl").read_text().splitlines()]
    assert len(points) == 6
    for pt in points:
        if pt["point"]["amplitude"] == 0.0:
            assert pt["error"].startswith("DegenerateDenominator: amplitude = 0:")
        else:
            assert pt["error"] is None and pt["payload"]["certificate_ok"]


def test_sweep_records_overflowing_point_and_goes_on(tmp_path, capsys):
    # a swept boost takes the place of the fixture's boost_arccosh ladder
    cfg = _edited("sweep_boost_ladder.cfg", tmp_path, "sweep", "boost", "list:1,800")
    rc, err = _main_err("sweep", cfg, tmp_path, capsys)
    assert rc == 0, err
    errors = [json.loads(line)["error"]
              for line in (tmp_path / "sweep_points.jsonl").read_text().splitlines()]
    assert errors[0::2] == [None] * 3
    assert all(e.startswith("OverflowError") for e in errors[1::2]) and len(errors) == 6


def test_sweep_refuses_overflowing_points_before_their_grids(tmp_path, capsys):
    # boost_arccosh from 1e7 down: two focused grids past 2^24 samples, three of
    # 5-15 million samples that overflow, and an arccosh below 1.  Every point is
    # refused, and none of the three grids is built (building them took ~7 s, 1.5 GB)
    from superosc import synthesis

    cfg = _edited("sweep_boost_ladder.cfg", tmp_path, "sweep", "boost_arccosh",
                  "lin:10000000.0:5.614256353455677e-13:6")
    synthesis._unit_pair.cache_clear()
    rc, err = _main_err("sweep", cfg, tmp_path, capsys)
    assert rc == 0, err
    errors = [json.loads(line)["error"]
              for line in (tmp_path / "sweep_points.jsonl").read_text().splitlines()]
    assert [e.split(":")[0] for e in errors] == (["ValueError"] * 2 + ["OverflowRegime"] * 3
                                                 + ["ValueError"])
    info = synthesis._unit_pair.cache_info()
    assert (info.misses, info.currsize) == (3, 0)  # three cold lookups, no entry


def test_record_json_refuses_non_finite():
    from superosc.cli import RunRecord

    with pytest.raises(ValueError):
        RunRecord(experiment="synth", config_hash="", payload={"x": float("nan")}).to_json()


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


# one fixture that reads each section; [superosc] boost and delta only synth reads
_READER = {"run": "sweep_boost_ladder.cfg", "output": "sweep_boost_ladder.cfg",
           "superosc": "freqmap_cert.cfg", "window": "freqmap_cert.cfg",
           "grid": "freqmap_cert.cfg", "spectrum": "spectrum_cert.cfg",
           "freqmap": "freqmap_cert.cfg", "particle": "transition.cfg",
           "transition": "transition.cfg", "detune": "detune.cfg", "modes": "energy.cfg",
           "energy": "energy.cfg", "sweep": "sweep_boost_ladder.cfg"}
_EXTREMES = ("nan", "inf", "-inf", "0", "-1", "1e308", str(10**30))


def test_every_key_at_extreme_values_keeps_exit_contract(tmp_path, capsys):
    """Each key of the table, set to each extreme in one fixture that reads it: the
    run exits 0, 2 or 3 without a traceback, a failed run writes nothing, and a
    successful one writes finite JSON only."""
    from superosc.cli import _KEYS

    bad = []
    for i, ((section, key), (kind, _, _)) in enumerate(_KEYS.items()):
        fixture = _READER[section]
        if (section, key) in (("superosc", "boost"), ("superosc", "delta")):
            fixture = "synth.cfg"
        experiment = load_config(FIXTURES / fixture)["run"]["experiment"].strip()
        for j, extreme in enumerate(_EXTREMES):
            value = f"list:{extreme}" if kind == "ladder" else extreme
            case = tmp_path / f"{i}_{j}"
            case.mkdir()
            cfg = _edited(fixture, case, section, key, value)
            if key == "box_length" and section == "sweep":  # box_length needs a cutoff
                cfg.write_text(cfg.read_text() + "[modes]\nuv_cutoff = 50\n")
            rc, err = _main_err(experiment, cfg, case / "out", capsys)
            where = f"[{section}] {key} = {value} ({fixture}): exit {rc}"
            if rc not in (0, 2, 3) or "Traceback" in err:
                bad.append(f"{where}: {err.strip()[-200:]}")
            elif rc and (case / "out").exists():
                bad.append(f"{where}: a failed run wrote {sorted(os.listdir(case / 'out'))}")
            elif rc == 0:
                for path in (case / "out").glob("*.json*"):
                    text = path.read_text()
                    docs = text.splitlines() if path.suffix == ".jsonl" else [text]
                    try:
                        for doc in docs:
                            json.loads(doc, parse_constant=_reject_constant)
                    except ValueError as exc:
                        bad.append(f"{where}: {path.name}: {exc}")
    assert not bad, "\n".join(bad)


# caps that keep one drawn run well under a second
_COUNT_CAPS = {("grid", "n_samples"): 2**15, ("transition", "n_points"): 256}
_MAX_LIST = 8  # values per ladder or float list


def _float_text(span, current):
    """A finite float inside span, or the fixture's own value scaled by up to 10^+-3."""
    lo, hi = (None, None) if span is None else (float(e) for e in span[1:-1].split(","))
    anywhere = st.floats(min_value=lo, max_value=None if hi == math.inf else hi,
                         exclude_min=bool(span) and span[0] == "(",
                         exclude_max=bool(span) and span[-1] == ")" and hi != math.inf,
                         allow_nan=False, allow_infinity=False)
    try:
        base = float(current)
    except (TypeError, ValueError):
        return anywhere.map(repr)
    return st.one_of(anywhere, st.floats(-3.0, 3.0).map(lambda u: base * 10.0**u)).map(repr)


def _key_text(section, key, current):
    """A config string for one ``_KEYS`` row, drawn from that row's range."""
    from superosc.cli import _KEYS, EXPERIMENTS

    kind, _, span = _KEYS[section, key]
    if kind == "float":
        return _float_text(span, current)
    if kind == "gap":
        return st.one_of(st.just("matched"), _float_text(span, None))
    if kind == "int":
        lo, hi = ((-2**15, 2**15) if span is None
                  else (int(float(e)) for e in span[1:-1].split(",")))
        return st.integers(lo, min(hi, _COUNT_CAPS.get((section, key), hi))).map(str)
    if kind == "bool":
        return st.sampled_from(["true", "false", "yes", "0"])
    if kind in ("floats", "pair"):
        size = (2, 2) if kind == "pair" else (1, _MAX_LIST)
        return st.lists(_float_text(None, None), min_size=size[0],
                        max_size=size[1]).map(",".join)
    if kind == "ladder":
        spaced = st.tuples(st.sampled_from(["lin", "log"]), _float_text(None, None),
                           _float_text(None, None), st.integers(0, _MAX_LIST))
        return st.one_of(spaced.map(lambda t: ":".join(map(str, t))),
                         st.lists(_float_text(None, None), min_size=1,
                                  max_size=_MAX_LIST).map(lambda v: "list:" + ",".join(v)))
    return st.sampled_from(EXPERIMENTS if key == "experiment" else ["out"])  # str


@pytest.mark.parametrize("fixture", sorted(p.name for p in FIXTURES.glob("*.cfg")))
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_random_key_edits_keep_exit_contract(fixture, data):
    """2-3 keys of the table, each drawn from its range, edited into a fixture: the
    run exits 0, 2 or 3, with one stderr line on exit 2 and no warning; a failed
    run writes nothing, and a successful one writes finite JSON only."""
    from superosc.cli import _KEYS

    cfg = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cfg.read(FIXTURES / fixture)
    experiment = cfg["run"]["experiment"].strip()
    keys = data.draw(st.lists(st.sampled_from(sorted(_KEYS)), min_size=2, max_size=3,
                              unique=True), label="keys")
    for section, key in keys:
        if not cfg.has_section(section):
            cfg.add_section(section)
        cfg[section][key] = data.draw(_key_text(section, key, cfg[section].get(key)),
                                      label=f"[{section}] {key}")
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "edited.cfg", Path(tmp) / "out"
        with open(path, "w", encoding="utf-8") as fh:
            cfg.write(fh)
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            rc = main([experiment, "--config", str(path), "--out", str(out), "--quiet"])
        lines = err.getvalue().splitlines()
        assert rc in (0, 2, 3), lines
        assert not caught, [str(w.message) for w in caught]
        if rc == 2:
            assert len(lines) == 1, lines
        if rc:
            assert not out.exists(), sorted(os.listdir(out))
            return
        for record in out.glob("*.json*"):
            docs = record.read_text().splitlines() if record.suffix == ".jsonl" else [
                record.read_text()]
            for doc in docs:
                json.loads(doc, parse_constant=_reject_constant)
