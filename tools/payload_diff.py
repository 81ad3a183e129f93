"""Compare the CLI outputs of two revisions of this repository.

    python3 tools/payload_diff.py REV_A REV_B [--rel-bound R]

Checks out both revisions with ``git worktree add`` into a temporary
directory and runs, on each, every fixture experiment, the two forced
failures and one seeded 100-point ``boost_arccosh`` x ``extent`` sweep, each
from that revision's own ``fixtures/``.  It then compares, file by file:

* each run record, without ``wall_clock_s``;
* each CSV series and ``sweep_points.jsonl``;
* the exit code, stdout and stderr of every run.  Every run but one is
  ``--quiet``; the ``STDOUT_RUN`` run prints its "wrote" line, with the
  output directory written as ``<out>``.  The runs' stdout is block-buffered
  (PYTHONUNBUFFERED is dropped), so a line the process loses at exit shows.

It also runs WARM_OPS (4) seeded draws of the ``pipeline_warm`` benchmark op
on each revision, in a fresh interpreter that imports that revision's own
``perfbench/worker.py`` and ``src/``, and compares each output of
``Pipeline.run`` over all draws: the certificate leakage and
``freq_rel_dev``, the fit, the detune selectivities, the energy residual and
ladder, and the signal and field arrays, as well as what ``Pipeline.check``
reports.  The draws come from the WARM_SEED (41) stream of worker index 0.

Stderr is compared token by token: each line is split into numbers and the
text between them, so that a number printed in a message compares as a
number.

Each compared file or output prints "identical", or the largest absolute and
relative change of its numeric fields, the largest change against the max
|value| of the field's array, and the first field that differs in any other
way.  A field's array is every numeric field whose path differs from it only
in the first list index: a CSV column, one op's output array, a record
list's entries.  The relative change of a value near zero can be large for a
rounding-level move; against the array's max it cannot.  The exit code is 1
when a non-numeric field differs, a field or file is present on one side
only, or a relative change exceeds ``--rel-bound`` (default 0: any change);
else 0.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from typing import NamedTuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

# run name, experiment, fixture
RUNS = [
    ("synth", "synth", "synth.cfg"),
    ("spectrum", "spectrum", "spectrum_cert.cfg"),
    ("freq-map", "freq-map", "freqmap_cert.cfg"),
    ("transition", "transition", "transition.cfg"),
    ("detune", "detune", "detune.cfg"),
    ("energy", "energy", "energy.cfg"),
    ("sweep", "sweep", "sweep_boost_ladder.cfg"),
    ("transition_detuned_assert", "transition", "transition_detuned_assert.cfg"),
    ("bad_missing_section", "energy", "bad_missing_section.cfg"),
]
STDOUT_RUN = "energy"  # the one run made without --quiet
SWEEP_SEED = 41
SWEEP_LADDER = 10  # values per swept key: 10 x 10 points
WARM_OPS = 4  # pipeline_warm draws per revision
WARM_SEED = 41
GOLDEN_ROWS = 4096  # rows a golden series keeps; see ``thinned``
# a number standing alone in a line of text: not part of a word or a hex digest
_NUMBER = re.compile(r"(?<![\w.])([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)(?![\w.])")


def _tokens(line: str) -> list[str]:
    """A line as alternating text and number tokens (text first, possibly empty)."""
    return _NUMBER.split(line)


def _sweep_config(fixture: Path, path: Path) -> None:
    """The fixture with a seeded boost_arccosh x extent ladder as its [sweep]."""
    cfg = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cfg.read(fixture)
    rng = random.Random(SWEEP_SEED)
    boosts = [rng.uniform(1.5, 5.0) for _ in range(SWEEP_LADDER)]
    extents = [rng.uniform(10.0, 100.0) for _ in range(SWEEP_LADDER)]
    cfg["sweep"] = {"boost_arccosh": "list:" + ",".join(f"{b:.6g}" for b in boosts),
                    "extent": "list:" + ",".join(f"{e:.6g}" for e in extents)}
    with open(path, "w", encoding="utf-8") as fh:
        cfg.write(fh)


def _config(tree: Path, name: str, fixture: str, out: Path) -> Path:
    """The config of one run: the fixture, or for the sweep its seeded copy in ``out``."""
    config = tree / "fixtures" / fixture
    if name == "sweep":
        _sweep_config(config, out / "sweep.cfg")
        return out / "sweep.cfg"
    return config


def _outputs(run_dir: Path, code: int, stdout: str, stderr: str) -> dict[str, object]:
    """One run's exit code, stdout, stderr and files, parsed: file name -> content."""
    files: dict[str, object] = {"exit code": code,
                                "stdout": stdout.replace(str(run_dir), "<out>"),
                                "stderr": [_tokens(line) for line in stderr.splitlines()]}
    for path in sorted(run_dir.glob("*")) if run_dir.is_dir() else []:
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".json":
            record = json.loads(text)
            record.pop("wall_clock_s", None)
            files[path.name] = record
        elif path.suffix == ".jsonl":
            files[path.name] = [json.loads(line) for line in text.splitlines()]
        else:
            files[path.name] = list(csv.reader(io.StringIO(text)))
    return files


def run_all(tree: Path, out: Path) -> dict[str, dict[str, object]]:
    """Every run on one checkout: run name -> {file name -> parsed content}."""
    # without PYTHONUNBUFFERED, stdout into the pipe is block-buffered, as by default
    env = {k: v for k, v in os.environ.items() if k not in ("SUPEROSC_OUT", "PYTHONUNBUFFERED")}
    env["PYTHONPATH"] = str(tree / "src")
    results = {}
    for name, experiment, fixture in RUNS:
        run_dir = out / name
        proc = subprocess.run(
            [sys.executable, "-m", "superosc", experiment,
             "--config", str(_config(tree, name, fixture, out)),
             "--out", str(run_dir)] + ([] if name == STDOUT_RUN else ["--quiet"]),
            capture_output=True, text=True, env=env, cwd=out,
        )
        results[name] = _outputs(run_dir, proc.returncode, proc.stdout, proc.stderr)
    return results


def run_in_process(name: str, out: Path) -> dict[str, object]:
    """One run of RUNS through this interpreter's ``superosc.cli.main``, ``--quiet``,
    with RuntimeWarning raised as an error; its outputs as ``run_all`` gives them.

    The configs come from ROOT's ``fixtures/``; SUPEROSC_OUT must be unset.
    """
    from superosc.cli import main

    _, experiment, fixture = next(run for run in RUNS if run[0] == name)
    run_dir = out / name
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("error", RuntimeWarning)
        code = main([experiment, "--config", str(_config(ROOT, name, fixture, out)),
                     "--out", str(run_dir), "--quiet"])
    return _outputs(run_dir, code, "", err.getvalue())


def thinned(files: dict[str, object]) -> dict[str, object]:
    """A run's outputs with each CSV series over GOLDEN_ROWS rows thinned.

    Such a series keeps its header, every k-th row (k the smallest step that
    keeps at most GOLDEN_ROWS), its row count, and as a last row its column
    sums (``math.fsum``; None for a text column), so that a change anywhere
    in a column still moves a kept value.  Under ``compare``, a kept column
    and its sum form one array.
    """
    out = dict(files)
    for fname, rows in files.items():
        if not fname.endswith(".csv") or len(rows) - 1 <= GOLDEN_ROWS:
            continue
        header, body = rows[0], rows[1:]
        every = -(-len(body) // GOLDEN_ROWS)
        sums = []
        for col in zip(*body):
            values = [_number(cell) for cell in col]
            sums.append(None if any(math.isnan(v) for v in values) else math.fsum(values))
        out[fname] = {"n_rows": len(body), "every": every,
                      "rows": [header, *body[::every], sums]}
    return out


def _warm_child(tree: str, out: str) -> None:
    """In a fresh interpreter: run WARM_OPS pipeline_warm draws of ``tree``, save to ``out``.

    Every output of ``Pipeline.run`` is saved flat, as ``op<i>.<name>``: a
    dataclass by its fields, a list or array as an array.
    """
    sys.path[:0] = [str(Path(tree) / "perfbench"), str(Path(tree) / "src")]
    import superosc
    import worker

    wl = worker.Pipeline(superosc, random.Random(f"pipeline_warm:{WARM_SEED}:0"))
    flat: dict[str, np.ndarray] = {}
    for i in range(WARM_OPS):
        d = wl.draw()
        out_i = wl.run(d)
        fields = dict(d)
        for name, value in out_i.items():
            if dataclasses.is_dataclass(value):
                fields.update({f"{name}.{k}": v for k, v in dataclasses.asdict(value).items()})
            else:
                fields[name] = value
        fields["check"] = np.array(wl.check(d, out_i), dtype=str)
        flat.update({f"op{i}.{name}": np.asarray(v) for name, v in fields.items()})
    np.savez(out, **flat)


def run_warm(tree: Path, out: Path) -> dict[str, np.ndarray]:
    """The pipeline_warm outputs of one checkout, from a child interpreter."""
    path = out / "warm.npz"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    subprocess.run([sys.executable, __file__, "--warm-child", str(tree), str(path)],
                   check=True, env=env, cwd=out)
    with np.load(path) as data:
        return {key: data[key] for key in data.files}


class Change(NamedTuple):
    """What ``compare`` found between two outputs."""

    max_abs: float
    at_abs: str
    max_rel: float  # against the larger of the two values
    at_rel: str
    other: str | None  # the first non-numeric difference
    max_scaled: float  # against the max |value| of the field's array
    at_scaled: str


def _report(label: str, result: Change, rel_bound: float) -> tuple[str, bool, bool]:
    """One printed line for a compare result, and whether it changed and failed."""
    if result.other is None and result.max_abs == 0.0:
        return f"{label}: identical", False, False
    parts = []
    if result.max_abs:
        parts.append(f"max abs change {result.max_abs:.3g} at {result.at_abs}, "
                     f"max rel change {result.max_rel:.3g} at {result.at_rel}, "
                     f"max change over its array's max {result.max_scaled:.3g} "
                     f"at {result.at_scaled}")
    if result.other:
        parts.append(f"differs: {result.other}")
    return (f"{label}: " + "; ".join(parts), True,
            result.other is not None or result.max_rel > rel_bound)


def _leaves(obj, path: str = ""):
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _leaves(obj[key], f"{path}.{key}" if path else str(key))
    elif isinstance(obj, list):
        for i, item in enumerate(obj):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, obj


def _number(value) -> float:
    """A JSON number or a CSV cell as a float; NaN for anything else."""
    if isinstance(value, bool):
        return math.nan
    try:
        return float(value)
    except (TypeError, ValueError):
        return math.nan


def _array_of(key: str) -> str:
    """The array a field belongs to: its path with the first list index a wildcard."""
    return re.sub(r"\[\d+\]", "[*]", key, count=1)


def compare(a, b) -> Change:
    """Largest absolute, relative and array-scaled numeric change, and the first other
    difference."""
    la, lb = dict(_leaves(a)), dict(_leaves(b))
    peaks: dict[str, float] = {}  # max finite |value| per array, over both sides
    for leaves in (la, lb):
        for key, value in leaves.items():
            x = abs(_number(value))
            if x < math.inf:
                array = _array_of(key)
                peaks[array] = max(peaks.get(array, 0.0), x)
    max_abs, at_abs, max_rel, at_rel, other = 0.0, "", 0.0, "", None
    max_scaled, at_scaled = 0.0, ""
    for key in sorted(la.keys() | lb.keys()):
        if key not in la or key not in lb:
            other = other or f"{key} present on one side only"
            continue
        va, vb = la[key], lb[key]
        if va == vb and type(va) is type(vb):
            continue
        xa, xb = _number(va), _number(vb)
        diff = abs(xa - xb)
        if not diff > 0.0:  # not numbers, or one value written as another type
            other = other or f"{key or 'value'}: {va!r} != {vb!r}"
            continue
        rel = diff / max(abs(xa), abs(xb))
        scaled = diff / (peaks.get(_array_of(key)) or max(abs(xa), abs(xb)))
        if diff > max_abs:
            max_abs, at_abs = diff, key
        if rel > max_rel:
            max_rel, at_rel = rel, key
        if scaled > max_scaled:
            max_scaled, at_scaled = scaled, key
    return Change(max_abs, at_abs, max_rel, at_rel, other, max_scaled, at_scaled)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--warm-child"]:
        _warm_child(*argv[1:])
        return 0
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("rev_a")
    ap.add_argument("rev_b")
    ap.add_argument("--rel-bound", type=float, default=0.0)
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="payload_diff_") as tmp:
        tmp = Path(tmp)
        sides = []
        try:
            for label, rev in (("a", args.rev_a), ("b", args.rev_b)):
                tree = tmp / label / "tree"
                subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet",
                                str(tree), rev], check=True)
                (tmp / label / "out").mkdir()
                sides.append((run_all(tree, tmp / label / "out"),
                              run_warm(tree, tmp / label / "out")))
        finally:
            for label in ("a", "b"):
                if (tmp / label / "tree").exists():
                    subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force",
                                    str(tmp / label / "tree")], check=False)
            subprocess.run(["git", "-C", str(ROOT), "worktree", "prune"], check=False)

    (runs_a, warm_a), (runs_b, warm_b) = sides
    failed = changed = False
    print(f"payload diff {args.rev_a} -> {args.rev_b} (rel bound {args.rel_bound:g})")
    for name, _, _ in RUNS:
        files_a, files_b = runs_a[name], runs_b[name]
        for fname in sorted(files_a.keys() | files_b.keys()):
            if fname not in files_a or fname not in files_b:
                print(f"  {name}/{fname}: present on one side only")
                failed = changed = True
                continue
            line, moved, bad = _report(f"  {name}/{fname}",
                                       compare(files_a[fname], files_b[fname]), args.rel_bound)
            print(line)
            changed, failed = changed or moved, failed or bad
    outputs: dict[str, list[str]] = {}
    for key in sorted(warm_a.keys() | warm_b.keys()):
        outputs.setdefault(key.split(".", 1)[1], []).append(key)
    for name, keys in sorted(outputs.items()):
        side_a = {key: warm_a[key].tolist() for key in keys if key in warm_a}
        side_b = {key: warm_b[key].tolist() for key in keys if key in warm_b}
        line, moved, bad = _report(f"  pipeline_warm/{name} ({len(keys)} ops)",
                                   compare(side_a, side_b), args.rel_bound)
        print(line)
        changed, failed = changed or moved, failed or bad
    print("CHANGED beyond bound" if failed else "within bound" if changed else "identical")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
