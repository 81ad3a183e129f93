"""Compare the CLI outputs of two revisions of this repository.

    python3 tools/payload_diff.py REV_A REV_B [--rel-bound R]

Checks out both revisions with ``git worktree add`` into a temporary
directory and runs, on each, every fixture experiment, the two forced
failures and one seeded 100-point ``boost_arccosh`` x ``extent`` sweep, each
from that revision's own ``fixtures/``.  It then compares, file by file:

* each run record, without ``wall_clock_s``;
* each CSV series and ``sweep_points.jsonl``;
* the exit code and stderr of every run.

Each compared file prints "identical", or the largest absolute and relative
change of its numeric fields and the first field that differs in any other
way.  The exit code is 1 when a non-numeric field differs, a field or file is
present on one side only, or a relative change exceeds ``--rel-bound``
(default 0: any change); else 0.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

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
SWEEP_SEED = 41
SWEEP_LADDER = 10  # values per swept key: 10 x 10 points


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


def run_all(tree: Path, out: Path) -> dict[str, dict[str, object]]:
    """Every run on one checkout: run name -> {file name -> parsed content}."""
    env = {k: v for k, v in os.environ.items() if k != "SUPEROSC_OUT"}
    env["PYTHONPATH"] = str(tree / "src")
    results = {}
    for name, experiment, fixture in RUNS:
        config = tree / "fixtures" / fixture
        if name == "sweep":
            config = out / "sweep.cfg"
            _sweep_config(tree / "fixtures" / fixture, config)
        run_dir = out / name
        proc = subprocess.run(
            [sys.executable, "-m", "superosc", experiment, "--config", str(config),
             "--out", str(run_dir), "--quiet"],
            capture_output=True, text=True, env=env, cwd=out,
        )
        files: dict[str, object] = {"exit code": proc.returncode,
                                    "stderr": proc.stderr.splitlines()}
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
        results[name] = files
    return results


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


def compare(a, b) -> tuple[float, str, float, str, str | None]:
    """Largest absolute and relative numeric change, and the first other difference."""
    la, lb = dict(_leaves(a)), dict(_leaves(b))
    max_abs, at_abs, max_rel, at_rel, other = 0.0, "", 0.0, "", None
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
        if diff > max_abs:
            max_abs, at_abs = diff, key
        if rel > max_rel:
            max_rel, at_rel = rel, key
    return max_abs, at_abs, max_rel, at_rel, other


def main(argv: list[str] | None = None) -> int:
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
                sides.append(run_all(tree, tmp / label / "out"))
        finally:
            for label in ("a", "b"):
                if (tmp / label / "tree").exists():
                    subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force",
                                    str(tmp / label / "tree")], check=False)
            subprocess.run(["git", "-C", str(ROOT), "worktree", "prune"], check=False)

    runs_a, runs_b = sides
    failed = changed = False
    print(f"payload diff {args.rev_a} -> {args.rev_b} (rel bound {args.rel_bound:g})")
    for name, _, _ in RUNS:
        files_a, files_b = runs_a[name], runs_b[name]
        for fname in sorted(files_a.keys() | files_b.keys()):
            if fname not in files_a or fname not in files_b:
                print(f"  {name}/{fname}: present on one side only")
                failed = changed = True
                continue
            max_abs, at_abs, max_rel, at_rel, other = compare(files_a[fname], files_b[fname])
            if other is None and max_abs == 0.0:
                print(f"  {name}/{fname}: identical")
                continue
            changed = True
            parts = []
            if max_abs:
                parts.append(f"max abs change {max_abs:.3g} at {at_abs}, "
                             f"max rel change {max_rel:.3g} at {at_rel}")
            if other:
                parts.append(f"differs: {other}")
            print(f"  {name}/{fname}: " + "; ".join(parts))
            failed |= other is not None or max_rel > args.rel_bound
    print("CHANGED beyond bound" if failed else "within bound" if changed else "identical")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
