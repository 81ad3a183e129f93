"""Apply each named one-line mutant of ``src/`` and report whether tier-1 kills it.

    python3 tools/mutants.py [NAME ...]

For each mutant of ``MUTANTS`` (or only those named), copies this checkout
without ``.git`` into a temporary directory, replaces the mutant's exact old
text in its file by the new text, and runs the tier-1 suite there with
``-x``.  A mutant is killed when the suite fails, and survives when it
passes.  One line per mutant, then the score; the exit code is 1 when any
mutant survived.  Each surviving mutant costs one full tier-1 run (about 45
s on 2 cores).

The table is mutation analysis in the sense of R. A. DeMillo, R. J. Lipton
and F. G. Sayward, "Hints on test data selection", IEEE Computer 11(4),
1978: each mutant is a small change to one output-moving constant, bound or
branch that the suite should notice.  ``tests/test_mutants.py`` checks that
every old text still occurs exactly once in its file, so the table cannot
rot as the code moves.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".work",
                              "out")


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the checkout
    old: str   # occurs exactly once in the file
    new: str


MUTANTS = [
    Mutant("equiv_sel_5_periods", "src/superosc/cli.py",
           "equiv_sel = times >= 10.0 * 2.0 * math.pi / gap",
           "equiv_sel = times >= 5.0 * 2.0 * math.pi / gap"),
    Mutant("sweep_window_lo", "src/superosc/cli.py",
           "lo, hi = -0.9 * extent, -0.1 * extent",
           "lo, hi = -0.8 * extent, -0.1 * extent"),
    Mutant("focused_grid_pad", "src/superosc/cli.py",
           "def _focused_grid(pair: PairSynthesizer, pad: float = 1.0):",
           "def _focused_grid(pair: PairSynthesizer, pad: float = 0.5):"),
    Mutant("certificate_bound", "src/superosc/cli.py",
           "abs(measured - target) / target <= 0.01",
           "abs(measured - target) / target <= 0.02"),
    Mutant("certificate_bound_strict", "src/superosc/cli.py",
           "abs(measured - target) / target <= 0.01",
           "abs(measured - target) / target < 0.01"),
    Mutant("i3_time", "src/superosc/cli.py",
           "t = 100.0 * math.pi / gap",
           "t = 90.0 * math.pi / gap"),
    Mutant("config_accepts_nan", "src/superosc/cli.py",
           "    if not math.isfinite(value):\n        raise ValueError(\"not a finite number\")\n"
           "    return value",
           "    return value"),
    Mutant("broken_pipe_print", "src/superosc/cli.py",
           "        _say(f\"{experiment}: wrote {record_path}\")",
           "        print(f\"{experiment}: wrote {record_path}\")"),
    Mutant("min_rel_detuning", "src/superosc/dynamics.py",
           "MIN_REL_DETUNING = 0.1 ",
           "MIN_REL_DETUNING = 0.05 "),
    Mutant("detuning_strict", "src/superosc/dynamics.py",
           "np.abs(self.gaps - matched_gap) >= MIN_REL_DETUNING",
           "np.abs(self.gaps - matched_gap) > MIN_REL_DETUNING"),
    Mutant("breakdown_threshold", "src/superosc/dynamics.py",
           "BREAKDOWN_THRESHOLD = 0.1 ",
           "BREAKDOWN_THRESHOLD = 0.2 "),
    Mutant("breakdown_at_threshold", "src/superosc/dynamics.py",
           "self.values > BREAKDOWN_THRESHOLD",
           "self.values >= BREAKDOWN_THRESHOLD"),
    Mutant("spline_margin_4", "src/superosc/dynamics.py",
           "SPLINE_MARGIN = 64 ",
           "SPLINE_MARGIN = 4 "),
    Mutant("moment_switch_20", "src/superosc/dynamics.py",
           "MOMENT_SWITCH = 2.0",
           "MOMENT_SWITCH = 20.0"),
    Mutant("moment_recurrence_sign", "src/superosc/dynamics.py",
           "rec.append((p * rec[-1] - e) / ix)",
           "rec.append((p * rec[-1] + e) / ix)"),
    Mutant("growth_branch_1e-15", "src/superosc/synthesis.py",
           "extra[growth] = np.log(i0e(xi))",
           "extra[growth] = np.log(i0e(xi)) + 1e-15"),
    Mutant("pair_branch_flipped", "src/superosc/synthesis.py",
           "if negative2 != (branch < 0):",
           "if negative2 != (branch > 0):"),
]


def occurrences(m: Mutant) -> int:
    return (ROOT / m.path).read_text(encoding="utf-8").count(m.old)


def killed(m: Mutant) -> bool:
    """Tier-1 with ``-x`` on a mutated copy of the checkout: True when it fails."""
    with tempfile.TemporaryDirectory(prefix="mutant_") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=SKIP)
        path = copy / m.path
        text = path.read_text(encoding="utf-8")
        if text.count(m.old) != 1:
            raise SystemExit(f"{m.name}: old text occurs {text.count(m.old)} times in {m.path}")
        path.write_text(text.replace(m.old, m.new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        env.pop("SUPEROSC_OUT", None)
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                               "--continue-on-collection-errors"], cwd=copy, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        return proc.returncode != 0


def main() -> int:
    names = sys.argv[1:]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutant: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    survivors = []
    for m in chosen:
        dead = killed(m)
        print(f"{m.name}: {'killed' if dead else 'survived'}", flush=True)
        if not dead:
            survivors.append(m.name)
    print(f"score: {len(chosen) - len(survivors)}/{len(chosen)} killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    raise SystemExit(main())
