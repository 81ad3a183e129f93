"""Regenerate the golden outputs of tests/test_golden.py from the working tree.

    python3 tools/golden.py

Runs every entry of ``payload_diff.RUNS`` (each fixture experiment, both
forced failures and the seeded 100-point sweep) in this interpreter, on
``src/`` and ``fixtures/`` of this checkout, by ``payload_diff.run_in_process``,
and writes each run's outputs, series thinned by ``payload_diff.thinned``, to
``tests/golden/<fixture>.json``.  A golden file changes only together with a
CHANGES.md line that says what moved and why.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


def golden_path(fixture: str) -> Path:
    return GOLDEN / f"{Path(fixture).stem}.json"


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tools")]
    import payload_diff

    os.environ.pop("SUPEROSC_OUT", None)
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="golden_") as tmp:
        for name, _, fixture in payload_diff.RUNS:
            files = payload_diff.thinned(payload_diff.run_in_process(name, Path(tmp)))
            path = golden_path(fixture)
            path.write_text(json.dumps(files, indent=1, sort_keys=True) + "\n", encoding="utf-8")
            print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
