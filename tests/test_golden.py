"""Every fixture run's outputs against the golden files in tests/golden/.

Each run of ``tools/payload_diff.py``'s RUNS goes through ``cli.main`` in
this process, with RuntimeWarning raised as an error, and is compared file
by file with ``payload_diff.compare``: a record, the sweep points, the exit
code and stderr within 1e-12 relative per number; a CSV series within 1e-12
of each column's max.  A long series is compared thinned (``payload_diff.thinned``).
An intended change regenerates the files with ``python3 tools/golden.py``.
"""

import json
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(TOOLS))

import golden  # noqa: E402
import payload_diff  # noqa: E402

REL_BOUND = 1e-12  # per number, and per series value against its column's max


@pytest.mark.parametrize("name,fixture", [(name, fixture) for name, _, fixture in
                                          payload_diff.RUNS],
                         ids=[name for name, _, _ in payload_diff.RUNS])
def test_fixture_outputs_match_golden(name, fixture, tmp_path, monkeypatch):
    monkeypatch.delenv("SUPEROSC_OUT", raising=False)
    want = json.loads(golden.golden_path(fixture).read_text(encoding="utf-8"))
    got = json.loads(json.dumps(payload_diff.thinned(payload_diff.run_in_process(name, tmp_path))))
    bad = []
    for fname in sorted(want.keys() | got.keys()):
        if fname not in want or fname not in got:
            bad.append(f"{fname}: present on one side only")
            continue
        change = payload_diff.compare(want[fname], got[fname])
        moved = change.max_scaled if fname.endswith(".csv") else change.max_rel
        if change.other is not None or moved > REL_BOUND:
            bad.append(payload_diff._report(fname, change, REL_BOUND)[0])
    assert not bad, ("outputs differ from tests/golden/; if the change is intended, "
                     "regenerate with `python3 tools/golden.py`:\n" + "\n".join(bad))
