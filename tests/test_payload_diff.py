"""The comparison rules of tools/payload_diff.py, on hand-made outputs."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import payload_diff  # noqa: E402


def test_report_applies_the_bound_to_the_largest_relative_change():
    side_a = {"op0.fit": [2.0, 1.0], "op1.fit": [2.0, 1.0], "op0.check": []}
    side_b = {"op0.fit": [2.0, 1.0], "op1.fit": [2.0 + 2e-6, 1.0]}
    result = payload_diff.compare(side_a, side_b)
    assert result[3] == "op1.fit[0]" and result[4] is None  # an empty list has no leaves
    line, changed, failed = payload_diff._report("fit", result, rel_bound=1e-5)
    assert (changed, failed) == (True, False) and "max rel change 1e-06 at op1.fit[0]" in line
    assert payload_diff._report("fit", result, rel_bound=0.0)[1:] == (True, True)
    same = payload_diff.compare(side_a, dict(side_a))
    assert payload_diff._report("fit", same, rel_bound=0.0) == ("fit: identical", False, False)
    missing = payload_diff.compare({"op0.check": ["ok"]}, {})
    assert payload_diff._report("check", missing, rel_bound=1.0)[1:] == (True, True)

