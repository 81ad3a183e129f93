"""The comparison rules of tools/payload_diff.py, on hand-made outputs."""

import math
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


def test_change_against_the_array_max_ignores_near_zero_elements():
    # a CSV column and an op's output array: a near-zero element moves by 1e-20,
    # a third of itself but 1e-17 of its array's max
    rows_a = [["z", "re"], ["-800.0", "1.0e-03"], ["0.0", "2.0e-20"]]
    rows_b = [["z", "re"], ["-800.0", "1.0e-03"], ["0.0", "3.0e-20"]]
    for side_a, side_b, at in ((rows_a, rows_b, "[2][1]"),
                               ({"op0.field": [1e-3, 2e-20]}, {"op0.field": [1e-3, 3e-20]},
                                "op0.field[1]")):
        result = payload_diff.compare(side_a, side_b)
        assert (result.at_rel, result.at_scaled, result.other) == (at, at, None)
        assert math.isclose(result.max_rel, 1.0 / 3.0)
        assert math.isclose(result.max_scaled, 1e-17)  # the column's max, not z's
        line, changed, failed = payload_diff._report("f", result, rel_bound=1e-12)
        assert "max change over its array's max 1e-17 at " + at in line
        assert (changed, failed) == (True, True)  # the bound still reads the relative change


def test_stderr_numbers_compare_as_numbers():
    line = '  "mono_equivalence_max_dev": {}'
    side_a = [payload_diff._tokens(line.format("53.86581863663288"))]
    side_b = [payload_diff._tokens(line.format("53.86581863663321"))]
    result = payload_diff.compare(side_a, side_b)
    assert result.other is None and result.at_abs == "[0][1]"
    assert math.isclose(result.max_abs, 3.3e-13, rel_tol=1e-2)
    assert payload_diff._report("stderr", result, rel_bound=1e-14)[1:] == (True, False)
    assert payload_diff._report("stderr", result, rel_bound=0.0)[1:] == (True, True)
    # text, and a number written another way, still differ
    for other in ('  "mono_equivalence_max_dev" = 53.86581863663288',
                  '  "mono_equivalence_max_dev": 53.865818636632880'):
        changed = payload_diff.compare(side_a, [payload_diff._tokens(other)])
        assert changed.other is not None
    # a hex digest is text, not numbers
    assert payload_diff._tokens("hash 3af9e1d0") == ["hash 3af9e1d0"]
