"""The mutant table of tools/mutants.py still applies to the code."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import mutants  # noqa: E402


def test_every_mutant_old_text_occurs_once():
    # a mutant whose old text moved or doubled would mutate nothing, or the wrong line
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
    counts = {m.name: mutants.occurrences(m) for m in mutants.MUTANTS}
    assert counts == dict.fromkeys(counts, 1)
    assert all(m.old != m.new for m in mutants.MUTANTS)
