"""The traced benchmark (``bench/run.py --trace 1``) times the gluing
machine's stage functions one by one and calls them directly
(bench/ubench/baseline.py).  These tests run those rows, so a change of
the stage API shows in the package's own test run."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from ubench import baseline, runner  # noqa: E402

from conftest import zx  # noqa: E402


def test_relation1_stage_table_rows_are_correct():
    tally = runner.Tally()
    rows = baseline.relation1_stages(tally, reps=2)
    assert (tally.attempted, tally.failed) == (2, 0), tally.failures
    # every wrapped stage ran in each relation-1 run, and no run solved for
    # pi^{-1} d^*: the fixture's composite is checked by one product instead
    assert rows.pop("baseline.r1.solve_right.ms") == 0, rows
    assert all(ms > 0 for ms in rows.values()), rows


def test_obstruction_rows_are_correct():
    tally = runner.Tally()
    for k, p, g, p2 in [(1, "x", "1", "x"), (2, "x", "1", None), (3, "x", "x", None), (4, "x", "x", None)]:
        obs, expected = baseline._obstruction(k, zx(p), zx(g), zx(p2) if p2 else None)
        tally.record(obs.reduced_arf == obs.big_arf == expected, f"relation {k}")
    assert (tally.attempted, tally.failed) == (4, 0), tally.failures
