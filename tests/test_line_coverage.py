"""`tools/line_coverage.py`: which lines count as statements, which it cannot see, and its exit."""
import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "line_coverage.py"
_spec = importlib.util.spec_from_file_location("line_coverage", TOOL)
line_coverage = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(line_coverage)

_SOURCE = '''"""Module docstring."""
import os


class Box:
    """Class docstring."""
    size: int = 3


def outer(x):
    """Function docstring."""
    total: int
    def inner():
        nonlocal x
        x += 1
    if x and (
        x > 1
    ):
        return (x,
                2)
    try:
        inner()
    except BaseException:
        raise


def _spill(run):
    return run()


if __name__ == "__main__":
    outer(1)
'''


def test_statements_skip_what_runs_no_line_and_mark_the_blind_spots():
    found = line_coverage.statements(_SOURCE)
    assert [(first, last) for first, last, _ in found] == [
        (2, 2), (7, 7), (15, 15), (16, 18), (19, 20), (21, 21), (22, 22), (24, 24), (28, 28),
        (31, 31), (32, 32),
    ]
    assert {first: blind for first, _, blind in found if blind} == {
        24: "runs on an interrupt", 28: "runs in a forked worker", 32: "runs only as __main__",
    }


def test_only_a_statement_outside_the_blind_spots_fails_a_passing_run():
    assert line_coverage.exit_code(0, missed=1, blind_missed=1) == 0
    assert line_coverage.exit_code(0, missed=1, blind_missed=0) == 1
    assert line_coverage.exit_code(2, missed=0, blind_missed=0) == 2  # pytest's own failure
