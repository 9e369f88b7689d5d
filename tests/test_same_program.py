"""`tools/same_program.py`'s corpus, run twice on this checkout, writes the same bytes."""
import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "same_program.py"
_spec = importlib.util.spec_from_file_location("same_program", TOOL)
same_program = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_program)


def test_corpus_is_byte_identical_across_process_trees(tmp_path):
    first = same_program.run_corpus(same_program.REPO, tmp_path / "first")
    second = same_program.run_corpus(same_program.REPO, tmp_path / "second")
    log = (first / "commands.txt").read_text(encoding="utf-8").splitlines()
    exits = [line.split(": exit ")[1] for line in log if ": exit " in line]
    assert exits == ["0"] * len(same_program._corpus())
    identical, different, skipped = same_program.compare_trees(first, second)
    assert different == []
    assert skipped > 0 and "commands.txt" in identical
