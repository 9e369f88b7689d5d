"""`tools/same_program.py`: its corpus, run twice on this checkout, writes the same bytes,
it names the keys at which two JSON files differ, and it counts the package's lines."""
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


def test_json_key_diff_names_the_differing_paths(tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    old.write_text('{"iteration": 3, "state": {"h": [1, 2], "iteration": 3}, "best": {"x": 1}}')
    new.write_text('{"iteration": 3, "state": {"h": [1, 5]}, "best": {"x": 1}, "data": null}')
    assert same_program.json_key_diff(old, new) == ["data", "state.h", "state.iteration"]
    table = tmp_path / "loss.csv"
    table.write_text("iteration,total\n1,0.5\n")
    array = tmp_path / "array.json"
    array.write_text("[1, 2]")
    assert same_program.json_key_diff(old, table) == []
    assert same_program.json_key_diff(array, old) == []
    assert same_program.json_key_diff(old, tmp_path / "absent") == []


def test_src_lines_is_the_line_count_of_the_package():
    package = sorted((same_program.REPO / "src" / "qdportfolio").glob("*.py"))
    assert package
    expected = sum(len(path.read_text(encoding="utf-8").splitlines()) for path in package)
    assert same_program.src_lines(same_program.REPO) == expected
