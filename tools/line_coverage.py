"""List the statements of `src/qdportfolio` that Tier-1 does not run.

    python tools/line_coverage.py [PYTEST_ARGS ...]

The tool runs Tier-1 (`pytest -q`, or pytest with the arguments given) in
this process, under a `sys.settrace` line tracer limited to the files of
`src/qdportfolio`.  It needs nothing beyond the standard library and the
pytest that runs Tier-1.  A statement is one `ast` statement node.  `def`
and `class` lines, docstrings, `global` and `nonlocal`, and a bare
annotation inside a function are not counted: none of them runs as a line.
A statement ran when the tracer saw a line of its header: the whole of a
simple statement, or a compound statement's lines before its body.

It prints each statement that did not run as `path:line: code`, and marks
those the tracer cannot see, wherever Tier-1 reaches them:

- statements of `_start_worker` and `_spill`, which run in forked workers,
  whose trace stays in the worker;
- an `except BaseException` handler, which runs on an interrupt, and Tier-1
  interrupts a `compare` only in a child process;
- the body of `if __name__ == "__main__":`, which runs only as a script.

The last line reads `ran A of B statements; C not run, D of them blind
spots`.  The exit code is 1 when pytest passed but a statement outside the
blind spots did not run (C > D): every statement of `src/qdportfolio` is
run by Tier-1, or it goes.  Otherwise it is pytest's.  Tracing makes
Tier-1 about 1.5 times as slow (61 s against 41 s on a 2-core VM), so this
tool is not part of Tier-1.
"""
from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "qdportfolio"
FORKED = ("_start_worker", "_spill")  # functions that run only in forked workers


def _is_docstring(node: ast.stmt) -> bool:
    return isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
        and isinstance(node.value.value, str)


def _is_main_guard(node: ast.stmt) -> bool:
    return isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"


def statements(source: str) -> list[tuple[int, int, str]]:
    """(first line, last header line, blind spot or "") of each counted statement, in order."""
    found: list[tuple[int, int, str]] = []

    def walk(node: ast.AST, blind: str, in_function: bool) -> None:
        scope = isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ExceptHandler, ast.match_case)):
                handler_blind = blind
                if isinstance(child, ast.ExceptHandler) and isinstance(child.type, ast.Name) \
                        and child.type.id == "BaseException":
                    handler_blind = blind or "runs on an interrupt"
                walk(child, handler_blind, in_function)
                continue
            if not isinstance(child, ast.stmt):
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, blind or ("runs in a forked worker" if child.name in FORKED else ""), True)
                continue
            if isinstance(child, ast.ClassDef):
                walk(child, blind, False)
                continue
            if (scope and child is node.body[0] and _is_docstring(child)) \
                    or isinstance(child, (ast.Global, ast.Nonlocal)) \
                    or (in_function and isinstance(child, ast.AnnAssign) and child.value is None):
                continue
            body = getattr(child, "body", None)
            header_end = max(child.lineno, body[0].lineno - 1) if body else child.end_lineno
            found.append((child.lineno, header_end, blind))
            if _is_main_guard(child) and isinstance(node, ast.Module):
                walk(child, blind or "runs only as __main__", in_function)
            else:
                walk(child, blind, in_function)

    walk(ast.parse(source), "", False)
    return sorted(found)


def traced_lines(pytest_args: list[str]) -> tuple[set[tuple[str, int]], int]:
    """The (file, line) pairs of the package that run under pytest, and pytest's exit code."""
    import pytest

    prefix = str(PACKAGE.resolve()) + os.sep
    ours: dict[str, str | None] = {}  # co_filename -> resolved path in the package, or None
    seen: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            seen.add((ours[frame.f_code.co_filename], frame.f_lineno))
        return local

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ours:
            path = os.path.realpath(name)
            ours[name] = path if path.startswith(prefix) else None
        return local if ours[name] else None

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return seen, int(code)


def exit_code(pytest_code: int, missed: int, blind_missed: int) -> int:
    """Pytest's code, or 1 when pytest passed and a statement outside the blind spots did not run."""
    return 1 if pytest_code == 0 and missed > blind_missed else pytest_code


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    os.chdir(REPO)
    seen, code = traced_lines(args or ["-q", "-p", "no:cacheprovider"])
    total = missed = blind_missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        ran = {line for name, line in seen if name == str(path.resolve())}
        for first, last, blind in statements(source):
            total += 1
            if ran.isdisjoint(range(first, last + 1)):
                missed += 1
                blind_missed += bool(blind)
                mark = f"  [blind spot: {blind}]" if blind else ""
                print(f"{path.relative_to(REPO)}:{first}: {lines[first - 1].strip()}{mark}")
    print(f"ran {total - missed} of {total} statements; {missed} not run, "
          f"{blind_missed} of them blind spots")
    return exit_code(code, missed, blind_missed)


if __name__ == "__main__":
    sys.exit(main())
