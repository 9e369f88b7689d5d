"""Every exported name resolves, the package re-exports each module's own object, and no
module imports a name it does not use."""
import ast
import importlib
import pkgutil
from pathlib import Path

import qdportfolio

MODULES = [
    importlib.import_module(f"qdportfolio.{info.name}")
    for info in pkgutil.iter_modules(qdportfolio.__path__)
]


def test_every_module_export_resolves():
    for module in MODULES:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], module.__name__


def test_package_exports_are_their_modules_own_objects():
    for name in qdportfolio.__all__:
        if name == "__version__":  # the package's own
            continue
        owners = [module for module in MODULES if name in module.__all__]
        assert len(owners) == 1, (name, [module.__name__ for module in owners])
        assert getattr(qdportfolio, name) is getattr(owners[0], name), name


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, and its line; `from __future__` binds none."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update({(alias.asname or alias.name).split(".")[0]: node.lineno for alias in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update({alias.asname or alias.name: node.lineno for alias in node.names})
    return names


def _used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere, in quoted annotations too, plus those listed in `__all__`."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets):
            used |= set(ast.literal_eval(node.value))
        annotation = getattr(node, "returns", None) or getattr(node, "annotation", None)
        for quoted in ast.walk(annotation) if annotation else ():  # such as -> "_Snapshot"
            if isinstance(quoted, ast.Constant) and isinstance(quoted.value, str):
                used |= _used_names(ast.parse(quoted.value))
    return used


def test_no_module_imports_a_name_it_does_not_use():
    for path in sorted(Path(qdportfolio.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = _used_names(tree)
        unused = {name: line for name, line in _imported_names(tree).items() if name not in used}
        assert unused == {}, path.name


def test_the_unused_import_scan_sees_an_unused_import():
    tree = ast.parse("from __future__ import annotations\nimport os, sys\n"
                     "from .marketdata import DataError, ReturnPanel\n"
                     "__all__ = ['DataError']\nx: 'sys.Any' = 1\n")
    assert set(_imported_names(tree)) - _used_names(tree) == {"os", "ReturnPanel"}
