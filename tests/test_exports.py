"""Every exported name resolves, and the package re-exports each module's own object."""
import importlib
import pkgutil

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
