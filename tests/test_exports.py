"""Export lists agree with the modules that define them.

perfbench's tracer finds each layer's functions through ``__all__`` and
``getattr(module, name, None)``, so a name left in ``__all__`` after its
definition is removed would drop out of the trace without any error.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import foelab

MODULES = sorted(name for _, name, _ in pkgutil.iter_modules(foelab.__path__)
                 if name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"foelab.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"foelab.{name}.__all__ names missing attributes: {missing}"


def package_imports():
    """(source module, name) for every relative import in foelab/__init__.py."""
    tree = ast.parse(Path(foelab.__file__).read_text(encoding="utf-8"))
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


def test_package_imports_are_exported():
    imports = package_imports()
    assert imports
    unexported = [f"{module}.{name}" for module, name in imports
                  if name not in importlib.import_module(f"foelab.{module}").__all__]
    assert not unexported, f"foelab imports names outside their __all__: {unexported}"
