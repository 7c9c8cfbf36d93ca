"""Export lists agree with the modules that define them, and every export
is something the CLI or a demo runs.

perfbench's tracer finds each layer's functions through ``__all__`` and
``getattr(module, name, None)``, so a name left in ``__all__`` after its
definition is removed would drop out of the trace without any error.
Reference implementations that only tests use belong in
``tests/reference.py``, not in the package.
"""

import ast
import importlib
import pkgutil
import re
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


SRC = Path(foelab.__file__).parent
DEMOS = SRC.parent.parent / "demos"


def reachable_definitions():
    """(module, name) of every top-level src definition that foelab/cli.py or
    a demo reaches, following the names each definition mentions."""
    defs, imports = {}, {}  # (module, name) -> node; (module, alias) -> (module, name)
    for path in SRC.glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                imports.update(((path.stem, a.asname or a.name), (node.module, a.name))
                               for a in node.names)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[path.stem, node.name] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                defs.update(((path.stem, n.id), node) for n in ast.walk(node)
                            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store))
    stack = [key for key in defs if key[0] == "cli"]
    for demo in DEMOS.glob("*.py"):
        for node in ast.walk(ast.parse(demo.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("foelab"):
                stack += [(node.module.partition(".")[2] or "__init__", a.name)
                          for a in node.names]
    seen = set()
    while stack:
        key = stack.pop()
        while key in imports:
            key = imports[key]
        if key in defs and key not in seen:
            seen.add(key)
            stack += [(key[0], n.id) for n in ast.walk(defs[key]) if isinstance(n, ast.Name)]
    return seen


def test_every_export_is_run_by_the_cli_or_a_demo():
    reached = reachable_definitions()
    unreached = [f"{module}.{name}" for module in MODULES
                 for name in getattr(importlib.import_module(f"foelab.{module}"), "__all__", ())
                 if (module, name) not in reached]
    assert not unreached, f"exported but run by neither the CLI nor a demo: {unreached}"


def public_members():
    """(module, class, name) of every public method or property defined in
    the body of a src class.  Dataclass fields are not methods and stay out."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef):
                yield from ((path.stem, node.name, item.name) for item in node.body
                            if isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_"))


def attributes_read():
    """Every attribute name read as ``obj.name`` in src or a demo."""
    return {node.attr for path in [*SRC.glob("*.py"), *DEMOS.glob("*.py")]
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_every_public_member_is_read_by_src_or_a_demo():
    read = attributes_read()
    unread = [f"{module}.{cls}.{name}" for module, cls, name in public_members()
              if name not in read]
    assert not unread, f"members no src module or demo reads: {unread}"


def unread_imports(path):
    """Names a module binds by a top-level import and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")
                                        if p.name != "__init__.py"))
def test_every_import_is_read(path):
    # no linter is a dependency; __init__.py imports only to export
    unread = unread_imports(SRC / path)
    assert not unread, f"{path} imports names it never reads: {unread}"


def unread_constants():
    """module.NAME of every module-level UPPER_CASE constant in src that no
    src module reads, by name or as an attribute."""
    defined, read = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                defined += [(path.stem, n.id) for n in ast.walk(node)
                            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
                            and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", n.id)]
        read |= {n.id for n in ast.walk(tree)
                 if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        read |= {n.attr for n in ast.walk(tree)
                 if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    return [f"{module}.{name}" for module, name in defined if name not in read]


def test_every_constant_is_read():
    # a constant left behind by a removed route reads as a live setting
    unread = unread_constants()
    assert not unread, f"constants no src module reads: {unread}"


def duplicate_constants():
    """NAME: [modules] of every module-level UPPER_CASE name that more than
    one src module assigns."""
    owners = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                for n in ast.walk(node):
                    if (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
                            and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", n.id)):
                        owners.setdefault(n.id, set()).add(path.stem)
    return {name: sorted(mods) for name, mods in owners.items() if len(mods) > 1}


def test_no_constant_is_defined_twice():
    # one setting, one owner: a second copy drifts from the first unnoticed
    twice = duplicate_constants()
    assert not twice, f"constants assigned in more than one module: {twice}"
