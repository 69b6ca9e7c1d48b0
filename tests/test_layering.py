"""The package's layers import one another in one direction only, and it
exports only what its scripts and examples use."""

import ast
import inspect
import re
from pathlib import Path

import pytest

import tuckeropt

# each module may import only from the modules before it
ORDER = ("tensor_core", "tucker", "geometry", "solvers", "completion",
         "oracles", "cli")
PACKAGE = Path(tuckeropt.__file__).parent
ROOT = Path(__file__).resolve().parent.parent


def _package_imports(tree):
    """Names of the package modules a module imports, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "tuckeropt":
                    continue
                module = module.partition(".")[2]
            if module:
                yield module.split(".")[0]
            else:                           # from . import geometry
                yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                top, _, rest = alias.name.partition(".")
                if top == "tuckeropt" and rest:
                    yield rest.split(".")[0]


def test_every_module_is_in_the_order():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(ORDER)


def test_imports_follow_the_layer_order():
    for i, name in enumerate(ORDER):
        tree = ast.parse((PACKAGE / f"{name}.py").read_text())
        for target in _package_imports(tree):
            assert target in ORDER[:i], f"{name} imports {target}"


def _names_read(tree):
    """Names and attribute names a syntax tree reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


@pytest.mark.parametrize("module", ["geometry", "tucker"])
def test_module_exports_only_what_the_solver_path_calls(module):
    # code that only tests and the dense references read belongs in
    # oracles, not next to the kernels
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    defs = [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    read = set()
    for path in PACKAGE.glob("*.py"):
        if path.stem not in (module, "oracles"):
            read.update(_names_read(ast.parse(path.read_text())))
    unused = [node.name for node in defs if not node.name.startswith("_")
              and node.name not in read and not any(
                  node.name in _names_read(other) for other in defs
                  if other is not node)]
    assert not unused, f"{module} defines {unused}, which no solver uses"


def _imported_names(tree):
    """(line, name) of every name an import binds, __future__ aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield node.lineno, (alias.asname
                                    or alias.name.partition(".")[0])


@pytest.mark.parametrize("where", ["src/tuckeropt", "tests", "tools",
                                   "demos"])
def test_every_imported_name_is_read(where):
    # the package's __init__ imports the names it exports
    unread = []
    for path in sorted((ROOT / where).glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unread += [f"{path.name}:{line} {name}"
                   for line, name in _imported_names(tree)
                   if name not in read]
    assert not unread, f"imported but never read: {unread}"


def _imported_from_package(source):
    """Names that a script imports from the package itself, not a module."""
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.ImportFrom) and node.level == 0
                and node.module == "tuckeropt"):
            yield from (alias.name for alias in node.names
                        if not (PACKAGE / f"{alias.name}.py").exists())


def test_package_exports_what_the_scripts_and_readme_import():
    # the package exports exactly what tools/, demos/ and the README's
    # examples import from it; everything else comes from its module
    sources = [p.read_text() for d in ("tools", "demos")
               for p in sorted((ROOT / d).glob("*.py"))]
    readme = (ROOT / "README.md").read_text()
    sources += re.findall(r"```python\n(.*?)```", readme, re.S)
    wanted = {name for src in sources for name in _imported_from_package(src)}
    exported = {name for name, value in vars(tuckeropt).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert exported == wanted


def test_package_imports_names_from_where_they_are_defined():
    # a name the package imports from a module must be defined there, not
    # re-exported through it
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    for node in tree.body:
        if not isinstance(node, ast.ImportFrom) or node.level != 1:
            continue
        source = ast.parse((PACKAGE / f"{node.module}.py").read_text())
        defined = {top.name for top in source.body
                   if isinstance(top, (ast.FunctionDef, ast.ClassDef))}
        defined.update(t.id for top in source.body
                       if isinstance(top, ast.Assign)
                       for t in top.targets if isinstance(t, ast.Name))
        missing = [a.name for a in node.names if a.name not in defined]
        assert not missing, f"{node.module} does not define {missing}"
