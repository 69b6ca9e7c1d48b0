"""The package's layers import one another in one direction only, it
exports only what its scripts and examples use, the README's examples
run, and its documented command lines parse."""

import ast
import contextlib
import inspect
import io
import re
import shlex
from pathlib import Path

import pytest

import tuckeropt
from tuckeropt.cli import build_parser

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


def _outside_readers(module):
    """Syntax trees that may read a module's names from outside it: the
    other package modules but oracles, tools/, demos/ and the README's
    python blocks."""
    paths = [p for p in PACKAGE.glob("*.py")
             if p.stem not in (module, "oracles")]
    paths += [p for d in ("tools", "demos") for p in (ROOT / d).glob("*.py")]
    yield from (ast.parse(p.read_text()) for p in paths)
    yield from (ast.parse(block) for block in _readme_blocks())


@pytest.mark.parametrize("module", ["tensor_core", "tucker", "geometry",
                                    "solvers", "completion", "cli"])
def test_module_exports_only_what_the_solver_path_calls(module):
    # code that only tests and the dense references read belongs in
    # oracles, not next to the kernels.  A name counts as read when a
    # reader outside the module, another of its definitions or one of its
    # module-level statements (a registry, the ``__main__`` guard) reads it
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    defs = [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    read = set()
    for reader in _outside_readers(module):
        read.update(_names_read(reader))
    for node in tree.body:
        if node not in defs:
            read.update(_names_read(node))
    unused = [node.name for node in defs if not node.name.startswith("_")
              and node.name not in read and not any(
                  node.name in _names_read(other) for other in defs
                  if other is not node)]
    assert not unused, (f"{module} defines {unused}, which only tests and "
                        f"oracles read")


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
    sources += _readme_blocks()
    wanted = {name for src in sources for name in _imported_from_package(src)}
    exported = {name for name, value in vars(tuckeropt).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert exported == wanted


def _readme_blocks():
    return re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(),
                      re.S)


@pytest.mark.parametrize("block", range(len(_readme_blocks())))
def test_readme_python_blocks_run(block):
    # each example runs as written, in a namespace of its own
    source = _readme_blocks()[block]
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(source, f"README.md block {block + 1}", "exec"), {})


def _documented_command_lines():
    """The ``tuckeropt`` lines of the README's sh blocks and the CLI
    walkthrough, with continuations joined and each cut at ``||``."""
    texts = re.findall(r"```sh\n(.*?)```", (ROOT / "README.md").read_text(),
                       re.S)
    texts.append((ROOT / "demos" / "cli_walkthrough.sh").read_text())
    lines = []
    for text in texts:
        for line in text.replace("\\\n", " ").splitlines():
            line = line.split("||")[0].strip()
            if line.startswith("tuckeropt "):
                lines.append(line)
    return lines


def test_documented_command_lines_parse():
    # a flag removed or renamed without its docs fails here
    lines = _documented_command_lines()
    assert lines
    parser = build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])


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
