"""The package's modules import one another in one direction only."""

import ast
from pathlib import Path

import tuckeropt

# each module may import only from the modules before it
ORDER = ("tensor_core", "tucker", "geometry", "solvers", "completion",
         "oracles", "cli")
PACKAGE = Path(tuckeropt.__file__).parent


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


def test_geometry_exports_only_what_the_solver_path_calls():
    # dense verification geometry belongs in oracles, not next to the kernels
    tree = ast.parse((PACKAGE / "geometry.py").read_text())
    exported = next(ast.literal_eval(node.value) for node in tree.body
                    if isinstance(node, ast.Assign)
                    and [getattr(t, "id", None) for t in node.targets]
                    == ["__all__"])
    read = set()
    for name in ("solvers", "completion"):
        read.update(_names_read(ast.parse((PACKAGE / f"{name}.py").read_text())))
    defs = [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    unused = [name for name in exported if name not in read and not any(
        name in _names_read(node) for node in defs if node.name != name)]
    assert not unused, f"geometry exports {unused}, which no solver uses"


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
