"""numpy is the only runtime dependency, scipy and requests stay out, every
error class is in use, every module uses what it imports, every private
module-level name is read, and no module reads another's private names."""
import ast
import sys
from pathlib import Path

import pytest

import fairqr

PACKAGE = Path(fairqr.__file__).parent
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "fairqr"}


def imported_roots(path: Path) -> set[str]:
    """Root module of every import in the file, function-level included;
    a relative import counts as fairqr."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            roots |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            roots.add("fairqr" if node.level else node.module.split(".")[0])
    return roots


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.name)
def test_imports_are_stdlib_or_numpy(path):
    assert imported_roots(path) - ALLOWED == set()


def unused_imports(path: Path) -> set[str]:
    """Names the file imports but never reads: not as a name, nor as the
    root of an attribute chain. `from __future__` imports bind no name."""
    tree = ast.parse(path.read_text(), str(path))
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(alias.asname or alias.name).split(".")[0]
                         for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return imported - used


@pytest.mark.parametrize(
    "path", sorted(set(PACKAGE.glob("*.py")) - {PACKAGE / "__init__.py"}),
    ids=lambda path: path.name)
def test_every_import_is_used(path):
    # __init__.py imports to re-export, so it is left out
    assert unused_imports(path) == set()


def test_pyproject_declares_numpy_only():
    tomllib = pytest.importorskip("tomllib")
    pyproject = PACKAGE.parent.parent / "pyproject.toml"
    if not pyproject.exists():
        pytest.skip("fairqr is not imported from a source checkout")
    with open(pyproject, "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["dependencies"] == ["numpy"]


def error_bases() -> dict[str, set[str]]:
    """Each class defined in errors.py, with the names of its bases."""
    tree = ast.parse((PACKAGE / "errors.py").read_text())
    return {node.name: {base.id for base in node.bases
                        if isinstance(base, ast.Name)}
            for node in tree.body if isinstance(node, ast.ClassDef)}


def exception_names(expr) -> set[str]:
    """The class names a `raise` or `except` expression names: `E`, `E(...)`,
    `module.E` or a tuple of them."""
    if isinstance(expr, ast.Call):
        expr = expr.func
    if isinstance(expr, ast.Tuple):
        return set().union(*map(exception_names, expr.elts))
    if isinstance(expr, ast.Attribute):
        return {expr.attr}
    return {expr.id} if isinstance(expr, ast.Name) else set()


def raised_or_caught() -> set[str]:
    """Every class name raised or caught anywhere in the package."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                names |= exception_names(node.exc)
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                names |= exception_names(node.type)
    return names


def test_every_error_class_is_raised_or_caught():
    bases = error_bases()
    live = raised_or_caught() & set(bases)
    pending = list(live)
    while pending:  # a base class of a live class is live too
        for base in bases[pending.pop()] & set(bases) - live:
            live.add(base)
            pending.append(base)
    assert set(bases) - live == set()


def is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def private_names(statements) -> set[str]:
    """The private names the statements define: functions, classes and
    assigned names; dunders are left out."""
    names = set()
    for node in statements:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target]
            names |= {n.id for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)}
    return set(filter(is_private, names))


def private_definitions(path: Path) -> set[str]:
    """The private names a module defines at its top level."""
    return private_names(ast.parse(path.read_text(), str(path)).body)


def names_read() -> set[str]:
    """Every name the package reads: as a name or as an attribute."""
    read = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(getattr(node, "ctx", None), ast.Load):
                continue
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def test_every_private_name_is_read():
    defined = {(path.name, name) for path in PACKAGE.glob("*.py")
               for name in private_definitions(path)}
    read = names_read()
    assert {(module, name) for module, name in defined
            if name not in read} == set()


def private_members(path: Path) -> set[str]:
    """The private names a module defines at its top level or in a class
    body."""
    tree = ast.parse(path.read_text(), str(path))
    return private_names(tree.body).union(
        *(private_names(node.body) for node in ast.walk(tree)
          if isinstance(node, ast.ClassDef)))


def private_reads(path: Path) -> set[str]:
    """The private names a module imports from fairqr (`from .m import _x`)
    or reads as an attribute (`obj._x`)."""
    reads = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and (
                node.level or node.module.split(".")[0] == "fairqr"):
            reads |= {alias.name for alias in node.names}
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)):
            reads.add(node.attr)
    return set(filter(is_private, reads))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_module_reads_another_modules_private_names(path):
    # a private name is the defining module's own: one that only other
    # modules define may not be read here, so each module's internals stay
    # behind its public names
    others = set().union(*(private_members(other)
                           for other in PACKAGE.glob("*.py") if other != path))
    assert private_reads(path) & (others - private_members(path)) == set()
