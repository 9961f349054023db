"""numpy is the only runtime dependency; scipy and requests stay out."""
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


def test_pyproject_declares_numpy_only():
    tomllib = pytest.importorskip("tomllib")
    pyproject = PACKAGE.parent.parent / "pyproject.toml"
    if not pyproject.exists():
        pytest.skip("fairqr is not imported from a source checkout")
    with open(pyproject, "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["dependencies"] == ["numpy"]
