"""numpy is the only runtime dependency: every import in the package is of
posetrep itself, of numpy or of the standard library."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "posetrep"


def _imported_roots(tree: ast.AST) -> set[str]:
    """Top-level names of the absolute imports of a module; relative
    imports are of posetrep itself."""
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_package_imports_only_numpy_and_the_standard_library():
    allowed = {"posetrep", "numpy"} | set(sys.stdlib_module_names)
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 10
    for path in modules:
        roots = _imported_roots(ast.parse(path.read_text(), filename=str(path)))
        assert roots <= allowed, (path.name, sorted(roots - allowed))
