"""The package imports only the standard library, numpy and itself.

numpy is the one declared dependency (pyproject.toml).  Anything else that
happens to be installed, scipy included, must not be imported by ``src/``,
not even lazily inside a function.
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rwap"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "rwap"}


def _import_roots(tree: ast.AST) -> set[str]:
    """The root package of every absolute import anywhere in the tree."""
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_sources_import_only_the_standard_library_and_numpy():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 10
    foreign = {
        (path.name, root)
        for path in sources
        for root in _import_roots(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if root not in ALLOWED
    }
    assert foreign == set()


def test_the_guard_sees_lazy_and_dotted_imports():
    tree = ast.parse("import numpy.linalg\nfrom . import gen\ndef f():\n    from scipy.optimize import milp\n")
    assert _import_roots(tree) == {"numpy", "scipy"}
