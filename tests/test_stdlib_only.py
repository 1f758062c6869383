"""The package runs on the standard library alone.

Every absolute import in src/e8theta must name a standard-library module;
third-party packages that happen to be installed (numpy, say) would
otherwise import fine locally and break on a clean interpreter.
"""

import ast
import sys
from pathlib import Path

import e8theta

SOURCES = sorted(Path(e8theta.__file__).parent.glob("*.py"))


def _absolute_imports(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_sources_found():
    assert len(SOURCES) > 5


def test_only_stdlib_absolute_imports():
    bad = [
        f"{path.name}:{line}: {name}"
        for path in SOURCES
        for line, name in _absolute_imports(path)
        if name.partition(".")[0] not in sys.stdlib_module_names
    ]
    assert not bad, "non-stdlib imports: " + ", ".join(bad)
