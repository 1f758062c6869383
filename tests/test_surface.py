"""The package ships no name that only tests use, and one import path per name;
importing its CLI loads no module that only introspection needs.

Every module-level function and class in src/e8theta, and every
non-dunder method of its classes, must be referenced somewhere in
src/e8theta or perfbench outside its own definition: test-only oracles
belong in tests/.  The package root binds nothing but dunders, so
each name is imported from its module only.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "e8theta"

# public API kept for users, with no caller in the package or the benchmark
EXCEPTIONS = {"save_fixture"}


def _docstrings(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                yield body[0].value


def _references(tree, skip):
    """Identifiers a tree uses: names, attributes, imported names, and the
    words of string constants that are not docstrings (the benchmark names
    some targets in strings).  Nodes inside `skip` do not count."""
    skipped = {id(n) for s in skip for n in ast.walk(s)}
    skipped |= {id(d) for d in _docstrings(tree)}
    found = set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.update(re.findall(r"\w+", node.value))
    return found


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _unused(definitions):
    """The definitions `definitions(tree)` picks in src/e8theta that nothing
    in src/e8theta or perfbench references outside their own bodies."""
    # the root's re-exports would be a second import path, not a caller
    sources = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    trees = {p: _parse(p) for p in sources + sorted((ROOT / "perfbench").glob("*.py"))}
    refs = {p: _references(tree, []) for p, tree in trees.items()}
    unused = []
    for path in sources:
        for node in definitions(trees[path]):
            if node.name in EXCEPTIONS:
                continue
            if any(node.name in r for p, r in refs.items() if p != path):
                continue
            if node.name not in _references(trees[path], [node]):
                unused.append(f"{path.name}:{node.lineno} {node.name}")
    return unused


def test_every_module_level_name_has_a_caller_outside_tests():
    unused = _unused(lambda tree: [n for n in tree.body if isinstance(n, (*_FUNCTIONS, ast.ClassDef))])
    assert not unused, "names only tests use (move them to tests/): " + ", ".join(unused)


def test_every_method_has_a_caller_outside_tests():
    def methods(tree):
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                for node in cls.body:
                    if isinstance(node, _FUNCTIONS) and not (
                        node.name.startswith("__") and node.name.endswith("__")
                    ):
                        yield node

    unused = _unused(methods)
    assert not unused, "methods only tests use (move them to tests/): " + ", ".join(unused)


def test_package_root_binds_only_dunders():
    tree = _parse(PACKAGE / "__init__.py")
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.alias):
            bound.add((node.asname or node.name).split(".")[0])
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
    assert all(name.startswith("__") and name.endswith("__") for name in bound), sorted(bound)


def test_every_module_level_import_is_used():
    """No import is left over: each name a module-level import binds in
    src/e8theta is read somewhere in that module (__future__ is exempt)."""
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _parse(path)
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert not unused, "unused imports: " + ", ".join(unused)


def test_every_cache_states_a_finite_maxsize():
    """No unbounded caches: every lru_cache in src/e8theta is a call with a
    positive integer maxsize, and functools.cache, which has no bound, is
    not used."""
    bounded, refused = 0, []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _parse(path)
        calls = {id(n.func): n for n in ast.walk(tree) if isinstance(n, ast.Call)}
        for node in ast.walk(tree):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if name not in ("lru_cache", "cache"):
                continue
            call = calls.get(id(node)) or ast.Call(args=[], keywords=[])
            sizes = call.args[:1] + [k.value for k in call.keywords if k.arg == "maxsize"]
            size = sizes[0].value if sizes and isinstance(sizes[0], ast.Constant) else None
            if name == "lru_cache" and type(size) is int and size > 0:
                bounded += 1
            else:
                refused.append(f"{path.name}:{node.lineno} {name}")
    assert bounded and not refused, "caches without a stated finite maxsize: " + ", ".join(refused)


# modules that only introspection or annotations need (dataclasses brings
# inspect, ast, dis and tokenize), paid for by every cold command
INTROSPECTION_MODULES = ("dataclasses", "inspect", "ast", "dis", "tokenize", "typing")


@pytest.mark.parametrize("flags", [(), ("-S",)], ids=["site", "no-site"])
def test_cli_import_loads_no_introspection_modules(flags):
    """Importing the CLI, which every command does, loads none of them."""
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import e8theta.cli\n"
        f"print(sorted(set({INTROSPECTION_MODULES!r}) & (set(sys.modules) - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, *flags, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]", out


def test_cli_import_loads_no_pathlib_or_random():
    """Without site (which may load both), importing the CLI loads neither:
    fixture paths are os.path strings, and only `e8 identity --random`
    imports random."""
    code = (
        "import sys\n"
        "import e8theta.cli\n"
        "print(sorted({'pathlib', 'random'} & set(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]", out


def test_only_intseries_reads_its_private_names():
    """intseries owns the packed layout: no other module of src/e8theta reads
    an attribute intseries._name or imports one from it."""
    reads = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "intseries.py":
            continue
        for node in ast.walk(_parse(path)):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "intseries"
                and node.attr.startswith("_")
            ):
                reads.append(f"{path.name}:{node.lineno} intseries.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "intseries":
                names = [alias.name for alias in node.names if alias.name.startswith("_")]
                reads += [f"{path.name}:{node.lineno} intseries.{name}" for name in names]
    assert not reads, "private intseries names read outside it: " + ", ".join(reads)
