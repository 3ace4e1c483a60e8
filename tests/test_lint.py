"""Static checks on the package source."""

import ast
import importlib
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "kduncert"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_unused_import_check_catches_a_leftover():
    source = "import numpy as np\nfrom .core import a, b\n\ndef f():\n    return np.zeros(1) + a\n"
    assert _unused_imports(source) == [(2, "b")]


def _traced_spans() -> tuple:
    """The SPANS tuple of perfbench/tracing.py, read from its source without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["SPANS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no SPANS tuple")


def test_traced_spans_resolve_to_package_functions():
    # the tracer looks each "module.function" up with getattr, so a renamed
    # function would break every traced benchmark run
    spans = _traced_spans()
    assert spans
    for span in spans:
        module, name = span.split(".")
        assert callable(getattr(importlib.import_module(f"kduncert.{module}"), name, None)), span
