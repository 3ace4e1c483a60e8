"""Static checks on the package source."""

import ast
import importlib
import pathlib

import pytest

import mutants

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


def _dead_definitions(sources: dict) -> list:
    """(module, name) of each module-level def or class that no module refers to.

    sources maps module names to their source. A reference is a Name, an
    Attribute or an imported name anywhere in any module, so a re-export
    from __init__ keeps a definition alive.
    """
    defined = []
    used = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        defined += [
            (module, node.name)
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                used.update(alias.name for alias in node.names)
    return sorted(d for d in defined if d[1] not in used)


def test_no_dead_definitions():
    assert _dead_definitions({p.stem: p.read_text() for p in SRC.glob("*.py")}) == []


def test_dead_definition_check_catches_a_leftover():
    sources = {
        "__init__": "from .a import exported\n",
        "a": "def exported():\n    return helper()\n\ndef helper():\n    return 1\n\n"
        "def leftover():\n    pass\n\nclass Spare:\n    pass\n",
        "b": "import a\n\ndef run():\n    return a.exported()\n\nrun()\n",
    }
    assert _dead_definitions(sources) == [("a", "Spare"), ("a", "leftover")]


def _sources() -> dict:
    return {p.stem: ast.parse(p.read_text()) for p in SRC.glob("*.py")}


def test_dimension_mismatch_is_raised_only_in_core():
    # core._same_dim is the one gate between a state and its measurements; the other two
    # raises, validate_povm's per-effect check and partial_trace's, test other facts in core
    raisers = {
        module
        for module, tree in _sources().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise)
        and isinstance(node.exc, ast.Call)
        and isinstance(node.exc.func, ast.Name)
        and node.exc.func.id == "DimMismatchError"
    }
    assert raisers == {"core"}


def test_one_trace_norm_kernel():
    # every trace norm is a sum of singular values from core._trace_norms
    calls = [
        (module, node.lineno)
        for module, tree in _sources().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and any(
            k.arg == "compute_uv" and isinstance(k.value, ast.Constant) and k.value.value is False
            for k in node.keywords
        )
    ]
    assert [module for module, _ in calls] == ["core"], calls


def test_measurements_are_read_through_their_stack():
    # a POVM or rank-1 PVM has one read surface, its (n, d, d) stack; no module reads a second copy of its effects
    reads = [
        (module, node.lineno)
        for module, tree in _sources().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "effects"
    ]
    assert reads == []


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


def _missing_ncl_fields(tracing_source: str, result) -> list:
    """Attributes that Tracer._count_ncl reads from its result argument and result lacks."""
    count = next(
        node
        for node in ast.walk(ast.parse(tracing_source))
        if isinstance(node, ast.FunctionDef) and node.name == "_count_ncl"
    )
    read = {
        node.attr
        for node in ast.walk(count)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "result"
    }
    assert read, "_count_ncl reads no field of its result"
    return sorted(name for name in read if not hasattr(result, name))


def _ncl_result():
    import kduncert as kd

    return kd.quantum_nonclassicality(kd.random_density(2, 2, seed=0), kd.random_povm(2, 2, seed=1))


def test_traced_ncl_fields_exist_on_the_result():
    # the tracer reads these fields of every quantum_nonclassicality result, so
    # deleting one would break every traced benchmark run that calls it
    source = (ROOT / "perfbench" / "tracing.py").read_text()
    assert _missing_ncl_fields(source, _ncl_result()) == []


def test_traced_ncl_field_check_catches_a_leftover():
    source = (
        "class Tracer:\n    def _count_ncl(self, result):\n"
        "        self.n += len(result.per_effect_values) + len(result.per_effect_bases)\n"
    )
    assert _missing_ncl_fields(source, _ncl_result()) == ["per_effect_bases"]


def _exit_code_classes(errors_source: str, cli_source: str) -> tuple:
    """(classes errors.py defines, classes cli.main's except clauses name)."""
    defined = {node.name for node in ast.parse(errors_source).body if isinstance(node, ast.ClassDef)}
    main = next(
        node for node in ast.parse(cli_source).body if isinstance(node, ast.FunctionDef) and node.name == "main"
    )
    caught = set()
    for node in ast.walk(main):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            caught.update(t.id for t in types if isinstance(t, ast.Name))
    return defined, caught


def test_one_exception_class_per_exit_code():
    # a class that cli.main does not map adds no exit code, so nothing outside the message tells it apart
    defined, caught = _exit_code_classes((SRC / "errors.py").read_text(), (SRC / "cli.py").read_text())
    assert defined == caught == {"KdUncertError", "ValidationError", "DimMismatchError", "WitnessNotFoundError"}


def test_exit_code_class_check_catches_a_leftover():
    errors = "class Base(Exception):\n    pass\n\nclass Bad(Base):\n    pass\n\nclass Spare(Bad):\n    pass\n"
    cli = (
        "def main():\n    try:\n        run()\n    except Bad:\n        return 2\n"
        "    except (Base, OSError):\n        return 5\n"
    )
    defined, caught = _exit_code_classes(errors, cli)
    assert defined - caught == {"Spare"}
    assert caught - defined == {"OSError"}


def test_every_mutant_applies():
    # each mutant of tests/mutants.py is one substitution; an edited target line would drop it from the harness
    assert mutants.check_mutants() == []
