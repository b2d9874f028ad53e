from __future__ import annotations

import ast
import importlib
import inspect
import re
import subprocess
import sys
from pathlib import Path

import pytest

import spamlab

ROOT = Path(__file__).resolve().parents[1]
SOURCES = ROOT / "src" / "spamlab"
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def imported_packages(path: Path) -> set[str]:
    """Top-level packages named by the absolute imports of a source file."""
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.split(".")[0])
    return imported


def test_library_imports_only_stdlib_and_numpy():
    imported = set().union(*map(imported_packages, SOURCES.glob("*.py")))
    assert imported and imported <= ALLOWED, sorted(imported - ALLOWED)


def test_library_stays_under_1700_lines():
    # the size gate of the design aim: the same results from less code
    counts = {
        path.name: len(path.read_bytes().splitlines()) for path in sorted(SOURCES.glob("*.py"))
    }
    assert sum(counts.values()) < 1700, (sum(counts.values()), counts)


def unused_imports(path: Path) -> set[str]:
    """Names a source file imports but never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        or isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - read


@pytest.mark.parametrize(
    "path", sorted(set(SOURCES.glob("*.py")) - {SOURCES / "__init__.py"}), ids=lambda p: p.name
)
def test_library_modules_use_every_import(path):
    # a deleted name must not leave its import behind
    assert not unused_imports(path)


def test_oracles_import_no_library_code():
    # the oracles pin the library's results only while they share no code;
    # stdlib only, so no test module can bring spamlab in either
    imported = imported_packages(ROOT / "tests" / "oracles.py")
    stdlib = set(sys.stdlib_module_names)
    assert imported and imported <= stdlib, sorted(imported - stdlib)


def test_readme_lists_the_package_api():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library API\n", 1)[1].split("\n## ", 1)[0]
    listed = {
        (module, name)
        for module, names in re.findall(r"^- `spamlab\.(\w+)`: (.*(?:\n  .*)*)", section, re.M)
        for name in re.findall(r"`(\w+)`", names)
    }
    exported = {
        (getattr(spamlab, name).__module__.removeprefix("spamlab."), name)
        for name in vars(spamlab)
        if not name.startswith("_") and not inspect.ismodule(getattr(spamlab, name))
    }
    assert listed == exported, (sorted(listed - exported), sorted(exported - listed))


def names_used(path: Path) -> set[str]:
    """Names a source file reads, imports or looks up as an attribute; a
    top-level function or class using its own name does not count."""
    used = set()
    for statement in ast.parse(path.read_text(encoding="utf-8")).body:
        found = set()
        for node in ast.walk(statement):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                found.update(alias.name for alias in node.names)
        if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
            found.discard(statement.name)
        used |= found
    return used


def test_every_exported_name_is_used_by_the_system():
    # the design aim drops helpers that nothing uses: each public name must
    # serve the library itself or the benchmark, not only the tests
    users = set(SOURCES.glob("*.py")) - {SOURCES / "__init__.py"}
    users |= set((ROOT / "benchmarks").glob("*.py"))
    used = set().union(*map(names_used, users))
    exported = {
        name
        for name in vars(spamlab)
        if not name.startswith("_") and not inspect.ismodule(getattr(spamlab, name))
    }
    assert exported <= used, sorted(exported - used)


# Every module:attribute that the benchmark's tracer in benchmarks/spans.py
# wraps and that names a library function.  A rename there would drop a
# layer from the benchmark's per-layer report without any error.  Delete
# this test together with spans.py.
TRACED = {
    "spamlab:load_corpus",
    "spamlab.cli:load_corpus",
    "spamlab:make_stratified_folds",
    "spamlab.cli:make_stratified_folds",
    "spamlab:cross_validate",
    "spamlab:sweep_attributes",
    "spamlab.cli:sweep_attributes",
    "spamlab.evaluate:train_naive_bayes",
    "spamlab.evaluate:classify_nb_batch",
    "spamlab.evaluate:build_instance_base",
    "spamlab.evaluate:classify_mb_batch",
    "spamlab.cli:main",
}


def test_benchmark_traced_names_resolve():
    tree = ast.parse((ROOT / "benchmarks" / "spans.py").read_text(encoding="utf-8"))
    (layers,) = (
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["LAYERS"]
    )
    traced = {name for names in layers.values() for name in names}
    assert TRACED <= traced, sorted(TRACED - traced)
    for name in sorted(TRACED):
        module, attribute = name.split(":")
        assert callable(getattr(importlib.import_module(module), attribute, None)), name


PYPROJECT = ROOT / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    assert True
'''


def test_failing_property_test_is_reported_not_an_internal_error(tmp_path):
    # The warning filters of pyproject.toml must let Hypothesis explain a
    # failure: one failing property must not abort the rest of the session.
    (tmp_path / "test_pair.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = run.stdout + run.stderr
    assert "INTERNALERROR" not in output, output
    assert run.returncode == 1, output
    assert "1 failed, 1 passed" in output, output
