from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

SOURCES = Path(__file__).resolve().parents[1] / "src" / "spamlab"
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def test_library_imports_only_stdlib_and_numpy():
    imported = set()
    for path in SOURCES.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert imported and imported <= ALLOWED, sorted(imported - ALLOWED)


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

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
