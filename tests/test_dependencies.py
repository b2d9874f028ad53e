from __future__ import annotations

import ast
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
