"""Checks on the package source itself."""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "factbeam"


def test_package_has_no_assert_statements():
    """`python -O` removes assert statements, so no result may rest on one."""
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 10
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_traced_benchmark_names_exist():
    """The traced benchmark run looks package functions up by name in
    `bench/spans.py`'s `API` and `IMPORT_SITES` tables; a renamed or
    deleted function would break only those runs."""
    path = ROOT / "bench" / "spans.py"
    tables = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) in ("API", "IMPORT_SITES")
    }
    sites = [(module, name) for name, (module, _) in tables["API"].items()] + list(tables["IMPORT_SITES"])
    assert len(sites) >= 20
    missing = [
        f"{module}.{name}" for module, name in sites
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []
