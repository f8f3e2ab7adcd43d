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



def _opens_for_reading(call: ast.Call) -> bool:
    """`open(...)` or `x.open(...)` in a reading mode, or `x.read_text()` / `x.read_bytes()`."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name in ("read_text", "read_bytes"):
        return True
    if name != "open":
        return False
    mode = next((kw.value for kw in call.keywords if kw.arg == "mode"), None)
    if mode is None:
        mode = call.args[1] if len(call.args) > 1 else ast.Constant("r")
    value = getattr(mode, "value", None)
    return not isinstance(value, str) or "r" in value or "+" in value


def test_one_reader_opens_input_files():
    """Text inputs are read through `fileio._read_lines`, which puts the
    file and line on every error; besides it only the binary trie reader
    and the file hash open files for reading."""
    found = {
        f"{path.name}:{fn.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and _opens_for_reading(node)
    }
    assert sorted(found) == ["fileio.py:_read_lines", "fileio.py:load_trie", "fileio.py:sha256_file"]
