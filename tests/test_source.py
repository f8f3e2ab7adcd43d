"""Checks on the package source itself."""

import ast
import importlib
import re
from pathlib import Path

import factbeam

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "factbeam"
README = (ROOT / "README.md").read_text(encoding="utf-8")


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


def test_sources_parse_as_python_3_10():
    """pyproject.toml says requires-python >= 3.10, so no file may use
    syntax a later Python added (`except*`, say)."""
    paths = sorted(path for top in ("src", "tests", "bench") for path in (ROOT / top).rglob("*.py"))
    assert len(paths) >= 30
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


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


def test_every_exported_name_is_in_the_readme():
    """`__all__` is the surface the README documents, no more."""
    assert len(factbeam.__all__) <= 30
    assert [name for name in factbeam.__all__ if not re.search(rf"\b{name}\b", README)] == []


def test_no_package_code_serves_only_the_tests():
    """Every top-level def and class and every non-dunder method is used
    by other package code, the benchmark or a README; code that only
    the tests call belongs in the tests. `__init__.py`'s re-exports are
    not uses."""
    defined, used = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((f"{path.name}:{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                defined += [
                    (f"{path.name}:{node.name}.{item.name}", item.name)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and not re.fullmatch(r"__\w+__", item.name)
                ]
        if path.name != "__init__.py":
            used.update(n.id for n in ast.walk(tree) if isinstance(n, ast.Name))
            used.update(n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute))
    texts = [*sorted((ROOT / "bench").glob("*.py")), ROOT / "README.md", ROOT / "bench" / "README.md"]
    used.update(re.findall(r"\w+", " ".join(p.read_text(encoding="utf-8") for p in texts)))
    assert len(defined) >= 80
    assert [label for label, name in defined if name not in used] == []


def test_readme_quick_start_gives_the_commented_set():
    """The README's Python block runs, imports only exported names, and
    its top set is the one its comment shows."""
    block = re.search(r"```python\n(.*?)```", README, re.S).group(1)
    imported = [
        alias.name
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert imported and set(imported) <= set(factbeam.__all__)
    namespace: dict = {}
    exec(compile(block, "README.md", "exec"), namespace)
    shown = re.search(r"^top_set, log_prob = ranked\[0\]\n# (frozenset\(.*?\))  ", block, re.M).group(1)
    assert namespace["top_set"] == eval(shown, {"frozenset": frozenset, "Triplet": factbeam.Triplet})
