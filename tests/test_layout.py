"""The test suite's layout: a helper shared by test modules lives in helpers.py only."""

import ast
from collections import defaultdict
from pathlib import Path

TESTS = Path(__file__).parent


def offences(path, helpers):
    """(file, line, what) for each import of a test_* module and each redefined helper in path."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module] if getattr(node, "module", None) else [alias.name for alias in node.names]
            if any(part.startswith("test_") for name in names for part in name.split(".")):
                yield path.name, node.lineno, f"imports {', '.join(names)}"
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in helpers:
            yield path.name, node.lineno, f"defines {node.name}, which helpers.py defines"


def test_no_test_module_imports_another_or_redefines_a_helper():
    tree = ast.parse((TESTS / "helpers.py").read_text(encoding="utf-8"))
    helpers = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert {"adjacency", "first_violation", "labels", "powers", "random_gnp", "random_relabelling",
            "relabel_table", "run", "write_table"} <= helpers
    found = [hit for path in sorted(TESTS.glob("*.py")) if path.name != "helpers.py"
             for hit in offences(path, helpers)]
    assert found == []


def test_no_two_files_define_one_helper_name():
    # Test functions are exempt: pytest names each by its module.
    files = defaultdict(list)
    for path in sorted(TESTS.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("test_"):
                files[node.name].append(path.name)
    assert {name: where for name, where in files.items() if len(where) > 1} == {}
