import ast
from pathlib import Path

import cyclocover

SRC = Path(cyclocover.__file__).resolve().parent


def test_library_has_no_assert_statements():
    # python -O strips assert statements; library invariants raise
    # errors.InternalError instead, so they hold under -O too
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_one_process_pool_in_the_library():
    # every worker pool goes through strata.census_records, where the
    # worker count is bounded; a second pool would escape that bound
    users = {
        path.name
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if (isinstance(node, ast.Name) and node.id == "ProcessPoolExecutor")
        or (isinstance(node, ast.Attribute) and node.attr == "ProcessPoolExecutor")
        or (isinstance(node, ast.alias) and node.name == "ProcessPoolExecutor")
    }
    assert users == {"strata.py"}
