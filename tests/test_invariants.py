import ast
import os
import subprocess
import sys
from pathlib import Path

import cyclocover

SRC = Path(cyclocover.__file__).resolve().parent


def _is_assertion(node) -> bool:
    """An assert statement, or a raise of AssertionError (bare or called)."""
    if isinstance(node, ast.Assert):
        return True
    exc = node.exc if isinstance(node, ast.Raise) else None
    if isinstance(exc, ast.Call):
        exc = exc.func
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_library_has_no_assert_statements():
    # python -O strips assert statements; library invariants raise
    # errors.InternalError instead, so they hold under -O too, and carry
    # its exit code rather than surfacing as a bare AssertionError
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if _is_assertion(node)
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


def test_cli_import_loads_no_process_pool():
    # strata imports the pool where it starts one; a command that runs
    # serially never pays for concurrent.futures or multiprocessing
    code = (
        "import sys, cyclocover.cli; "
        "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


def test_factor_stays_off_the_library_paths():
    # the library finds witnesses with ff.least_factor; the complete
    # factorization is kept as a test oracle only
    users = {
        path.name
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if (isinstance(node, ast.Name) and node.id == "factor")
        or (isinstance(node, ast.Attribute) and node.attr == "factor")
        or (isinstance(node, ast.alias) and node.name == "factor")
    }
    assert users <= {"ff.py"}


def _names(tree) -> set:
    """Every name a tree uses: bare names, attribute names and imports."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def test_strata_stays_univariate():
    # strata reads phi entries only through the f(a,b,c) closed form and
    # never builds a multivariate entry
    tree = ast.parse((SRC / "strata.py").read_text())
    assert _names(tree) & {"phi_entry", "psi_entry", "specialize_infty", "FpMultiPoly"} == set()


def test_strata_reads_chains_only_through_radicals():
    # census and classify_m7 read every chain through hassewitt's radicals
    # (_census_rows); strata builds no chain and no composite of its own
    tree = ast.parse((SRC / "strata.py").read_text())
    assert _names(tree) & {"h1", "build_chain", "specialized_chain", "_heads"} == set()


def test_one_stratum_report_construction_site():
    # every census row, MuOrdinary included, becomes a StratumReport in
    # census's one report loop
    tree = ast.parse((SRC / "strata.py").read_text())
    sites = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "StratumReport"
    ]
    assert len(sites) == 1


def _reached(tree, roots) -> set:
    """The module-level functions and classes of a module that its own
    call graph reaches from `roots`: every name a reached definition uses
    that the module defines is reached too."""
    defs = {
        node.name: node for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(_names(defs[name]) & defs.keys())
    return reached


def test_univariate_chain_builds_no_multivariate_entry():
    # the specialized chain, h1 and its radical and profile take phi and
    # psi entries from the f(a,b,c) closed forms; the multivariate
    # entries and their specialization are left to h0, the hw entry
    # commands and the tests
    tree = ast.parse((SRC / "hassewitt.py").read_text())
    reached = _reached(tree, ["specialized_chain", "h1", "h1_radical", "h1_profile"])
    assert {"phi_specialized", "psi_specialized", "_heads"} <= reached
    defs = {node.name: node for node in tree.body if getattr(node, "name", None) in reached}
    used = set().union(*map(_names, defs.values()))
    forbidden = {"phi_entry", "psi_entry", "specialize_infty", "_graded_slice", "_qhat", "FpMultiPoly"}
    assert (used | reached) & forbidden == set()


def test_twisted_products_go_through_the_kernel():
    # the heads and the last-layer radical form each sum of twisted
    # products sum_j c_j Y_j^p as one ff._twisted_dot, never from
    # FpUniPoly.frobenius_pow, sparse products and dense sums
    tree = ast.parse((SRC / "hassewitt.py").read_text())
    reached = _reached(tree, ["_heads", "_row_radical"])
    defs = [node for node in tree.body if getattr(node, "name", None) in reached]
    used = set().union(*map(_names, defs))
    assert "_twisted_dot" in used
    assert "frobenius_pow" not in used


def test_fabc_builds_from_term_ratios():
    # f(a,b,c) and the Kummer coefficients come from the one ratio run
    # (one pow per polynomial), with no factorial table in the module, and
    # the census radical is built monic rather than made monic afterwards
    tree = ast.parse((SRC / "fabc.py").read_text())
    assert {name for name in _names(tree) if "fact" in name.lower()} == set()
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for name in ("fabc", "_kummer_coeffs"):
        used = _names(defs[name])
        assert "_ratio_run" in used and "pow" not in used, name
    tree = ast.parse((SRC / "hassewitt.py").read_text())
    (radical,) = [node for node in tree.body if getattr(node, "name", None) == "h1_radical_params"]
    assert "monic" not in _names(radical)


def test_only_main_writes_stdout_or_reads_the_output_option():
    # every subcommand handler returns (records, human) and prints
    # nothing; main alone picks the output and writes it
    tree = ast.parse((SRC / "cli.py").read_text())
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    handlers = [name for name in defs if name.startswith("_cmd_")]
    assert len(handlers) == 8
    for name in handlers:
        assert _names(defs[name]) & {"stdout", "print", "_emit", "_emit_json", "output"} == set(), name
    readers = {
        name for name, node in defs.items()
        if _names(node) & {"stdout", "print", "output"}
    }
    assert readers == {"main"}
    assert {"_emit", "_emit_json"} & defs.keys() == set()
