"""Package-level properties: what importing bordismkit pulls in, which
module may reach which routine, and the README's example."""

import ast
import doctest
import gc
import io
import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "bordismkit"


def test_import_is_stdlib_only():
    # numpy was the one third-party import; the package now needs none
    # dataclasses pulls in inspect, about half of the import time; the
    # package's records are NamedTuples.  fractions pulls in decimal and
    # numbers; the polynomials are integer-only (Gauss's lemma)
    code = ("import sys, bordismkit\n"
            "for name in ('numpy', 'dataclasses', 'fractions'):\n"
            "    assert name not in sys.modules, name + ' was imported'\n")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr


def test_the_cli_imports_the_suite_only_for_verify():
    # only the verify verb runs the acceptance suite, so a cold CLI import
    # does not load it; verify still finds it
    code = ("import sys, bordismkit.cli\n"
            "assert 'bordismkit.acceptance' not in sys.modules\n")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    r = subprocess.run([sys.executable, "-m", "bordismkit.cli", "verify", "--format", "json"],
                       capture_output=True, text=True)
    assert json.loads(r.stdout)["total"] == 10


# gc calls that change the collector's state for the rest of the process,
# or run a collection in it
GC_STATE_CHANGES = {"freeze", "unfreeze", "disable", "enable", "set_threshold",
                    "set_debug", "collect"}


def test_only_the_cli_process_entry_changes_the_collector():
    # library code never changes the collector of a process that imports
    # it; the one-shot CLI process freezes it once before exit
    # (docs/decisions/0006)
    found = set()
    for module, scope, stmt in src_scopes():
        for node in ast.walk(stmt):
            if ((isinstance(node, ast.ImportFrom) and node.module == "gc")
                    or (isinstance(node, ast.Attribute) and node.attr in GC_STATE_CHANGES
                        and isinstance(node.value, ast.Name) and node.value.id == "gc")):
                found.add((module, scope))
    assert found == {("cli", "entry")}


def test_cli_main_in_process_leaves_the_collector_alone(capsys):
    from bordismkit import cli
    before = (gc.get_freeze_count(), gc.isenabled(), gc.get_threshold())
    assert cli.main(["dim", "--n", "2"]) == 0
    assert cli.main(["dim", "--n", "99"]) == 1
    assert capsys.readouterr().out.startswith('{"dim":1}\n{"error":')
    assert (gc.get_freeze_count(), gc.isenabled(), gc.get_threshold()) == before


def test_readme_example_runs():
    # the example uses both constructors across mod-2 reduction, so it
    # guards the public polynomial API
    path = Path(__file__).resolve().parents[1] / "README.md"
    test = doctest.DocTestParser().get_doctest(
        path.read_text(encoding="utf-8"), {}, "README.md", str(path), 0)
    out = io.StringIO()
    runner = doctest.DocTestRunner()
    runner.run(test, out=out.write)
    assert len(test.examples) == 7 and runner.failures == 0, out.getvalue()


def test_the_derivations_read_no_bordismkit_code():
    # tests/derivations.py answers from the mathematics alone, so it imports
    # only the standard library: not bordismkit, nor an oracle that does
    path = Path(__file__).resolve().parent / "derivations.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or "").split(".")[0])
    assert imported and imported <= sys.stdlib_module_names, imported


def test_only_the_integer_window_takes_determinants():
    # a basis and its determinant's sign come from one elimination, the
    # ring's dual-basis hook, and the window's determinants from its
    # search's minors; no module under src/ defines, imports or calls a
    # determinant routine (the Bareiss oracle lives in the tests)
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "det":
                found.add((path.stem, "defines det"))
            elif isinstance(node, ast.ImportFrom) and any(a.name == "det" for a in node.names):
                found.add((path.stem, "imports det"))
            elif isinstance(node, ast.Attribute) and node.attr == "det":
                found.add((path.stem, "reads .det"))
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "det"):
                found.add((path.stem, "calls det"))
    assert found == set()


def test_only_the_ring_hooks_name_the_dual_basis_routines():
    # a basis is inverted only by the one hook ``Polynomial._dual_rows`` in
    # ``algebra``, keyed by the ring's modulus; intmat defines the routine,
    # no other module under src/ imports, reads or calls it, and the GF(2)
    # elimination ``inverse_transpose`` is gone
    assert scopes_naming("dual_basis") == {("algebra", "Polynomial._dual_rows")}
    assert scopes_naming("inverse_transpose") == set()
    defined = {(path.stem, node.name) for path in sorted(SRC.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and node.name in ("dual_basis", "inverse_transpose")}
    assert defined == {("intmat", "dual_basis")}


def src_scopes():
    """(module, top-level function or Class.method, its AST) for every
    scope of every module under src/."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for stmt in tree.body:
            if isinstance(stmt, ast.ClassDef):
                for s in stmt.body:
                    if isinstance(s, ast.FunctionDef):
                        yield path.stem, f"{stmt.name}.{s.name}", s
            else:
                yield path.stem, getattr(stmt, "name", "<module>"), stmt


def scopes_naming(name):
    """(module, scope) of every reference to ``name`` under src/, as an
    import, an attribute or a bare name."""
    found = set()
    for module, scope, stmt in src_scopes():
        for node in ast.walk(stmt):
            if ((isinstance(node, ast.ImportFrom) and any(a.name == name for a in node.names))
                    or (isinstance(node, ast.Attribute) and node.attr == name)
                    or (isinstance(node, ast.Name) and node.id == name)):
                found.add((module, scope))
    return found


def test_only_text_is_parsed_with_int():
    # an integer argument is read by ``algebra.exact_int`` (operator.index,
    # with an optional lower bound), which refuses 1.5 and "1"; the builtin
    # int() truncates and parses, so it is called only where text is parsed:
    # the decimal coloring.map keys of the JSON form (twice),
    # BORDISMKIT_MAX_N, and the binary digits in ``_slot_bits``
    calls = sorted((module, scope) for module, scope, stmt in src_scopes()
                   for node in ast.walk(stmt)
                   if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                   and node.func.id == "int")
    assert calls == [("jsonio", "polytope_from_obj"), ("jsonio", "polytope_from_obj"),
                     ("kernels", "max_rank_limit"), ("localization", "_slot_bits")]


def test_no_module_multiplies_or_divides_polynomials():
    # every localization sum, verdict and value alike, is read off exact
    # evaluations (docs/decisions/0002, 0003): no module under src/ names
    # the sparse route's division, accumulator or ladders, none reaches a
    # ``product`` in mvpoly (the name is the polytope product's and
    # itertools'), and mvpoly defines no multiplication
    for name in ("divide_linear", "combination", "_ladders"):
        assert scopes_naming(name) == set(), name
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.ImportFrom) and (node.module or "").endswith("mvpoly")
                    and any(a.name == "product" for a in node.names)):
                found.add((path.stem, "imports mvpoly.product"))
            elif (isinstance(node, ast.Attribute) and node.attr == "product"
                  and isinstance(node.value, ast.Name) and node.value.id == "mvpoly"):
                found.add((path.stem, "reads mvpoly.product"))
    assert found == set()
    tree = ast.parse((SRC / "mvpoly.py").read_text(encoding="utf-8"))
    defined = {node.name for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    assert not defined & {"__mul__", "__rmul__", "__imul__", "__matmul__", "__truediv__",
                          "__floordiv__", "product", "combination", "divide_linear"}


def test_all_names_exactly_the_package_imports():
    # every exported name resolves and appears once, and __all__ is the set
    # of public names the package's ``from .x import`` lines bind, so a
    # deleted function cannot leave a stale export
    import bordismkit
    exported = bordismkit.__all__
    assert len(exported) == len(set(exported))
    assert all(hasattr(bordismkit, name) for name in exported)
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names}
    assert set(exported) == {name for name in imported if not name.startswith("_")}
