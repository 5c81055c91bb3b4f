"""Each `wickred` command loads only the modules it runs.

Every case runs in a fresh interpreter: in this process an earlier test
has already imported every module, so a command that forgot to import one
would pass here and fail on the command line.
"""

import ast
import gc
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import wickred
import wickred.cli

SRC = str(Path(__file__).resolve().parents[1] / "src")
CORE = {"wickred", "wickred.cli"}
# what `mul` and `verify` load through `wick`: the Laurent kernel
KERNEL = {"scalar", "series", "poly", "sparse", "wick"}
# what every `verify` suite loads: the kernel, the random inputs, the suites
VERIFY = KERNEL | {"sampling", "suites"}

PROBE = """
import contextlib, io, json, sys
import wickred.cli
rc = None
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = wickred.cli.main(sys.argv[1:])
print(json.dumps({"rc": rc, "modules": sorted(sys.modules)}))
"""


def _fresh(args: list, check: bool = True) -> subprocess.CompletedProcess:
    """`python ARGS` in a fresh interpreter that imports wickred from src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, *args], env=env, check=check,
                          capture_output=True, text=True, timeout=120)


def _last_json(proc: subprocess.CompletedProcess):
    return json.loads(proc.stdout.splitlines()[-1])


def _loaded(argv: list) -> tuple:
    """(exit code of `wickred ARGV`, or None for a bare import; the module
    names loaded), from a fresh interpreter."""
    got = _last_json(_fresh(["-c", PROBE, *argv]))
    return got["rc"], set(got["modules"])


@pytest.mark.parametrize("argv, extra", [
    ([], set()),
    (["mul", "--lhs", "x", "--rhs", "x", "--order", "2", "--product", "wick"],
     KERNEL | {"parser"}),
    (["mul", "--lhs", "x", "--rhs", "x", "--order", "2", "--product", "tilde",
      "--d-series", "1,1"], KERNEL | {"parser", "coeffs", "equiv"}),
    # the reduced product needs c_{r,s} but neither S nor the transformed product
    (["mul", "--lhs", "z0*zb0/x", "--rhs", "x", "--order", "2", "--product", "mu"],
     KERNEL | {"parser", "coeffs", "reduction"}),
    # the tables are plain rationals: no Laurent kernel
    (["table", "a-coeff", "--rmax", "3", "--format", "latex"], {"coeffs", "scalar"}),
    (["table", "k-coeff", "--rmax", "3", "--format", "latex"], {"coeffs", "scalar"}),
    # the sphere recursion runs on univariate polynomials; the chart check,
    # on the sparse kernel, is `chart`, which only `verify moreno` runs
    (["moreno", "--rmax", "3", "--format", "latex"], {"coeffs", "scalar", "series", "moreno"}),
    # each suite loads the layers it checks, and a passing report formats
    # no term, so the parser stays unloaded
    (["verify", "lemma21", "--order", "1"], VERIFY),
    (["verify", "equiv", "--order", "1"], VERIFY | {"coeffs", "equiv"}),
    (["verify", "reduce", "--order", "1"], VERIFY | {"coeffs", "equiv", "reduction"}),
    (["verify", "moreno", "--order", "1", "--rmax", "3"], VERIFY | {"coeffs", "moreno", "chart"}),
    (["verify", "su1n", "--order", "1"], VERIFY | {"coeffs", "reduction"}),
    (["verify", "all", "--order", "1", "--rmax", "3"],
     VERIFY | {"coeffs", "equiv", "moreno", "chart", "reduction"}),
], ids=lambda a: (" ".join(a)[:60] or "import") if isinstance(a, list) else "+".join(sorted(a)) or "core")
def test_command_loads_only_its_modules(argv, extra):
    rc, modules = _loaded(argv)
    assert rc == (0 if argv else None)
    assert {m for m in modules if m.split(".")[0] == "wickred"} == CORE | {
        f"wickred.{m}" for m in extra}
    assert "dataclasses" not in modules
    # the division by x, and so `heapq`, is in the sparse kernel
    assert ("heapq" in modules) == ("wickred.sparse" in modules)


@pytest.mark.parametrize("argv", [
    ["mul", "--mu", "abc", "--lhs", "x", "--rhs", "x"],
    ["verify", "all", "--n", "9"],
], ids=" ".join)
def test_malformed_flag_exits_before_any_layer_loads(argv):
    """A flag value that `cli` rejects exits 2 having loaded no layer of
    the package."""
    rc, modules = _loaded(argv)
    assert rc == 2
    assert {m for m in modules if m.split(".")[0] == "wickred"} == CORE


BARE = """
import json, sys
import wickred
loaded = sorted(m for m in sys.modules if m.startswith("wickred."))
try:
    wickred.no_such_name
    unknown = None
except AttributeError as e:
    unknown = str(e)
resolved = {name: type(getattr(wickred, name)).__name__ for name in wickred.__all__}
print(json.dumps({"loaded": loaded, "unknown": unknown, "resolved": resolved,
                  "suites": list(wickred.SUITE_NAMES)}))
"""


def test_bare_package_import_loads_no_submodule():
    """`import wickred` loads no submodule; each public name is imported on
    first use, and an unknown name is an AttributeError."""
    got = _last_json(_fresh(["-c", BARE]))
    assert got["loaded"] == []
    assert got["unknown"] == "module 'wickred' has no attribute 'no_such_name'"
    assert sorted(got["resolved"]) == sorted(wickred.__all__)
    assert got["suites"] == ["lemma21", "equiv", "reduce", "moreno", "su1n"]


FAILING = """
import json, sys
from wickred import suites
from wickred.poly import VarSpace
from wickred.series import Series
from wickred.wick import momentum_map
before = sorted(m for m in sys.modules if m.startswith("wickred."))
checks = []
suites._zero(checks, "t", Series.const(momentum_map(VarSpace.cpn(2)), 3).times_lambda(1), K=3)
after = sorted(m for m in sys.modules if m.startswith("wickred."))
print(json.dumps({"before": before, "after": after, "check": list(checks[0])}))
"""


def test_failing_check_formats_its_residual_in_a_fresh_process():
    """A failing check formats its residual through modules that a suite
    may not have loaded (`equiv`, `parser`); the detail string is the same
    as in a process that has loaded everything."""
    from wickred import suites
    from wickred.poly import VarSpace
    from wickred.series import Series
    from wickred.wick import momentum_map

    got = _last_json(_fresh(["-c", FAILING]))
    # `suites` alone: no `cli`, no layer past the kernel, no parser
    assert got["before"] == sorted(f"wickred.{m}" for m in VERIFY)
    assert {"wickred.equiv", "wickred.parser"} <= set(got["after"])
    checks = []
    suites._zero(checks, "t", Series.const(momentum_map(VarSpace.cpn(2)), 3).times_lambda(1), K=3)
    assert got["check"] == ["t", False, checks[0].detail]
    assert checks[0].detail.startswith("order 3, first nonzero at l^1: ")


def test_console_script_enters_through_run():
    """`wickred` is `cli.run`, which freezes the collector after `main`."""
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    section = text.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert section.strip().splitlines() == ['wickred = "wickred.cli:run"']


@pytest.mark.parametrize("argv, rc", [
    (["verify", "moreno", "--order", "1"], 0),
    (["mul", "--lhs", "(", "--rhs", "x"], 2),
])
def test_module_entry_matches_main(argv, rc, capsys):
    """`python -m wickred.cli` gives `main`'s exit code and output; `main`
    itself, as tests and in-process callers run it, leaves the collector
    unfrozen."""
    frozen = gc.get_freeze_count()
    assert wickred.cli.main(argv) == rc
    assert gc.get_freeze_count() == frozen
    out, err = capsys.readouterr()
    proc = _fresh(["-m", "wickred.cli", *argv], check=False)
    assert (proc.returncode, proc.stdout, proc.stderr) == (rc, out, err)


ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "wickred").glob("*.py"))
BENCH = sorted((ROOT / "perfbench").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))


def _trees(paths: list) -> dict:
    """File name -> parsed module, for each path."""
    return {p.name: ast.parse(p.read_text()) for p in paths}


def _docstrings(tree) -> set:
    """ids of the docstring nodes of a module and of its classes and functions."""
    return {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)
            and isinstance(node.body[0].value.value, str)}


def _identifier_uses(tree) -> set:
    """Identifiers that code uses: names, attributes, imported names and
    the identifier parts of strings that are not docstrings (span paths,
    export tables).  Comments and docstrings do not count."""
    docs = _docstrings(tree)
    uses = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            uses.add(node.id)
        elif isinstance(node, ast.Attribute):
            uses.add(node.attr)
        elif isinstance(node, ast.alias):
            uses.update(node.name.split("."))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docs):
            uses.update(re.findall(r"[A-Za-z_]\w*", node.value))
    return uses


def test_every_library_name_has_a_caller():
    """Each function, method and class defined in `src/wickred` (dunders
    aside) is used by code in `src/wickred` or `perfbench`, not only named
    in a comment or docstring: code that only tests call lives under
    `tests/`."""
    library = _trees(LIBRARY)
    defined = {node.name
               for tree in library.values()
               for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and not node.name.startswith("__")}
    uses = set()
    for tree in [*library.values(), *_trees(BENCH).values()]:
        uses |= _identifier_uses(tree)
    assert sorted(defined - uses) == []


def test_only_the_kernel_reads_triples_and_orders_keys():
    """Only `scalar` and `sparse` read the (p, q, d) triples of a
    coefficient, only `sparse` orders keys on a heap, and only `wick`
    builds derivative tables: every other layer goes through their API."""
    triples, heaps, tables = set(), set(), set()
    for name, tree in _trees(LIBRARY).items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in ("p", "q", "d"):
                triples.add(name)
            elif isinstance(node, ast.Import) and any(a.name == "heapq" for a in node.names):
                heaps.add(name)
            elif isinstance(node, ast.ImportFrom) and node.module == "heapq":
                heaps.add(name)
            elif isinstance(node, ast.Call) and "DerivCache" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                tables.add(name)
    assert triples <= {"scalar.py", "sparse.py"}
    assert heaps <= {"sparse.py"}
    assert tables <= {"wick.py"}


def _unnamed_parameters(tree) -> list:
    """(function, parameter) for each parameter of a function or lambda,
    `self` and `cls` aside, that its body never names."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if p]
        body = node.body if isinstance(node.body, list) else [node.body]
        named = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
        out += [(getattr(node, "name", "<lambda>"), p) for p in params
                if p not in ("self", "cls") and p not in named]
    return out


def test_every_parameter_is_read():
    """Each function and lambda in `src/wickred` names every parameter it
    takes in its body: a context, a size or a table that a function never
    reads is not passed to it."""
    unread = [f"{name[:-3]}.{func}/{param}" for name, tree in _trees(LIBRARY).items()
              for func, param in _unnamed_parameters(tree)]
    assert unread == []


def test_radial_functions_are_laurent_elements():
    """A radial function is a Laurent element in x: only the sphere's
    Delta-polynomials are `UnivarPoly`s, so only `series` (which defines
    it), `moreno` (which builds them) and `suites` (which formats their
    residuals) name it.  The package's export table lists every public
    name, so it does not count."""
    naming = {name[:-3] for name, tree in _trees(LIBRARY).items()
              if name != "__init__.py" and "UnivarPoly" in _identifier_uses(tree)}
    assert naming == {"series", "moreno", "suites"}


def _scopes_naming(tree, ident: str, scope: str = "") -> set:
    """Qualified names (``Class.method``, ``function``) of the innermost
    definitions whose code names `ident` as a name, an attribute or an
    import; "" stands for module level."""
    found = set()
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            found |= _scopes_naming(node, ident, f"{scope}.{node.name}".lstrip("."))
            continue
        if ident in (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None)):
            found.add(scope)
        found |= _scopes_naming(node, ident, scope)
    return found


def test_only_sum_of_products_lifts_to_a_common_x_power():
    """Lifting summands to a common power of x lives in one rule:
    `LaurentElem.sum_of_products`, which `+` and `-` call too.  Besides it,
    only `is_radial` names `_x_pow_poly`, to compare a slice with x^d."""
    naming = {f"{name[:-3]}.{scope}" for name, tree in _trees(LIBRARY).items()
              for scope in _scopes_naming(tree, "_x_pow_poly")}
    assert naming == {"poly.LaurentElem.sum_of_products", "poly.is_radial"}


def _unused_imports(tree) -> list:
    """Names that an import binds and the module never reads: no Name
    node loads it and no attribute chain starts at it.  `__future__`
    imports bind nothing."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_every_imported_name_is_used():
    """No module of `src/wickred` or `tests/` imports a name it never uses."""
    unused = [f"{path.parent.name}/{path.name}: {name}" for path in (*LIBRARY, *TESTS)
              for name in _unused_imports(ast.parse(path.read_text()))]
    assert unused == []
