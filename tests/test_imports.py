"""Each `wickred` command loads only the modules it runs.

Every case runs in a fresh interpreter: in this process an earlier test
has already imported every module, so a command that forgot to import one
would pass here and fail on the command line.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wickred

SRC = str(Path(__file__).resolve().parents[1] / "src")
CORE = {"wickred", "wickred.cli", "wickred.scalar", "wickred.series"}
# what `mul` and `verify` load through `wick`: the Laurent kernel
KERNEL = {"poly", "sparse", "wick"}

PROBE = """
import contextlib, io, json, sys
import wickred.cli
rc = None
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = wickred.cli.main(sys.argv[1:])
print(json.dumps({"rc": rc, "modules": sorted(sys.modules)}))
"""


def _loaded(argv: list) -> tuple:
    """(exit code of `wickred ARGV`, or None for a bare import; the module
    names loaded), from a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", PROBE, *argv], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    got = json.loads(out.splitlines()[-1])
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
    (["table", "a-coeff", "--rmax", "3", "--format", "latex"], {"coeffs"}),
    (["table", "k-coeff", "--rmax", "3", "--format", "latex"], {"coeffs"}),
    # the sphere recursion runs on univariate polynomials; the chart check
    # needs the sparse kernel when it runs, which `moreno` never does
    (["moreno", "--rmax", "3", "--format", "latex"], {"coeffs", "sparse", "moreno"}),
    # a passing report formats no term, so the parser stays unloaded
    (["verify", "su1n", "--order", "1"],
     KERNEL | {"coeffs", "equiv", "moreno", "reduction", "sampling", "suites"}),
], ids=lambda a: (" ".join(a)[:60] or "import") if isinstance(a, list) else "+".join(sorted(a)) or "core")
def test_command_loads_only_its_modules(argv, extra):
    rc, modules = _loaded(argv)
    assert rc == (0 if argv else None)
    assert {m for m in modules if m.split(".")[0] == "wickred"} == CORE | {
        f"wickred.{m}" for m in extra}
    assert "dataclasses" not in modules


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
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", BARE], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    got = json.loads(out.splitlines()[-1])
    assert got["loaded"] == []
    assert got["unknown"] == "module 'wickred' has no attribute 'no_such_name'"
    assert sorted(got["resolved"]) == sorted(wickred.__all__)
    assert got["suites"] == ["lemma21", "equiv", "reduce", "moreno", "su1n"]
