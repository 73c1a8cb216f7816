"""Start-up cost: no command loads scipy, the bare package loads nothing, and a
command runs only the ballbound modules it uses."""
import json
from pathlib import Path

import pytest

from conftest import run_python

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

RADIAL_COMMANDS = """
import json, os, sys
import ballbound, ballbound.cli
for argv in (
    ["bound", "--builtin", "euclidean"],
    ["oracle", "--builtin", "hyperbolic", "--dimension", "3", "--grid", "512"],
    ["symmetrize", "--builtin", "spherical", "--grid", "512"],
    ["compare", "--builtin", "euclidean", "--kappa", "-1", "--grid", "512"],
    ["oracle", "--config", sys.argv[1], "--grid", "512"],
):
    assert ballbound.cli.main([*argv, "--output", os.devnull]) == 0, argv
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""

POLAR_COMMANDS = """
import json, os, sys
import ballbound.cli
for command in ("bound", "symmetrize", "compare"):
    argv = [command, "--config", sys.argv[1], "--grid", "256", "--theta", "32"]
    assert ballbound.cli.main([*argv, "--output", os.devnull]) == 0, argv
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""

ORACLE_2D_COMMANDS = """
import json, os, sys
import ballbound.cli
for argv in (
    ["paper-example", "--radius", "1", "--grid", "256", "--theta", "32", "--mesh", "24x24"],
    ["oracle", "--config", sys.argv[1], "--mesh", "24x24"],
):
    assert ballbound.cli.main([*argv, "--output", os.devnull]) == 0, argv
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""

# perfbench/tracing.py wraps each (module, attribute) of these tables by name
# after importing ballbound.cli; a name that does not resolve breaks every
# traced benchmark op.
TRACED_NAMES = """
import ast, json, sys, types
import ballbound.cli
tree = ast.parse(open(sys.argv[1], encoding="utf-8").read())
tables = {
    target.id: ast.literal_eval(node.value)
    for node in tree.body if isinstance(node, ast.Assign)
    for target in node.targets if target.id in ("SPANNED", "COUNTED")
}
names = [key for table in tables.values() for key in table]
missing = [f"{m}.{a}" for m, a in names if not callable(getattr(sys.modules.get(m), a, None))]
# a lookup runs a module that the cli loads lazily, so every wrapper lands in a real module
lazy = sorted({m for m, _ in names if type(sys.modules.get(m)) is not types.ModuleType})
print(json.dumps({"tables": sorted(tables), "names": len(names), "missing": missing, "lazy": lazy}))
"""

# The ballbound modules one command ran, and those it left unrun.  The cli
# loads compare, exprparse, moments and oracle lazily: each is in sys.modules
# from the cli's import on, but stays a LazyLoader module, not yet a
# types.ModuleType, until an attribute of it is read.  Reading one here would
# run it, so only the module's type is looked at.
MODULES_RUN = """
import json, os, sys, types
import ballbound.cli
code = ballbound.cli.main([*sys.argv[1:], "--output", os.devnull])
modules = {n[10:]: m for n, m in sys.modules.items() if n.startswith("ballbound.")}
ran = sorted(n for n, m in modules.items() if type(m) is types.ModuleType)
print(json.dumps([code, ran, sorted(set(modules) - set(ran))]))
"""

# a module that was loaded before the cli is the one the cli uses, and a lazy
# one is bound on the package like any imported submodule
SAME_MODULES = """
import json, sys
import ballbound.exprparse as exprparse
import ballbound.cli
import ballbound.oracle
print(json.dumps([
    ballbound.cli.exprparse is exprparse,
    ballbound.oracle is ballbound.cli.oracle is sys.modules["ballbound.oracle"],
    ballbound.oracle.Mesh2D.__module__,
]))
"""


PACKAGE_IMPORT = """
import json, sys
import ballbound
print(json.dumps(sorted(m for m in sys.modules if m.startswith("ballbound.") or m.split(".")[0] == "numpy")))
"""


def test_package_import_loads_no_module():
    # each name has one home, its defining module; the package re-exports nothing
    proc = run_python("-c", PACKAGE_IMPORT)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


def test_cli_import_loads_no_dataclasses():
    # record classes are named tuples or plain classes: no code generation at import
    proc = run_python("-c", "import sys, ballbound.cli; print('dataclasses' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_radial_commands_load_no_scipy(tmp_path):
    area = tmp_path / "area.json"
    area.write_text(json.dumps({"kind": "area", "area": "2*pi*sinh(t)", "radius": 1.0}))
    proc = run_python("-c", RADIAL_COMMANDS, str(area))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


def test_polar_symmetrization_loads_no_scipy(tmp_path):
    # the area of a 2-D density is interpolated by the grid's own Hermite rule
    polar = tmp_path / "polar.json"
    polar.write_text(json.dumps({"kind": "polar2d", "rho": "r*(1 + 0.3*sin(3*theta))"}))
    proc = run_python("-c", POLAR_COMMANDS, str(polar))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


def test_2d_oracle_loads_no_scipy(tmp_path):
    # the 2-D eigensolver is numpy only: matrix-free operator, FFT preconditioner, LOBPCG
    polar = tmp_path / "polar.json"
    polar.write_text(json.dumps({"kind": "polar2d", "rho": "r*(1 + 0.3*sin(3*theta))"}))
    proc = run_python("-c", ORACLE_2D_COMMANDS, str(polar))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


def test_benchmark_traced_names_resolve():
    proc = run_python("-c", TRACED_NAMES, str(TRACING))
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["tables"] == ["COUNTED", "SPANNED"] and out["names"] > 0
    assert out["missing"] == [] and out["lazy"] == []


EAGER = ["cli", "errors", "geometry"]


@pytest.mark.parametrize(
    "argv,ran",
    [
        (["bound", "--builtin", "euclidean"], [*EAGER, "moments"]),
        (["oracle", "--builtin", "hyperbolic", "--dimension", "3", "--grid", "512"],
         [*EAGER, "oracle"]),
        (["symmetrize", "--builtin", "spherical", "--grid", "512"], EAGER),
        (["bound", "--config", "{area}", "--grid", "512"], [*EAGER, "exprparse", "moments"]),
        (["compare", "--builtin", "euclidean", "--kappa", "-1", "--grid", "512"],
         [*EAGER, "compare", "moments", "oracle"]),
        (["paper-example", "--grid", "256", "--theta", "32", "--mesh", "16x16"],
         [*EAGER, "compare", "moments", "oracle"]),
    ],
    ids=["bound", "oracle", "symmetrize", "bound-config", "compare", "paper-example"],
)
def test_command_runs_only_the_modules_it_uses(tmp_path, argv, ran):
    area = tmp_path / "area.json"
    area.write_text(json.dumps({"kind": "area", "area": "2*pi*t", "radius": 1.0}))
    argv = [str(area) if arg == "{area}" else arg for arg in argv]
    proc = run_python("-c", MODULES_RUN, *argv)
    assert proc.returncode == 0, proc.stderr
    lazy = ["compare", "exprparse", "moments", "oracle"]
    unrun = sorted(set(lazy) - set(ran))
    assert json.loads(proc.stdout.splitlines()[-1]) == [0, sorted(ran), unrun]


def test_lazy_modules_are_the_package_modules():
    proc = run_python("-c", SAME_MODULES)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [True, True, "ballbound.oracle"]
