"""Start-up cost: radial commands run on numpy alone, scipy loads where it is used."""
import json

from conftest import run_python

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

PAPER_EXAMPLE = """
import inspect, json, os, sys
import ballbound.cli, ballbound.oracle

original = ballbound.oracle.splu
factors = []

def recording_splu(matrix):
    lu = original(matrix)
    factors.append(lu.L.nnz + lu.U.nnz)
    return lu

ballbound.oracle.splu = recording_splu
argv = ["paper-example", "--radius", "1", "--grid", "256", "--theta", "32",
        "--mesh", "24x24", "--output", os.devnull]
assert ballbound.cli.main(argv) == 0
print(json.dumps({
    "function": inspect.isfunction(original),
    "module": original.__module__,
    "factor_nnz": factors,
    "sparse_linalg_loaded": "scipy.sparse.linalg" in sys.modules,
}))
"""


def test_radial_commands_load_no_scipy(tmp_path):
    area = tmp_path / "area.json"
    area.write_text(json.dumps({"kind": "area", "area": "2*pi*sinh(t)", "radius": 1.0}))
    proc = run_python("-c", RADIAL_COMMANDS, str(area))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


def test_2d_oracle_factors_through_module_level_splu():
    proc = run_python("-c", PAPER_EXAMPLE)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["function"] and out["module"] == "ballbound.oracle"
    # eigen_2d_refined factors the mesh and its refinement
    assert len(out["factor_nnz"]) == 2 and min(out["factor_nnz"]) > 0
    assert out["sparse_linalg_loaded"]
