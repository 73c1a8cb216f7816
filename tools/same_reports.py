"""Check that two checkouts give the same reports on benchmark ops, error and success paths.

    python3 tools/same_reports.py PARENT CHANGE [SEED ...]

PARENT and CHANGE are checkout roots, each with a ``src/ballbound``.  For
each seed (default 1 2 3), every op and probe of the workloads in this
checkout's ``perfbench/ops.py`` runs once per tree; then each command of
``ERROR_PATHS``, all of which end in an error, and of ``SUCCESS_PATHS``,
which succeed on inputs the benchmark ops never reach, runs once per tree.
Every run is a fresh ``python -m ballbound.cli`` process with that tree's ``src``
as PYTHONPATH and ``PYTHONDONTWRITEBYTECODE=1``.  A run differs when its
exit code, its report without ``timings``, or its stderr differs.  Before
stderr is compared, a warning's location ``<path>/ballbound/<module>.py:<line>``
and the source line printed under it are normalized, so code that moved is
not a difference.  Each differing run is printed; the exit code is 1 if any
run differs and 0 otherwise.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.dont_write_bytecode = True  # leave no cache in perfbench/
from ops import WORKLOADS  # noqa: E402  (perfbench is a directory of scripts, not a package)

TIMEOUT_S = 120.0
SINGLE_THREADED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
# "<path>/ballbound/<module>.py:<line>: <Category>: <message>", then the
# indented source line that the warnings module prints when it can read it
WARNING_AT = re.compile(r"^\S*/ballbound/(\w+)\.py:\d+:(.*)(\n  .*)?$", re.MULTILINE)


# (label, CLI arguments, config written to "{config}" or None): commands that
# end in an error, whose exit code and stderr the benchmark ops never show
ERROR_PATHS = [
    ("subnormal radius", ["bound", "--builtin", "euclidean", "--radius", "1e-320"], None),
    ("oracle dimension 90", ["oracle", "--builtin", "euclidean", "--dimension", "90"], None),
    ("bound dimension 60", ["bound", "--builtin", "euclidean", "--dimension", "60"], None),
    ("hyperbolic radius 400",
     ["bound", "--builtin", "hyperbolic", "--dimension", "3", "--radius", "400"], None),
    ("coarse paper mesh", ["paper-example", "--mesh", "8x8"], None),
    ("expression syntax",
     ["compare", "--builtin", "euclidean", "--ref-warping", "sinh(t"], None),
    ("area dimension 80", ["bound", "--config", "{config}"],
     {"kind": "area", "area": "2*pi*t", "dimension": 80}),
    ("bound radius 1e-200", ["bound", "--builtin", "euclidean", "--radius", "1e-200"], None),
    ("compare radius 1e-200",
     ["compare", "--builtin", "euclidean", "--radius", "1e-200"], None),
    ("paper-example model flags",
     ["paper-example", "--dimension", "3", "--kappa", "5", "--builtin", "euclidean"], None),
    ("builtin curvature", ["bound", "--builtin", "euclidean(2)"], None),
    ("cone warping oracle", ["oracle", "--config", "{config}"],
     {"kind": "warping", "omega": "2*t"}),
    ("sign-changing warping n=3 bound", ["bound", "--config", "{config}"],
     {"kind": "warping", "omega": "sin(t)", "dimension": 3, "radius": 4}),
]

WAVY = {"kind": "polar2d", "rho": "sinh(r)*(1+0.2*sin(2*theta))", "radius": 2}
BUMPED = {"kind": "polar2d", "radius": 3,
          "rho": "r + 0.3*piecewise(r <= 2: 0; exp(-1/(r-2)^2))*cos(2*theta)"}
# commands that succeed off the benchmark's path: every benchmark op runs on
# grid 4096 with a flat-area density, so these reach the rules' end rows on
# other grids and the last node of a curved area; and at 256 angles, so the
# 384-angle runs on grid 5000 move the edges of the row blocks in which a
# (radius x angle) field is evaluated
SUCCESS_PATHS = [
    ("bound grid 16", ["bound", "--builtin", "euclidean", "--grid", "16"], None),
    ("moment grid 8", ["bound", "--builtin", "euclidean", "--grid", "8"], None),
    ("curved-centre area oracle", ["oracle", "--config", "{config}", "--grid", "256"],
     {"kind": "area", "area": "2*pi*t*(1+10*t)"}),
    ("spherical grid 16384",
     ["bound", "--builtin", "spherical", "--dimension", "3", "--radius", "3.1",
      "--grid", "16384"], None),
    ("oracle grid 12",
     ["oracle", "--builtin", "hyperbolic", "--dimension", "3", "--radius", "5",
      "--grid", "12"], None),
    ("wavy bound", ["bound", "--config", "{config}", "--grid", "512"], WAVY),
    ("wavy compare", ["compare", "--config", "{config}", "--grid", "512"], WAVY),
    ("symmetrize csv", ["symmetrize", "--config", "{config}", "--grid", "64", "--format", "csv"],
     {"kind": "polar2d", "rho": "sinh(r)", "radius": 2}),
    ("paper-example radius 3.5", ["paper-example", "--radius", "3.5", "--grid", "1024"], None),
    ("bumped compare grid 5000 theta 384",
     ["compare", "--config", "{config}", "--grid", "5000", "--theta", "384"], BUMPED),
    ("paper-example theta 384", ["paper-example", "--grid", "5000", "--theta", "384"], None),
]


def normalize_stderr(text: str) -> str:
    return WARNING_AT.sub(r"…/ballbound/\1.py:<line>:\2", text)


def run_op(tree: Path, argv: list[str], cwd: Path) -> tuple:
    """(exit code, report without timings or raw stdout, normalized stderr) of one process."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    env.update(SINGLE_THREADED)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ballbound.cli", *argv],
            capture_output=True, text=True, env=env, cwd=cwd, timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return f"timed out after {TIMEOUT_S:g} s", None, ""
    try:
        report = json.loads(proc.stdout)
    except ValueError:
        report = proc.stdout
    if isinstance(report, dict):
        report.pop("timings", None)
    return proc.returncode, report, normalize_stderr(proc.stderr)


def describe(parent: tuple, change: tuple) -> list[str]:
    """One line per part of the outcome that differs."""
    lines = []
    if parent[0] != change[0]:
        lines.append(f"exit code {parent[0]} -> {change[0]}")
    if parent[1] != change[1]:
        if isinstance(parent[1], dict) and isinstance(change[1], dict):
            keys = parent[1].keys() | change[1].keys()
            keys = sorted(k for k in keys if parent[1].get(k) != change[1].get(k))
            lines.append(f"report differs in {', '.join(keys)}")
        else:
            lines.append("stdout differs (not two JSON reports)")
    if parent[2] != change[2]:
        lines.append(f"stderr {parent[2]!r} -> {change[2]!r}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout root of the parent")
    parser.add_argument("change", type=Path, help="checkout root of the change")
    parser.add_argument("seeds", type=int, nargs="*", default=[1, 2, 3], help="workload seeds")
    args = parser.parse_args(argv)
    trees = [args.parent.resolve(), args.change.resolve()]
    for tree in trees:
        if not (tree / "src" / "ballbound").is_dir():
            parser.error(f"{tree} has no src/ballbound")

    runs = [
        (f"seed {seed} {name} [{op.label}]", op.args, op.config)
        for seed in args.seeds
        for name, make in WORKLOADS.items()
        for workload in [make(seed)]
        for op in [*workload.round, *(probe.op for probe in workload.probes)]
    ]
    runs += [(f"error path [{label}]", argv, config) for label, argv, config in ERROR_PATHS]
    runs += [(f"success path [{label}]", argv, config) for label, argv, config in SUCCESS_PATHS]
    differing = 0
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        path = work / "config.json"
        for label, argv, config in runs:
            if config is not None:
                path.write_text(json.dumps(config))
            cli = [str(path) if a == "{config}" else a for a in argv]
            parent, change = (run_op(tree, cli, work) for tree in trees)
            lines = describe(parent, change)
            if lines:
                differing += 1
                print(f"{label}: " + "; ".join(lines), flush=True)
    print(f"{len(runs) - differing} of {len(runs)} runs identical")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
