"""Check that two checkouts give the same reports on benchmark ops, error and success paths.

    python3 tools/same_reports.py PARENT CHANGE [SEED ...]

PARENT and CHANGE are checkout roots, each with a ``src/ballbound``.  For
each seed (default 1 2 3), every op and probe of the workloads in this
checkout's ``perfbench/ops.py`` runs once per tree; then each command of
``ERROR_PATHS``, all of which end in an error, and of ``SUCCESS_PATHS``,
which succeed on inputs the benchmark ops never reach, runs once per tree.
Every run is a fresh ``python -m ballbound.cli`` process with that tree's ``src``
as PYTHONPATH and ``PYTHONDONTWRITEBYTECODE=1``.  A run differs when its
exit code, its report without ``timings``, or its stderr differs; a report
that differs is listed by the fields (dotted paths, ``[]`` for any list
entry) that differ, each with its largest relative difference when both
values are numbers.  Before
stderr is compared, a warning's location ``<path>/ballbound/<module>.py:<line>``
and the source line printed under it are normalized, so code that moved is
not a difference.  Each differing run is printed; the exit code is 1 if any
run differs and 0 otherwise.
"""
from __future__ import annotations

import argparse
import json
import math
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


# a density off the centre law, and one negative near t = 0.33 only, between
# the probes made when a metric is built
CONE = {"kind": "polar2d", "rho": "2*r", "radius": 1}
DIP = {"kind": "polar2d", "radius": 1,
       "rho": "r*(1-3*exp(-((r-0.35)/0.02)^2-((theta-0.1)/0.05)^2))"}

# (label, CLI arguments, config written to "{config}" or None): commands that
# end in an error, whose exit code and stderr the benchmark ops never show; a
# config given as a string is written as it is, not as JSON
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
    ("flat builtin kappa", ["bound", "--builtin", "euclidean", "--kappa", "5"], None),
    ("builtin curvature twice", ["bound", "--builtin", "spherical(2)", "--kappa", "3"], None),
    ("malformed builtin curvature", ["bound", "--builtin", "hyperbolic(--1)"], None),
    ("cone warping oracle", ["oracle", "--config", "{config}"],
     {"kind": "warping", "omega": "2*t"}),
    ("sign-changing warping n=3 bound", ["bound", "--config", "{config}"],
     {"kind": "warping", "omega": "sin(t)", "dimension": 3, "radius": 4}),
    ("cone density bound", ["bound", "--config", "{config}"], CONE),
    ("cone density oracle", ["oracle", "--config", "{config}"], CONE),
    ("dip density bound", ["bound", "--config", "{config}"], DIP),
    ("deeply nested config", ["bound", "--config", "{config}"], "[" * 100000),
    ("deeply nested reference warping",
     ["compare", "--builtin", "euclidean", "--ref-warping", "(" * 2000 + "t" + ")" * 2000], None),
    ("paper-example radius 1e-320", ["paper-example", "--radius", "1e-320"], None),
    ("paper-example grid 4", ["paper-example", "--grid", "4"], None),
    ("compare reference past its conjugate locus",
     ["compare", "--builtin", "euclidean", "--kappa", "100"], None),
    ("zero area at a node symmetrize", ["symmetrize", "--config", "{config}"],
     {"kind": "area", "dimension": 2, "area": "2*pi*t*((t-0.375)/0.375)^2"}),
    ("compare negative reference",
     ["compare", "--builtin", "euclidean", "--ref-warping", "t - 2*t^2"], None),
    ("compare reference off the centre law",
     ["compare", "--builtin", "euclidean", "--ref-warping", "2*t"], None),
    ("compare reference that overflows", ["compare", "--builtin", "euclidean", "--kappa=-1e6"], None),
    ("shooting sweep leaves the float range",
     ["oracle", "--builtin", "hyperbolic", "--kappa=-4", "--dimension", "3", "--radius", "177.3"],
     None),
    ("grid too large to allocate",
     ["symmetrize", "--builtin", "euclidean", "--grid", str(10**15)], None),
    ("2-D oracle eigenvalue underflows", ["oracle", "--config", "{config}"],
     {"kind": "polar2d", "rho": "r", "radius": 1e180}),
    ("2-D oracle eigenvalue overflows", ["oracle", "--config", "{config}"],
     {"kind": "polar2d", "rho": "r", "radius": 1e-170}),
]

WAVY = {"kind": "polar2d", "rho": "sinh(r)*(1+0.2*sin(2*theta))", "radius": 2}
BUMPED = {"kind": "polar2d", "radius": 3,
          "rho": "r + 0.3*piecewise(r <= 2: 0; exp(-1/(r-2)^2))*cos(2*theta)"}
# commands that succeed off the benchmark's path: every benchmark op runs on
# grid 4096 with a flat-area density, so these reach the rules' end rows on
# other grids and the last node of a curved area; and at 256 angles, so the
# 384-angle runs on grid 5000 move the edges of the row blocks in which a
# (radius x angle) field is evaluated; and the 99% angular variation on a
# 40 x 96 mesh takes LOBPCG through 214 steps, where the benchmark's
# densities, at most 40% variation, take under 20; and the paper example at
# 256 x 256 solves on 512 x 512, four times the benchmark's largest mesh; and
# the shooting cells off the benchmark's n <= 3, radius 0.3-8: dimensions 20
# to 50, spherical balls near the conjugate point pi, hyperbolic areas up to
# e^600, and eigenvalues near 6e8, where the root search ends on adjacent
# floats, and near 6e-300; and a density symmetrized at radii 1e-160, 3e106
# and 1e150, far from the benchmark's
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
    ("lopsided density oracle mesh 40x96",
     ["oracle", "--config", "{config}", "--mesh", "40x96", "--tol", "1e-10"],
     {"kind": "polar2d", "rho": "r*(1+0.99*sin(theta))", "radius": 1}),
    ("paper-example mesh 256x256", ["paper-example", "--mesh", "256x256"], None),
    ("oracle dimension 20", ["oracle", "--builtin", "euclidean", "--dimension", "20"], None),
    ("oracle dimension 30", ["oracle", "--builtin", "euclidean", "--dimension", "30"], None),
    ("oracle dimension 50", ["oracle", "--builtin", "euclidean", "--dimension", "50"], None),
    ("oracle spherical radius 3.1",
     ["oracle", "--builtin", "spherical", "--dimension", "3", "--radius", "3.1"], None),
    ("oracle spherical radius 3.1384",
     ["oracle", "--builtin", "spherical", "--dimension", "3", "--radius", "3.1384"], None),
    ("oracle hyperbolic radius 20",
     ["oracle", "--builtin", "hyperbolic", "--dimension", "3", "--radius", "20"], None),
    ("oracle hyperbolic radius 300",
     ["oracle", "--builtin", "hyperbolic", "--dimension", "3", "--radius", "300"], None),
    ("oracle radius 1e-4", ["oracle", "--builtin", "euclidean", "--radius", "1e-4"], None),
    ("oracle radius 1e150", ["oracle", "--builtin", "euclidean", "--radius", "1e150"], None),
    ("polar density symmetrize radius 3e106", ["symmetrize", "--config", "{config}"],
     {"kind": "polar2d", "rho": "r", "radius": 3e106}),
    ("polar density bound radius 1e150", ["bound", "--config", "{config}"],
     {"kind": "polar2d", "rho": "r", "radius": 1e150}),
    ("polar density symmetrize radius 1e-160", ["symmetrize", "--config", "{config}"],
     {"kind": "polar2d", "rho": "r", "radius": 1e-160}),
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


def differing_fields(parent, change, path: str = "") -> dict:
    """{field path: largest relative difference} where two JSON values differ; the
    difference is inf unless both values are finite numbers.  List entries share
    their list's path plus ``[]``."""
    fields = {}
    if isinstance(parent, dict) and isinstance(change, dict):
        for key in parent.keys() | change.keys():
            inner = f"{path}.{key}" if path else key
            fields.update(differing_fields(parent.get(key), change.get(key), inner))
    elif isinstance(parent, list) and isinstance(change, list) and len(parent) == len(change):
        for a, b in zip(parent, change):
            for key, rel in differing_fields(a, b, f"{path}[]").items():
                fields[key] = max(rel, fields.get(key, 0.0))
    elif parent != change:
        numbers = [v for v in (parent, change) if type(v) in (int, float) and math.isfinite(v)]
        fields[path] = (
            abs(parent - change) / max(map(abs, numbers)) if len(numbers) == 2 else math.inf
        )
    return dict(sorted(fields.items()))


def describe(parent: tuple, change: tuple) -> list[str]:
    """One line per part of the outcome that differs."""
    lines = []
    if parent[0] != change[0]:
        lines.append(f"exit code {parent[0]} -> {change[0]}")
    if parent[1] != change[1]:
        if isinstance(parent[1], dict) and isinstance(change[1], dict):
            fields = differing_fields(parent[1], change[1])
            lines.append("report differs in " + ", ".join(
                key if rel == math.inf else f"{key} ({rel:.2g})" for key, rel in fields.items()
            ))
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
                path.write_text(config if isinstance(config, str) else json.dumps(config))
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
