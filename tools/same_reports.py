"""Check that two checkouts give the same reports on every benchmark op.

    python3 tools/same_reports.py PARENT CHANGE [SEED ...]

PARENT and CHANGE are checkout roots, each with a ``src/ballbound``.  For
each seed (default 1 2 3), every op and probe of the workloads in this
checkout's ``perfbench/ops.py`` runs once per tree, as a fresh
``python -m ballbound.cli`` process with that tree's ``src`` as PYTHONPATH
and ``PYTHONDONTWRITEBYTECODE=1``.  A run differs when its exit code, its
report without ``timings``, or its stderr differs.  Before stderr is
compared, a warning's location ``<path>/ballbound/<module>.py:<line>`` and
the source line printed under it are normalized, so code that moved is not a
difference.  Each differing run is printed; the exit code is 1 if any run
differs and 0 otherwise.
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

    runs = differing = 0
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        config = work / "config.json"
        for seed in args.seeds:
            for name, make in WORKLOADS.items():
                workload = make(seed)
                for op in [*workload.round, *(probe.op for probe in workload.probes)]:
                    if op.config is not None:
                        config.write_text(json.dumps(op.config))
                    cli = [str(config) if a == "{config}" else a for a in op.args]
                    parent, change = (run_op(tree, cli, work) for tree in trees)
                    runs += 1
                    lines = describe(parent, change)
                    if lines:
                        differing += 1
                        print(f"seed {seed} {name} [{op.label}]: " + "; ".join(lines), flush=True)
    print(f"{runs - differing} of {runs} runs identical")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
