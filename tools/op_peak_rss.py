"""Print each benchmark op's own peak RSS, for two checkouts side by side.

    python3 tools/op_peak_rss.py PARENT CHANGE [--workload NAME] [--seed N] [--runs K]

PARENT and CHANGE are checkout roots, each with a ``src/ballbound``.  Every
op of the workload's round (from this checkout's ``perfbench/ops.py``) runs
``--runs`` times per tree, alternating the trees, each time as a fresh
``python -m ballbound.cli`` process with that tree's ``src`` as PYTHONPATH,
``PYTHONDONTWRITEBYTECODE=1`` and one BLAS thread.  A row shows the lowest
and highest ``ru_maxrss`` (MB) that ``os.wait4`` gave for the op in each
tree; ``*`` marks the op with the largest peak in a tree.  An op whose
output fails its benchmark check is listed as failed, and the exit code is
then 1.

A process's maxrss carries over ``exec`` and starts from what its parent
held: on Linux ``subprocess`` spawns with vfork, so every child of a
numpy-sized caller reads at least the caller's own RSS.  Each op therefore
runs under a small launcher that forks a fresh process for it, so the
figure is the op's own (about 13 MB for a bare ``python -c pass`` under
CPython 3.11 on x86-64 Linux).
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.dont_write_bytecode = True  # leave no cache in perfbench/
from ops import OP_TIMEOUT_S, WORKLOADS  # noqa: E402  (perfbench is a directory of scripts)

SINGLE_THREADED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
# argv: report path, then the CLI arguments; prints "<exit code> <maxrss KiB>"
LAUNCHER = """\
import os, sys
pid = os.fork()
if pid == 0:
    os.dup2(os.open(sys.argv[1], os.O_WRONLY | os.O_CREAT | os.O_TRUNC), 1)
    os.execv(sys.executable, [sys.executable, "-m", "ballbound.cli", *sys.argv[2:]])
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def own_peak(tree: Path, op, argv: list[str], work: Path) -> tuple[float, str | None]:
    """(maxrss in MB, why the output is wrong or None) of one run of ``op``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    env.update(SINGLE_THREADED)
    report_path = work / "report.json"
    proc = subprocess.run(
        [sys.executable, "-c", LAUNCHER, str(report_path), *argv],
        capture_output=True, text=True, env=env, cwd=work, timeout=OP_TIMEOUT_S,
    )
    code, maxrss_kib = map(int, proc.stdout.split())
    try:
        report = json.loads(report_path.read_bytes())
    except ValueError:
        report = None
    return maxrss_kib / 1024.0, op.check(code, report)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout root of the parent")
    parser.add_argument("change", type=Path, help="checkout root of the change")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default="cli-polar2d")
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    parser.add_argument("--runs", type=int, default=3, help="runs of each op per tree")
    args = parser.parse_args(argv)
    trees = [args.parent.resolve(), args.change.resolve()]
    for tree in trees:
        if not (tree / "src" / "ballbound").is_dir():
            parser.error(f"{tree} has no src/ballbound")

    ops = WORKLOADS[args.workload](args.seed).round
    peaks = {}  # (op index, tree index) -> [MB, ...]
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for i, op in enumerate(ops):
            config = work / f"config-{i}.json"
            if op.config is not None:
                config.write_text(json.dumps(op.config))
            cli = [str(config) if a == "{config}" else a for a in op.args]
            for run in range(args.runs):
                for t in (0, 1) if run % 2 == 0 else (1, 0):
                    mb, reason = own_peak(trees[t], op, cli, work)
                    peaks.setdefault((i, t), []).append(mb)
                    if reason:
                        failures.append(f"{op.label} [{trees[t]}]: {reason}")

    largest = [max(range(len(ops)), key=lambda i: max(peaks[i, t])) for t in (0, 1)]
    print(f"# own peak RSS (MB, os.wait4 ru_maxrss, min-max of {args.runs} runs),"
          f" workload {args.workload}, seed {args.seed}; * = largest op")
    width = max(len(op.label) for op in ops)
    print(f"{'op':<{width}}  {'parent':>13}  {'change':>13}")
    for i, op in enumerate(ops):
        cells = [
            f"{min(peaks[i, t]):.2f}-{max(peaks[i, t]):.2f}{'*' if largest[t] == i else ' '}"
            for t in (0, 1)
        ]
        print(f"{op.label:<{width}}  {cells[0]:>13}  {cells[1]:>13}")
    for line in failures:
        print(f"# FAILED {line}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
