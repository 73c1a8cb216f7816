"""Print the supported-domain map: each radial ball with a closed-form eigenvalue, run once.

    python3 tools/domain_map.py [SUBCOMMAND ...]

SUBCOMMAND is ``bound`` or ``oracle`` (default both).  Every cell runs
in-process through ``ballbound.cli.main`` at the default grid and tolerance and
prints one line: the subcommand, the cell, the exit code and the relative
error of the reported eigenvalue against its closed form (with the number of
hierarchy levels for ``bound``), or the first line of stderr when no value is
reported.  The closed forms are j^2(n/2 - 1, 1) for the Euclidean unit
n-ball, pi^2/R^2 - 1 for the ball of radius R in S^3 and 1 + pi^2/R^2 in H^3.
The source tree of this checkout comes first on ``sys.path``.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

from scipy.special import jn_zeros

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from ballbound.cli import main  # noqa: E402  (after the source tree is on the path)


def _euclidean(n: int) -> float:
    # J_(1/2)(x) is sqrt(2/(pi x)) sin x; the other dimensions have integer order
    return math.pi**2 if n == 3 else float(jn_zeros(n // 2 - 1, 1)[0] ** 2)


# (label, CLI arguments, closed form, subcommands it runs for)
BOTH = ("bound", "oracle")
CELLS = [
    *[(f"Euclidean n = {n}", ["--builtin", "euclidean", "--dimension", str(n)], _euclidean(n), BOTH)
      for n in (2, 3, 8, 16, 20, 24, 32, 54)],
    *[(f"S3 R = {f} pi", ["--builtin", "spherical", "--dimension", "3", "--radius", repr(f * math.pi)],
       1.0 / f**2 - 1.0, BOTH)
      for f in (0.99, 0.999, 0.9999)],
    *[(f"H3 R = {r}", ["--builtin", "hyperbolic", "--dimension", "3", "--radius", str(r)],
       1.0 + math.pi**2 / r**2, BOTH)
      for r in (8, 20, 50, 300, 400)],
    *[(f"H3 R = {r} --kmax {k}",
       ["--builtin", "hyperbolic", "--dimension", "3", "--radius", str(r), "--kmax", str(k)],
       1.0 + math.pi**2 / r**2, ("bound",))
      for r, k in ((50, 2000), (300, 5000))],
]


def run_cell(command: str, args: list[str], exact: float, out: Path) -> str:
    """One cell's exit code and relative error, or its stderr when it reports no value."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([command, *args, "--output", str(out)])
    if code not in (0, 3):
        return f"exit {code}  {(err.getvalue().splitlines() or [''])[0]}"
    report = json.loads(out.read_text())
    if command == "bound":
        value, levels = report["bound"], f"  ({len(report['series']['norm'])} levels)"
    else:
        value, levels = report["oracle"]["lambda1"], ""
    return f"exit {code}  {value / exact - 1.0:+.2e}{levels}"


def run(commands: list[str]) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.json"
        for command in commands:
            for label, args, exact, runs_for in CELLS:
                if command in runs_for:
                    print(f"{command:6}  {label:24}  {run_cell(command, args, exact, out)}", flush=True)


if __name__ == "__main__":
    commands = sys.argv[1:] or list(BOTH)
    unknown = sorted(set(commands) - set(BOTH))
    if unknown:
        sys.exit(f"unknown subcommand {unknown[0]!r}; choose from {', '.join(BOTH)}")
    run(commands)
