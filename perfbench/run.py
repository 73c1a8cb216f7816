"""ballbound benchmark: seeded workloads, checked outputs, end-to-end and per-layer metrics.

Run from the root of a checkout (no install needed; ``src`` goes on PYTHONPATH):

    python3 perfbench/run.py --workload cli-radial --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all          # one row per workload

``--trace 0`` measures the end-to-end metrics, ``--trace 1`` the per-layer
ones (see README.md).  The last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it are a
human-readable table.  Exit code 2 without a result means the benchmark could
not run at all (for instance, no ``src/ballbound`` next to it).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

from ops import OP_TIMEOUT_S, PROBE_TIMEOUT_S, WORKLOADS
from tracing import layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
DEFAULT_SEED = 1
DEFAULT_SECONDS = 45
SETUP_REPEATS = 5
GRACE_S = 2.0  # after SIGTERM, before SIGKILL
END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}
SINGLE_THREADED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


@dataclass
class Outcome:
    label: str
    wall: float
    reason: str | None = None  # why the op failed; None when it passed its check
    timed_out: bool = False
    record: dict | None = None  # spans and counts of a traced op


def environment() -> dict:
    src = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in src:
        data = path.read_bytes()
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = done.stdout.strip() or sha
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
        "src_lines": lines,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "default_seed": DEFAULT_SEED,
    }


def host_loop_ms() -> float:
    """Median wall time of a fixed pure-Python loop, in milliseconds.

    A shared host's speed drifts by tens of percent over minutes, for every
    process alike; this figure, taken before and after the timed part of a
    run, tells a slow host from a slow program.
    """
    walls = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        walls.append(time.perf_counter() - start)
    return statistics.median(walls) * 1000.0


def child_env() -> dict:
    """The environment of every program process: ``src`` on the path, one BLAS thread.

    The program does no parallel work of its own, but OpenBLAS starts a
    thread per core and spins them on vector products; on a shared 2-core
    host an op then waits for whichever core the host stalls, and its wall
    time follows the neighbours' load rather than the program.
    """
    paths = [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths), **SINGLE_THREADED)


def run_process(cmd: list[str], timeout: float, stdout_path: Path, stderr_path: Path) -> tuple[int, float, bool]:
    """Run ``cmd`` to completion or until ``timeout``; returns (code, wall, timed_out).

    The wait blocks in waitpid (no polling, which would quantize the wall
    time); a timer thread sends SIGTERM at the timeout and SIGKILL after a
    grace period.
    """
    expired = threading.Event()
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=ROOT)

        def terminate():
            expired.set()
            proc.terminate()

        timers = [threading.Timer(timeout, terminate), threading.Timer(timeout + GRACE_S, proc.kill)]
        for timer in timers:
            timer.start()
        try:
            code = proc.wait()
            wall = time.perf_counter() - start
        finally:
            for timer in timers:
                timer.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if expired.is_set():
        return code, timeout, True
    return code, wall, False


def _stderr_tail(path: Path) -> str:
    lines = path.read_text(errors="replace").strip().splitlines()
    return lines[-1][:200] if lines else ""


class CliRunner:
    """Runs CliOps as fresh processes of the same interpreter."""

    def __init__(self, workload, work: Path):
        self.work = work
        self.argv = {}
        for i, op in enumerate([*workload.round, *(p.op for p in workload.probes)]):
            config = work / f"config-{i}.json"
            if op.config is not None:
                config.write_text(json.dumps(op.config))
            self.argv[id(op)] = [str(config) if a == "{config}" else a for a in op.args]
        self.count = 0

    def run(self, op, traced: bool, timeout: float = OP_TIMEOUT_S) -> Outcome:
        self.count += 1
        out, err = self.work / "stdout", self.work / "stderr"
        spans = self.work / f"spans-{self.count}.json"
        if traced:
            cmd = [sys.executable, str(HERE / "traced_cli.py"), f"{self.count}:{op.label}", str(spans)]
        else:
            cmd = [sys.executable, "-m", "ballbound.cli"]
        code, wall, timed_out = run_process(cmd + self.argv[id(op)], timeout, out, err)
        outcome = Outcome(op.label, wall, timed_out=timed_out)
        if traced and spans.exists():
            outcome.record = json.loads(spans.read_text())
            spans.unlink()
        if timed_out:
            outcome.reason = f"timed out after {timeout:g} s"
            return outcome
        try:
            report = json.loads(out.read_bytes())
        except ValueError:
            report = None
        outcome.reason = op.check(code, report)
        if outcome.reason and code != 0 and _stderr_tail(err):
            outcome.reason += f" ({_stderr_tail(err)})"
        return outcome


def measure_setup(work: Path) -> list[float]:
    """Wall times of SETUP_REPEATS fresh ``python -c "import ballbound"`` processes."""
    walls = []
    for _ in range(SETUP_REPEATS):
        out, err = work / "stdout", work / "stderr"
        status, wall, _ = run_process([sys.executable, "-c", "import ballbound"], 120.0, out, err)
        if status != 0:
            raise SystemExit(f"error: set-up failed with exit code {status}: {_stderr_tail(err)}")
        walls.append(wall)
    return walls


def _failed(outcomes: list[Outcome]) -> list[Outcome]:
    return [o for o in outcomes if o.reason]


def run_workload(args) -> int:
    if not (ROOT / "src" / "ballbound" / "__init__.py").is_file():
        print(f"error: no ballbound sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = environment()
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir()
    try:
        workload = WORKLOADS[args.workload](args.seed)
        runner = CliRunner(workload, work)
        round_ops = workload.round[: args.ops] if args.ops else workload.round
        env["host_loop_ms"] = [host_loop_ms()]
        if args.trace:
            result, probes = traced_run(args, runner, workload, round_ops)
        else:
            result, probes = untraced_run(args, runner, workload, round_ops, measure_setup(work))
        env["host_loop_ms"].append(host_loop_ms())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print_result(args, env, workload, result, probes)
    return 0


def _run_probes(runner, workload, traced: bool) -> list[Outcome]:
    return [runner.run(p.op, traced, PROBE_TIMEOUT_S) for p in workload.probes]


def repeat_within(seconds: float, step) -> int:
    """Call ``step`` once, then again while one more call as long as the last
    would end within ``seconds`` of the start; returns the number of calls."""
    start = time.perf_counter()
    calls = 0
    while True:
        began = time.perf_counter()
        step()
        calls += 1
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            return calls


def untraced_run(args, runner, workload, round_ops, setup_walls):
    """Closed loop, one client: whole rounds of the ops, as many as fit in --seconds.

    Stopping only between rounds keeps the mix of a run the same whatever the
    host's speed, so that ops_per_s does not depend on which ops fit.
    """
    outcomes: list[Outcome] = []
    start = time.perf_counter()
    repeat_within(args.seconds, lambda: outcomes.extend(runner.run(op, traced=False) for op in round_ops))
    wall = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    probes = _run_probes(runner, workload, traced=False)
    failed = _failed(outcomes)
    metrics = {
        "setup_s": statistics.median(setup_walls),
        "ops_per_s": (len(outcomes) - len(failed)) / wall,
        "peak_rss_mb": peak,
    }
    result = {
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
        "outcomes": outcomes,
        "wall": wall,
    }
    return result, probes


def traced_run(args, runner, workload, round_ops):
    """Whole passes, as many as fit in --seconds.

    A pass runs the probes traced, then every op of the round twice, untraced
    and traced in alternating order, so that the tracing overhead is measured
    on the same inputs.
    """
    outcomes: list[Outcome] = []
    records: list[tuple[dict, bool]] = []
    overheads: list[float] = []
    probes: list[Outcome] = []

    def one_pass():
        probes[:] = _run_probes(runner, workload, traced=True)
        records.extend((p.record, p.timed_out) for p in probes if p.record is not None)
        for i, op in enumerate(round_ops):
            order = (False, True) if i % 2 == 0 else (True, False)
            pair = {traced: runner.run(op, traced) for traced in order}
            outcomes.extend(pair.values())
            overheads.append(pair[True].wall - pair[False].wall)
            if pair[True].record is not None:
                records.append((pair[True].record, pair[True].timed_out))

    passes = repeat_within(args.seconds, one_pass)
    spans_file = WORK / f"trace-{args.workload}-seed{args.seed}.jsonl"
    with open(spans_file, "w", encoding="utf-8") as fh:
        for record, _ in records:
            for span in record["spans"]:
                fh.write(json.dumps(span) + "\n")
    failed = _failed(outcomes)
    result = {
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": layer_metrics(records, passes, overheads),
        "outcomes": outcomes,
        "passes": passes,
        "spans_file": spans_file,
    }
    return result, probes


def print_result(args, env, workload, result, probes) -> None:
    mode = "traced" if args.trace else "untraced"
    print(f"# ballbound benchmark, workload {args.workload}, seed {args.seed}, {mode}, --seconds {args.seconds}")
    print("# env " + json.dumps(env))
    for outcome in _failed(result["outcomes"])[:10]:
        print(f"# FAILED {outcome.label}: {outcome.reason}")
    for probe, outcome in zip(workload.probes, probes):
        status = f"fails: {outcome.reason}" if outcome.reason else "passes"
        print(
            f"# known defect ({probe.roadmap}) {probe.op.label}: {status}; {outcome.wall:.3f} s"
            f" [{probe.defect}]"
        )
    rows = [(name, m["value"], m["unit"]) for name, m in result["metrics"].items()]
    if args.trace:
        print(f"# per pass of {len(workload.probes)} probes + the round; {result['passes']} passes;"
              f" spans in {result['spans_file'].relative_to(ROOT)}")
    else:
        # Printed, not in the JSON metrics: see README.md, "End-to-end metrics".
        outcomes = result["outcomes"]
        rows.append(("op_wall_p50_s", statistics.median(o.wall for o in outcomes), "s"))
        rows.append(("failed_frac", result["failed"] / result["attempted"], "1"))
        print(f"# {result['attempted']} ops in {result['wall']:.2f} s;"
              f" setup_s median of {SETUP_REPEATS}; op_wall_p50_s over {result['attempted']} samples")
    for name, value, unit in rows:
        print(f"{args.workload:<13} {name:<36} {value:>16.6g} {unit}")
    final = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(final))


def run_all(args) -> int:
    """Every workload in its own process; one row per workload."""
    results, rows = {}, {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.ops:
            cmd += ["--ops", str(args.ops)]
        done = subprocess.run(cmd, capture_output=True, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return done.returncode
        lines = done.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1])
        for line in lines[:-1]:
            if line.startswith(("# known defect", "# FAILED")):
                print(line)
            elif not line.startswith("#"):
                _, metric, value, unit = line.split()
                rows.setdefault(metric, {"unit": unit})[name] = float(value)
    heads = [f"{metric} [{row['unit']}]" for metric, row in rows.items()]
    print(f"{'workload':<13}" + "".join(f"{h:>{max(14, len(h) + 2)}}" for h in heads))
    for w in WORKLOADS:
        cells = [f"{row[w]:>{max(14, len(h) + 2)}.6g}" for h, row in zip(heads, rows.values())]
        print(f"{w:<13}" + "".join(cells))
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="run whole rounds (traced: passes) while one more fits in this many seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=0, help="use only the first N ops of the round (smoke tests)")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
