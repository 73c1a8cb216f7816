"""The benchmark's workloads: seeded operations and the checks of their outputs.

A workload is a *round*, a fixed sequence of op kinds whose parameters are
drawn from the seed, which the benchmark repeats.  Keeping the sequence fixed
and drawing only the parameters makes every seed exercise the same layers in
the same proportions.

Each workload also pins *probes*: inputs that hit a known defect of the
program.  Probes run outside the timed mix and are reported on their own, so
that every op of the timed mix must succeed and one failing op is a
regression.  A probe starts to pass once the ROADMAP item named with it lands.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from reference import J0_SQ, RadialModel

# The CLI's default --tol, also run_until_converged's default tolerance.
TOL = 1e-8
GRID = 4096  # the CLI's default radial grid
# Per-op wall-clock limit of the timed mix, well above the slowest healthy op
# of either workload (about 1.3 s and 3.4 s on a quiet 2-core host) even when
# the host runs at half speed.
OP_TIMEOUT_S = 10.0
# A probe's limit: it passes only once its input is handled about as fast as
# the healthy ops around it.  The D3 probe, for one, finishes after about 7 s.
PROBE_TIMEOUT_S = 6.0


def combined_tolerance(reference: float) -> float:
    """Estimator tail plus oracle bisection width, as in compare.cheng_report."""
    return 5.0 * TOL * abs(reference) + TOL


@dataclass
class CliOp:
    """One fresh ``python -m ballbound.cli`` process.

    ``args`` follow the module name; the token ``{config}`` stands for the
    path of ``config`` written as JSON.  ``check`` gets the exit code and the
    parsed JSON report (None when stdout is not JSON) and returns why the
    output is wrong, or None.
    """

    label: str
    args: list[str]
    check: Callable[[int, dict | None], str | None]
    config: dict | None = None


@dataclass
class Probe:
    op: CliOp
    defect: str
    roadmap: str


@dataclass
class Workload:
    name: str
    round: list[CliOp]
    probes: list[Probe]


# ---------------------------------------------------------------------------
# checks


def _close(what: str, value, reference: float, tol: float | None = None) -> str | None:
    tol = combined_tolerance(reference) if tol is None else tol
    if not isinstance(value, (int, float)) or not abs(value - reference) <= tol:
        return f"{what} = {value!r}, reference {reference!r} (tolerance {tol:.3g})"
    return None


def _first(*reasons: str | None) -> str | None:
    return next((r for r in reasons if r), None)


def _report_check(check: Callable[[dict], str | None]):
    def run(code: int, report: dict | None) -> str | None:
        if code != 0:
            return f"exit code {code}"
        if report is None:
            return "stdout is not a JSON report"
        return check(report)

    return run


def check_bound(reference: float):
    def check(report):
        if not report["series"]["converged"]:
            return "estimators did not converge"
        return _close("bound", report["bound"], reference)

    return _report_check(check)


def check_radial_oracle(reference: float):
    return _report_check(lambda r: _close("oracle lambda1", r["oracle"]["lambda1"], reference))


def check_compare(target: float, reference: float, verdict: str):
    def check(report):
        c = report["comparison"]
        return _first(
            _close("bound", c["bound"], target),
            _close("reference_lambda", c["reference_lambda"], reference),
            None if c["monotone_ok"] else "area ratio reported not monotone",
            None if c["verdict"] == verdict else f"verdict {c['verdict']!r}, expected {verdict!r}",
        )

    return _report_check(check)


def check_symmetrize(model: RadialModel):
    def check(report):
        table = report["table"]
        t = np.asarray(table["t"])
        if t.size != GRID + 1 or t[0] != 0.0 or not math.isclose(t[-1], model.radius):
            return f"table has {t.size} nodes on [{t[0]}, {t[-1]}]"
        for key, exact in (("area", model.area(t[1:])), ("omega", model.warping(t[1:]))):
            got = np.asarray(table[key][1:])
            err = float(np.max(np.abs(got - exact) / np.abs(exact)))
            if not err <= 1e-9:
                return f"{key} column off by {err:.3g} relative"
        return None

    return _report_check(check)


def check_oracle_2d(reference: float, exact: bool):
    """The fine-mesh eigenvalue against the flat-disc value j0^2/R^2.

    ``exact``: the metric is the flat disc in other coordinates, so the value
    must lie within twice its own Richardson estimate of the reference.
    Otherwise the reference is the symmetrization bound, which the value
    must not exceed by more than that margin.
    """

    def check(report):
        o = report["oracle"]
        lam, margin = o["lambda1"], 2.0 * abs(o["richardson"]) + combined_tolerance(reference)
        if exact:
            return _close("2-D oracle lambda1", lam, reference, margin)
        if not 0.0 < lam <= reference + margin:
            return f"2-D oracle lambda1 = {lam!r} above the bound {reference!r}"
        return None

    return _report_check(check)


def check_paper_example(radius: float):
    bound = J0_SQ / radius**2

    def check(report):
        c, o = report["comparison"], report["oracle"]
        return _first(
            None if c["area_max_error"] < 1e-10 else f"area error {c['area_max_error']!r}",
            None if report["series"]["converged"] else "estimators did not converge",
            _close("bound", report["bound"], bound),
            None
            if o["lambda1"] + abs(o["richardson"]) < report["bound"]
            else f"oracle {o['lambda1']!r} not strictly below the bound",
        )

    return _report_check(check)


# ---------------------------------------------------------------------------
# seeded inputs


def _r4(x: float) -> float:
    return round(x, 4)


def _space_form(rng: random.Random, family: str, n: int) -> RadialModel:
    """A space-form ball with radius in [0.3, 8], spherical ones below the conjugate radius."""
    if family == "spherical":
        kappa = _r4(rng.uniform(0.5, 2.0))
        return RadialModel(n, _r4(rng.uniform(0.3, 0.85 * math.pi / math.sqrt(kappa))), kappa)
    kappa = 0.0 if family == "euclidean" else -_r4(rng.uniform(0.5, 2.0))
    return RadialModel(n, _r4(math.exp(rng.uniform(math.log(0.3), math.log(8.0)))), kappa)


def _radial_source(rng: random.Random, source: str, n: int):
    """(model, CLI args, config) for one radial model source."""
    if source in ("euclidean", "hyperbolic", "spherical"):
        model = _space_form(rng, source, n)
        spec = source if source == "euclidean" else f"{source}({model.kappa!r})"
        args = ["--builtin", spec, "--dimension", str(n), "--radius", repr(model.radius)]
        return model, args, None
    if source == "warping":
        model = RadialModel(n, _r4(rng.uniform(0.3, 3.0)), cubic=_r4(rng.uniform(0.05, 0.5)))
        omega = f"t + {model.cubic!r}*t^3"
        config = {"name": "cubic", "kind": "warping", "omega": omega}
    else:  # area: hyperbolic in 2-D, spherical in 3-D, written as A(t)
        a = _r4(rng.uniform(0.7, 1.4))
        if n == 2:
            model = RadialModel(2, _r4(rng.uniform(0.3, 8.0)), -a * a)
            area = f"2*pi*sinh({a!r}*t)/{a!r}"
        else:
            model = RadialModel(3, _r4(rng.uniform(0.3, 0.85 * math.pi / a)), a * a)
            area = f"4*pi*(sin({a!r}*t)/{a!r})^2"
        config = {"name": "area", "kind": "area", "area": area}
    config.update(dimension=n, radius=model.radius)
    return model, ["--config", "{config}"], config


def _radial_op(rng: random.Random, sub: str, source: str, n: int) -> CliOp:
    model, args, config = _radial_source(rng, source, n)
    label = f"{sub} {source} n={n} R={model.radius}"
    if sub == "bound":
        check = check_bound(model.lambda1())
    elif sub == "oracle":
        check = check_radial_oracle(model.lambda1())
    elif sub == "symmetrize":
        check = check_symmetrize(model)
    else:
        # Against the flat reference a sphere's area ratio decreases strictly;
        # against its own curvature the comparison is an equality case.
        ref_kappa = min(model.kappa, 0.0)
        reference = RadialModel(n, model.radius, ref_kappa)
        verdict = "bound-holds" if model.kappa > ref_kappa else "equality-candidate"
        check = check_compare(model.lambda1(), reference.lambda1(), verdict)
        args = args + ["--kappa", repr(ref_kappa)]
        label += f" vs kappa={ref_kappa}"
    return CliOp(label, [sub, *args], check, config)


def cli_radial(seed: int) -> Workload:
    rng = random.Random(f"cli-radial:{seed}")
    subs = ("bound", "oracle", "compare", "symmetrize")
    sources = ("euclidean", "hyperbolic", "spherical", "warping", "area")
    # i -> (i mod 4, i mod 5): ten distinct pairs, every source once per dimension.
    ops = [_radial_op(rng, subs[i % 4], sources[i % 5], 2 + i // 5) for i in range(10)]
    tiny = CliOp(
        "oracle euclidean n=2 R=1e-4",
        ["oracle", "--builtin", "euclidean", "--radius", "1e-4"],
        check_radial_oracle(RadialModel(2, 1e-4).lambda1()),
    )
    wide = CliOp(
        "bound hyperbolic n=3 R=20",
        ["bound", "--builtin", "hyperbolic", "--dimension", "3", "--radius", "20"],
        check_bound(RadialModel(3, 20.0, -1.0).lambda1()),
    )
    probes = [
        Probe(tiny, "shooting bisection never ends: its absolute width 1e-8 is below the float spacing at lambda ~ 5.8e8", "D2"),
        Probe(wide, "norm ratio needs 208 levels at lambda1/lambda2 ~ 0.93: exit 3 at --kmax 200", "D4"),
    ]
    return Workload("cli-radial", ops, probes)


def _polar_config(rng: random.Random, shape: str) -> dict:
    radius = _r4(rng.uniform(2.5, 3.5))
    if shape == "wavy":
        a, k = _r4(rng.uniform(0.1, 0.4)), rng.randint(2, 5)
        rho = f"r*(1+{a!r}*sin({k}*theta))"
    else:
        b, k = _r4(rng.uniform(0.5, 1.0)), rng.randint(1, 3)
        rho = f"r + {b!r}*piecewise(r <= 2: 0; exp(-1/(r-2)^2))*cos({k}*theta)"
    return {"name": shape, "kind": "polar2d", "rho": rho, "radius": radius}


def _polar_op(rng: random.Random, sub: str, shape: str) -> CliOp:
    """Both shapes keep every circle length 2 pi t, so the symmetrized model
    is the flat disc and the bound is j0^2/R^2.  A wavy cone is the flat disc
    itself (flat, radial mean curvature 1/r); a bumped disc is not."""
    config = _polar_config(rng, shape)
    flat = RadialModel(2, config["radius"])
    bound = flat.lambda1()
    if sub == "bound":
        check = check_bound(bound)
    elif sub == "oracle":
        check = check_oracle_2d(bound, exact=shape == "wavy")
    elif sub == "symmetrize":
        check = check_symmetrize(flat)
    else:
        verdict = "equality-candidate" if shape == "wavy" else "bound-holds"
        check = check_compare(bound, bound, verdict)
    return CliOp(f"{sub} {config['rho']} R={config['radius']}", [sub, "--config", "{config}"], check, config)


def cli_polar2d(seed: int) -> Workload:
    rng = random.Random(f"cli-polar2d:{seed}")
    # The first two ops touch every 2-D layer, so that the smoke checks'
    # two-op rounds do too.
    ops = [
        CliOp("paper-example", ["paper-example"], check_paper_example(3.0)),
        _polar_op(rng, "compare", "wavy"),
        _polar_op(rng, "bound", "bump"),
        _polar_op(rng, "oracle", "wavy"),
        _polar_op(rng, "symmetrize", "bump"),
        CliOp("paper-example 128x128", ["paper-example", "--mesh", "128x128"], check_paper_example(3.0)),
        _polar_op(rng, "bound", "wavy"),
        _polar_op(rng, "compare", "bump"),
        _polar_op(rng, "symmetrize", "wavy"),
        _polar_op(rng, "oracle", "bump"),
    ]
    probe = CliOp(
        "bound polar2d rho=r R=1",
        ["bound", "--config", "{config}"],
        check_bound(J0_SQ),
        {"name": "rho-r", "kind": "polar2d", "rho": "r", "radius": 1},
    )
    return Workload(
        "cli-polar2d", ops, [Probe(probe, "theta-independent density falls back to ~1 M scalar evaluations", "D3")]
    )


WORKLOADS = {"cli-radial": cli_radial, "cli-polar2d": cli_polar2d}
