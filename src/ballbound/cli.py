"""Command-line front end: config ingestion, pipeline orchestration, reports.

Subcommands
-----------
bound           moment-hierarchy eigenvalue bound (symmetrizing 2-D metrics)
oracle          independent eigenvalue solver (radial shooting or 2-D FD)
symmetrize      emit the area/warping tables of the symmetrized metric
compare         space-form comparison verdict (monotonicity + bound + oracle)
paper-example   one-shot reproduction of the built-in bumped-disc example

A radial model, given as a builtin, a warping or an area, becomes one area
function A(t) before the first stage, and every subcommand reads that area.

Reports are JSON (default) or CSV.  JSON reports follow
:data:`REPORT_SCHEMA`; two runs with the same inputs differ only in the
``timings`` block.  Each subcommand runs in named stages; ``timings`` holds
the wall seconds of each stage and ``total``, their sum:

bound           symmetrize, moments
oracle          oracle
symmetrize      symmetrize
compare         compare
paper-example   metric, area-check, bound, oracle-2d, sharpness

An error raised inside a stage names it, e.g. ``invalid input: stage
'oracle' failed: ...``; one found while the model is built, before the
first stage, has no stage prefix.

Exit codes: 0 success, 1 configuration error, 2 usage/expression syntax
error, 3 bound not supported (estimators did not converge, or ``compare``
found it below the reference), 4 solver failure (bracket, iteration),
5 invalid model/metric/area input.  Each error class in :mod:`ballbound.errors`
carries its exit code and stderr label.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import re
import sys
import time

import numpy as np

from .compare import BOUND_BELOW_REFERENCE, cheng_report, equality_criterion
from .errors import BallboundError, ConfigError, InvalidMetricError
from .exprparse import evaluate, free_variables, parse
from .geometry import (
    AreaFunction,
    PolarMetric2D,
    RadialGrid,
    _circle_curvature,
    _eval_on,
    area_from_polar_metric,
    area_from_warping,
    area_of,
    bumped_disc_metric,
    euclidean_model,
    space_form_model,
    warping_from_area,
)
from .moments import run_until_converged
from .oracle import Mesh2D, eigen_2d_refined, shoot_radial_lambda1

BUILTINS = ("euclidean", "spherical", "hyperbolic", "paper-example")
# kind -> (the config field that specifies the model, the variables its
# expression reads besides R and kappa)
KINDS = {
    "warping": ("omega", ("t",)),
    "area": ("area", ("t",)),
    "polar2d": ("rho", ("r", "theta")),
    "builtin": ("builtin", ()),
}
_FIELD_TYPES = {"str": str, "int": int, "float": (int, float)}  # by annotation; never bool

REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": [
        "config",
        "series",
        "bound",
        "oracle",
        "comparison",
        "table",
        "timings",
        "tolerances",
    ],
    "properties": {
        "config": {"type": "object"},
        "series": {
            "type": ["object", "null"],
            "required": ["norm", "center", "mass"],
            "properties": {
                "norm": {"type": "array", "items": {"type": "number"}},
                "center": {"type": "array", "items": {"type": "number"}},
                "mass": {"type": "array", "items": {"type": "number"}},
            },
        },
        "bound": {"type": ["number", "null"]},
        "oracle": {
            "type": ["object", "null"],
            "required": ["lambda1", "richardson"],
            "properties": {
                "lambda1": {"type": "number"},
                "richardson": {"type": ["number", "null"]},
            },
        },
        "comparison": {"type": ["object", "null"]},
        "table": {"type": ["object", "null"]},
        "timings": {"type": "object"},
        "tolerances": {"type": "object"},
    },
}


class ModelConfig:
    """One model specification: a warping/area expression, a 2-D density, or a builtin."""

    # field name -> (annotation, default), in declaration order: the accepted
    # config keys, their validated types, their defaults and the key order of
    # the report's config.model
    FIELDS = {
        "name": ("str", "model"),
        "dimension": ("int", 2),
        "radius": ("float", 1.0),
        "kind": ("str", "builtin"),
        "omega": ("str | None", None),
        "area": ("str | None", None),
        "rho": ("str | None", None),
        "builtin": ("str | None", None),
        "kappa": ("float | None", None),
        "reference_warping": ("str | None", None),
    }

    def __init__(self, **fields):
        for name, (_, default) in self.FIELDS.items():
            setattr(self, name, fields.get(name, default))

    def validate(self) -> "ModelConfig":
        for name, (annotation, _) in self.FIELDS.items():
            value, kind = getattr(self, name), annotation.removesuffix(" | None")
            if value is None and kind != annotation:
                continue
            if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[kind]):
                raise ConfigError(f"{name} must be {annotation}, got {value!r}")
        if self.kind not in KINDS:
            raise ConfigError(f"kind must be one of {tuple(KINDS)}, got {self.kind!r}")
        expected = KINDS[self.kind][0]
        for key, _ in KINDS.values():
            value = getattr(self, key)
            if key == expected and value is None:
                raise ConfigError(f"kind {self.kind!r} requires the {key!r} field")
            if key != expected and value is not None:
                raise ConfigError(
                    f"kind {self.kind!r} does not accept the {key!r} field"
                )
        if self.dimension < 2:
            raise ConfigError(f"dimension must be at least 2, got {self.dimension}")
        if not math.isfinite(self.radius):
            raise ConfigError(f"radius must be finite, got {self.radius}")
        if self.radius <= 0.0:
            raise ConfigError(f"radius must be positive, got {self.radius}")
        if self.kappa is not None and not math.isfinite(self.kappa):
            raise ConfigError(f"kappa must be finite, got {self.kappa}")
        if self.kind == "polar2d" and self.dimension != 2:
            raise ConfigError("polar2d metrics require dimension = 2")
        if self.builtin is not None:
            name, _ = _split_builtin(self.builtin)
            if name == "paper-example" and self.dimension != 2:
                raise ConfigError("the paper-example builtin fixes dimension = 2")
        return self


def _split_builtin(spec: str) -> tuple[str, float | None]:
    m = re.fullmatch(r"([a-z-]+)(?:\(([-+0-9.eE]+)\))?", spec.strip())
    if m is None or m.group(1) not in BUILTINS:
        raise ConfigError(
            f"unknown builtin {spec!r}; use one of {', '.join(BUILTINS)}"
            " (curvature in parentheses, e.g. hyperbolic(-1))"
        )
    kappa = float(m.group(2)) if m.group(2) is not None else None
    if kappa is not None and m.group(1) not in ("spherical", "hyperbolic"):
        raise ConfigError(f"builtin {m.group(1)!r} takes no curvature, got {spec!r}")
    if kappa is not None and not math.isfinite(kappa):
        raise ConfigError(f"builtin curvature must be finite, got {spec!r}")
    return m.group(1), kappa


def _expression_fn(source: str, variables: tuple[str, ...], radius: float, kappa: float):
    """The vectorized callable of expression ``source`` in ``variables``, with R and kappa bound."""
    tree = parse(source)
    stray = free_variables(tree) - {*variables, "R", "kappa"}
    if stray:
        raise ConfigError(
            f"expression {source!r} uses unsupported variable(s) {sorted(stray)}"
        )

    def fn(*args):
        return evaluate(tree, dict(zip(variables, args), R=radius, kappa=kappa))

    return fn


def build_target(cfg: ModelConfig) -> AreaFunction | PolarMetric2D:
    """Materialize the geometry object of a validated config: a 2-D metric, or the
    area function of a radial model (a builtin, a warping or an area)."""
    kappa = cfg.kappa if cfg.kappa is not None else 0.0
    if cfg.kind != "builtin":
        field, variables = KINDS[cfg.kind]
        fn = _expression_fn(getattr(cfg, field), variables, cfg.radius, kappa)
        if cfg.kind == "warping":
            return area_from_warping(cfg.dimension, cfg.radius, fn)
        if cfg.kind == "area":
            return AreaFunction(dimension=cfg.dimension, radius=cfg.radius, eval=fn)
        return PolarMetric2D(radius=cfg.radius, density=fn)

    name, inline_kappa = _split_builtin(cfg.builtin)
    if name == "euclidean":
        return euclidean_model(cfg.dimension, cfg.radius)
    if name in ("spherical", "hyperbolic"):
        if inline_kappa is not None:
            kappa = inline_kappa
        elif cfg.kappa is None:
            kappa = 1.0 if name == "spherical" else -1.0
        if name == "spherical" and kappa <= 0.0:
            raise ConfigError("the spherical builtin needs kappa > 0")
        if name == "hyperbolic" and kappa >= 0.0:
            raise ConfigError("the hyperbolic builtin needs kappa < 0")
        return space_form_model(cfg.dimension, kappa, cfg.radius)
    return bumped_disc_metric(cfg.radius)


# ---------------------------------------------------------------------------
# subcommands


class Stages(dict):
    """Wall seconds of each named stage of one command, in the order they ran.

    ``with stage("name"):`` times one stage.  An exception raised inside it
    gets the prefix ``stage '<name>' failed: ``, so the error names its stage.
    """

    @contextlib.contextmanager
    def __call__(self, name: str):
        start = time.perf_counter()
        try:
            yield
        except Exception as exc:
            exc.args = (f"stage '{name}' failed: {exc}",)
            raise
        self[name] = time.perf_counter() - start


def _run_hierarchy(area: AreaFunction, grid: RadialGrid, args, report: dict) -> int:
    """Fill the report's series and bound from the hierarchy; exit code 3 if it did not converge."""
    norm, center, mass = run_until_converged(area, grid, args.tol, args.kmax)
    series = {"norm": norm, "center": center, "mass": mass}
    report["series"] = {
        **{key: list(s.values) for key, s in series.items()},
        **{f"{key}_k_start": s.ks[0] for key, s in series.items()},
        "finals": {key: s.final for key, s in series.items()},
        "rates": {key: s.rate for key, s in series.items()},
        "converged": all(s.converged for s in series.values()),
    }
    report["bound"] = norm.final
    return 0 if report["series"]["converged"] else 3


def cmd_bound(args, cfg: ModelConfig, report: dict, stage: Stages) -> int:
    grid = RadialGrid(cfg.radius, args.grid)
    target = build_target(cfg)
    with stage("symmetrize"):
        area = area_of(target, grid, args.theta)
    with stage("moments"):
        code = _run_hierarchy(area, grid, args, report)
    report["tolerances"] = {"estimator_relative_cauchy": args.tol}
    return code


def _oracle_2d(metric: PolarMetric2D, args) -> dict:
    """Report block of the 2-D oracle: the refined-mesh solve and its Richardson estimate."""
    result, estimate, extrapolated = eigen_2d_refined(metric, Mesh2D(*args.mesh), args.tol)
    return {
        "lambda1": result.lambda1,
        "richardson": estimate,
        "lambda1_extrapolated": extrapolated,
        "residual": result.residual,
        "iterations": result.iterations,
        "mesh": [2 * args.mesh[0], 2 * args.mesh[1]],
    }


def cmd_oracle(args, cfg: ModelConfig, report: dict, stage: Stages) -> int:
    target = build_target(cfg)
    with stage("oracle"):
        if isinstance(target, PolarMetric2D):
            report["oracle"] = _oracle_2d(target, args)
            report["tolerances"] = {
                "oracle_relative": args.tol,
                "oracle_richardson": report["oracle"]["richardson"],
            }
        else:
            result = shoot_radial_lambda1(target, RadialGrid(cfg.radius, args.grid), args.tol)
            report["oracle"] = {
                "lambda1": result.lambda1,
                "richardson": None,
                "residual": result.residual,
                "iterations": result.iterations,
            }
            report["tolerances"] = {"oracle_bisection_width": args.tol}
    return 0


def cmd_symmetrize(args, cfg: ModelConfig, report: dict, stage: Stages) -> int:
    grid = RadialGrid(cfg.radius, args.grid)
    target = build_target(cfg)
    with stage("symmetrize"):
        area = area_of(target, grid, args.theta)
        warping = warping_from_area(area)
        report["table"] = {
            "t": [float(x) for x in grid.nodes],
            "area": [float(x) for x in _eval_on(area.eval, grid.nodes)],
            "omega": [float(x) for x in _eval_on(warping, grid.nodes)],
        }
    report["tolerances"] = {"theta_quadrature": "trapezoid, spectral for periodic densities"}
    return 0


def cmd_compare(args, cfg: ModelConfig, report: dict, stage: Stages) -> int:
    grid = RadialGrid(cfg.radius, args.grid)
    target = build_target(cfg)
    kappa_ref = args.kappa if args.kappa is not None else 0.0
    ref_warping = args.ref_warping or cfg.reference_warping
    reference = kappa_ref
    if ref_warping is not None:
        reference = _expression_fn(ref_warping, KINDS["warping"][1], cfg.radius, kappa_ref)
    with stage("compare"):
        outcome = cheng_report(
            target,
            reference,
            grid,
            args.tol,
            m_theta=args.theta,
            k_max=args.kmax,
            model_id=cfg.name,
        )
    report["comparison"] = outcome.to_dict()
    report["bound"] = outcome.bound
    report["tolerances"] = {
        "estimator_relative_cauchy": args.tol,
        "oracle_bisection_width": args.tol,
        "combined": outcome.combined_tolerance,
    }
    supported = outcome.converged and outcome.verdict != BOUND_BELOW_REFERENCE
    return 0 if supported else 3


def cmd_paper_example(args, cfg: ModelConfig, report: dict, stage: Stages) -> int:
    with stage("metric"):
        metric = bumped_disc_metric(cfg.radius)
        grid = RadialGrid(cfg.radius, args.grid)

    with stage("area-check"):
        area = area_from_polar_metric(metric, grid, args.theta)
        expected = 2.0 * math.pi * grid.nodes
        area_err = float(np.max(np.abs(area.samples[1] - expected)))
        if area_err >= 1e-10:
            raise InvalidMetricError(
                f"circle lengths deviate from 2 pi t by {area_err:g} (>= 1e-10)"
            )

    with stage("bound"):
        code = _run_hierarchy(area, grid, args, report)

    with stage("oracle-2d"):
        oracle = report["oracle"] = _oracle_2d(metric, args)

    with stage("sharpness"):
        spread, mean = _circle_curvature(metric, grid, args.theta)
        sharp = equality_criterion(
            metric, grid, args.theta, max(args.tol, 1e-9), (spread, mean), area
        )
        gap = report["bound"] - oracle["lambda1"]
        report["comparison"] = {
            "area_max_error": area_err,
            "gap": gap,
            "gap_extrapolated": report["bound"] - oracle["lambda1_extrapolated"],
            "strict_inequality": bool(gap > oracle["richardson"]),
            "radiality": float(np.max(spread)),
            "equality_criterion": bool(sharp),
        }
    report["tolerances"] = {
        "estimator_relative_cauchy": args.tol,
        "oracle_relative": args.tol,
        "oracle_richardson": report["oracle"]["richardson"],
        "area_check_absolute": 1e-10,
    }
    return code


# ---------------------------------------------------------------------------
# argument handling and serialization


def _finite_float(text: str) -> float:
    """argparse type for real-valued flags: a float that is neither inf nor nan."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _build_argparser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ballbound",
        description=(
            "First-Dirichlet-eigenvalue bounds for geodesic balls from the"
            " area of their geodesic spheres, with independent oracles."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON model configuration file")
    common.add_argument("--builtin", help="builtin model id, e.g. euclidean or hyperbolic(-1)")
    common.add_argument("--radius", type=_finite_float, help="ball radius")
    common.add_argument("--dimension", type=int, help="ball dimension (>= 2)")
    common.add_argument(
        "--kappa", type=_finite_float,
        help="space-form curvature parameter; a negative exponent form needs =, as in --kappa=-1e-3",
    )
    common.add_argument("--grid", type=int, default=4096, help="radial grid intervals")
    common.add_argument("--theta", type=int, default=256, help="angular quadrature points")
    common.add_argument("--kmax", type=int, default=200, help="maximum hierarchy depth")
    common.add_argument("--tol", type=_finite_float, default=1e-8, help="stopping tolerance")
    common.add_argument("--mesh", default="64x64", help="2-D mesh as MxP, e.g. 64x64")
    common.add_argument("--output", help="write the report to this path")
    common.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
    for name, handler, doc in (
        ("bound", cmd_bound, "moment-hierarchy eigenvalue bound"),
        ("oracle", cmd_oracle, "independent eigenvalue solver"),
        ("symmetrize", cmd_symmetrize, "area and warping tables of the symmetrized metric"),
        ("compare", cmd_compare, "space-form comparison verdict"),
        ("paper-example", cmd_paper_example, "one-shot bumped-disc reproduction"),
    ):
        p = sub.add_parser(name, parents=[common], help=doc)
        p.set_defaults(handler=handler)
        if name == "compare":
            p.add_argument(
                "--ref-warping",
                help="reference warping expression W(t) (overrides --kappa)",
            )
    return parser


def _parse_mesh(spec: str) -> tuple[int, int]:
    m = re.fullmatch(r"(\d+)x(\d+)", spec.strip())
    if m is None:
        raise ConfigError(f"mesh must look like 64x64, got {spec!r}")
    return int(m.group(1)), int(m.group(2))


def _load_config(args) -> ModelConfig:
    fixed = ("config", "builtin", "dimension", "kappa")
    given = [key for key in fixed if getattr(args, key) is not None]
    if args.command == "paper-example" and given:
        raise ConfigError(f"paper-example fixes its model; it takes no --{', --'.join(given)}")
    data: dict = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(data) - set(ModelConfig.FIELDS)
        if unknown:
            raise ConfigError(f"unknown config field(s): {', '.join(sorted(unknown))}")
    if args.builtin:
        if args.config:
            raise ConfigError("give either --config or --builtin, not both")
        data = {"kind": "builtin", "builtin": args.builtin}
    # flags override the file; paper-example fixes every field but the radius,
    # and under compare, --kappa is the curvature of the reference
    flags = {"radius": args.radius, "dimension": args.dimension, "kappa": args.kappa}
    if args.command == "paper-example":
        data = {"kind": "builtin", "builtin": "paper-example", "name": "paper-example"}
        flags = {"radius": args.radius}
    elif args.command == "compare":
        del flags["kappa"]
    if not data:
        raise ConfigError("a model is required: pass --config FILE or --builtin ID")
    data.update((key, value) for key, value in flags.items() if value is not None)
    cfg = ModelConfig(**data).validate()
    if cfg.kind == "builtin" and _split_builtin(cfg.builtin)[0] == "paper-example":
        if "radius" not in data:
            cfg.radius = 3.0  # the radius of the paper's example
    return cfg


def _series_csv(report: dict) -> str:
    series = report["series"]
    columns = [(series[key], series[f"{key}_k_start"]) for key in ("norm", "center", "mass")]
    lines = ["k,norm_ratio,center_ratio,mass_ratio"]
    for k in range(max(start + len(values) for values, start in columns)):
        cells = [
            repr(values[k - start]) if 0 <= k - start < len(values) else ""
            for values, start in columns
        ]
        lines.append(",".join([str(k), *cells]))
    return "\n".join(lines) + "\n"


def _table_csv(report: dict) -> str:
    table = report["table"]
    lines = ["t,area,omega"]
    for t, a, w in zip(table["t"], table["area"], table["omega"]):
        lines.append(f"{t!r},{a!r},{w!r}")
    return "\n".join(lines) + "\n"


def _flat_csv(report: dict) -> str:
    lines = ["key,value"]

    def walk(prefix: str, obj):
        if isinstance(obj, dict):
            for key in sorted(obj):
                walk(f"{prefix}.{key}" if prefix else key, obj[key])
        elif isinstance(obj, (list, tuple)):
            lines.append(f"{prefix},{';'.join(repr(v) for v in obj)}")
        else:
            lines.append(f"{prefix},{obj!r}")

    walk("", {k: v for k, v in report.items() if k != "timings"})
    return "\n".join(lines) + "\n"


def render_report(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    if report.get("series"):
        return _series_csv(report)
    if report.get("table"):
        return _table_csv(report)
    return _flat_csv(report)


def main(argv=None) -> int:
    args = _build_argparser().parse_args(argv)
    stage = Stages()
    try:
        args.mesh = _parse_mesh(args.mesh)
        cfg = _load_config(args)
        report = {
            "config": {
                "model": {name: getattr(cfg, name) for name in cfg.FIELDS},
                "grid": args.grid,
                "m_theta": args.theta,
                "k_max": args.kmax,
                "tol": args.tol,
                "mesh": list(args.mesh),
            },
            "series": None,
            "bound": None,
            "oracle": None,
            "comparison": None,
            "table": None,
            "tolerances": {},
        }
        code = args.handler(args, cfg, report, stage)
    except BallboundError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code

    report["timings"] = {**stage, "total": sum(stage.values())}
    text = render_report(report, args.fmt)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    return code


def run() -> None:
    """Process entry point of ``ballbound`` and ``python -m ballbound.cli``.

    Once :func:`main` has written its report, the heap is frozen, so the
    interpreter's final collection at exit skips every object that numpy and
    ballbound made; ``main`` itself leaves the collector alone.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
