"""Command-line front end: config ingestion, pipeline orchestration, reports.

Subcommands
-----------
bound           moment-hierarchy eigenvalue bound (symmetrizing 2-D metrics)
oracle          independent eigenvalue solver (radial shooting or 2-D FD)
symmetrize      emit the area/warping tables of the symmetrized metric
compare         space-form comparison verdict (monotonicity + bound + oracle)
paper-example   one-shot reproduction of the built-in bumped-disc example

Reports are JSON (default) or CSV.  JSON reports follow
:data:`REPORT_SCHEMA`; two runs with the same inputs differ only in the
``timings`` block.

Exit codes: 0 success, 1 configuration error, 2 usage/expression syntax
error, 3 estimator did not converge, 4 solver failure (bracket, iteration),
5 invalid model/metric/area input.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import re
import sys
import time

import numpy as np

from .compare import cheng_report, equality_criterion
from .errors import (
    BracketError,
    ConfigError,
    ConvergenceError,
    DegenerateProfileError,
    DomainError,
    EvaluationError,
    ExpressionSyntaxError,
    InvalidAreaError,
    InvalidMetricError,
    InvalidModelError,
    PrecisionError,
)
from .exprparse import evaluate, free_variables, parse
from .geometry import (
    AreaFunction,
    PolarMetric2D,
    RadialGrid,
    RiemannianModel,
    _eval_on,
    _interior_curvature,
    _spread,
    area_from_polar_metric,
    area_from_warping,
    bumped_disc_metric,
    euclidean_model,
    make_warping,
    space_form_model,
    warping_from_area,
)
from .moments import run_until_converged
from .oracle import Mesh2D, eigen_2d_refined, shoot_radial_lambda1

BUILTINS = ("euclidean", "spherical", "hyperbolic", "paper-example")
KINDS = ("warping", "area", "polar2d", "builtin")
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


class RunOptions:
    def __init__(
        self,
        grid: int = 4096,
        m_theta: int = 256,
        k_max: int = 200,
        tol: float = 1e-8,
        mesh: tuple[int, int] = (64, 64),
        output: str | None = None,
        fmt: str = "json",
    ):
        self.grid = grid
        self.m_theta = m_theta
        self.k_max = k_max
        self.tol = tol
        self.mesh = mesh
        self.output = output
        self.fmt = fmt


class ModelConfig:
    """One model specification: a warping/area expression, a 2-D density, or a builtin."""

    def __init__(
        self,
        name: str = "model",
        dimension: int = 2,
        radius: float = 1.0,
        kind: str = "builtin",
        omega: str | None = None,
        area: str | None = None,
        rho: str | None = None,
        builtin: str | None = None,
        kappa: float | None = None,
        reference_warping: str | None = None,
    ):
        self.name = name
        self.dimension = dimension
        self.radius = radius
        self.kind = kind
        self.omega = omega
        self.area = area
        self.rho = rho
        self.builtin = builtin
        self.kappa = kappa
        self.reference_warping = reference_warping

    # field name -> annotation, in declaration order: the accepted config keys,
    # their validated types and the key order of the report's config.model
    FIELDS = __init__.__annotations__

    def validate(self) -> "ModelConfig":
        for name, annotation in self.FIELDS.items():
            value, kind = getattr(self, name), annotation.removesuffix(" | None")
            if value is None and kind != annotation:
                continue
            if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[kind]):
                raise ConfigError(f"{name} must be {annotation}, got {value!r}")
        if self.kind not in KINDS:
            raise ConfigError(f"kind must be one of {KINDS}, got {self.kind!r}")
        provided = {
            "omega": self.omega,
            "area": self.area,
            "rho": self.rho,
            "builtin": self.builtin,
        }
        expected = {"warping": "omega", "area": "area", "polar2d": "rho", "builtin": "builtin"}[
            self.kind
        ]
        for key, value in provided.items():
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
    if kappa is not None and not math.isfinite(kappa):
        raise ConfigError(f"builtin curvature must be finite, got {spec!r}")
    return m.group(1), kappa


class Target:
    """Resolved model input: exactly one of model / metric / raw area is set."""

    def __init__(
        self,
        dimension: int,
        radius: float,
        model: RiemannianModel | None = None,
        metric: PolarMetric2D | None = None,
        raw_area: AreaFunction | None = None,
    ):
        self.dimension = dimension
        self.radius = radius
        self.model = model
        self.metric = metric
        self.raw_area = raw_area

    def area_on(self, grid: RadialGrid, m_theta: int) -> AreaFunction:
        if self.metric is not None:
            return area_from_polar_metric(self.metric, grid, m_theta)
        if self.model is not None:
            return area_from_warping(self.model)
        return self.raw_area

    def as_model(self, grid: RadialGrid, m_theta: int) -> RiemannianModel:
        if self.model is not None:
            return self.model
        area = self.area_on(grid, m_theta)
        return RiemannianModel(self.dimension, self.radius, warping_from_area(area))

    def comparison_object(self):
        if self.metric is not None:
            return self.metric
        if self.model is not None:
            return self.model
        return self.raw_area


def _expression_tree(source: str, allowed: set[str]):
    tree = parse(source)
    stray = free_variables(tree) - allowed - {"R", "kappa"}
    if stray:
        raise ConfigError(
            f"expression {source!r} uses unsupported variable(s) {sorted(stray)}"
        )
    return tree


def build_target(cfg: ModelConfig) -> Target:
    """Materialize geometry objects from a validated config."""
    kappa = cfg.kappa if cfg.kappa is not None else 0.0
    radius = cfg.radius
    if cfg.kind == "warping":
        tree = _expression_tree(cfg.omega, {"t"})

        def w_fn(t):
            return evaluate(tree, {"t": t, "R": radius, "kappa": kappa})

        model = RiemannianModel(cfg.dimension, radius, make_warping(w_fn, radius))
        return Target(cfg.dimension, radius, model=model)
    if cfg.kind == "area":
        tree = _expression_tree(cfg.area, {"t"})

        def a_fn(t):
            return evaluate(tree, {"t": t, "R": radius, "kappa": kappa})

        area = AreaFunction(dimension=cfg.dimension, radius=radius, eval=a_fn)
        return Target(cfg.dimension, radius, raw_area=area)
    if cfg.kind == "polar2d":
        tree = _expression_tree(cfg.rho, {"r", "theta"})

        def rho_fn(r, theta):
            return evaluate(tree, {"r": r, "theta": theta, "R": radius, "kappa": kappa})

        metric = PolarMetric2D(radius=radius, density=rho_fn)
        return Target(2, radius, metric=metric)

    name, inline_kappa = _split_builtin(cfg.builtin)
    if name == "euclidean":
        return Target(cfg.dimension, radius, model=euclidean_model(cfg.dimension, radius))
    if name in ("spherical", "hyperbolic"):
        default = 1.0 if name == "spherical" else -1.0
        if inline_kappa is not None:
            kappa = inline_kappa
        elif cfg.kappa is None:
            kappa = default
        if name == "spherical" and kappa <= 0.0:
            raise ConfigError("the spherical builtin needs kappa > 0")
        if name == "hyperbolic" and kappa >= 0.0:
            raise ConfigError("the hyperbolic builtin needs kappa < 0")
        return Target(
            cfg.dimension, radius, model=space_form_model(cfg.dimension, kappa, radius)
        )
    return Target(2, radius, metric=bumped_disc_metric(radius))


# ---------------------------------------------------------------------------
# subcommands


def _blank_report(cfg: ModelConfig, opts: RunOptions) -> dict:
    return {
        "config": {
            "model": {name: getattr(cfg, name) for name in cfg.FIELDS},
            "grid": opts.grid,
            "m_theta": opts.m_theta,
            "k_max": opts.k_max,
            "tol": opts.tol,
            "mesh": list(opts.mesh),
        },
        "series": None,
        "bound": None,
        "oracle": None,
        "comparison": None,
        "table": None,
        "timings": {},
        "tolerances": {},
    }


def _series_block(norm, center, mass) -> dict:
    return {
        "norm": list(norm.values),
        "center": list(center.values),
        "mass": list(mass.values),
        "norm_k_start": norm.ks[0] if norm.ks else 0,
        "center_k_start": center.ks[0] if center.ks else 1,
        "mass_k_start": mass.ks[0] if mass.ks else 1,
        "finals": {"norm": norm.final, "center": center.final, "mass": mass.final},
        "rates": {"norm": norm.rate, "center": center.rate, "mass": mass.rate},
        "converged": norm.converged and center.converged and mass.converged,
    }


def cmd_bound(cfg: ModelConfig, opts: RunOptions) -> tuple[dict, int]:
    report = _blank_report(cfg, opts)
    grid = RadialGrid.uniform(cfg.radius, opts.grid)
    target = build_target(cfg)
    t0 = time.perf_counter()
    area = target.area_on(grid, opts.m_theta)
    t1 = time.perf_counter()
    norm, center, mass = run_until_converged(area, grid, opts.tol, opts.k_max)
    t2 = time.perf_counter()
    report["series"] = _series_block(norm, center, mass)
    report["bound"] = norm.final
    report["timings"] = {"symmetrize": t1 - t0, "moments": t2 - t1, "total": t2 - t0}
    report["tolerances"] = {"estimator_relative_cauchy": opts.tol}
    return report, 0 if report["series"]["converged"] else 3


def _oracle_2d(metric: PolarMetric2D, opts: RunOptions) -> dict:
    """Report block of the 2-D oracle: the refined-mesh solve and its Richardson estimate."""
    result, estimate, extrapolated = eigen_2d_refined(metric, Mesh2D(*opts.mesh), opts.tol)
    return {
        "lambda1": result.lambda1,
        "richardson": estimate,
        "lambda1_extrapolated": extrapolated,
        "residual": result.residual,
        "iterations": result.iterations,
        "mesh": [2 * opts.mesh[0], 2 * opts.mesh[1]],
    }


def cmd_oracle(cfg: ModelConfig, opts: RunOptions) -> tuple[dict, int]:
    report = _blank_report(cfg, opts)
    target = build_target(cfg)
    t0 = time.perf_counter()
    if target.metric is not None:
        report["oracle"] = _oracle_2d(target.metric, opts)
        report["tolerances"] = {
            "oracle_relative": opts.tol,
            "oracle_richardson": report["oracle"]["richardson"],
        }
    else:
        grid = RadialGrid.uniform(cfg.radius, opts.grid)
        model = target.as_model(grid, opts.m_theta)
        result = shoot_radial_lambda1(model, grid, opts.tol)
        report["oracle"] = {
            "lambda1": result.lambda1,
            "richardson": None,
            "residual": result.residual,
            "iterations": result.iterations,
        }
        report["tolerances"] = {"oracle_bisection_width": opts.tol}
    report["timings"] = {"oracle": time.perf_counter() - t0, "total": time.perf_counter() - t0}
    return report, 0


def cmd_symmetrize(cfg: ModelConfig, opts: RunOptions) -> tuple[dict, int]:
    report = _blank_report(cfg, opts)
    grid = RadialGrid.uniform(cfg.radius, opts.grid)
    target = build_target(cfg)
    t0 = time.perf_counter()
    area = target.area_on(grid, opts.m_theta)
    warping = warping_from_area(area)
    report["table"] = {
        "t": [float(x) for x in grid.nodes],
        "area": [float(x) for x in _eval_on(area.eval, grid.nodes)],
        "omega": [float(x) for x in _eval_on(warping.eval, grid.nodes)],
    }
    report["timings"] = {"symmetrize": time.perf_counter() - t0, "total": time.perf_counter() - t0}
    report["tolerances"] = {"theta_quadrature": "trapezoid, spectral for periodic densities"}
    return report, 0


def cmd_compare(cfg: ModelConfig, opts: RunOptions, kappa_ref, ref_warping: str | None) -> tuple[dict, int]:
    report = _blank_report(cfg, opts)
    grid = RadialGrid.uniform(cfg.radius, opts.grid)
    target = build_target(cfg)
    if ref_warping is not None:
        tree = _expression_tree(ref_warping, {"t"})
        kappa_bind = kappa_ref if kappa_ref is not None else 0.0

        def w_fn(t):
            return evaluate(tree, {"t": t, "R": cfg.radius, "kappa": kappa_bind})

        reference = make_warping(w_fn, cfg.radius)
    else:
        reference = float(kappa_ref if kappa_ref is not None else 0.0)
    t0 = time.perf_counter()
    outcome = cheng_report(
        target.comparison_object(),
        reference,
        grid,
        opts.tol,
        m_theta=opts.m_theta,
        k_max=opts.k_max,
        model_id=cfg.name,
    )
    report["comparison"] = outcome.to_dict()
    report["bound"] = outcome.bound
    report["timings"] = {"compare": time.perf_counter() - t0, "total": time.perf_counter() - t0}
    report["tolerances"] = {
        "estimator_relative_cauchy": opts.tol,
        "oracle_bisection_width": opts.tol,
        "combined": outcome.combined_tolerance,
    }
    return report, 0 if outcome.converged else 3


def cmd_paper_example(cfg: ModelConfig, opts: RunOptions) -> tuple[dict, int]:
    report = _blank_report(cfg, opts)
    timings: dict[str, float] = {}
    stage = "metric"
    try:
        t0 = time.perf_counter()
        metric = bumped_disc_metric(cfg.radius)
        grid = RadialGrid.uniform(cfg.radius, opts.grid)
        timings[stage] = time.perf_counter() - t0

        stage = "area-check"
        t0 = time.perf_counter()
        area = area_from_polar_metric(metric, grid, opts.m_theta)
        expected = 2.0 * math.pi * grid.nodes
        area_err = float(np.max(np.abs(area.samples[1] - expected)))
        if area_err >= 1e-10:
            raise InvalidMetricError(
                f"circle lengths deviate from 2 pi t by {area_err:g} (>= 1e-10)"
            )
        timings[stage] = time.perf_counter() - t0

        stage = "bound"
        t0 = time.perf_counter()
        norm, center, mass = run_until_converged(area, grid, opts.tol, opts.k_max)
        report["series"] = _series_block(norm, center, mass)
        report["bound"] = norm.final
        timings[stage] = time.perf_counter() - t0

        stage = "oracle-2d"
        t0 = time.perf_counter()
        oracle = report["oracle"] = _oracle_2d(metric, opts)
        timings[stage] = time.perf_counter() - t0

        stage = "sharpness"
        t0 = time.perf_counter()
        curvature = _interior_curvature(metric, grid, opts.m_theta)
        sharp = equality_criterion(
            metric, grid, opts.m_theta, max(opts.tol, 1e-9), curvature
        )
        gap = report["bound"] - oracle["lambda1"]
        report["comparison"] = {
            "area_max_error": area_err,
            "gap": gap,
            "gap_extrapolated": report["bound"] - oracle["lambda1_extrapolated"],
            "strict_inequality": bool(gap > oracle["richardson"]),
            "radiality": _spread(curvature),
            "equality_criterion": bool(sharp),
        }
        timings[stage] = time.perf_counter() - t0
    except Exception as exc:
        exc.args = (f"stage '{stage}' failed: {exc}",)
        raise
    timings["total"] = sum(timings.values())
    report["timings"] = timings
    report["tolerances"] = {
        "estimator_relative_cauchy": opts.tol,
        "oracle_relative": opts.tol,
        "oracle_richardson": report["oracle"]["richardson"],
        "area_check_absolute": 1e-10,
    }
    code = 0 if report["series"]["converged"] else 3
    return report, code


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
    common.add_argument("--kappa", type=_finite_float, help="space-form curvature parameter")
    common.add_argument("--grid", type=int, default=4096, help="radial grid intervals")
    common.add_argument("--theta", type=int, default=256, help="angular quadrature points")
    common.add_argument("--kmax", type=int, default=200, help="maximum hierarchy depth")
    common.add_argument("--tol", type=_finite_float, default=1e-8, help="stopping tolerance")
    common.add_argument("--mesh", default="64x64", help="2-D mesh as MxP, e.g. 64x64")
    common.add_argument("--output", help="write the report to this path")
    common.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
    for name, doc in (
        ("bound", "moment-hierarchy eigenvalue bound"),
        ("oracle", "independent eigenvalue solver"),
        ("symmetrize", "area and warping tables of the symmetrized metric"),
        ("compare", "space-form comparison verdict"),
        ("paper-example", "one-shot bumped-disc reproduction"),
    ):
        p = sub.add_parser(name, parents=[common], help=doc)
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
    if args.command == "paper-example":
        data = {"kind": "builtin", "builtin": "paper-example", "name": "paper-example"}
        data["radius"] = args.radius if args.radius is not None else 3.0
    if not data:
        raise ConfigError("a model is required: pass --config FILE or --builtin ID")
    cfg = ModelConfig(**{**{"name": "model"}, **data})
    if args.command != "paper-example":
        if args.radius is not None:
            cfg.radius = args.radius
        if args.dimension is not None:
            cfg.dimension = args.dimension
        if args.kappa is not None and args.command != "compare":
            cfg.kappa = args.kappa
    cfg.validate()
    if cfg.kind == "builtin" and cfg.builtin is not None:
        name, _ = _split_builtin(cfg.builtin)
        if name == "paper-example" and args.command != "paper-example":
            if args.radius is None and "radius" not in data:
                cfg.radius = 3.0
    return cfg


def _series_csv(report: dict) -> str:
    series = report["series"]
    lines = ["k,norm_ratio,center_ratio,mass_ratio"]
    norm = series["norm"]
    center = series["center"]
    mass = series["mass"]
    n0 = series.get("norm_k_start", 0)
    c0 = series.get("center_k_start", 1)
    top = max(n0 + len(norm) - 1, c0 + len(center) - 1)
    for k in range(0, top + 1):
        cells = [str(k)]
        cells.append(repr(norm[k - n0]) if 0 <= k - n0 < len(norm) else "")
        cells.append(repr(center[k - c0]) if 0 <= k - c0 < len(center) else "")
        cells.append(repr(mass[k - c0]) if 0 <= k - c0 < len(mass) else "")
        lines.append(",".join(cells))
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
    opts = RunOptions(
        grid=args.grid,
        m_theta=args.theta,
        k_max=args.kmax,
        tol=args.tol,
        output=args.output,
        fmt=args.fmt,
    )
    try:
        opts.mesh = _parse_mesh(args.mesh)
        cfg = _load_config(args)
        if args.command == "bound":
            report, code = cmd_bound(cfg, opts)
        elif args.command == "oracle":
            report, code = cmd_oracle(cfg, opts)
        elif args.command == "symmetrize":
            report, code = cmd_symmetrize(cfg, opts)
        elif args.command == "compare":
            reference_expr = getattr(args, "ref_warping", None) or cfg.reference_warping
            report, code = cmd_compare(cfg, opts, args.kappa, reference_expr)
        else:
            report, code = cmd_paper_example(cfg, opts)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ExpressionSyntaxError, EvaluationError) as exc:
        print(f"expression error: {exc}", file=sys.stderr)
        return 2
    except (BracketError, ConvergenceError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 4
    except (
        DomainError,
        InvalidAreaError,
        InvalidMetricError,
        InvalidModelError,
        DegenerateProfileError,
        PrecisionError,
    ) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 5

    text = render_report(report, opts.fmt)
    if opts.output:
        try:
            with open(opts.output, "w", encoding="utf-8") as fh:
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
