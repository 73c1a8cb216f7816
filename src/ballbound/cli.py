"""Command-line front end: config ingestion, pipeline orchestration, reports.

Subcommands
-----------
bound           moment-hierarchy eigenvalue bound (symmetrizing 2-D metrics)
oracle          independent eigenvalue solver (radial shooting or 2-D finite-volume)
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
paper-example   area-check, bound, oracle-2d, sharpness

Every model of a run is built once, before the first stage; ``compare``'s
reference is built there as its area function, which is held, like any
area, to the centre law and to finite, positive values at its probe radii.
An error raised inside a stage names it, e.g. ``invalid input: stage
'oracle' failed: ...``; one found while a model is built has no stage prefix.

Exit codes: 0 success, 1 configuration error or an allocation that fails
(a grid or mesh too large for memory), 2 usage/expression syntax
error, 3 bound not supported (estimators did not converge, or ``compare``
found it below the reference), 4 solver failure (bracket, iteration),
5 invalid model/metric/area input.  Each error class in :mod:`ballbound.errors`
carries its exit code and stderr label.

Importing this module runs ``geometry`` and ``errors``; ``compare``, ``exprparse``,
``moments`` and ``oracle`` run on first use, so ``bound --builtin`` runs ``moments`` alone.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib.util
import json
import math
import os
import re
import sys
import time

import numpy as np

from .errors import BallboundError, ConfigError, InvalidMetricError
from .geometry import (
    AreaFunction,
    PolarMetric2D,
    RadialGrid,
    _eval_on,
    area_from_polar_metric,
    area_from_warping,
    area_of,
    bumped_disc_metric,
    space_form_model,
    space_form_warping,
    warping_from_area,
)


def _lazy(name: str):
    """Module ``ballbound.<name>``: the loaded one, or one that runs on first attribute access."""
    fullname = f"{__package__}.{name}"
    if fullname not in sys.modules:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        sys.modules[fullname] = module = importlib.util.module_from_spec(spec)
        setattr(sys.modules[__package__], name, module)
        spec.loader.exec_module(module)
    return sys.modules[fullname]


compare, exprparse, moments, oracle = map(_lazy, ("compare", "exprparse", "moments", "oracle"))

# builtin name -> (its curvature when none is given, None for one that takes
# none; the dimension it fixes, None for any; its radius when none is given)
BUILTINS = {
    "euclidean": (None, None, 1.0),
    "spherical": (1.0, None, 1.0),
    "hyperbolic": (-1.0, None, 1.0),
    "paper-example": (None, 2, 3.0),
}
# a builtin id: its name, then optionally a decimal curvature in parentheses
_BUILTIN_ID = re.compile(r"([a-z-]+)(?:\(([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)\))?")
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
        return self


def _parse_builtin(cfg: ModelConfig, radius_given: bool) -> tuple[str, float | None]:
    """Parse the id of a validated builtin config and apply its row of :data:`BUILTINS`.

    Returns the builtin's name and curvature, which comes from the id or from
    ``kappa``, never from both, and sets the builtin's radius unless one was given.
    """
    spec = cfg.builtin
    m = _BUILTIN_ID.fullmatch(spec.strip())
    if m is None or m.group(1) not in BUILTINS:
        raise ConfigError(
            f"unknown builtin {spec!r}; use one of {', '.join(BUILTINS)}"
            " (curvature in parentheses, e.g. hyperbolic(-1))"
        )
    name, inline = m.groups()
    default_kappa, dimension, radius = BUILTINS[name]
    if default_kappa is None and (inline is not None or cfg.kappa is not None):
        got = repr(spec) if inline is not None else f"kappa = {cfg.kappa!r}"
        raise ConfigError(f"builtin {name!r} takes no curvature, got {got}")
    kappa = default_kappa if cfg.kappa is None else cfg.kappa
    if inline is not None:
        if cfg.kappa is not None:
            raise ConfigError(f"builtin {spec!r} names its curvature; give no kappa as well")
        kappa = float(inline)
        if not math.isfinite(kappa):
            raise ConfigError(f"builtin curvature must be finite, got {spec!r}")
    if kappa is not None and kappa * default_kappa <= 0.0:
        raise ConfigError(f"the {name} builtin needs kappa {'>' if default_kappa > 0 else '<'} 0")
    if dimension is not None and cfg.dimension != dimension:
        raise ConfigError(f"the {name} builtin fixes dimension = {dimension}")
    if not radius_given:
        cfg.radius = radius
    return name, kappa


def _expression_fn(source: str, variables: tuple[str, ...], radius: float, kappa: float):
    """The vectorized callable of expression ``source`` in ``variables``, with R and kappa bound."""
    tree = exprparse.parse(source)
    stray = exprparse.free_variables(tree) - {*variables, "R", "kappa"}
    if stray:
        raise ConfigError(
            f"expression {source!r} uses unsupported variable(s) {sorted(stray)}"
        )

    def fn(*args):
        return exprparse.evaluate(tree, dict(zip(variables, args), R=radius, kappa=kappa))

    return fn


def build_target(cfg: ModelConfig, radius_given: bool) -> AreaFunction | PolarMetric2D:
    """Materialize the geometry object of a validated config: a 2-D metric, or the
    area function of a radial model (a builtin, by :func:`_parse_builtin`, a warping or an area)."""
    kappa = cfg.kappa if cfg.kappa is not None else 0.0
    if cfg.kind != "builtin":
        field, variables = KINDS[cfg.kind]
        fn = _expression_fn(getattr(cfg, field), variables, cfg.radius, kappa)
        if cfg.kind == "warping":
            return area_from_warping(cfg.dimension, cfg.radius, fn)
        if cfg.kind == "area":
            return AreaFunction(dimension=cfg.dimension, radius=cfg.radius, eval=fn)
        return PolarMetric2D(radius=cfg.radius, density=fn)

    name, kappa = _parse_builtin(cfg, radius_given)
    if name == "paper-example":
        return bumped_disc_metric(cfg.radius)
    return space_form_model(cfg.dimension, 0.0 if kappa is None else kappa, cfg.radius)


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


def _report_series(area: AreaFunction, grid: RadialGrid, args, report: dict) -> int:
    """Fill the report's series and bound from the hierarchy; exit code 3 if it did not converge."""
    norm, center, mass = moments.run_until_converged(area, grid, args.tol, args.kmax)
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


def cmd_bound(args, cfg: ModelConfig, target, report: dict, stage: Stages) -> int:
    grid = RadialGrid(cfg.radius, args.grid)
    with stage("symmetrize"):
        area = area_of(target, grid, args.theta)
    with stage("moments"):
        code = _report_series(area, grid, args, report)
    report["tolerances"] = {"estimator_relative_cauchy": args.tol}
    return code


def _oracle_2d(metric: PolarMetric2D, args) -> dict:
    """Report block of the 2-D oracle: the refined-mesh solve and its Richardson estimate."""
    mesh = oracle.Mesh2D(*args.mesh)
    result, estimate, extrapolated = oracle.eigen_2d_refined(metric, mesh, args.tol)
    return {
        "lambda1": result.lambda1,
        "richardson": estimate,
        "lambda1_extrapolated": extrapolated,
        "residual": result.residual,
        "iterations": result.iterations,
        "mesh": [2 * args.mesh[0], 2 * args.mesh[1]],
    }


def cmd_oracle(args, cfg: ModelConfig, target, report: dict, stage: Stages) -> int:
    with stage("oracle"):
        if isinstance(target, PolarMetric2D):
            report["oracle"] = _oracle_2d(target, args)
            report["tolerances"] = {
                "oracle_relative": args.tol,
                "oracle_richardson": report["oracle"]["richardson"],
            }
        else:
            grid = RadialGrid(cfg.radius, args.grid)
            result = oracle.shoot_radial_lambda1(target, grid, args.tol)
            report["oracle"] = {
                "lambda1": result.lambda1,
                "richardson": None,
                "residual": result.residual,
                "iterations": result.iterations,
            }
            report["tolerances"] = {"oracle_bisection_width": args.tol}
    return 0


def cmd_symmetrize(args, cfg: ModelConfig, target, report: dict, stage: Stages) -> int:
    grid = RadialGrid(cfg.radius, args.grid)
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


def cmd_compare(args, cfg: ModelConfig, target, report: dict, stage: Stages) -> int:
    grid = RadialGrid(cfg.radius, args.grid)
    kappa_ref = args.kappa if args.kappa is not None else 0.0
    ref_warping = args.ref_warping or cfg.reference_warping
    if ref_warping is None:
        warping = space_form_warping(kappa_ref, cfg.radius)
    else:
        warping = _expression_fn(ref_warping, KINDS["warping"][1], cfg.radius, kappa_ref)
    area_ref = area_from_warping(cfg.dimension, cfg.radius, warping)
    with stage("compare"):
        comparison, converged = compare.cheng_report(
            target, area_ref, grid, args.tol, m_theta=args.theta, k_max=args.kmax
        )
    report["comparison"] = {"model_id": cfg.name, **comparison}
    report["bound"] = comparison["bound"]
    report["tolerances"] = {
        "estimator_relative_cauchy": args.tol,
        "oracle_bisection_width": args.tol,
        "combined": comparison["combined_tolerance"],
    }
    supported = converged and comparison["verdict"] != compare.BOUND_BELOW_REFERENCE
    return 0 if supported else 3


def cmd_paper_example(args, cfg: ModelConfig, metric, report: dict, stage: Stages) -> int:
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
        code = _report_series(area, grid, args, report)

    with stage("oracle-2d"):
        solve = report["oracle"] = _oracle_2d(metric, args)

    with stage("sharpness"):
        radiality, sharp = compare.equality_criterion(metric, area, grid, args.theta, args.tol)
        gap = report["bound"] - solve["lambda1"]
        report["comparison"] = {
            "area_max_error": area_err,
            "gap": gap,
            "gap_extrapolated": report["bound"] - solve["lambda1_extrapolated"],
            "strict_inequality": bool(gap > solve["richardson"]),
            "radiality": radiality,
            "equality_criterion": sharp,
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


def _load_config(args) -> tuple[ModelConfig, AreaFunction | PolarMetric2D]:
    # a subcommand named after a builtin runs that builtin and takes no other model
    fixed = ("config", "builtin", "dimension", "kappa")
    given = [key for key in fixed if getattr(args, key) is not None]
    if args.command in BUILTINS and given:
        raise ConfigError(f"{args.command} fixes its model; it takes no --{', --'.join(given)}")
    data: dict = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        # malformed JSON, bytes that are not UTF-8, or nesting deeper than the decoder's stack
        except (ValueError, RecursionError) as exc:
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
    if args.command in BUILTINS:
        data = {"kind": "builtin", "builtin": args.command, "name": args.command}
    if not data:
        raise ConfigError("a model is required: pass --config FILE or --builtin ID")
    # flags override the file; under compare, --kappa is the curvature of the reference
    flags = {"radius": args.radius, "dimension": args.dimension}
    if args.command != "compare":
        flags["kappa"] = args.kappa
    data.update((key, value) for key, value in flags.items() if value is not None)
    cfg = ModelConfig(**data).validate()
    return cfg, build_target(cfg, "radius" in data)


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
        cfg, target = _load_config(args)
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
        code = args.handler(args, cfg, target, report, stage)
    except BallboundError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except MemoryError as exc:  # e.g. a --grid or --mesh whose arrays numpy refuses
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1

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

    Once :func:`main` has written its report, stdout and stderr are flushed and
    the process ends by ``os._exit``, with no interpreter teardown; a flush that
    fails (a closed pipe) falls back to ``sys.exit``.  ``main`` does neither.
    """
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
