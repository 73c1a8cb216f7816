"""Every input reaches a documented exit code in bounded time, without warnings.

Random configurations of every kind, with radii log-uniform in [1e-6, 1e6]
plus non-finite and non-positive ones, and extreme curvatures and
tolerances, run through the CLI on small grids and meshes.
"""
import json
import math
import os
import time
import warnings

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from ballbound.cli import main

EXPRESSIONS = {
    "omega": ["t", "sinh(t)", "sin(t)", "tanh(t)", "t + kappa*t^3", "t*exp(t)"],
    "area": ["2*pi*t", "2*pi*sinh(t)", "2*pi*sin(t)", "4*pi*t^2", "4*pi*sinh(t)^2"],
    "rho": ["r", "sinh(r)", "sin(r)", "r*(1 + 0.3*sin(3*theta))", "r*exp(r*cos(theta))"],
}
FIELDS = {"warping": "omega", "area": "area", "polar2d": "rho"}
EXTREMES = [0.0, 1e-300, -1e-300, 1e-8, -1e-8, 1.0, -1.0, 1e8, -1e8, 1e300, -1e300]
NON_FINITE = [math.nan, math.inf, -math.inf]
DEADLINE_S = 10.0

radii = st.one_of(
    st.floats(math.log(1e-6), math.log(1e6)).map(math.exp),
    st.sampled_from([*NON_FINITE, 0.0, -1.0]),
)
curvatures = st.sampled_from(EXTREMES + NON_FINITE)
tolerances = st.one_of(
    st.floats(math.log(1e-16), math.log(1.0)).map(math.exp),
    st.sampled_from([1e-300, 0.0, -1e-8, 0.5, 10.0, 1e300, *NON_FINITE]),
)


@st.composite
def configs(draw):
    kind = draw(st.sampled_from(["warping", "area", "polar2d", "builtin"]))
    cfg = {"kind": kind, "radius": draw(radii)}
    if kind == "builtin":
        cfg["builtin"] = draw(
            st.sampled_from(["euclidean", "spherical", "hyperbolic", "paper-example"])
        )
    else:
        cfg[FIELDS[kind]] = draw(st.sampled_from(EXPRESSIONS[FIELDS[kind]]))
    if kind != "polar2d" and cfg.get("builtin") != "paper-example":
        cfg["dimension"] = draw(st.sampled_from([2, 3, 8, 24, 60, 100]))
    if draw(st.booleans()):
        cfg["kappa"] = draw(curvatures)
    return cfg


@seed(16)
@settings(max_examples=200, deadline=None, database=None)
@given(
    cfg=configs(),
    command=st.sampled_from(["bound", "oracle", "symmetrize", "compare", "paper-example"]),
    tol=tolerances,
    kappa=st.one_of(st.none(), curvatures),
    fmt=st.sampled_from(["json", "csv"]),
)
def test_random_configs_reach_documented_exit_codes(tmp_path_factory, cfg, command, tol, kappa, fmt):
    path = tmp_path_factory.getbasetemp() / "random-config.json"
    path.write_text(json.dumps(cfg))  # json writes NaN and Infinity
    model = ["--config", str(path)]
    if command == "paper-example":
        model = [f"--radius={cfg['radius']!r}"]
    argv = [command, *model, "--grid", "64", "--theta", "16", "--mesh", "16x16"]
    argv += [f"--tol={tol!r}", "--format", fmt, "--output", os.devnull]
    if kappa is not None:
        argv.append(f"--kappa={kappa!r}")
    start = time.perf_counter()
    with warnings.catch_warnings():
        # every warning fails, numpy's floating-point ones ("overflow
        # encountered in ...") and any the package would print
        warnings.simplefilter("error")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in range(6), (argv, cfg)
    assert time.perf_counter() - start < DEADLINE_S, (argv, cfg)
