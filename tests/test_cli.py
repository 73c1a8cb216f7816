import csv
import gc
import json
import math
import warnings

import jsonschema
import pytest

from ballbound import cli, errors
from ballbound.cli import REPORT_SCHEMA, main
from ballbound.exprparse import evaluate
from ballbound.geometry import RadialGrid, _row_blocks

from conftest import J0_SQUARED, PI_SQUARED, run_python


def run_cli(tmp_path, *args):
    out = tmp_path / "report.out"
    code = main([*args, "--output", str(out)])
    return code, out.read_text()


def run_json(tmp_path, *args):
    code, text = run_cli(tmp_path, *args)
    report = json.loads(text)
    jsonschema.validate(report, REPORT_SCHEMA)
    return code, report


class TestBound:
    def test_euclidean_disc(self, tmp_path):
        code, report = run_json(
            tmp_path, "bound", "--builtin", "euclidean", "--radius", "1", "--grid", "512"
        )
        assert code == 0
        assert report["bound"] == pytest.approx(J0_SQUARED, abs=1e-3)
        assert report["series"]["converged"]
        assert len(report["series"]["center"]) == len(report["series"]["mass"])

    def test_hyperbolic_ball_whose_levels_decay_below_rounding(self, tmp_path):
        # sin(pi t/R)/sinh t falls below 1e-16 of its centre value from t ~ 35;
        # levels formed as a difference from the centre lost that tail and
        # converged at +4.5e-3 with exit 0
        tol = 1e-8
        code, report = run_json(
            tmp_path,
            "bound", "--builtin", "hyperbolic", "--dimension", "3", "--radius", "50",
            "--kmax", "2000",
        )
        assert code == 0 and report["series"]["converged"]
        assert report["bound"] == pytest.approx(1.0 + PI_SQUARED / 2500.0, rel=tol, abs=0.0)

    def test_smallest_grid(self, tmp_path):
        # the grid's minimum of 8 intervals is the hierarchy's too; it used to need 16
        code, report = run_json(tmp_path, "bound", "--builtin", "euclidean", "--grid", "8")
        assert code == 0
        assert J0_SQUARED <= report["bound"] <= (1.0 + 1e-3) * J0_SQUARED

    def test_bumped_disc_inside_flat_region(self, tmp_path):
        code, report = run_json(
            tmp_path,
            "paper-example",
            "--radius", "1",
            "--grid", "256",
            "--theta", "32",
            "--mesh", "24x24",
        )
        assert code == 0
        assert report["bound"] == pytest.approx(J0_SQUARED, abs=1e-3)
        assert report["comparison"]["equality_criterion"] is True

    def test_spherical_cap(self, tmp_path):
        code, report = run_json(
            tmp_path,
            "bound",
            "--builtin", "spherical(1.0)",
            "--radius", str(math.pi / 2),
            "--grid", "512",
        )
        assert code == 0
        assert report["bound"] == pytest.approx(2.0, abs=1e-3)

    def test_unconverged_exit_code(self, tmp_path):
        code, report = run_json(
            tmp_path,
            "bound",
            "--builtin", "euclidean",
            "--grid", "64",
            "--kmax", "2",
            "--tol", "1e-14",
        )
        assert code == 3
        assert report["series"]["converged"] is False


class TestOracle:
    def test_three_ball(self, tmp_path):
        code, report = run_json(
            tmp_path,
            "oracle",
            "--builtin", "euclidean",
            "--dimension", "3",
            "--grid", "1024",
        )
        assert code == 0
        assert report["oracle"]["lambda1"] == pytest.approx(PI_SQUARED, abs=1e-4)
        assert report["oracle"]["richardson"] is None

    @pytest.mark.parametrize("command", ["bound", "oracle"])
    @pytest.mark.parametrize("grid", ["16384", "32768"])
    @pytest.mark.parametrize("radius", [0.3, 3.1])
    def test_fine_grids(self, tmp_path, command, grid, radius):
        # these grids used to fail a 1e-12 uniformity check on np.linspace nodes
        code, report = run_json(
            tmp_path, command, "--builtin", "euclidean", "--radius", str(radius), "--grid", grid
        )
        assert code == 0
        value = report["bound"] if command == "bound" else report["oracle"]["lambda1"]
        exact = J0_SQUARED / radius**2
        assert abs(value - exact) <= 1e-8 * exact

    @pytest.mark.parametrize("dimension", ["90", "200"])
    def test_area_underflow_is_invalid_input(self, capsys, dimension):
        # vol * t^(n-1) is 0 at the first nodes; the sweep used to divide by it.
        # The model's area finds it at its first probe, before the oracle stage.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["oracle", "--builtin", "euclidean", "--dimension", dimension])
        assert code == 5
        err = capsys.readouterr().err
        assert err.startswith(
            f"invalid input: A(t) underflows to 0 at t = 1e-06 in dimension {dimension}"
        )
        assert err.count("\n") == 1

    def test_2d_solver_carries_richardson(self, tmp_path):
        code, report = run_json(
            tmp_path,
            "paper-example",
            "--radius", "3",
            "--grid", "256",
            "--theta", "64",
            "--mesh", "32x32",
        )
        assert code == 0
        assert report["oracle"]["richardson"] > 0.0
        assert report["oracle"]["mesh"] == [64, 64]

    def test_cross_oracle_agreement(self, tmp_path):
        _, bound_rep = run_json(
            tmp_path,
            "bound",
            "--builtin", "hyperbolic(-1)",
            "--radius", "2",
            "--grid", "1024",
        )
        _, oracle_rep = run_json(
            tmp_path,
            "oracle",
            "--builtin", "hyperbolic(-1)",
            "--radius", "2",
            "--grid", "1024",
        )
        bound = bound_rep["bound"]
        lam = oracle_rep["oracle"]["lambda1"]
        assert abs(bound - lam) <= 1e-3 * lam

    @pytest.mark.parametrize(
        "command,builtin", [("oracle", "hyperbolic"), ("compare", "euclidean")]
    )
    def test_large_hyperbolic_ball(self, tmp_path, command, builtin):
        # lambda1 >= (n-1)^2/4 = 1 lies far above the Euclidean first guess
        # 12 j0^2 / R^2 ~ 0.007; this used to exit 4 with a bracket error.
        # compare shoots its kappa = -1 reference ball; its target is flat so
        # that the hierarchy converges.
        code, report = run_json(
            tmp_path,
            command,
            "--builtin", builtin,
            "--dimension", "3",
            "--radius", "100",
            "--kappa", "-1",
        )
        assert code == 0
        if command == "oracle":
            lam = report["oracle"]["lambda1"]
        else:
            lam = report["comparison"]["reference_lambda"]
        exact = 1.0 + PI_SQUARED / 100.0**2
        tol = 1e-8
        assert abs(lam - exact) <= 5.0 * tol * exact + tol

    @pytest.mark.parametrize("radius", ["1e4", "1e5"])
    def test_eigenvalue_below_the_absolute_tolerance(self, tmp_path, radius):
        # lambda1 ~ 5.8e-8 (5.8e-10) against tol 1e-8: an absolute width alone
        # used to stop on a midpoint above lambda1 (exit 4), or on the bracket
        code, report = run_json(tmp_path, "oracle", "--builtin", "euclidean", "--radius", radius)
        assert code == 0
        exact = J0_SQUARED / float(radius) ** 2
        assert report["oracle"]["lambda1"] == pytest.approx(exact, rel=1e-6)

    @pytest.mark.parametrize("radius", [1e80, 1e-100, 1e150, 1e-150])
    def test_2d_oracle_inside_the_float_range(self, tmp_path, radius):
        # exact power-of-two scaling of masses and conductances keeps the
        # solver's inner products in range; only lambda1 must be a normal float
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"kind": "polar2d", "rho": "r", "radius": radius}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, report = run_json(tmp_path, "oracle", "--config", str(cfg))
        assert code == 0
        oracle = report["oracle"]
        scaled = oracle["lambda1"] * radius * radius
        assert abs(scaled - J0_SQUARED) <= 2.0 * abs(oracle["richardson"]) * radius * radius

    @pytest.mark.parametrize("radius", [1e180, 1e200, 1e-160, 1e-170])
    def test_2d_oracle_outside_the_float_range(self, tmp_path, radius, capsys):
        # lambda1 ~ 5.8 / R^2 is no normal float: the solver names its scale, as
        # the area and warping spellings of the ball do, where it used to blame
        # the mesh conductances or masses
        scale = "0" if radius > 1.0 else "inf"
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"kind": "polar2d", "rho": "r", "radius": radius}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["oracle", "--config", str(cfg)]) == 5
        assert capsys.readouterr().err == (
            f"invalid input: stage 'oracle' failed: eigenvalue scale {scale} at radius"
            f" {radius:g} is outside the normal float range\n"
        )

    @pytest.mark.parametrize("radius", [1e-160, 3e106, 1e150])
    @pytest.mark.parametrize("command", ["bound", "symmetrize", "compare"])
    def test_polar_interpolant_outside_the_float_range(self, tmp_path, command, radius, capsys):
        # the radii where a shape-preserving interpolant's coefficients or the
        # cube of its node spacing left the float range: the grid's Hermite
        # rule has neither, so only the eigenvalue scale at 1e-160 stops a run
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"kind": "polar2d", "rho": "r", "radius": radius}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, "--config", str(cfg), "--output", str(tmp_path / "r.json")])
        err = capsys.readouterr().err
        if radius < 1.0 and command != "symmetrize":
            assert code == 5
            assert err.endswith(
                f"eigenvalue scale inf at radius {radius:g} is outside the normal float range\n"
            )
            return
        assert code == 0 and err == ""
        if command != "symmetrize":
            bound = json.loads((tmp_path / "r.json").read_text())["bound"]
            assert abs(bound * radius * radius / J0_SQUARED - 1.0) <= 1e-12

    @pytest.mark.parametrize(
        "command,radius",
        [("symmetrize", 1e-155), ("bound", 2e106), ("symmetrize", 2e106), ("compare", 2e106)],
    )
    def test_polar_interpolant_inside_the_float_range(self, tmp_path, command, radius):
        # bound and compare at 1e-155 stop on the eigenvalue scale instead
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"kind": "polar2d", "rho": "r", "radius": radius}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--config", str(cfg)]) == 0


class TestCompare:
    def test_flat_versus_hyperbolic(self, tmp_path):
        code, report = run_json(
            tmp_path,
            "compare",
            "--builtin", "euclidean",
            "--grid", "512",
            "--kappa", "-1",
        )
        assert code == 0
        comp = report["comparison"]
        assert comp["verdict"] == "bound-holds"
        assert comp["monotone_ok"] is True
        assert comp["bound"] <= comp["reference_lambda"] + comp["combined_tolerance"]

    def test_self_comparison_is_equality(self, tmp_path):
        code, report = run_json(
            tmp_path, "compare", "--builtin", "euclidean", "--grid", "512"
        )
        assert code == 0
        assert report["comparison"]["verdict"] == "equality-candidate"

    def test_reference_warping_expression(self, tmp_path):
        code, report = run_json(
            tmp_path,
            "compare",
            "--builtin", "euclidean",
            "--grid", "256",
            "--ref-warping", "sinh(t)",
        )
        assert code == 0
        assert report["comparison"]["verdict"] == "bound-holds"

    def test_unconverged_exit_code(self, tmp_path):
        # the hierarchy needs more than 200 levels here; compare used to exit
        # 0 with verdict bound-holds while bound on the same model exits 3
        args = ("--builtin", "hyperbolic", "--dimension", "3", "--radius", "100")
        code, report = run_json(tmp_path, "bound", *args)
        assert code == 3 and report["series"]["converged"] is False
        code, report = run_json(tmp_path, "compare", *args, "--kappa", "-1")
        assert code == 3
        assert report["bound"] == report["comparison"]["bound"] > 0.0


    def test_bound_below_the_reference_is_unsupported(self, tmp_path):
        # equal areas, but the rim's boundary layer is under-resolved at R = 3.14:
        # the bound 0.0010113 sits 300 combined tolerances below the reference 0.0010143
        args = ("--builtin", "spherical", "--dimension", "3", "--radius", "3.14", "--kappa", "1")
        code, report = run_json(tmp_path, "compare", *args)
        assert code == 3
        comp = report["comparison"]
        assert comp["monotone_ok"] is True
        assert comp["bound"] < comp["reference_lambda"] - comp["combined_tolerance"]
        assert comp["verdict"] == "bound-below-reference"

    @pytest.mark.parametrize(
        "tol, verdict", [("1e-10", "bound-holds"), ("1e-8", "equality-candidate")]
    )
    def test_equality_needs_the_sharpness_test(self, tmp_path, tol, verdict):
        # circles of length 2 pi t whose curvature spreads by 4e-9: radial at the
        # default tol, not at 1e-10, where compare's own floor of 1e-8 used to
        # call it an equality candidate while equality_criterion said not sharp
        cfg = tmp_path / "tilt.json"
        cfg.write_text(
            json.dumps({"kind": "polar2d", "rho": "r*(1+1e-9*r^2*sin(theta))", "radius": 1})
        )
        code, report = run_json(tmp_path, "compare", "--config", str(cfg), "--tol", tol)
        assert code == 0
        comp = report["comparison"]
        assert 1e-9 < comp["radiality"] < 1e-8
        assert abs(comp["bound"] - comp["reference_lambda"]) <= comp["combined_tolerance"]
        assert comp["verdict"] == verdict

    @pytest.mark.parametrize(
        "rho,radius,reference",
        [
            ("sin(r)", 2.5, ["--kappa", "1"]),
            ("sinh(r)", 3, ["--kappa=-1"]),
            ("tan(r)", 1.2, ["--ref-warping", "tan(t)"]),
            ("(r + 0.3*r^3)*(1 + 0.2*cos(3*theta))", 1, ["--ref-warping", "t + 0.3*t^3"]),
            ("sin(r)*(1 + 0.4*sin(2*theta + 1))", 2, ["--ref-warping", "sin(t)"]),
        ],
        ids=["round-cap", "hyperbolic-disc", "tan", "cubic-k3", "sin-k2"],
    )
    def test_separable_density_against_its_own_warping_is_equality(
        self, tmp_path, rho, radius, reference
    ):
        # rho = f(r) g(theta) has the area of the warping f and radial H = f'/f;
        # a cross-check of H's angular mean against A'/A used to call these
        # bound-holds at the default tol
        cfg = tmp_path / "separable.json"
        cfg.write_text(json.dumps({"kind": "polar2d", "rho": rho, "radius": radius}))
        code, report = run_json(tmp_path, "compare", "--config", str(cfg), *reference)
        assert code == 0
        assert report["comparison"]["verdict"] == "equality-candidate"


class TestPaperExample:
    def test_full_run_at_radius_three(self, tmp_path):
        code, report = run_json(
            tmp_path,
            "paper-example",
            "--grid", "512",
            "--theta", "64",
            "--mesh", "48x48",
        )
        assert code == 0
        comp = report["comparison"]
        assert comp["area_max_error"] < 1e-10
        assert report["bound"] == pytest.approx(J0_SQUARED / 9.0, abs=1e-6)
        assert comp["strict_inequality"] is True
        assert comp["gap"] > report["oracle"]["richardson"]
        assert comp["radiality"] > 1e-3
        assert comp["equality_criterion"] is False

    def test_radiality_equals_compares(self, tmp_path):
        # both reduce the one curvature sweep of the same grid and angles
        code, example = run_json(tmp_path, "paper-example", "--mesh", "16x16")
        assert code == 0
        code, compared = run_json(tmp_path, "compare", "--builtin", "paper-example")
        assert code == 0
        assert example["comparison"]["radiality"] == compared["comparison"]["radiality"] > 0.5


class TestConfigFiles:
    def test_warping_expression_config(self, tmp_path):
        cfg = tmp_path / "model.json"
        cfg.write_text(
            json.dumps(
                {
                    "name": "cap",
                    "kind": "warping",
                    "omega": "sin(t)",
                    "dimension": 2,
                    "radius": math.pi / 2,
                }
            )
        )
        code, report = run_json(
            tmp_path, "bound", "--config", str(cfg), "--grid", "512"
        )
        assert code == 0
        assert report["bound"] == pytest.approx(2.0, abs=1e-3)

    def test_polar_density_config(self, tmp_path):
        cfg = tmp_path / "metric.json"
        cfg.write_text(
            json.dumps(
                {
                    "name": "bumped",
                    "kind": "polar2d",
                    "rho": "r + piecewise(r <= 2: 0; exp(-1/(r-2)^2)) * cos(theta)",
                    "radius": 3.0,
                }
            )
        )
        code, report = run_json(
            tmp_path, "symmetrize", "--config", str(cfg), "--grid", "128", "--theta", "32"
        )
        assert code == 0
        table = report["table"]
        for t, a in zip(table["t"], table["area"]):
            assert a == pytest.approx(2.0 * math.pi * t, abs=1e-9)

    def test_area_expression_config(self, tmp_path):
        cfg = tmp_path / "area.json"
        cfg.write_text(
            json.dumps(
                {"kind": "area", "area": "2*pi*t", "dimension": 2, "radius": 1.0}
            )
        )
        code, report = run_json(tmp_path, "bound", "--config", str(cfg), "--grid", "512")
        assert code == 0
        assert report["bound"] == pytest.approx(J0_SQUARED, abs=1e-3)

    def test_theta_independent_density_is_evaluated_on_arrays(self, tmp_path, monkeypatch):
        import ballbound.exprparse as exprparse

        calls = []

        def counted(tree, bindings):
            calls.append(bindings)
            return evaluate(tree, bindings)

        monkeypatch.setattr(exprparse, "evaluate", counted)
        cfg = tmp_path / "rho.json"
        cfg.write_text(json.dumps({"kind": "polar2d", "rho": "r", "radius": 1}))
        code, report = run_json(tmp_path, "bound", "--config", str(cfg))
        assert code == 0
        tol = 1e-8  # the default --tol; combined tolerance as in cheng_report
        assert abs(report["bound"] - J0_SQUARED) <= 5.0 * tol * J0_SQUARED + tol
        # 4 array evaluations as the metric is built, then one per row block
        # of the default grid and angles, not one per (node, angle) pair
        grid = RadialGrid(1.0, 4096)
        assert len(calls) == 4 + len(list(_row_blocks(grid.nodes[1:], 256)))

    def test_polar_density_bound_symmetrizes_first(self, tmp_path):
        cfg = tmp_path / "wavy.json"
        cfg.write_text(
            json.dumps(
                {"kind": "polar2d", "rho": "r*(1 + 0.3*sin(3*theta))", "radius": 1.0}
            )
        )
        code, report = run_json(
            tmp_path, "bound", "--config", str(cfg), "--grid", "256", "--theta", "64"
        )
        assert code == 0
        assert report["bound"] == pytest.approx(J0_SQUARED, abs=1e-3)

    def test_reference_warping_from_config(self, tmp_path):
        cfg = tmp_path / "ref.json"
        cfg.write_text(
            json.dumps(
                {
                    "kind": "builtin",
                    "builtin": "euclidean",
                    "radius": 1.0,
                    "reference_warping": "sinh(t)",
                }
            )
        )
        code, report = run_json(
            tmp_path, "compare", "--config", str(cfg), "--grid", "256"
        )
        assert code == 0
        assert report["comparison"]["verdict"] == "bound-holds"


class TestOneBallManySpellings:
    """A radial ball given as a builtin or a warping is the same area function
    as its area config, and a 2-D density is held to the same centre law, so
    every subcommand treats the spellings alike."""

    # ball -> its spellings and the exit code of every subcommand on them
    BALLS = {
        "euclidean-n2": (
            [
                {"kind": "builtin", "builtin": "euclidean", "dimension": 2},
                {"kind": "area", "area": "2*pi*t"},
                {"kind": "polar2d", "rho": "r"},
            ],
            0,
        ),
        "euclidean-n3": (
            [
                {"kind": "builtin", "builtin": "euclidean", "dimension": 3},
                {"kind": "warping", "omega": "t", "dimension": 3},
                {"kind": "area", "area": "4*pi*t^2", "dimension": 3},
            ],
            0,
        ),
        # w'(0) = 1 but w(t)/t = 1 + 10 t: inside the area's centre law, which
        # the oracle's old 1e-6 warping test rejected
        "curved-centre": (
            [
                {"kind": "warping", "omega": "t*(1+10*t)"},
                {"kind": "area", "area": "2*pi*t*(1+10*t)"},
            ],
            0,
        ),
        "cone": (
            [
                {"kind": "warping", "omega": "2*t"},
                {"kind": "area", "area": "4*pi*t"},
                {"kind": "polar2d", "rho": "2*r"},
            ],
            5,
        ),
    }

    @staticmethod
    def _values(report: dict) -> list[float]:
        """The numbers a subcommand reports about the ball itself."""
        if report["table"] is not None:
            return report["table"]["area"] + report["table"]["omega"]
        if report["comparison"] is not None:
            comparison = report["comparison"]
            return [
                comparison["bound"], comparison["reference_lambda"], *comparison["ratio_profile"]
            ]
        if report["oracle"] is not None:
            return [report["oracle"]["lambda1"]]
        return [report["bound"]]

    @pytest.mark.parametrize("command", ["bound", "oracle", "symmetrize", "compare"])
    @pytest.mark.parametrize("ball", BALLS)
    def test_every_spelling_gives_the_same_outcome(self, tmp_path, capsys, ball, command):
        spellings, expected_code = self.BALLS[ball]
        outcomes = []
        for i, config in enumerate(spellings):
            cfg, out = tmp_path / f"{i}.json", tmp_path / f"{i}.out"
            cfg.write_text(json.dumps(config))
            code = main([command, "--config", str(cfg), "--grid", "256", "--output", str(out)])
            report = json.loads(out.read_text()) if code == 0 else None
            outcomes.append((code, capsys.readouterr().err, report))
        assert [code for code, _, _ in outcomes] == [expected_code] * len(spellings)
        first_err = outcomes[0][1]
        assert all(err == first_err for _, err, _ in outcomes)
        if expected_code != 0:
            assert first_err.startswith("invalid input: A(t)/t^(n-1) -> 2 x vol(S^(n-1)) near 0")
            return
        first = outcomes[0][2]
        for config, (_, _, report) in zip(spellings[1:], outcomes[1:]):
            if command == "oracle" and config["kind"] == "polar2d":
                # the 2-D finite-volume solver, not shooting: its Richardson
                # extrapolation lies far inside its own error estimate
                oracle = report["oracle"]
                lam = first["oracle"]["lambda1"]
                assert abs(oracle["lambda1_extrapolated"] - lam) <= 1e-3 * oracle["richardson"]
                continue
            if command == "compare":
                assert report["comparison"]["verdict"] == first["comparison"]["verdict"]
            pairs = list(zip(self._values(first), self._values(report), strict=True))
            assert all(abs(v - u) <= 1e-12 * abs(u) for u, v in pairs)

    @pytest.mark.parametrize("command", ["bound", "oracle", "symmetrize", "compare"])
    def test_density_that_dips_below_zero_is_rejected(self, tmp_path, capsys, command):
        # negative only near t = 0.33, theta = 0.1: between the construction
        # probes, and with positive circle lengths; every sample is checked
        cfg = tmp_path / "dip.json"
        cfg.write_text(json.dumps({
            "kind": "polar2d", "rho": "r*(1-3*exp(-((r-0.35)/0.02)^2-((theta-0.1)/0.05)^2))",
        }))
        assert main([command, "--config", str(cfg), "--output", str(tmp_path / "out")]) == 5
        err = capsys.readouterr().err
        assert err.startswith("invalid input: stage '") and err.count("\n") == 1
        assert "failed: density is not positive at t = 0.3" in err

    # warpings whose spheres collapse inside the ball: w changes sign there, so
    # A = vol w^(n-1) does too, in odd dimensions as in even ones
    SIGN_CHANGING = {
        "sin-n3-R4": {"kind": "warping", "omega": "sin(t)", "dimension": 3, "radius": 4.0},
        "cubic-n3-R2.2": {
            "kind": "warping", "omega": "t + kappa*t^3", "kappa": -1.0, "dimension": 3,
            "radius": 2.2,
        },
    }

    @pytest.mark.parametrize("command", ["bound", "oracle", "symmetrize", "compare"])
    @pytest.mark.parametrize("ball", SIGN_CHANGING)
    def test_warping_that_changes_sign_is_rejected(self, tmp_path, capsys, ball, command):
        cfg = tmp_path / "w.json"
        cfg.write_text(json.dumps(self.SIGN_CHANGING[ball]))
        code = main([command, "--config", str(cfg), "--grid", "256"])
        assert code == 5
        assert capsys.readouterr().err.startswith("invalid input: A must be positive on (0, R]")

    def test_reference_warping_that_changes_sign_is_rejected(self, tmp_path, capsys):
        code = main([
            "compare", "--builtin", "euclidean", "--dimension", "3", "--radius", "4",
            "--ref-warping", "sin(t)", "--grid", "256",
        ])
        assert code == 5
        # the reference's area is built before the comparison stage
        assert capsys.readouterr().err == "invalid input: A must be positive on (0, R]\n"


class TestConfigContract:
    """The accepted config fields, the field each kind needs, the variables its
    expression may read, and how flags and builtins fill the model config."""

    @staticmethod
    def run_config(tmp_path, capsys, config, *argv, command="bound"):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        code = main([command, "--config", str(cfg), *argv, "--grid", "64"])
        return code, capsys.readouterr().err

    @staticmethod
    def model_of(tmp_path, *argv):
        code, report = run_json(tmp_path, *argv)
        assert code == 0
        return report["config"]["model"]

    def test_unknown_field(self, tmp_path, capsys):
        config = {"kind": "builtin", "builtin": "euclidean", "radios": 2.0}
        code, err = self.run_config(tmp_path, capsys, config)
        assert (code, err) == (1, "error: unknown config field(s): radios\n")

    def test_unknown_kind(self, tmp_path, capsys):
        code, err = self.run_config(tmp_path, capsys, {"kind": "density", "rho": "r"})
        assert code == 1
        assert err == (
            "error: kind must be one of ('warping', 'area', 'polar2d', 'builtin'),"
            " got 'density'\n"
        )

    @pytest.mark.parametrize(
        "config,message",
        [
            ({"kind": "warping"}, "kind 'warping' requires the 'omega' field"),
            ({"kind": "area", "omega": "t"}, "kind 'area' does not accept the 'omega' field"),
            ({"kind": "polar2d"}, "kind 'polar2d' requires the 'rho' field"),
            ({"kind": "builtin"}, "kind 'builtin' requires the 'builtin' field"),
            ({"kind": "warping", "omega": "t", "rho": "r"},
             "kind 'warping' does not accept the 'rho' field"),
            ({"kind": "polar2d", "rho": "r", "area": "2*pi*t"},
             "kind 'polar2d' does not accept the 'area' field"),
            ({"builtin": "euclidean", "omega": "t"},
             "kind 'builtin' does not accept the 'omega' field"),
        ],
        ids=["warping-bare", "area-with-omega", "polar2d-bare", "builtin-bare",
             "warping-with-rho", "polar2d-with-area", "builtin-with-omega"],
    )
    def test_kind_fields(self, tmp_path, capsys, config, message):
        code, err = self.run_config(tmp_path, capsys, config)
        assert (code, err) == (1, f"error: {message}\n")

    @pytest.mark.parametrize(
        "config,stray",
        [
            ({"kind": "warping", "omega": "sin(t) + r"}, "['r']"),
            ({"kind": "area", "area": "2*pi*t*cos(theta)"}, "['theta']"),
            ({"kind": "polar2d", "rho": "t + r*theta"}, "['t']"),
        ],
        ids=["omega", "area", "rho"],
    )
    def test_stray_variable_in_a_model_expression(self, tmp_path, capsys, config, stray):
        code, err = self.run_config(tmp_path, capsys, config)
        assert code == 1
        assert err.startswith("error: expression ") and err.count("\n") == 1
        assert f"uses unsupported variable(s) {stray}" in err

    @pytest.mark.parametrize("source", ["--ref-warping", "reference_warping"])
    def test_stray_variable_in_the_reference_warping(self, tmp_path, capsys, source):
        config = {"kind": "builtin", "builtin": "euclidean"}
        argv = []
        if source == "--ref-warping":
            argv = ["--ref-warping", "sinh(r)"]
        else:
            config["reference_warping"] = "sinh(r)"
        code, err = self.run_config(tmp_path, capsys, config, *argv, command="compare")
        assert (code, err) == (
            1, "error: expression 'sinh(r)' uses unsupported variable(s) ['r']\n"
        )

    def test_polar2d_fixes_dimension_two(self, tmp_path, capsys):
        config = {"kind": "polar2d", "rho": "r", "dimension": 3}
        code, err = self.run_config(tmp_path, capsys, config)
        assert (code, err) == (1, "error: polar2d metrics require dimension = 2\n")

    def test_paper_example_builtin_fixes_dimension_two(self, capsys):
        code = main(["bound", "--builtin", "paper-example", "--dimension", "3"])
        assert code == 1
        assert capsys.readouterr().err == "error: the paper-example builtin fixes dimension = 2\n"

    @pytest.mark.parametrize("radius,expected", [(None, 3.0), ("2", 2.0)])
    def test_paper_example_builtin_radius(self, tmp_path, radius, expected):
        argv = ["bound", "--builtin", "paper-example", "--grid", "256", "--theta", "32"]
        if radius is not None:
            argv += ["--radius", radius]
        model = self.model_of(tmp_path, *argv)
        assert model["radius"] == expected
        assert model["builtin"] == "paper-example" and model["name"] == "model"

    def test_flags_override_the_file(self, tmp_path):
        cfg = tmp_path / "h.json"
        cfg.write_text(json.dumps(
            {"name": "h", "kind": "builtin", "builtin": "hyperbolic",
             "radius": 1.0, "dimension": 2, "kappa": -1.0}
        ))
        argv = ["--config", str(cfg), "--grid", "64"]
        flags = ["--radius", "2", "--dimension", "3", "--kappa", "-2"]
        model = self.model_of(tmp_path, "bound", *argv, *flags)
        assert model == {
            "name": "h", "dimension": 3, "radius": 2.0, "kind": "builtin", "omega": None,
            "area": None, "rho": None, "builtin": "hyperbolic", "kappa": -2.0,
            "reference_warping": None,
        }
        assert self.model_of(tmp_path, "bound", *argv) == {
            **model, "dimension": 2, "radius": 1.0, "kappa": -1.0
        }

    @pytest.mark.parametrize(
        "argv,given",
        [
            (["--dimension", "3"], "--dimension"),
            (["--kappa", "0"], "--kappa"),
            (["--builtin", "euclidean"], "--builtin"),
            (["--config", "{config}"], "--config"),
            (["--dimension", "3", "--kappa", "5", "--builtin", "euclidean"],
             "--builtin, --dimension, --kappa"),
        ],
        ids=["dimension", "kappa", "builtin", "config", "all-three"],
    )
    def test_paper_example_takes_no_model_inputs(self, tmp_path, capsys, argv, given):
        # these used to be dropped without a word: the 2-D model ran as if absent
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"kind": "builtin", "builtin": "euclidean"}))
        argv = [str(cfg) if a == "{config}" else a for a in argv]
        code = main(["paper-example", *argv, "--mesh", "8x8"])
        assert (code, capsys.readouterr().err) == (
            1, f"error: paper-example fixes its model; it takes no {given}\n"
        )

    @pytest.mark.parametrize("spec", ["euclidean(2)", "paper-example(5)", "euclidean(0)"])
    def test_curvature_only_on_space_form_builtins(self, capsys, spec):
        code = main(["bound", "--builtin", spec, "--grid", "64"])
        name = spec.partition("(")[0]
        assert (code, capsys.readouterr().err) == (
            1, f"error: builtin {name!r} takes no curvature, got {spec!r}\n"
        )

    @staticmethod
    def run_builtin(tmp_path, capsys, spec, kappa, source):
        """Exit code and stderr of ``bound`` on builtin ``spec`` with curvature
        ``kappa`` (None for none), given as flags or in a config file."""
        if source == "flag":
            argv = ["--builtin", spec] + ([] if kappa is None else [f"--kappa={kappa!r}"])
        else:
            config = {"kind": "builtin", "builtin": spec}
            if kappa is not None:
                config["kappa"] = kappa
            cfg = tmp_path / "c.json"
            cfg.write_text(json.dumps(config))
            argv = ["--config", str(cfg)]
        code = main(["bound", *argv, "--grid", "64", "--theta", "16"])
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("name", ["euclidean", "paper-example"])
    def test_flat_builtins_take_no_kappa(self, tmp_path, capsys, name, source):
        # the flat value used to come out beside a kappa the model never read
        assert self.run_builtin(tmp_path, capsys, name, 5.0, source) == (
            1, f"error: builtin {name!r} takes no curvature, got kappa = 5.0\n"
        )

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_curvature_from_the_id_or_kappa_not_both(self, tmp_path, capsys, source):
        # the id's curvature used to win while the report recorded kappa 3.0
        assert self.run_builtin(tmp_path, capsys, "spherical(2)", 3.0, source) == (
            1, "error: builtin 'spherical(2)' names its curvature; give no kappa as well\n"
        )

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("spec", ["hyperbolic(--1)", "spherical(1e)", "spherical(.)"])
    def test_malformed_builtin_curvature(self, tmp_path, capsys, spec, source):
        # these used to crash in float() with a ValueError traceback
        assert self.run_builtin(tmp_path, capsys, spec, None, source) == (1, (
            f"error: unknown builtin {spec!r}; use one of euclidean, spherical, hyperbolic,"
            " paper-example (curvature in parentheses, e.g. hyperbolic(-1))\n"
        ))

    def test_config_file_not_utf8(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_bytes(b"\xff\xfe{}")
        assert (main(["bound", "--config", str(cfg)]), capsys.readouterr().err) == (1, (
            "error: config file is not valid JSON: 'utf-8' codec can't decode byte 0xff"
            " in position 0: invalid start byte\n"
        ))

    def test_config_file_nested_too_deeply(self, tmp_path, capsys):
        # this used to crash json.load with a RecursionError traceback
        cfg = tmp_path / "c.json"
        cfg.write_text("[" * 100000)
        assert (main(["bound", "--config", str(cfg)]), capsys.readouterr().err) == (1, (
            "error: config file is not valid JSON: maximum recursion depth exceeded"
            " while decoding a JSON array from a unicode string\n"
        ))

    @pytest.mark.parametrize("source", ["config", "--ref-warping"])
    @pytest.mark.parametrize(
        "expression",
        ["(" * 2000 + "2*pi*t" + ")" * 2000, "-" * 3000 + "2*pi*t", "t" + "^t" * 3000],
        ids=["parentheses", "unary-minus", "power-chain"],
    )
    def test_expression_nested_too_deeply(self, tmp_path, capsys, source, expression):
        # these used to crash the recursive-descent parser with a RecursionError traceback
        if source == "config":
            code, err = self.run_config(tmp_path, capsys, {"kind": "area", "area": expression})
        else:
            code, err = self.run_config(
                tmp_path, capsys, {"kind": "builtin", "builtin": "euclidean"},
                f"--ref-warping={expression}", command="compare",
            )
        assert (code, err) == (2, "expression error: expression nests too deeply (at offset 0)\n")

    def test_compare_kappa_names_the_reference(self, tmp_path):
        argv = ["--builtin", "hyperbolic", "--grid", "256", "--kappa", "-2"]
        assert self.model_of(tmp_path, "compare", *argv)["kappa"] is None
        assert self.model_of(tmp_path, "bound", *argv)["kappa"] == -2.0

    def test_negative_exponent_kappa_with_equals(self, tmp_path):
        # argparse takes "-1e-3" after a space for a flag; the "=" form is the documented one
        argv = ["--builtin", "hyperbolic", "--kappa=-1e-3", "--grid", "64"]
        assert self.model_of(tmp_path, "bound", *argv)["kappa"] == -0.001


class TestOutputsAndCodes:
    def test_json_is_deterministic_apart_from_timings(self, tmp_path):
        reports = []
        for name in ("a", "b"):
            out = tmp_path / f"{name}.json"
            code = main(
                ["bound", "--builtin", "euclidean", "--grid", "128", "--output", str(out)]
            )
            assert code == 0
            data = json.loads(out.read_text())
            data.pop("timings")
            reports.append(json.dumps(data, sort_keys=True))
        assert reports[0] == reports[1]

    def test_series_csv_header_and_rows(self, tmp_path):
        code, text = run_cli(
            tmp_path,
            "bound",
            "--builtin", "euclidean",
            "--grid", "128",
            "--format", "csv",
        )
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0] == "k,norm_ratio,center_ratio,mass_ratio"
        first = lines[1].split(",")
        assert first[0] == "0" and first[2] == "" and first[3] == ""
        second = lines[2].split(",")
        assert float(second[2]) == pytest.approx(4.0, abs=1e-6)

    def test_symmetrize_csv(self, tmp_path):
        code, text = run_cli(
            tmp_path,
            "symmetrize",
            "--builtin", "euclidean",
            "--grid", "64",
            "--format", "csv",
        )
        assert code == 0
        assert text.splitlines()[0] == "t,area,omega"

    def test_paper_example_csv_keeps_its_results(self, tmp_path):
        # the level table held the series alone and dropped the oracle and the sharpness test
        code, text = run_cli(
            tmp_path,
            "paper-example", "--grid", "256", "--theta", "32", "--mesh", "16x16", "--format", "csv",
        )
        assert code == 0
        rows = list(csv.reader(text.splitlines()))
        assert rows[0] == ["key", "value"]
        keys = {row[0] for row in rows}
        assert {
            "oracle.lambda1", "comparison.strict_inequality", "comparison.equality_criterion",
            "series.norm",
        } <= keys

    @pytest.mark.parametrize("name", ["a, b", 'say "hi"'])
    @pytest.mark.parametrize("command", ["oracle", "compare"])
    def test_csv_cells_keep_commas_and_quotes(self, tmp_path, command, name):
        # cells were joined with "," and never quoted, so these rows read back as 3 fields
        config = tmp_path / "comma.json"
        config.write_text(json.dumps({"kind": "warping", "omega": "pow(t, 1)", "name": name}))
        code, text = run_cli(
            tmp_path, command, "--config", str(config), "--grid", "256", "--format", "csv"
        )
        assert code == 0
        rows = list(csv.reader(text.splitlines()))
        assert all(len(row) == 2 for row in rows), rows
        cells = dict(rows)
        assert cells["config.model.omega"] == "'pow(t, 1)'"
        assert cells["config.model.name"] == repr(name)

    @pytest.mark.parametrize(
        "argv",
        [
            ["bound", "--builtin", "euclidean", "--grid", "64"],
            ["oracle", "--builtin", "euclidean", "--grid", "64"],
            ["symmetrize", "--builtin", "euclidean", "--grid", "64"],
            ["compare", "--builtin", "euclidean", "--grid", "64"],
            ["paper-example", "--grid", "256", "--theta", "32", "--mesh", "16x16"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_report_keys_are_the_schema_keys(self, tmp_path, argv):
        # the schema allows extra keys; every report has exactly the required ones
        code, report = run_json(tmp_path, *argv)
        assert code == 0
        assert sorted(report) == sorted(REPORT_SCHEMA["required"])

    def test_usage_errors(self, tmp_path):
        assert main(["bound"]) == 1
        assert main(["bound", "--builtin", "nonsense"]) == 1
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"kind": "warping", "omega": "sin(t)"}))
        assert main(["bound", "--config", str(cfg), "--builtin", "euclidean"]) == 1

    @pytest.mark.parametrize(
        "command,flag,value",
        [
            ("oracle", "--tol", "nan"),
            ("bound", "--tol", "inf"),
            ("bound", "--radius", "inf"),
            ("oracle", "--radius", "nan"),
            ("bound", "--kappa", "-inf"),
            ("compare", "--kappa", "nan"),
        ],
    )
    def test_non_finite_flags_are_usage_errors(self, command, flag, value, capsys):
        # Rejected while parsing, before any numpy warning can be raised.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SystemExit) as exc:
                main([command, "--builtin", "euclidean", f"{flag}={value}"])
        assert exc.value.code == 2
        assert f"argument {flag}: must be a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config",
        [
            {"kind": "builtin", "builtin": "hyperbolic", "kappa": math.nan},
            {"kind": "builtin", "builtin": "euclidean", "radius": math.inf},
            {"kind": "builtin", "builtin": "euclidean", "radius": math.nan},
            {"kind": "builtin", "builtin": "hyperbolic(-1e999)"},
        ],
        ids=["kappa-nan", "radius-inf", "radius-nan", "inline-kappa-overflow"],
    )
    def test_non_finite_config_values_are_config_errors(self, tmp_path, config, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))  # json writes NaN / Infinity tokens
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["oracle", "--config", str(cfg)]) == 1
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field,value",
        [
            ("radius", "1"),
            ("radius", True),
            ("radius", None),
            ("kappa", "-1"),
            ("kappa", False),
            ("dimension", 2.5),
            ("dimension", True),
            ("name", 5),
            ("builtin", 3),
        ],
    )
    def test_mistyped_config_values_are_config_errors(self, tmp_path, field, value, capsys):
        # "radius": "1" used to crash with a TypeError, "dimension": 2.5 ran
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"kind": "builtin", "builtin": "hyperbolic", field: value}))
        assert main(["bound", "--config", str(cfg)]) == 1
        assert f"error: {field} must be " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,config",
        [
            ("oracle", {"kind": "area", "area": "2*pi*t", "radius": 1e200}),
            ("compare", {"kind": "area", "area": "2*pi*t", "radius": 1e200}),
            ("bound", {"kind": "warping", "omega": "t", "radius": 1e300}),
        ],
        ids=["oracle-area-1e200", "compare-area-1e200", "bound-warping-1e300"],
    )
    def test_huge_radius_is_invalid_input(self, tmp_path, command, config, capsys):
        # the shooting scale 4 n j0^2 / R^2 underflows (R**2 used to raise
        # OverflowError); the hierarchy's area integrals overflow
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--config", str(cfg)]) == 5
        err = capsys.readouterr().err
        assert err.startswith("invalid input: ") and err.count("\n") == 1

    @pytest.mark.parametrize("radius", ["1e-310", "1e-320"])
    @pytest.mark.parametrize("command", ["bound", "oracle", "symmetrize", "compare"])
    def test_subnormal_radius_is_named(self, command, radius, capsys):
        # the innermost check point 1e-6 R is not a normal float: the checks
        # used to blame the warping or the grid spacing, or symmetrize ran on
        # rounded nodes
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, "--builtin", "euclidean", "--radius", radius])
        assert code == 5
        assert capsys.readouterr().err == (
            f"invalid input: radius {radius} is too small: 1e-6 R is not a normal float\n"
        )

    @pytest.mark.parametrize("radius", ["1e-154", "1e-200", "1e-300"])
    @pytest.mark.parametrize(
        "command,stage", [("bound", "moments"), ("oracle", "oracle"), ("compare", "compare")]
    )
    def test_tiny_radius_names_the_eigenvalue_scale(self, command, stage, radius, capsys):
        # the hierarchy used to report a degenerate level (center value 0.0),
        # or at 1e-154 an infinite bound
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, "--builtin", "euclidean", "--radius", radius, "--grid", "64"])
        assert (code, capsys.readouterr().err) == (
            5,
            f"invalid input: stage '{stage}' failed: eigenvalue scale inf at radius {radius}"
            " is outside the normal float range\n",
        )

    def test_huge_radius_still_names_the_area_integral(self, capsys):
        code = main(["bound", "--builtin", "euclidean", "--radius", "1e160", "--grid", "64"])
        assert (code, capsys.readouterr().err) == (
            5, "invalid input: stage 'moments' failed: the area integral overflows at radius 1e+160\n"
        )

    @pytest.mark.parametrize(
        "dimension,radius,limit", [(74, 1.0, "inf"), (80, 1.0, "inf"), (100, 1.0, "inf"),
                                   (80, 1e10, "0")]
    )
    @pytest.mark.parametrize("command", ["bound", "oracle", "symmetrize", "compare"])
    def test_high_dimension_area_breaks_the_centre_law(
        self, tmp_path, capsys, command, dimension, radius, limit
    ):
        # t^(n-1) at t = 1e-4 R underflows to 0 from n = 76 (a ZeroDivisionError)
        # and overflows at R = 1e10 (an OverflowError)
        cfg = tmp_path / "a.json"
        cfg.write_text(json.dumps(
            {"kind": "area", "area": "2*pi*t", "dimension": dimension, "radius": radius}
        ))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, "--config", str(cfg)])
        err = capsys.readouterr().err
        assert code == 5
        assert err.startswith(f"invalid input: A(t)/t^(n-1) -> {limit} x vol(S^(n-1)) near 0")

    @pytest.mark.parametrize(
        "error,code,label",
        [
            (errors.BallboundError, 1, "error"),
            (errors.ConfigError, 1, "error"),
            (errors.ExpressionSyntaxError, 2, "expression error"),
            (errors.EvaluationError, 2, "expression error"),
            (errors.BracketError, 4, "solver error"),
            (errors.ConvergenceError, 4, "solver error"),
            (errors.DomainError, 5, "invalid input"),
            (errors.InvalidAreaError, 5, "invalid input"),
            (errors.InvalidMetricError, 5, "invalid input"),
            (errors.PrecisionError, 5, "invalid input"),
        ],
    )
    def test_each_error_class_has_its_exit_code(self, monkeypatch, capsys, error, code, label):
        def fail(args):
            raise error(*(("boom", 3) if error is errors.ExpressionSyntaxError else ("boom",)))

        monkeypatch.setattr(cli, "_load_config", fail)
        assert main(["bound", "--builtin", "euclidean"]) == code
        assert capsys.readouterr().err.startswith(f"{label}: boom")

    @pytest.mark.parametrize("radius", ["400", "800"])
    @pytest.mark.parametrize("command", ["bound", "oracle", "symmetrize", "compare"])
    def test_overflowing_area_is_invalid_input(self, command, radius, capsys):
        # sinh(t)^2 overflows near t = 355; sinh(t) itself near t = 710
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(
                [command, "--builtin", "hyperbolic", "--dimension", "3", "--radius", radius]
            )
        assert code == 5
        assert "is not finite at t =" in capsys.readouterr().err

    @pytest.mark.parametrize("dimension", ["60", "100"])
    @pytest.mark.parametrize("command", ["symmetrize", "bound", "compare"])
    def test_underflowing_area_is_named(self, command, dimension, capsys):
        # vol * t^(n-1) is exactly 0 at the area's first probe t = 1e-6 R,
        # which used to read as "A must be positive on (0, R]"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, "--builtin", "euclidean", "--dimension", dimension])
        assert code == 5
        err = capsys.readouterr().err
        assert f"A(t) underflows to 0 at t = 1e-06 in dimension {dimension}" in err
        assert err.count("\n") == 1

    def test_expression_error_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"kind": "warping", "omega": "sin(q)", "radius": 1.0}))
        assert main(["bound", "--config", str(cfg)]) == 2

    def test_invalid_model_exit_code(self, tmp_path):
        cfg = tmp_path / "cone.json"
        cfg.write_text(json.dumps({"kind": "warping", "omega": "2*t", "radius": 1.0}))
        assert main(["bound", "--config", str(cfg)]) == 5

    def test_symmetrize_holds_the_area_to_the_positivity_rule(self, tmp_path, capsys):
        # A vanishes at t = 0.375, a grid node, between the probes made when the area is built
        cfg = tmp_path / "zero.json"
        cfg.write_text(json.dumps(
            {"kind": "area", "dimension": 2, "area": "2*pi*t*((t-0.375)/0.375)^2"}
        ))
        assert main(["symmetrize", "--config", str(cfg)]) == 5
        err = capsys.readouterr().err
        assert err == "invalid input: stage 'symmetrize' failed: A must be positive on (0, R]\n"

    def test_spherical_radius_past_pole_rejected(self, tmp_path):
        code = main(
            ["bound", "--builtin", "spherical(1.0)", "--radius", "3.2", "--grid", "64"]
        )
        assert code == 5

    def test_unwritable_output_is_a_config_error(self, tmp_path, capsys):
        target = tmp_path / "missing" / "report.json"
        code = main(["bound", "--builtin", "euclidean", "--grid", "64", "--output", str(target)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write report: ") and err.count("\n") == 1
        assert not target.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["symmetrize", "--builtin", "euclidean", "--grid", str(10**15)],
            ["paper-example", "--mesh", f"{10**16}x16"],
        ],
        ids=["grid", "mesh"],
    )
    def test_impossible_allocation_is_one_error_line(self, argv, capsys):
        # petabyte arrays, past any address space: numpy refuses them at once
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: Unable to allocate") and err.count("\n") == 1


class TestStageRunner:
    # case -> subcommand, its arguments, and the stages it reports in run order
    CASES = {
        "bound": ("bound", ["--builtin", "euclidean"], ["symmetrize", "moments"]),
        "oracle": ("oracle", ["--builtin", "euclidean"], ["oracle"]),
        "oracle-2d": ("oracle", ["--config", "{rho-r}"], ["oracle"]),
        "symmetrize": ("symmetrize", ["--builtin", "euclidean"], ["symmetrize"]),
        "compare": ("compare", ["--builtin", "euclidean", "--kappa", "-1"], ["compare"]),
        "paper-example": (
            "paper-example", [], ["area-check", "bound", "oracle-2d", "sharpness"]
        ),
    }

    @staticmethod
    def _argv(tmp_path, command, args):
        cfg = tmp_path / "rho-r.json"
        cfg.write_text(json.dumps({"kind": "polar2d", "rho": "r", "radius": 1}))
        return [command, *(str(cfg) if a == "{rho-r}" else a for a in args)]

    @pytest.mark.parametrize("case", CASES)
    def test_timings_are_the_stages_and_their_total(self, tmp_path, case):
        command, args, stages = self.CASES[case]
        code, report = run_json(tmp_path, *self._argv(tmp_path, command, args))
        assert code == 0
        timings = report["timings"]
        assert set(timings) == {*stages, "total"}
        assert all(timings[name] >= 0.0 for name in stages)
        assert timings["total"] == sum(timings[name] for name in stages)
        # argparse holds the only copy of the defaults
        config = {k: v for k, v in report["config"].items() if k != "model"}
        assert config == {"grid": 4096, "m_theta": 256, "k_max": 200, "tol": 1e-8, "mesh": [64, 64]}

    def test_2d_oracle_ignores_the_radial_grid(self, tmp_path):
        argv = self._argv(tmp_path, "oracle", ["--config", "{rho-r}", "--grid", "0"])
        code, report = run_json(tmp_path, *argv, "--mesh", "16x16")
        assert code == 0 and report["config"]["grid"] == 0
        assert main(["oracle", "--builtin", "euclidean", "--grid", "0"]) == 5

    @pytest.mark.parametrize(
        "argv,config,stage",
        [
            (["oracle"], {"kind": "polar2d", "rho": "r", "radius": 1e200}, "oracle"),
            (["compare", "--builtin", "euclidean", "--radius", "1e-200"], None, "compare"),
            (["paper-example", "--mesh", "8x8"], None, "oracle-2d"),
        ],
        ids=["oracle-polar2d-1e200", "compare-euclidean-1e-200", "paper-example-8x8"],
    )
    def test_errors_name_their_stage(self, tmp_path, capsys, argv, config, stage):
        if config is not None:
            (tmp_path / "c.json").write_text(json.dumps(config))
            argv = [*argv, "--config", str(tmp_path / "c.json")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 5
        err = capsys.readouterr().err
        assert err.startswith(f"invalid input: stage '{stage}' failed: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["paper-example", "--radius", "1e-320"],
             "radius 1e-320 is too small: 1e-6 R is not a normal float"),
            (["paper-example", "--grid", "4"], "need at least 8 intervals, got 4"),
            (["compare", "--builtin", "euclidean", "--kappa", "100"],
             "radius 1.0 reaches the conjugate locus pi/sqrt(kappa) = 0.3141592653589793"),
            (["compare", "--builtin", "euclidean", "--ref-warping", "t - 2*t^2"],
             "A must be positive on (0, R]"),
            (["compare", "--builtin", "euclidean", "--ref-warping", "2*t"],
             "A(t)/t^(n-1) -> 2 x vol(S^(n-1)) near 0, expected the unit-sphere volume"
             " (metric smooth at the center)"),
            (["compare", "--builtin", "euclidean", "--kappa=-1e6"],
             "A(t) is not finite at t = 0.75"),
        ],
        ids=["paper-example-radius-1e-320", "paper-example-grid-4", "compare-kappa-100",
             "compare-negative-reference", "compare-reference-off-centre-law",
             "compare-reference-overflows"],
    )
    def test_models_are_built_before_the_first_stage(self, capsys, argv, message):
        # the paper example's metric and grid, and compare's reference area
        assert main(argv) == 5
        assert capsys.readouterr().err == f"invalid input: {message}\n"

    @pytest.mark.parametrize("dimension", ["400", str(10**20)])
    @pytest.mark.parametrize(
        "command,stage",
        [("bound", "symmetrize"), ("oracle", "oracle"), ("symmetrize", "symmetrize"),
         ("compare", "compare")],
    )
    def test_huge_dimension_is_invalid_input(self, capsys, command, stage, dimension):
        # Gamma(n/2) in the unit-sphere volume overflows from n = 344 on.  It
        # used to fail in ``stage``; the model's area is now built before it.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, "--builtin", "euclidean", "--dimension", dimension])
        assert code == 5
        err = capsys.readouterr().err
        assert f"stage '{stage}'" not in err
        assert err == (
            f"invalid input: the volume of the unit sphere overflows in dimension {dimension}\n"
        )


class TestProcessEntry:
    def test_main_leaves_the_collector_unfrozen(self, tmp_path):
        before = gc.get_freeze_count()
        assert main(["bound", "--builtin", "euclidean", "--grid", "64",
                     "--output", str(tmp_path / "r.json")]) == 0
        assert gc.get_freeze_count() == before

    @pytest.fixture(params=["unbuffered", "buffered"])
    def stdout_buffering(self, request, monkeypatch):
        # under PYTHONUNBUFFERED a report reaches stdout as main writes it;
        # otherwise it waits in the buffer that run() flushes
        if request.param == "unbuffered":
            monkeypatch.setenv("PYTHONUNBUFFERED", "1")
        else:
            monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
        return request.param

    def test_process_entry_skips_teardown(self, capsys, stdout_buffering):
        # run() flushes the report and ends by os._exit, so no atexit hook runs
        args = ["bound", "--builtin", "euclidean", "--grid", "64", "--format", "csv"]
        code = main(args)
        captured = capsys.readouterr()
        script = (
            "import atexit, sys; from ballbound.cli import run;"
            " atexit.register(print, 'teardown', file=sys.stderr);"
            f" sys.argv[1:] = {args!r}; run()"
        )
        proc = run_python("-c", script)
        assert code == 0 and captured.out.startswith("k,norm_ratio,center_ratio,mass_ratio\n")
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, captured.out, captured.err)

    def test_process_entry_on_a_closed_pipe(self, stdout_buffering):
        # the reader of stdout is gone: an unbuffered write fails inside main,
        # a buffered one in run()'s flush, which leaves the exit to the interpreter
        script = (
            "import os, sys; r, w = os.pipe(); os.close(r); os.dup2(w, 1);"
            " from ballbound.cli import run;"
            " sys.argv[1:] = ['bound', '--builtin', 'euclidean', '--grid', '64', '--format', 'csv'];"
            " run()"
        )
        proc = run_python("-c", script)
        assert proc.returncode == (1 if stdout_buffering == "unbuffered" else 120)
        assert proc.stderr.splitlines()[-1] == "BrokenPipeError: [Errno 32] Broken pipe"

    @pytest.mark.parametrize(
        "args,config,expected",
        [
            (["bound", "--builtin", "euclidean", "--grid", "64"], None, 0),
            (["bound", "--builtin", "euclidean", "--grid", "64", "--format", "csv"], None, 0),
            (["bound", "--builtin", "nosuch"], None, 1),
            (["bound"], {"kind": "warping", "omega": "sin(q)", "radius": 1.0}, 2),
            (["bound", "--builtin", "euclidean", "--grid", "64", "--kmax", "2",
              "--tol", "1e-14"], None, 3),
            (["bound", "--builtin", "spherical(1.0)", "--radius", "3.2", "--grid", "64"],
             None, 5),
        ],
        ids=["ok-file", "ok-stdout", "exit-1", "exit-2", "exit-3", "exit-5"],
    )
    def test_module_process_matches_main(self, tmp_path, capsys, args, config, expected):
        if config is not None:
            (tmp_path / "c.json").write_text(json.dumps(config))
            args = [*args, "--config", str(tmp_path / "c.json")]
        to_file = "csv" not in args
        outputs = [tmp_path / "in.json", tmp_path / "out.json"]
        extra = [["--output", str(p)] if to_file else [] for p in outputs]
        code = main([*args, *extra[0]])
        captured = capsys.readouterr()
        proc = run_python("-m", "ballbound.cli", *args, *extra[1])
        assert code == expected
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, captured.out, captured.err)
        assert outputs[0].exists() == outputs[1].exists() == (to_file and code in (0, 3))
        if outputs[0].exists():
            reports = [json.loads(p.read_text()) for p in outputs]
            for report in reports:
                del report["timings"]
            assert reports[0] == reports[1]
