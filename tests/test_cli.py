import gc
import json
import math
import warnings

import jsonschema
import pytest

from ballbound.cli import REPORT_SCHEMA, main
from ballbound.exprparse import evaluate

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
        # vol * t^(n-1) is 0 at the first nodes; the sweep used to divide by it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["oracle", "--builtin", "euclidean", "--dimension", dimension])
        assert code == 5
        err = capsys.readouterr().err
        assert err.startswith("invalid input: stage 'oracle' failed: A(t) underflows to 0")
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

    @pytest.mark.parametrize("radius", [1e80, 1e-100, 1e150])
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

    @pytest.mark.parametrize("radius", [1e180, 1e200, 1e-160])
    def test_2d_oracle_outside_the_float_range(self, tmp_path, radius, capsys):
        # the mesh masses themselves leave the float range
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"kind": "polar2d", "rho": "r", "radius": radius}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["oracle", "--config", str(cfg)]) == 5
        err = capsys.readouterr().err
        assert err.startswith("invalid input: ") and err.count("\n") == 1


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
        import ballbound.cli as cli

        calls = []

        def counted(tree, bindings):
            calls.append(bindings)
            return evaluate(tree, bindings)

        monkeypatch.setattr(cli, "evaluate", counted)
        cfg = tmp_path / "rho.json"
        cfg.write_text(json.dumps({"kind": "polar2d", "rho": "r", "radius": 1}))
        code, report = run_json(tmp_path, "bound", "--config", str(cfg))
        assert code == 0
        tol = 1e-8  # the default --tol; combined tolerance as in cheng_report
        assert abs(report["bound"] - J0_SQUARED) <= 5.0 * tol * J0_SQUARED + tol
        # a handful of array evaluations, not one per (node, angle) pair
        assert len(calls) <= 10

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
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

    def test_compare_kappa_names_the_reference(self, tmp_path):
        argv = ["--builtin", "euclidean", "--grid", "256", "--kappa", "-1"]
        assert self.model_of(tmp_path, "compare", *argv)["kappa"] is None
        assert self.model_of(tmp_path, "bound", *argv)["kappa"] == -1.0


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


class TestStageRunner:
    # case -> subcommand, its arguments, and the stages it reports in run order
    CASES = {
        "bound": ("bound", ["--builtin", "euclidean"], ["symmetrize", "moments"]),
        "oracle": ("oracle", ["--builtin", "euclidean"], ["oracle"]),
        "oracle-2d": ("oracle", ["--config", "{rho-r}"], ["oracle"]),
        "symmetrize": ("symmetrize", ["--builtin", "euclidean"], ["symmetrize"]),
        "compare": ("compare", ["--builtin", "euclidean", "--kappa", "-1"], ["compare"]),
        "paper-example": (
            "paper-example", [], ["metric", "area-check", "bound", "oracle-2d", "sharpness"]
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
            (["compare", "--builtin", "hyperbolic", "--dimension", "3", "--radius", "400"],
             None, "compare"),
            (["paper-example", "--mesh", "8x8"], None, "oracle-2d"),
        ],
        ids=["oracle-polar2d-1e200", "compare-hyperbolic-400", "paper-example-8x8"],
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

    @pytest.mark.parametrize("dimension", ["400", str(10**20)])
    @pytest.mark.parametrize(
        "command,stage",
        [("bound", "symmetrize"), ("oracle", "oracle"), ("symmetrize", "symmetrize"),
         ("compare", "compare")],
    )
    def test_huge_dimension_is_invalid_input(self, capsys, command, stage, dimension):
        # Gamma(n/2) in the unit-sphere volume overflows from n = 344 on
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, "--builtin", "euclidean", "--dimension", dimension])
        assert code == 5
        err = capsys.readouterr().err
        assert err == (
            f"invalid input: stage '{stage}' failed: the volume of the unit sphere"
            f" overflows in dimension {dimension}\n"
        )


class TestProcessEntry:
    def test_main_leaves_the_collector_unfrozen(self, tmp_path):
        before = gc.get_freeze_count()
        assert main(["bound", "--builtin", "euclidean", "--grid", "64",
                     "--output", str(tmp_path / "r.json")]) == 0
        assert gc.get_freeze_count() == before

    def test_process_entry_freezes_the_heap(self):
        script = (
            "import atexit, gc, sys; from ballbound.cli import run;"
            " atexit.register(lambda: print(gc.get_freeze_count() > 0, file=sys.stderr));"
            " sys.argv[1:] = ['bound', '--builtin', 'euclidean', '--grid', '64', '--format', 'csv'];"
            " run()"
        )
        proc = run_python("-c", script)
        assert proc.returncode == 0
        assert proc.stderr == "True\n"

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
