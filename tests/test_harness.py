"""Config parsing, pipeline stages, report emission, CLI exit codes."""

import csv
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from fuzzystab.cli import main as cli_main
from fuzzystab.errors import ConfigError
from fuzzystab.harness import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_OUTPUT,
    EXIT_SCALE,
    EXIT_VIOLATIONS,
    ExperimentConfig,
    HypothesisRow,
    RunReport,
    _finite_norms,
    emit_report,
    run_pipeline,
)
from fuzzystab.control import StabilityReport
from fuzzystab.spaces import AxiomCheck, crisp_norm, euclidean_norm, log_a_grid

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

BASE = {
    "seed": 424242,
    "space": {"dim_x": 1, "dim_y": 1, "crisp_norm": "euclidean"},
    "function": {"quad": 1.0, "perturbations": [{"shape": "cos", "amplitude": 0.01}]},
    "control": {"family": "constant", "delta": "auto", "alpha": 1.0},
    "theorems": ["quadratic_up"],
    "grids": {"x_count": 6, "x_radius": 2.0, "a_points": 7, "axiom_points": 40},
}


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


class TestConfigParsing:
    def test_minimal_config_parses(self):
        cfg = ExperimentConfig.from_dict(BASE)
        assert cfg.seed == 424242
        assert cfg.theorems == ("quadratic_up",)
        assert cfg.x_count == 6

    def test_missing_section_is_anchored(self):
        data = {k: v for k, v in BASE.items() if k != "control"}
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(data)
        assert "control" in str(err.value)

    def test_alpha_out_of_scheme_interval(self):
        data = dict(BASE, control={"family": "constant", "delta": 1.0, "alpha": 5.0})
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(data)
        assert "alpha out of range (0,4) for quadratic_up" in str(err.value)

    @pytest.mark.parametrize(
        "theorem, alpha, label",
        [
            ("quadratic_down", 3.0, "(>4)"),
            ("quadratic_down", 4.0, "(>4)"),
            ("additive_down", 1.5, "(>2)"),
            ("additive_down", 2.0, "(>2)"),
        ],
    )
    def test_alpha_below_a_down_scheme_interval(self, theorem, alpha, label):
        data = dict(
            BASE,
            control={"family": "constant", "delta": 1.0, "alpha": alpha},
            theorems=[theorem],
        )
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(data)
        assert f"config: control.alpha: alpha out of range {label} for {theorem}" in str(err.value)

    def test_combined_requires_tighter_alpha(self):
        data = dict(
            BASE,
            control={"family": "constant", "delta": 1.0, "alpha": 3.0},
            theorems=["combined"],
        )
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(data)
        assert "alpha out of range (0,2) for additive_up" in str(err.value)

    def test_unknown_theorem_rejected(self):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(dict(BASE, theorems=["quartic_up"]))
        assert "unknown theorem id" in str(err.value)

    def test_bad_grid_bounds(self):
        data = dict(BASE, grids={"a_min": 10.0, "a_max": 1.0})
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(data)
        assert "a_max" in str(err.value)

    def test_n_max_is_bounded(self):
        data = dict(BASE, tolerances={"n_max": 2001})
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(data)
        assert "tolerances.n_max" in str(err.value) and "<= 2000" in str(err.value)

    def test_json_parse_error_is_line_anchored(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "seed": 1,\n  oops\n}\n', encoding="utf-8")
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.load(path)
        assert f"{path}:3" in str(err.value)

    def test_matrix_form_in_three_dimensions(self):
        eye = np.eye(3).tolist()
        data = dict(
            BASE,
            space={"dim_x": 3, "dim_y": 3},
            function={
                "coords": [
                    {"quad": eye, "linear": [0.0, 0.0, 0.0], "const": 0.0},
                    {"quad": None, "linear": [1.0, 2.0, 3.0], "const": 0.0},
                    {"quad": eye, "linear": None, "const": 1.0},
                ]
            },
        )
        cfg = ExperimentConfig.from_dict(data)
        assert cfg.function.dim_y == 3

    def test_scalar_shorthand_needs_one_dimension(self):
        data = dict(BASE, space={"dim_x": 2, "dim_y": 1})
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(data)
        assert "coords" in str(err.value)


class TestPipeline:
    def test_full_run_on_clean_function(self):
        report = run_pipeline(ExperimentConfig.from_dict(BASE))
        assert report.exit_status == EXIT_OK
        assert report.total_violations == 0
        assert report.all_converged
        axiom_names = {c.axiom for _, c in report.axiom_rows}
        assert axiom_names == {"N1", "N2", "N3", "N4", "N5", "N6"}
        assert any(r.check == "defect_premise" and r.passed for r in report.hypothesis_rows)
        assert report.resolved_delta is not None and report.resolved_delta > 0

    def test_stage_subsets_populate_only_their_sections(self):
        cfg = ExperimentConfig.from_dict(BASE)
        axioms_only = run_pipeline(cfg, stages=("axioms",))
        assert axioms_only.axiom_rows and not axioms_only.extraction_rows
        assert not axioms_only.verification_reports
        extract_only = run_pipeline(cfg, stages=("extraction",))
        assert extract_only.extraction_rows and not extract_only.axiom_rows

    def test_negative_control_raises_violations(self):
        data = dict(
            BASE,
            function={"quad": 1.0},
            negative_control={"q_scale": 1.1},
        )
        report = run_pipeline(ExperimentConfig.from_dict(data))
        assert report.exit_status == EXIT_VIOLATIONS
        assert report.verification_reports[0].violations >= 1

    def test_exact_polynomial_through_combined_pipeline(self):
        data = dict(
            BASE,
            function={"quad": 3.0, "linear": 2.0, "const": 5.0},
            control={"family": "constant", "delta": 1e-12, "alpha": 1.0},
            theorems=["combined"],
        )
        report = run_pipeline(ExperimentConfig.from_dict(data))
        assert report.exit_status == EXIT_OK
        for row in report.extraction_rows:
            limit = float(np.linalg.norm(row.limit))
            want = 3.0 * row.x_norm**2 if row.component == "quadratic" else 2.0 * row.x_norm
            assert limit == pytest.approx(want, abs=1e-9)

    def test_power_control_bound_on_even_perturbation(self):
        # degree-one control at the scaling boundary alpha = 2 still verifies
        data = dict(
            BASE,
            control={"family": "power", "theta": 1.0, "p": 1.0, "alpha": 2.0},
        )
        report = run_pipeline(ExperimentConfig.from_dict(data))
        assert report.exit_status == EXIT_OK
        assert report.verification_reports[0].violations == 0
        assert all(
            r.passed for r in report.hypothesis_rows if r.check.startswith("alpha_scaling")
        )

    def test_down_scheme_run_logs_sign_convention(self):
        data = dict(
            BASE,
            function={"quad": 1.0},
            control={"family": "power", "theta": 0.3, "p": 3.0, "alpha": 5.0},
            theorems=["quadratic_down"],
        )
        report = run_pipeline(ExperimentConfig.from_dict(data))
        assert report.exit_status == EXIT_OK
        ids = [rid for rid, _ in report.repair_log]
        assert ids.count("down_sign_factor") == 1

    def test_three_dimensional_combined_pipeline(self):
        eye = np.eye(3).tolist()
        data = {
            "seed": 3333,
            "space": {"dim_x": 3, "dim_y": 3, "crisp_norm": "euclidean"},
            "function": {
                "coords": [
                    {"quad": eye, "linear": [1.0, 0.0, 0.0], "const": 2.0},
                    {
                        "quad": [[0.5, 0.1, 0.0], [0.1, 1.0, 0.0], [0.0, 0.0, 0.25]],
                        "linear": [0.0, -1.0, 0.5],
                        "const": -1.0,
                    },
                    {"quad": None, "linear": [2.0, 0.0, 1.0], "const": 0.0},
                ],
                "perturbations": [
                    {"shape": "sin", "amplitude": 0.01, "frequency": [1.0, 0.5, 0.25]}
                ],
            },
            "control": {"family": "constant", "delta": "auto", "alpha": 1.0},
            "theorems": ["combined"],
            "grids": {"x_count": 8, "a_points": 9, "axiom_points": 60},
        }
        report = run_pipeline(ExperimentConfig.from_dict(data))
        assert report.exit_status == EXIT_OK
        assert report.verification_reports[0].violations == 0
        assert len(report.extraction_rows) == 2 * 8

    def test_max_norm_pipeline(self):
        data = dict(
            BASE,
            space={"dim_x": 1, "dim_y": 1, "crisp_norm": "max"},
            function={"quad": 1.0, "perturbations": [{"shape": "cos", "amplitude": 0.02}]},
        )
        report = run_pipeline(ExperimentConfig.from_dict(data))
        assert report.exit_status == EXIT_OK
        assert report.verification_reports[0].violations == 0

    def test_combined_run_logs_each_repair_once(self):
        data = dict(
            BASE,
            function={
                "quad": 1.0,
                "linear": 2.0,
                "perturbations": [
                    {"shape": "sin", "amplitude": 0.01},
                    {"shape": "cos", "amplitude": 0.01},
                ],
            },
            theorems=["combined"],
        )
        report = run_pipeline(ExperimentConfig.from_dict(data))
        ids = [rid for rid, _ in report.repair_log]
        assert ids.count("additive_envelope_pair") == 1
        assert ids.count("combined_beta_one") == 1
        assert ids.count("combined_lhs_sign") == 1
        assert report.exit_status == EXIT_OK

    def test_vanishing_probe_past_the_float_range_fails_quietly(self):
        # at n = 2000 the scaled pairs and the scaled thresholds overflow to
        # inf, with no RuntimeWarning: the memberships are NaN and the row
        # fails at the least threshold
        data = json.loads((CONFIGS / "quadratic_power.json").read_text(encoding="utf-8"))
        data["tolerances"] = {"vanishing_probe": 2000}
        report = run_pipeline(ExperimentConfig.from_dict(data), stages=("hypothesis",))
        rows = {row.check: row for row in report.hypothesis_rows}
        row = rows["vanishing[quadratic_up]"]
        assert (row.passed, row.worst_slack, row.note) == (False, 0.0, "margin -inf at a=0.001")

    @pytest.mark.parametrize(
        "case, failing",
        [
            # degree 1/2 under the additive rescaling: the membership stalls
            # below 1 - tol at the probe
            ("additive_power", {"vanishing[additive_up]"}),
            # degree 3 > log2 alpha, and a control that overflows at n = 400
            ("quadratic_cubic", {"alpha_scaling[quadratic_up]", "vanishing[quadratic_up]"}),
        ],
    )
    def test_failed_hypothesis_row_names_its_margin_and_witness(self, case, failing):
        if case == "additive_power":
            data = dict(
                BASE,
                control={"family": "power", "theta": 1.0, "p": 0.5, "alpha": 1.5},
                theorems=["additive_up"],
                tolerances={"vanishing_probe": 30},
            )
        else:
            data = json.loads((CONFIGS / "quadratic_power.json").read_text(encoding="utf-8"))
            data["control"]["p"] = 3
            data["tolerances"] = {"vanishing_probe": 400}
        cfg = ExperimentConfig.from_dict(data)
        report = run_pipeline(cfg, stages=("hypothesis",))
        assert {r.check for r in report.hypothesis_rows if not r.passed} == failing
        a_grid = {f"{a:g}" for a in log_a_grid(cfg.a_min, cfg.a_max, cfg.a_points)}
        for row in report.hypothesis_rows:
            if row.passed:
                assert row.note == ""
                continue
            match = re.fullmatch(r"margin (\S+) at a=(\S+)", row.note)
            assert match and match[2] in a_grid, row.note
            margin = float(match[1])
            assert margin < 0
            if row.check.startswith("vanishing"):
                assert row.worst_slack == 0.0  # a vanishing row reports no slack
            else:
                assert f"{row.worst_slack:.3e}" == match[1]


class TestEmission:
    def test_csv_files_have_fixed_headers(self, tmp_path):
        report = run_pipeline(ExperimentConfig.from_dict(BASE))
        paths = emit_report(report, "csv", tmp_path)
        by_name = {p.name: p for p in paths}
        with by_name["verification.csv"].open() as fh:
            header = next(csv.reader(fh))
        assert header == ["theorem_id", "x_index", "x_norm", "a", "lhs", "rhs", "slack"]
        with by_name["axioms.csv"].open() as fh:
            header = next(csv.reader(fh))
        assert header[0] == "norm" and "worst_slack" in header

    def test_empty_sections_emit_header_only(self, tmp_path):
        cfg = ExperimentConfig.from_dict(BASE)
        report = run_pipeline(cfg, stages=("axioms",))
        paths = emit_report(report, "csv", tmp_path)
        verification = next(p for p in paths if p.name == "verification.csv")
        lines = verification.read_text().splitlines()
        assert len(lines) == 1

    def test_json_document_has_all_sections_and_status(self, tmp_path):
        report = run_pipeline(ExperimentConfig.from_dict(BASE))
        (path,) = emit_report(report, "json", tmp_path)
        doc = json.loads(path.read_text())
        for section in ("axioms", "hypothesis", "extraction", "verification", "repair_log"):
            assert section in doc
        assert doc["exit_status"] == EXIT_OK

    def test_violation_total_of_numpy_counts_is_exact(self, tmp_path):
        big = 2**62
        rows = [AxiomCheck("N1", False, big, 0.0), AxiomCheck("N2", False, np.int64(big), 0.0)]
        report = RunReport(seed=0, stages=(), axiom_rows=[("", c) for c in rows])
        assert report.total_violations == 2**63
        (path,) = emit_report(report, "json", tmp_path)
        assert json.loads(path.read_text())["summary"]["violations"] == 2**63

    def test_a_failed_hypothesis_fails_the_run(self):
        # a failed hypothesis row, or a bound not asserted because its
        # premise fails, exits 1 even with no violation counted
        failed_row = HypothesisRow("combined", "vanishing[quadratic_up]", False, 0.0)
        not_asserted = StabilityReport("combined", (), math.nan, 0, hypothesis_ok=False)
        for report in (
            RunReport(seed=0, stages=(), hypothesis_rows=[failed_row]),
            RunReport(seed=0, stages=(), verification_reports=[not_asserted]),
        ):
            assert report.total_violations == 0 and report.all_converged
            assert report.exit_status == EXIT_VIOLATIONS
        assert RunReport(seed=0, stages=()).exit_status == EXIT_OK

    def test_floats_carry_seventeen_significant_digits(self, tmp_path):
        report = run_pipeline(ExperimentConfig.from_dict(BASE))
        emit_report(report, "csv", tmp_path)
        with (tmp_path / "verification.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        # every float field re-renders identically under %.17g, and the
        # values round-trip to the doubles that produced them
        for row in rows[:50]:
            for key in ("x_norm", "a", "lhs", "rhs", "slack"):
                assert row[key] == f"{float(row[key]):.17g}"

    def test_extraction_rows_carry_stopped_reason(self, tmp_path):
        # 1e308 x^2 overflows at the first doubling of |x| beyond 0.67, and
        # the norm of a finite iterate above 1e154 overflows
        data = dict(BASE, function={"quad": 1e308})
        with np.errstate(over="ignore"):
            report = run_pipeline(ExperimentConfig.from_dict(data), stages=("extraction",))
        emit_report(report, "json", tmp_path)
        emit_report(report, "csv", tmp_path)
        doc = json.loads((tmp_path / "report.json").read_text())
        with (tmp_path / "extraction.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(doc["extraction"]) == 6
        assert not doc["summary"]["all_converged"]
        for row, csv_row in zip(doc["extraction"], rows):
            n = row["n_used"]
            assert not row["converged"]
            assert row["stopped_reason"] in (
                f"non-finite iterate at n={n}",
                f"iterate norm overflows at n={n}",
            )
            assert csv_row["stopped_reason"] == row["stopped_reason"]

    def test_finite_limit_prints_its_finite_norm(self, tmp_path):
        # the limit 1.3e307 at x_norm 0.362 is finite, but its square is not
        data = dict(BASE, function={"quad": 1e308})
        with np.errstate(over="ignore"):
            report = run_pipeline(ExperimentConfig.from_dict(data), stages=("extraction",))
        emit_report(report, "json", tmp_path)
        emit_report(report, "csv", tmp_path)
        doc = json.loads((tmp_path / "report.json").read_text())
        with (tmp_path / "extraction.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        finite = [
            (row["limit"][0], float(csv_row["limit_norm"]))
            for row, csv_row in zip(doc["extraction"], rows)
            if isinstance(row["limit"][0], float)
        ]
        assert any(csv_row["x_norm"] == "0.36222634354017669" for csv_row in rows)
        assert any(abs(limit) > 1e154 for limit, _ in finite)
        for limit, limit_norm in finite:
            assert limit_norm == abs(limit)

    def test_finite_norms_rescale_only_overflowing_rows(self):
        rng = np.random.default_rng(7)
        v = rng.normal(size=(200, 3))
        huge = np.ldexp(v, 1000)
        for kind, weights in (("euclidean", None), ("max", None), ("weighted", (1.0, 2.0, 0.5))):
            rows = crisp_norm(kind, weights).rows
            plain = rows(v)
            assert np.array_equal(_finite_norms(rows, v), plain)
            # scaling by 2^1000 is exact, so the rescaled norm is the plain one scaled
            assert np.array_equal(_finite_norms(rows, huge), np.ldexp(plain, 1000))
        edge = np.array([[np.inf, 0.0], [np.nan, 1.0], [1.7e308, 1.7e308], [1e300, -1e300]])
        norms = _finite_norms(euclidean_norm.rows, edge)
        assert norms[:3] == [math.inf, pytest.approx(math.nan, nan_ok=True), math.inf]
        assert norms[3] == math.hypot(1e300, 1e300)

    @pytest.mark.parametrize(
        "space",
        [
            {"dim_x": 2, "dim_y": 2, "crisp_norm": "max"},
            {"dim_x": 2, "dim_y": 2, "crisp_norm": "weighted", "weights": [1.0, 3.0]},
        ],
    )
    def test_norm_fields_use_the_configured_crisp_norm(self, tmp_path, space):
        coords = [{"quad": [[1.0, 0.5], [0.5, 2.0]], "linear": [1.0, -1.0]}] * space["dim_y"]
        data = dict(BASE, space=space, function={"coords": coords}, theorems=["combined"])
        cfg = ExperimentConfig.from_dict(data)
        report = run_pipeline(cfg)
        emit_report(report, "csv", tmp_path)
        with (tmp_path / "extraction.csv").open() as fh:
            extraction = list(csv.DictReader(fh))
        with (tmp_path / "verification.csv").open() as fh:
            verification = list(csv.DictReader(fh))
        norm = cfg.space.norm()
        x_norm = {}
        for row, csv_row in zip(report.extraction_rows, extraction):
            assert float(csv_row["limit_norm"]) == norm(np.array(row.limit))
            x_norm.setdefault(csv_row["x_index"], csv_row["x_norm"])
            assert x_norm[csv_row["x_index"]] == csv_row["x_norm"]
        for rep in report.verification_reports:
            for row in rep.rows:
                assert report.x_norms[row.x_index] == norm(row.x)
        assert verification and len(x_norm) == cfg.x_count
        for csv_row in verification:
            assert csv_row["x_norm"] == x_norm[csv_row["x_index"]]

    def test_violation_row_records_status_one_in_json(self, tmp_path):
        data = dict(BASE, function={"quad": 1.0}, negative_control={"q_scale": 1.1})
        report = run_pipeline(ExperimentConfig.from_dict(data))
        (path,) = emit_report(report, "json", tmp_path)
        doc = json.loads(path.read_text())
        assert doc["exit_status"] == EXIT_VIOLATIONS
        slacks = [row["slack"] for row in doc["verification"][0]["rows"]]
        assert min(slacks) < -1e-12


class TestCli:
    def test_run_subcommand_clean_exit(self, tmp_path, capsys):
        config = write_config(tmp_path, BASE)
        code = cli_main(["run", "--config", str(config), "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "report.json" in out
        assert (tmp_path / "out" / "verification.csv").exists()

    def test_invalid_config_exits_two(self, tmp_path, capsys):
        data = dict(BASE, control={"family": "constant", "delta": 1.0, "alpha": 5.0})
        config = write_config(tmp_path, data)
        code = cli_main(["run", "--config", str(config), "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "alpha out of range (0,4) for quadratic_up" in err

    def test_scale_error_exits_three(self, tmp_path, capsys):
        # a pure additive part under the quadratic scheme never meets the
        # relative stop rule, so the doubling argument reaches the guard
        data = dict(
            BASE, function={"linear": 1.0}, grids=dict(BASE["grids"], x_radius=1e139)
        )
        config = write_config(tmp_path, data)
        code = cli_main(["extract", "--config", str(config), "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_SCALE
        err = capsys.readouterr().err
        assert "scale error" in err and "n=" in err

    @pytest.mark.parametrize(
        "changes, line",
        [
            (
                {"function": {"linear": 1.0}, "grids": dict(BASE["grids"], x_radius=1e139)},
                "scale error: scaled argument norm 1.818e+150 exceeds 1e+150 at n=38 for "
                "quadratic_up at x=[6.613152208684455e+138] (theorem quadratic_up)",
            ),
            (
                {
                    "function": {"quad": 1.0, "linear": 1.0},
                    "control": {"family": "constant", "delta": 0.1, "alpha": 1.0},
                    "theorems": ["combined"],
                    "grids": dict(BASE["grids"], x_count=6, x_radius=1e151),
                },
                "scale error: scaled argument norm 6.613e+150 exceeds 1e+150 at n=0 for "
                "quadratic_up at x=[6.613152208684455e+150] (theorem combined)",
            ),
        ],
        ids=["single_scheme", "combined"],
    )
    def test_scale_error_line_names_scheme_point_and_theorem(
        self, tmp_path, capsys, changes, line
    ):
        config = write_config(tmp_path, dict(BASE, **changes))
        code = cli_main(["extract", "--config", str(config), "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_SCALE
        assert capsys.readouterr().err == line + "\n"

    def test_overflowing_control_power_reports_its_verdict(self, tmp_path):
        # at n = 400 the vanishing probe cubes norms near 2^401, beyond the
        # float range: the control is inf there and the probe fails, which
        # fails the run
        config = json.loads((CONFIGS / "quadratic_power.json").read_text(encoding="utf-8"))
        config["control"]["p"] = 3
        config["tolerances"] = {"vanishing_probe": 400}
        out = tmp_path / "out"
        path = write_config(tmp_path, config)
        code = cli_main(["run", "--config", str(path), "--out-dir", str(out)])
        doc = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert code == doc["exit_status"] == EXIT_VIOLATIONS
        checks = {row["check"]: row["passed"] for row in doc["hypothesis"]}
        assert checks["vanishing[quadratic_up]"] is False

    def test_unwritable_output_exits_four(self, tmp_path, capsys):
        config = write_config(tmp_path, BASE)
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        code = cli_main(["run", "--config", str(config), "--out-dir", str(blocker)])
        assert code == EXIT_OUTPUT

    def test_negative_control_exits_one(self, tmp_path):
        data = dict(BASE, function={"quad": 1.0}, negative_control={"q_scale": 1.1})
        config = write_config(tmp_path, data)
        code = cli_main(["run", "--config", str(config), "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_VIOLATIONS

    def test_check_axioms_subcommand(self, tmp_path):
        config = write_config(tmp_path, BASE)
        out = tmp_path / "ax"
        code = cli_main(["check-axioms", "--config", str(config), "--out-dir", str(out)])
        assert code == EXIT_OK
        doc = json.loads((out / "report.json").read_text())
        assert doc["axioms"] and not doc["extraction"]

    def test_check_axioms_passes_with_overflowing_thresholds(self, tmp_path):
        # with a_max 1e308 the audit's derived thresholds overflow to inf, where
        # the induced membership takes its limit 1
        data = dict(BASE, function={"quad": 1.0})
        data["grids"] = {"x_count": 6, "a_points": 7, "axiom_points": 30, "a_max": 1e308}
        config = write_config(tmp_path, data)
        out = tmp_path / "ax"
        code = cli_main(["check-axioms", "--config", str(config), "--out-dir", str(out)])
        doc = json.loads((out / "report.json").read_text())
        assert [r for r in doc["axioms"] if not r["passed"]] == []
        assert code == EXIT_OK

    def test_double_run_is_byte_identical(self, tmp_path):
        config = write_config(tmp_path, BASE)
        out1, out2 = tmp_path / "one", tmp_path / "two"
        assert cli_main(["run", "--config", str(config), "--out-dir", str(out1)]) == EXIT_OK
        assert cli_main(["run", "--config", str(config), "--out-dir", str(out2)]) == EXIT_OK
        files1 = sorted(p.name for p in out1.iterdir())
        files2 = sorted(p.name for p in out2.iterdir())
        assert files1 == files2 and files1
        for name in files1:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
