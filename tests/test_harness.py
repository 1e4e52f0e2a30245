"""Config parsing, pipeline stages, report emission, CLI exit codes."""

import csv
import json
import math
import re
import gc
import warnings
import weakref
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest
from test_golden import CASES as GOLDEN_CASES

from fuzzystab import harness
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
    emit_report,
    run_pipeline,
)
from fuzzystab.control import THEOREMS, StabilityReport, eval_control
from fuzzystab.spaces import (
    AxiomCheck,
    FuzzyNorm,
    check_axioms,
    default_axiom_samples,
    euclidean_norm,
    log_a_grid,
)

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
        assert axioms_only.axiom_rows and not axioms_only.extractions
        assert not axioms_only.verification_reports
        extract_only = run_pipeline(cfg, stages=("extraction",))
        assert extract_only.extractions and not extract_only.axiom_rows

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
        for table in report.extractions:
            assert len(table.limits) == len(report.x_norms)
            for limit, x_norm in zip(table.limits, report.x_norms):
                want = 3.0 * x_norm**2 if table.component == "quadratic" else 2.0 * x_norm
                assert float(np.linalg.norm(limit)) == pytest.approx(want, abs=1e-9)

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
        assert [len(table.n_used) for table in report.extractions] == [8, 8]

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

    def test_nan_auto_delta_fails_both_scaling_rows(self):
        # defects that overflow make the auto-delta sup NaN: on an up-scheme
        # the scaling margin is -inf and the control does not vanish
        data = dict(GOLDEN_CASES["defect_overflow"][1], theorems=["quadratic_up"])
        data["control"] = dict(data["control"], alpha=1.0)
        report = run_pipeline(ExperimentConfig.from_dict(data), stages=("hypothesis",))
        assert math.isnan(report.resolved_delta)
        rows = {row.check: row for row in report.hypothesis_rows}
        scaling, vanishing = rows["alpha_scaling[quadratic_up]"], rows["vanishing[quadratic_up]"]
        assert (scaling.passed, scaling.worst_slack) == (False, -math.inf)
        assert scaling.note == "margin -inf at auto delta nan and alpha 1"
        assert (vanishing.passed, vanishing.worst_slack) == (False, 0.0)
        assert vanishing.note == "auto delta nan at rate 4"

    def test_infinite_auto_delta_fails_both_scaling_rows(self):
        # no term c f(px + qy) of the defect of 8e307 sin x overflows (2 *
        # 8e307 < 1.8e308), but their partial sums can: a defect coordinate
        # is inf, never NaN, so the auto-delta is inf, and phi = inf is no
        # control: the scaling row fails at -inf (the sampled check passed
        # it at 0)
        data = dict(BASE, function={"perturbations": [{"shape": "sin", "amplitude": 8e307}]})
        report = run_pipeline(ExperimentConfig.from_dict(data), stages=("hypothesis",))
        assert report.resolved_delta == math.inf
        scaling, vanishing, _ = report.hypothesis_rows
        assert scaling == HypothesisRow(
            "quadratic_up",
            "alpha_scaling[quadratic_up]",
            False,
            -math.inf,
            "margin -inf at auto delta inf and alpha 1",
        )
        # 2^0 < 4 holds: the row fails on the auto-delta, and says so
        assert (vanishing.passed, vanishing.note) == (False, "auto delta inf at rate 4")

    def test_infinite_auto_delta_fails_the_defect_premise(self):
        # phi = inf has N' membership 0, as a defect with an infinite
        # coordinate has N membership 0, so every cell read slack 0 and
        # passed; a phi that is not finite controls nothing, so each cell is
        # a violation at -inf and the first pair, at the first threshold, is
        # the witness
        data = dict(BASE, function={"perturbations": [{"shape": "sin", "amplitude": 8e307}]})
        report = run_pipeline(ExperimentConfig.from_dict(data), stages=("hypothesis",))
        assert report.resolved_delta == math.inf
        *_, premise = report.hypothesis_rows
        assert premise == HypothesisRow(
            "quadratic_up", "defect_premise", False, -math.inf, "margin -inf at a=0.001"
        )

    @pytest.mark.parametrize("radius, violations", [(1e-13, 0), (1e-100, 0), (1e-200, 199)])
    def test_n2_audits_the_induced_norms_at_small_scales(self, radius, violations):
        # configs/combined.json at a small x_radius: N2 probes each nonzero
        # sample at its own norm, so it fails only where the squares of that
        # norm underflow to 0, for N and for N' alike
        data = json.loads((CONFIGS / "combined.json").read_text(encoding="utf-8"))
        data["grids"]["x_radius"] = radius
        report = run_pipeline(ExperimentConfig.from_dict(data), stages=("axioms",))
        n2 = [(norm, c.passed, c.violations) for norm, c in report.axiom_rows if c.axiom == "N2"]
        assert n2 == [(norm, violations == 0, violations) for norm in ("N", "N'")]

    def test_zero_control_passes_both_scaling_rows_at_any_alpha(self):
        # phi = 0 satisfies phi(2x, 2y) <= alpha phi(x, y) at alpha 0.5; it
        # cannot dominate a nonzero defect, and the premise row names the
        # threshold of its witness
        data = dict(BASE, control={"family": "constant", "delta": 0.0, "alpha": 0.5})
        cfg = ExperimentConfig.from_dict(data)
        scaling, vanishing, premise = run_pipeline(cfg, stages=("hypothesis",)).hypothesis_rows
        for row, check in ((scaling, "alpha_scaling"), (vanishing, "vanishing")):
            assert row == HypothesisRow("quadratic_up", f"{check}[quadratic_up]", True, 0.0, "")
            assert math.copysign(1.0, row.worst_slack) == 1.0
        a_grid = {f"{a:g}" for a in log_a_grid(points=cfg.a_points)}
        match = re.fullmatch(r"margin (\S+) at a=(\S+)", premise.note)
        assert not premise.passed and match and match[2] in a_grid
        assert match[1] == f"{premise.worst_slack:.3e}" and premise.worst_slack < 0

    def test_overflowing_defects_fail_quietly(self, tmp_path, capsys):
        # the defects of x^2 overflow near 1e154: the auto-delta sup is NaN
        # and the premise rows fail at -inf, with no RuntimeWarning; the
        # golden case defect_overflow pins the report files
        config = tmp_path / "overflow.json"
        config.write_text(json.dumps(GOLDEN_CASES["defect_overflow"][1]), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            status = cli_main(["run", "--config", str(config), "--out-dir", str(tmp_path / "out")])
        assert status == EXIT_VIOLATIONS
        assert capsys.readouterr().err == ""

    def test_overflowing_component_errors_verify_quietly(self, tmp_path, capsys):
        # near x = 1e100 the additive_up component of x^2 + x does not
        # converge, and the squared norms of its errors overflow inside the
        # verification memberships, with no RuntimeWarning: each error is
        # normed again by a power of two, so each membership is its tiny
        # finite value, below the envelope by less than the membership slack
        data = dict(
            BASE,
            seed=1,
            function={"quad": 1.0, "linear": 1.0},
            theorems=["additive_up"],
            grids={"x_count": 2, "a_points": 2, "axiom_points": 10, "x_radius": 1e100},
        )
        config, out = write_config(tmp_path, data), tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            status = cli_main(["run", "--config", str(config), "--out-dir", str(out)])
        assert status == EXIT_VIOLATIONS
        assert capsys.readouterr().err == ""
        with open(out / "verification.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [(row["lhs"], row["rhs"]) for row in rows] == [
            ("2.7723375973059894e-203", "2.4514972586088908e-189"),
            ("2.7723375973059891e-197", "2.4514972586088908e-183"),
            ("1.9684541890511846e-202", "2.4514972586088908e-189"),
            ("1.9684541890511848e-196", "2.4514972586088908e-183"),
        ]

    @pytest.mark.parametrize(
        "control, theorem",
        [
            # 2^0.5 <= 1.5 < 2: a finite probe saw the membership short of 1 - tol
            ({"family": "power", "theta": 1.0, "p": 0.5, "alpha": 1.5}, "additive_up"),
            # 2^1.5 >= 2.5 > 2: so did the default probe, and a deep one raised
            # DomainError at a product term 0^-0.5
            (
                {"family": "product", "theta": 1.0, "p1": 2.0, "p2": -0.5, "alpha": 2.5},
                "additive_down",
            ),
        ],
        ids=["additive_up_power", "additive_down_product"],
    )
    def test_degree_decides_the_vanishing_row(self, tmp_path, control, theorem):
        data = {
            "seed": 0,
            "space": {"dim_x": 1, "dim_y": 1},
            "function": {"linear": 2.0, "perturbations": [{"shape": "sin", "amplitude": 0.01}]},
            "control": control,
            "theorems": [theorem],
            "grids": {"x_count": 10, "x_radius": 2.0},
        }
        out, path = tmp_path / "out", write_config(tmp_path, data)
        code = cli_main(["run", "--config", str(path), "--out-dir", str(out)])
        doc = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert code == doc["exit_status"] == EXIT_OK
        assert [row["passed"] for row in doc["hypothesis"]] == [True, True, True]

    @pytest.mark.parametrize(
        "control, theorem",
        [
            # 2^1 >= 1.5 and 2^1 is not below the additive rate 2
            ({"family": "power", "theta": 1.0, "p": 1.0, "alpha": 1.5}, "additive_up"),
            # 2^3 >= 2 and 2^3 is not below the quadratic rate 4
            ({"family": "power", "theta": 1.0, "p": 3.0, "alpha": 2.0}, "quadratic_up"),
        ],
        ids=["additive_boundary", "quadratic_cubic"],
    )
    def test_failed_hypothesis_row_names_what_decided_it(self, control, theorem):
        cfg = ExperimentConfig.from_dict(dict(BASE, control=control, theorems=[theorem]))
        report = run_pipeline(cfg, stages=("hypothesis",))
        scaling, vanishing, premise = report.hypothesis_rows
        degree, alpha = cfg.control.degree, cfg.control.alpha
        rate = THEOREMS[theorem].schemes[0].rate
        assert (scaling.passed, vanishing.passed, premise.passed) == (False, False, True)
        assert scaling.worst_slack == alpha - 2.0**degree < 0
        margin = f"{scaling.worst_slack:.3e}"
        assert scaling.note == f"margin {margin} at degree {degree:g} and alpha {alpha:g}"
        assert vanishing.worst_slack == 0.0
        assert vanishing.note == f"degree {degree:g} at rate {rate:g}"


class TestControlNorms:
    """A control holds its domain norm and its N': a loaded power or product
    control norms its arguments by the space's crisp norm, and the run's N'
    axiom rows audit the control's own N'."""

    @pytest.mark.parametrize(
        "space",
        [
            {"dim_x": 2, "dim_y": 2, "crisp_norm": "max"},
            {"dim_x": 2, "dim_y": 2, "crisp_norm": "weighted", "weights": [1.0, 3.0]},
        ],
        ids=["max", "weighted"],
    )
    @pytest.mark.parametrize(
        "control",
        [
            {"family": "power", "theta": 0.5, "p": 1.5, "alpha": 3.0},
            {"family": "product", "theta": 0.5, "p1": 1.0, "p2": 0.5, "alpha": 3.0},
        ],
        ids=["power", "product"],
    )
    def test_a_loaded_control_evaluates_under_the_space_norm(self, space, control):
        coords = [{"quad": [[1.0, 0.0], [0.0, 1.0]]}] * 2
        data = dict(BASE, space=space, function={"coords": coords}, control=control)
        cfg = ExperimentConfig.from_dict(data)
        x, y = np.array([3.0, -4.0]), np.array([0.5, 2.0])

        def phi_under(norm):
            if control["family"] == "power":
                return 0.5 * (norm(x) ** 1.5 + norm(y) ** 1.5)
            return 0.5 * norm(x) ** 1.0 * norm(y) ** 0.5

        want = phi_under(cfg.space.norm())
        assert want != phi_under(euclidean_norm)
        assert eval_control(cfg.control, x, y) == want

    def test_the_n_prime_axiom_rows_audit_the_controls_own_n_prime(self):
        # membership 1/2 everywhere: not 0 at a <= 0 (N1), not 1 at the
        # origin (N2), never near 1 at large a (N5)
        broken = FuzzyNorm(evaluator=lambda v, a: 0.5)
        cfg = ExperimentConfig.from_dict(BASE)
        cfg = replace(cfg, control=replace(cfg.control, nprime=broken))
        report = run_pipeline(cfg, ("axioms",))
        failed = {(norm, c.axiom) for norm, c in report.axiom_rows if not c.passed}
        assert failed == {("N'", "N1"), ("N'", "N2"), ("N'", "N5")}
        assert report.exit_status == EXIT_VIOLATIONS


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

    def test_unknown_format_makes_no_directory(self, tmp_path):
        out = tmp_path / "new"
        with pytest.raises(ValueError, match="unknown report format 'xml'"):
            emit_report(RunReport(seed=0, stages=()), "xml", out)
        assert not out.exists()

    def test_violation_total_of_numpy_counts_is_exact(self, tmp_path):
        big = 2**62
        rows = [AxiomCheck("N1", False, big, 0.0), AxiomCheck("N2", False, np.int64(big), 0.0)]
        report = RunReport(seed=0, stages=(), axiom_rows=tuple(("", c) for c in rows))
        assert report.total_violations == 2**63
        (path,) = emit_report(report, "json", tmp_path)
        assert json.loads(path.read_text())["summary"]["violations"] == 2**63

    def test_a_failed_hypothesis_fails_the_run(self):
        # a failed hypothesis row, or a bound not asserted because its
        # premise fails, exits 1 even with no violation counted
        failed_row = HypothesisRow("combined", "vanishing[quadratic_up]", False, 0.0)
        empty = np.empty((0, 2))
        not_asserted = StabilityReport(
            "combined", np.ones(2), empty, empty, math.nan, 0, hypothesis_ok=False
        )
        for report in (
            RunReport(seed=0, stages=(), hypothesis_rows=(failed_row,)),
            RunReport(seed=0, stages=(), verification_reports=(not_asserted,)),
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

    @pytest.mark.parametrize(
        "space",
        [
            {"dim_x": 2, "dim_y": 2, "crisp_norm": "max"},
            {"dim_x": 2, "dim_y": 2, "crisp_norm": "weighted", "weights": [1.0, 3.0]},
        ],
    )
    def test_norm_fields_use_the_configured_crisp_norm(self, tmp_path, space, monkeypatch):
        coords = [{"quad": [[1.0, 0.5], [0.5, 2.0]], "linear": [1.0, -1.0]}] * space["dim_y"]
        data = dict(BASE, space=space, function={"coords": coords}, theorems=["combined"])
        cfg = ExperimentConfig.from_dict(data)
        verify_stability, received = harness.verify_stability, []  # the xs of each call

        def recorded_verify_stability(f, components, phi, theorem_id, xs, *args, **kwargs):
            received.append(xs)
            return verify_stability(f, components, phi, theorem_id, xs, *args, **kwargs)

        monkeypatch.setattr(harness, "verify_stability", recorded_verify_stability)
        report = run_pipeline(cfg)
        emit_report(report, "csv", tmp_path)
        with (tmp_path / "extraction.csv").open() as fh:
            extraction = list(csv.DictReader(fh))
        with (tmp_path / "verification.csv").open() as fh:
            verification = list(csv.DictReader(fh))
        norm = cfg.space.norm()
        x_norm = {}
        limits = np.concatenate([table.limits for table in report.extractions])
        for limit, csv_row in zip(limits, extraction):
            assert float(csv_row["limit_norm"]) == norm(limit)
            x_norm.setdefault(csv_row["x_index"], csv_row["x_norm"])
            assert x_norm[csv_row["x_index"]] == csv_row["x_norm"]
        (xs,) = received
        assert len(xs) == len(report.x_norms) == cfg.x_count
        for i, x in enumerate(xs):
            assert report.x_norms[i] == norm(x)
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

    @staticmethod
    def _files(out):
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    def test_report_files_do_not_depend_on_the_order_of_formats(self, tmp_path):
        # each way renders a fresh report, so each format is once the first
        cfg = ExperimentConfig.load(CONFIGS / "combined.json")
        ways = {
            "json": ("json",),
            "csv": ("csv",),
            "both": ("json", "csv"),
            "reversed": ("csv", "json"),
        }
        for way, formats in ways.items():
            report = run_pipeline(cfg)
            for fmt in formats:
                emit_report(report, fmt, tmp_path / way)
        both = self._files(tmp_path / "both")
        sections = ("axioms", "extraction", "hypothesis", "repair_log", "verification")
        assert sorted(both) == sorted(["report.json", *(f"{s}.csv" for s in sections)])
        assert self._files(tmp_path / "reversed") == both
        assert self._files(tmp_path / "json") == {"report.json": both["report.json"]}
        del both["report.json"]
        assert self._files(tmp_path / "csv") == both

    def test_a_report_cannot_change(self):
        # the first emit keeps its texts on the report, so a report changed
        # after it would write stale values
        report = run_pipeline(ExperimentConfig.load(CONFIGS / "combined.json"))
        for f in fields(RunReport):
            with pytest.raises(FrozenInstanceError):
                setattr(report, f.name, getattr(report, f.name))
        sections = (
            report.axiom_rows,
            report.hypothesis_rows,
            report.extractions,
            report.verification_reports,
            report.repair_log,
            report.x_norms,
        )
        assert all(isinstance(section, tuple) and section for section in sections)

    def test_the_texts_are_rendered_once_and_freed_with_the_report(self, tmp_path, monkeypatch):
        rendered = []
        report_sections = harness._report_sections

        def counted(report):
            rendered.append(report)
            return report_sections(report)

        monkeypatch.setattr(harness, "_report_sections", counted)
        report = run_pipeline(ExperimentConfig.load(CONFIGS / "combined.json"))
        emit_report(report, "json", tmp_path)
        emit_report(report, "csv", tmp_path)
        assert rendered == [report]
        rendered.clear()
        kept = weakref.ref(report)
        del report
        gc.collect()
        assert kept() is None

    def test_extraction_table_columns_cannot_change_in_place(self):
        # the first emit keeps its texts on the report, so a column changed
        # in place would never be written by the second
        report = run_pipeline(ExperimentConfig.load(CONFIGS / "combined.json"), ("extraction",))
        assert len(report.extractions) == 2
        for table in report.extractions:
            with pytest.raises(ValueError):
                table.limits[0] = 0.125
            with pytest.raises(ValueError):
                table.limits.flags.writeable = True
            for column in table[3:]:
                assert isinstance(column, tuple) and len(column) == len(table.limits)
            with pytest.raises(AttributeError):
                table.n_used = ()


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

    def test_scale_error_names_the_finite_norm_of_a_point_whose_squares_overflow(
        self, tmp_path, capsys
    ):
        # the sampled point is about -9.7e199: its squares overflow, its norm does not
        data = json.loads((CONFIGS / "combined.json").read_text(encoding="utf-8"))
        data["grids"]["x_radius"] = 1e200
        config = write_config(tmp_path, data)
        code = cli_main(["run", "--config", str(config), "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_SCALE
        assert "scaled argument norm 9.710e+199 exceeds" in capsys.readouterr().err

    def test_overflowing_control_degree_reports_its_verdict(self, tmp_path):
        # 2.0 ** 2000 overflows a Python float: the growth is inf, so the
        # scaling row fails at -inf in a written report
        config = json.loads((CONFIGS / "quadratic_power.json").read_text(encoding="utf-8"))
        config["control"]["p"] = 2000
        out = tmp_path / "out"
        path = write_config(tmp_path, config)
        code = cli_main(["run", "--config", str(path), "--out-dir", str(out)])
        doc = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert code == doc["exit_status"] == EXIT_VIOLATIONS
        rows = {row["check"]: row for row in doc["hypothesis"]}
        scaling = rows["alpha_scaling[quadratic_up]"]
        assert (scaling["passed"], scaling["worst_slack"]) == (False, "-inf")
        assert rows["vanishing[quadratic_up]"]["passed"] is False

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

    def test_check_axioms_passes_a_heavily_weighted_norm(self, tmp_path):
        # N5's large threshold is sized by the norm under audit; sized by the
        # Euclidean norm, 100 times smaller here, it failed this correct norm
        data = {
            "seed": 1,
            "space": {"dim_x": 1, "dim_y": 1, "crisp_norm": "weighted", "weights": [10000.0]},
            "function": {"quad": 1.0},
            "control": {"family": "constant", "delta": 1.0, "alpha": 1.0},
            "theorems": ["quadratic_up"],
        }
        config = write_config(tmp_path, data)
        out = tmp_path / "ax"
        code = cli_main(["check-axioms", "--config", str(config), "--out-dir", str(out)])
        assert code == EXIT_OK
        doc = json.loads((out / "report.json").read_text())
        assert [row["axiom"] for row in doc["axioms"] if not row["passed"]] == []

    def test_check_axioms_passes_with_overflowing_thresholds(self):
        # at thresholds up to 1e308 the audit's derived thresholds overflow to
        # inf, where the induced membership takes its limit 1
        grid = log_a_grid(1e-3, 1e308, 7)
        points, scalars = default_axiom_samples(1, count=30, a_grid=grid)
        checks = check_axioms(FuzzyNorm.induced(euclidean_norm), points, scalars)
        assert [c for c in checks if not c.passed] == []

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
