"""Known wrong verdicts, each pinned as a strict expected failure until fixed.

Each case runs the pipeline on a config written here, or on a golden
case's, and asserts what a correct run gives.  Each marked case fails on
that assertion today, and only there: its marker expects an
``AssertionError``, so a case that a changed API breaks fails the suite.
Its reason names the ROADMAP item whose fix makes
it pass; that fix removes the marker, since a strict expected failure that
passes fails the suite, and the case stays as a regression test.
"""

import copy

import numpy as np
import pytest

from test_golden import CASES as GOLDEN_CASES

from fuzzystab import harness
from fuzzystab.funceq import residual_main
from fuzzystab.harness import ExperimentConfig, run_pipeline

#: ``configs/combined.json``: f(x) = x^2 + 2x + 0.01 sin x + 0.01 cos x,
#: with Q(x) = x^2 and A(x) = 2x, since the up-schemes remove the bounded
#: perturbations.
COMBINED = {
    "seed": 20260809,
    "space": {"dim_x": 1, "dim_y": 1, "crisp_norm": "euclidean"},
    "function": {
        "quad": 1.0,
        "linear": 2.0,
        "perturbations": [
            {"shape": "sin", "amplitude": 0.01},
            {"shape": "cos", "amplitude": 0.01},
        ],
    },
    "control": {"family": "constant", "delta": "auto", "alpha": 1.0},
    "theorems": ["combined"],
    "grids": {"x_count": 20, "x_radius": 2.0, "a_points": 25},
}

#: A pair outside the sampled ball of radius 2 whose defect, 0.10967,
#: exceeds every defect on the premise pairs.
WITNESS = ([9.897], [-9.431])


def _quadratic(data: dict):
    report = run_pipeline(ExperimentConfig.from_dict(data), ("extraction",))
    (table,) = [t for t in report.extractions if t.component == "quadratic"]
    return report, table


def _witness_defect(data: dict) -> float:
    defect = residual_main(ExperimentConfig.from_dict(data).function, *WITNESS)
    return float(np.linalg.norm(defect))


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 1: the stop rule accepts an early plateau as converged",
)
def test_every_converged_quadratic_limit_is_x_squared():
    # the row with x_index 1 (x_norm 0.0267) stops at n_used 1 with a
    # relative error of 5.0e-3: its first differences grow by 4 per step
    report, table = _quadratic(COMBINED)
    off = [
        (i, n, abs(limit[0] - x_norm**2) / x_norm**2)
        for i, (limit, x_norm, n, converged) in enumerate(
            zip(table.limits, report.x_norms, table.n_used, table.converged)
        )
        if converged and abs(limit[0] - x_norm**2) > 1e-6 * x_norm**2
    ]
    assert off == []


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 1: N5 is probed only at the largest sampled threshold",
)
def test_the_induced_norms_pass_n5_on_a_one_threshold_grid():
    # the threshold grid is [1e-3], so N5 asks for a membership near 1 at
    # 1e-3 (1 + ||v||); N and N' each fail it at 199 of the 200 points
    data = dict(COMBINED, grids=dict(COMBINED["grids"], a_points=1))
    report = run_pipeline(ExperimentConfig.from_dict(data))
    n5 = [(norm, check.violations) for norm, check in report.axiom_rows if check.axiom == "N5"]
    assert n5 == [("N", 0), ("N'", 0)]
    assert report.exit_status == harness.EXIT_OK


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 14: the stop rule has an absolute floor, not scale-free",
)
def test_quadratic_stops_do_not_depend_on_the_scale_of_f():
    # scaling f by 2^k is exact, so each run must stop at the same n; the
    # first eight stop at 12 1 12 8 11 13 4 11 at k = 0, all at 1 at k = -30
    scaled = copy.deepcopy(COMBINED)
    function = scaled["function"]
    function["quad"] *= 2.0**-30
    function["linear"] *= 2.0**-30
    for term in function["perturbations"]:
        term["amplitude"] *= 2.0**-30
    _, at_one = _quadratic(COMBINED)
    _, at_scale = _quadratic(scaled)
    assert at_scale.n_used == at_one.n_used


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 2: the premise is checked only on pairs in the sampled ball",
)
def test_an_explicit_delta_below_a_defect_fails_the_premise():
    # the row passes with worst slack 9.58e-6
    data = dict(COMBINED, control={"family": "constant", "delta": 0.09, "alpha": 1.0})
    assert _witness_defect(data) > 0.09
    report = run_pipeline(ExperimentConfig.from_dict(data), ("hypothesis",))
    (premise,) = [r for r in report.hypothesis_rows if r.check == "defect_premise"]
    assert not premise.passed


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 2: auto delta is the largest defect on the sampled pairs",
)
def test_auto_delta_is_at_least_every_defect():
    # the resolved delta is 0.080416
    report = run_pipeline(ExperimentConfig.from_dict(COMBINED), ("hypothesis",))
    assert report.resolved_delta >= _witness_defect(COMBINED)


#: dim_y 2, x^2 in both coordinates and sin amplitude 1e200: each defect
#: coordinate is finite, but the sum of their squares overflows.
OVERFLOWING_DEFECT = {
    "seed": 424242,
    "space": {"dim_x": 1, "dim_y": 2, "crisp_norm": "euclidean"},
    "function": {
        "coords": [{"quad": [[1.0]]}, {"quad": [[1.0]]}],
        "perturbations": [{"shape": "sin", "amplitude": 1e200}],
    },
    "control": {"family": "constant", "delta": "auto", "alpha": 1.0},
    "theorems": ["quadratic_up"],
    "grids": {"x_count": 6, "x_radius": 2.0, "a_points": 7, "axiom_points": 40},
}


def test_auto_delta_is_the_largest_finite_defect_norm(monkeypatch):
    # every defect coordinate is finite, but some sums of their squares
    # overflow: spaces.stack_norms norms those defects again by a power of two
    received = []
    measure_residual_sup = harness.measure_residual_sup

    def counted(f, pairs, **kwargs):
        received.append((f, pairs))
        return measure_residual_sup(f, pairs, **kwargs)

    monkeypatch.setattr(harness, "measure_residual_sup", counted)
    report = run_pipeline(ExperimentConfig.from_dict(OVERFLOWING_DEFECT), ("hypothesis",))
    ((f, pairs),) = received
    defects = residual_main(f, *pairs)
    assert np.isfinite(defects).all()
    # each norm with its max-abs coordinate factored out, as BLAS nrm2 does;
    # a zero defect (y = 0) has norm 0
    largest = np.abs(defects).max(axis=1, keepdims=True)
    scaled = np.divide(defects, largest, out=np.zeros_like(defects), where=largest > 0)
    norms = largest[:, 0] * np.sqrt(np.sum(scaled**2, axis=1))
    assert float(norms.max()) == pytest.approx(7.684172e200, rel=1e-6)
    assert report.resolved_delta == pytest.approx(float(norms.max()), rel=1e-12)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 14: the stop rule's iterate norm overflows on a finite limit",
)
def test_an_exact_quadratic_converges_at_any_finite_scale():
    # f = x^2 is its own quadratic component, so each step difference is
    # exactly 0; yet near x = 1e154 every row stops with "iterate norm
    # overflows at n=1", since the stop rule squares the iterate
    data = GOLDEN_CASES["defect_overflow"][1]
    report = run_pipeline(ExperimentConfig.from_dict(data), ("extraction",))
    (table,) = report.extractions
    assert [limit[0] for limit in table.limits] == [x_norm**2 for x_norm in report.x_norms]
    assert table.n_used == (1,) * len(report.x_norms)
    assert all(table.converged)


#: The additive_up component of x^2 + x near x = 1e100: each of the 2 x 2
#: verification memberships lies below its envelope by a factor of about
#: 1e14, yet both are below 1e-180, so their difference is within the
#: absolute membership slack.
FAR_ADDITIVE = {
    "seed": 1,
    "space": {"dim_x": 1, "dim_y": 1, "crisp_norm": "euclidean"},
    "function": {"quad": 1.0, "linear": 1.0},
    "control": {"family": "constant", "delta": "auto", "alpha": 1.0},
    "theorems": ["additive_up"],
    "grids": {"x_count": 2, "x_radius": 1e100, "a_points": 2, "axiom_points": 10},
}


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP items 5 and 14: the verification slack is absolute, not relative",
)
def test_a_membership_far_below_its_envelope_is_a_violation():
    # lhs 2.8e-203 against rhs 2.5e-189 at the first cell; violations is 0
    report = run_pipeline(ExperimentConfig.from_dict(FAR_ADDITIVE), ("verification",))
    (verified,) = report.verification_reports
    assert (verified.lhs * 1e13 < verified.rhs).all()
    assert verified.violations == verified.lhs.size == 4
