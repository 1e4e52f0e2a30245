"""Work counts of the extraction and of the control checks.

Counts are deterministic, so these tests pin the work a run does without
the flakiness of a timing test: calls of the source function, calls of
``iterate``, rows evaluated, evaluations of the equation defect, and the
memory the extraction holds beyond its results.
"""

import importlib.util
import inspect
import json
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fuzzystab import cli, control, extraction, harness, spaces
from fuzzystab.cli import _STAGES_BY_COMMAND
from fuzzystab.extraction import N_MAX, Scheme, extract_limit, uniqueness_crosscheck
from fuzzystab.funceq import Perturbation, TestFunction
from fuzzystab.harness import ExperimentConfig, run_pipeline
from fuzzystab.spaces import FuzzyNorm

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def _workload_config(name: str) -> dict:
    """The config a benchmark workload runs at its default seed."""
    module = sys.modules.get("bench_workloads")
    if module is None:
        spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # dataclasses look their module up
        spec.loader.exec_module(module)
    return module.WORKLOADS[name].config(module.DEFAULT_SEED)


def test_extract_down_stage_calls_f_once_per_block(monkeypatch):
    cfg = ExperimentConfig.from_dict(_workload_config("extract_down"))
    shapes = []
    iterated = []
    call, iterate = TestFunction.__call__, extraction.iterate

    def counted(self, x):
        shapes.append(np.shape(x))
        return call(self, x)

    def counted_iterate(scheme, f, x, n):
        iterated.append(np.shape(x))
        return iterate(scheme, f, x, n)

    monkeypatch.setattr(TestFunction, "__call__", counted)
    monkeypatch.setattr(extraction, "iterate", counted_iterate)
    report = run_pipeline(cfg, ("extraction",))
    dim_x, points = cfg.space.dim_x, extraction.BLOCK_POINTS
    assert len(report.extraction_rows) == cfg.x_count == 4000
    # f(0) once for the offset, then one call on the stacked steps
    # n = 0..N_MAX of each block of points, the last block shorter; the
    # per-point loop made 4000
    blocks = [points] * (cfg.x_count // points) + [cfg.x_count % points] * (cfg.x_count % points > 0)
    assert len(blocks) == 21
    assert shapes == [(dim_x,)] + [(p, N_MAX + 1, dim_x) for p in blocks]
    assert iterated == [(p, dim_x) for p in blocks]


def test_extract_down_stage_holds_one_block_at_a_time(monkeypatch):
    # the allocation peak of the extraction exceeds what it keeps (its
    # results) by one block's working set: the arguments and values of
    # BLOCK_POINTS points and f's temporaries on them; the rows of every
    # point at once would add 1.3 MB
    cfg = ExperimentConfig.from_dict(_workload_config("extract_down"))
    measured = []
    extract_components = harness.extract_components

    def traced(*args):
        tracemalloc.start()
        try:
            out = extract_components(*args)
            measured.append(tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        return out

    monkeypatch.setattr(harness, "extract_components", traced)
    run_pipeline(cfg, ("extraction",))
    ((retained, peak),) = measured
    dim_x, dim_y = cfg.space.dim_x, cfg.space.dim_y
    block = extraction.BLOCK_POINTS * (N_MAX + 1) * (dim_x + dim_y) * 8
    every_row = cfg.x_count * (N_MAX + 1) * dim_y * 8
    assert retained > every_row > 6 * block
    assert peak - retained <= 2 * block


def test_the_block_decides_each_guard_once(monkeypatch):
    # the block's one guard mask decides every point; extract_limit, handed
    # a point's rows, does not search its guard again
    counts = {"_trips": 0, "_first_guard": 0, "extract_limit": 0}
    for name in counts:
        original = getattr(extraction, name)

        def counted(*args, name=name, original=original):
            counts[name] += 1
            return original(*args)

        monkeypatch.setattr(extraction, name, counted)
    cfg = ExperimentConfig.from_dict(_workload_config("extract_down"))
    run_pipeline(cfg, ("extraction",))
    assert counts == {"_trips": 21, "_first_guard": 0, "extract_limit": 4000}
    # a guarded point still searches its own guard, once
    counts.update(dict.fromkeys(counts, 0))
    component = extraction.ExtractedComponent(Scheme.QUADRATIC_UP, TestFunction.scalar(quad=1.0))
    results = component.extract(np.array([[1.0], [1e140], [2.0], [1e139]]))
    assert [r.n_used for r in results] == [1] * 4
    assert counts["_first_guard"] == 2 and counts["extract_limit"] == 4


@pytest.mark.parametrize("scheme", list(Scheme))
def test_one_iterate_call_per_extraction(monkeypatch, scheme):
    calls = []
    original = extraction.iterate

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(extraction, "iterate", counted)
    f = TestFunction.scalar(
        quad=1.0, linear=0.5, perturbations=(Perturbation(shape="sin", amplitude=0.1),)
    )
    xs = (0.0, 1e-3, 0.7, -2.5, 1e3, 1e-135, 1e140)
    for x in xs:
        extract_limit(scheme, f, np.array([x]))
    assert len(calls) == len(xs)


def test_uniqueness_window_evaluates_its_last_two_indices(monkeypatch):
    # one iterate call, and so one call of f on two rows, per window: its
    # last index and the one before it
    calls = []
    original = extraction.iterate

    def counted(scheme, f, x, n):
        calls.append(list(n))
        return original(scheme, f, x, n)

    monkeypatch.setattr(extraction, "iterate", counted)
    square = TestFunction.scalar(quad=1.0)
    shapes = []

    def source(points):
        shapes.append(np.shape(points))
        return square(points)

    res = uniqueness_crosscheck(Scheme.QUADRATIC_UP, source, np.array([1.0]), (2, 5), (10, 14))
    assert res
    assert calls == [[4, 5], [13, 14]]
    assert shapes == [(2, 1), (2, 1)]


@pytest.mark.parametrize("command", ["run", "extract"])
def test_defect_is_evaluated_once_per_use(monkeypatch, command):
    # the auto-delta sup evaluates the defect once over all premise pairs,
    # and each theorem's premise margin once, shared by its hypothesis row
    # and its verification gate
    cfg = ExperimentConfig.from_dict(_workload_config("grid_dense"))
    calls = {"defect_premise_margin": 0, "measure_residual_sup": 0, "residual_main": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(harness, "defect_premise_margin")
    counted(harness, "measure_residual_sup")
    counted(control, "residual_main")
    run_pipeline(cfg, _STAGES_BY_COMMAND[command])
    if command == "extract":
        assert set(calls.values()) == {0}
    else:
        assert cfg.auto_delta
        theorems = len(cfg.theorems)
        assert calls == {
            "defect_premise_margin": theorems,
            "measure_residual_sup": 1,
            "residual_main": 1 + theorems,
        }


def test_each_report_float_is_rendered_once(monkeypatch, tmp_path):
    # both formats write the texts of one rendering, and a verification
    # column is rendered before it is broadcast to the (x, a) cells: x_norm
    # once per point, a once per threshold, lhs, rhs and slack once per cell
    data = _workload_config("grid_dense")
    report = run_pipeline(ExperimentConfig.from_dict(data))
    (verified,) = report.verification_reports
    assert verified.lhs.shape == (60, 25)
    extraction = sum(3 + len(r.limit) for r in report.extraction_rows)  # x_norm, limit_norm, ratio
    expected = (
        60 + 25 + 3 * 1500 + 1  # the cells and the report's worst_slack
        + extraction
        + len(report.hypothesis_rows)
        + len(report.axiom_rows)
        + (report.resolved_delta is not None)
    )
    rendered = []
    float_texts = harness._float_texts

    def counted(values):
        values = tuple(values)
        rendered.append(len(values))
        return float_texts(values)

    monkeypatch.setattr(harness, "_float_texts", counted)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(data), encoding="utf-8")
    argv = ["run", "--config", str(config), "--out-dir", str(tmp_path / "out"), "--format", "both"]
    assert cli.main(argv) == report.exit_status
    assert len(list((tmp_path / "out").iterdir())) == 6
    assert sum(rendered) == expected


def test_premise_pairs_are_built_once_and_shared(monkeypatch):
    # each theorem's premise pairs are one (2, k, d) array, built once and
    # handed as it is to the auto-delta sup and the premise margin
    cfg = ExperimentConfig.from_dict(_workload_config("grid_dense"))
    assert cfg.theorems == ("combined",) and cfg.auto_delta
    built = []
    received = {"measure_residual_sup": [], "defect_premise_margin": []}
    premise_pairs = harness.premise_pairs

    def counted_premise_pairs(*args, **kwargs):
        built.append(premise_pairs(*args, **kwargs))
        return built[-1]

    def receiving(name):
        original = getattr(harness, name)

        def wrapper(*args, **kwargs):
            pairs = inspect.signature(original).bind(*args, **kwargs).arguments["pairs"]
            received[name].append(pairs)
            return original(*args, **kwargs)

        monkeypatch.setattr(harness, name, wrapper)

    monkeypatch.setattr(harness, "premise_pairs", counted_premise_pairs)
    for name in received:
        receiving(name)
    run_pipeline(cfg, _STAGES_BY_COMMAND["run"])
    assert len(built) == len(cfg.theorems)
    (pairs,) = built
    assert isinstance(pairs, np.ndarray)
    assert pairs.shape == (2, cfg.x_count * 8 + 32, cfg.space.dim_x) == (2, 512, 3)
    assert {name: len(calls) for name, calls in received.items()} == {
        "measure_residual_sup": 1,
        "defect_premise_margin": 1,
    }
    assert all(got is pairs for calls in received.values() for got in calls)


def test_auto_delta_is_one_sup_over_every_theorems_premise_pairs(monkeypatch):
    # two theorems: the sup takes their premise arrays joined in the
    # config's order, so a largest defect in any of them sizes delta
    cfg = ExperimentConfig.from_dict(
        {
            "seed": 7,
            "space": {"dim_x": 2, "dim_y": 1},
            "function": {
                "coords": [{"linear": [1.0, -0.5]}],
                "perturbations": [{"shape": "sin", "amplitude": 0.01}],
            },
            "control": {"family": "constant", "delta": "auto", "alpha": 1.0},
            "theorems": ["combined", "additive_up"],
            "grids": {"x_count": 6, "a_points": 7, "axiom_points": 40},
        }
    )
    built, received = [], []
    premise_pairs, measure_residual_sup = harness.premise_pairs, harness.measure_residual_sup

    def counted_premise_pairs(*args, **kwargs):
        built.append(premise_pairs(*args, **kwargs))
        return built[-1]

    def counted_measure_residual_sup(f, pairs, **kwargs):
        received.append(pairs)
        return measure_residual_sup(f, pairs, **kwargs)

    monkeypatch.setattr(harness, "premise_pairs", counted_premise_pairs)
    monkeypatch.setattr(harness, "measure_residual_sup", counted_measure_residual_sup)
    report = run_pipeline(cfg, ("hypothesis",))
    (pairs,) = received
    assert len(built) == 2
    assert pairs.tobytes() == np.concatenate(built, axis=1).tobytes()
    shifted = harness.remove_offset(cfg.function)[0]
    sups = [measure_residual_sup(shifted, b, norm=cfg.space.norm()) for b in built]
    assert report.resolved_delta == max(sups)


def test_envelope_makes_one_membership_call_per_part(monkeypatch):
    # grid_dense verifies the combined bound: each (x, a) is one call on its
    # two schemes, which takes the one-scheme envelopes of quadratic_up and
    # additive_up; its control is constant, so each of those parts calls N'
    # once, at delta, and never evaluates the control
    cfg = ExperimentConfig.from_dict(_workload_config("grid_dense"))
    assert cfg.theorems == ("combined",)
    calls = []  # the schemes of each envelope call
    stack = []  # one membership count per open envelope call
    parts = []  # the membership count of each one-scheme envelope call
    inside = {"eval_control": 0, "membership": 0, "rows": 0}
    envelope, call, eval_control = control.envelope, FuzzyNorm.__call__, control.eval_control
    rows = control.ConstantControl.rows

    def counted_envelope(schemes, *args):
        calls.append(schemes)
        stack.append(0)
        try:
            return envelope(schemes, *args)
        finally:
            count = stack.pop()
            if len(schemes) == 1:
                parts.append(count)

    def counted_call(self, *args):
        if stack:
            stack[-1] += 1
            inside["membership"] += 1
        return call(self, *args)

    def counted_eval_control(*args):
        inside["eval_control"] += bool(stack)
        return eval_control(*args)

    def counted_rows(self, *args):
        inside["rows"] += bool(stack)
        return rows(self, *args)

    monkeypatch.setattr(control, "envelope", counted_envelope)
    monkeypatch.setattr(control.ConstantControl, "rows", counted_rows)
    monkeypatch.setattr(FuzzyNorm, "__call__", counted_call)
    monkeypatch.setattr(control, "eval_control", counted_eval_control)
    report = run_pipeline(cfg, ("verification",))
    points = cfg.x_count * cfg.a_points
    assert report.verification_reports[0].lhs.shape == (cfg.x_count, cfg.a_points)
    assert points == 1500
    assert len(calls) == 3 * points and calls.count(control.THEOREMS["combined"].schemes) == points
    one_scheme = [(Scheme.QUADRATIC_UP,), (Scheme.ADDITIVE_UP,)] * points
    assert [schemes for schemes in calls if len(schemes) == 1] == one_scheme
    assert parts == [1] * (2 * points)
    assert isinstance(cfg.control, control.ConstantControl)
    assert inside == {"eval_control": 0, "membership": 2 * points, "rows": 0}


def test_verification_evaluates_f_and_N_once_per_theorem(monkeypatch):
    # grid_dense verifies the combined bound at 60 points in 3 dimensions:
    # the offset-free f and each component are called once, on the stack
    # of the points, and N once, on the stacked errors against the threshold
    # grid; each component calls its source once, on the steps 0..N_MAX of
    # every point (the per-point calls made 60 per component, 120 in all)
    cfg = ExperimentConfig.from_dict(_workload_config("grid_dense"))
    assert cfg.theorems == ("combined",)
    verify_stability, call = harness.verify_stability, TestFunction.__call__
    memberships, component = FuzzyNorm.memberships, extraction.ExtractedComponent.__call__
    signature = inspect.signature(verify_stability)
    received = []  # the arguments of each verify_stability call
    inside = []  # the arguments of the open verify_stability call
    seen = {"f": [], "N": [], "components": [], "sources": []}

    def counted_verify_stability(*args, **kwargs):
        received.append(signature.bind(*args, **kwargs).arguments)
        inside.append(received[-1])
        try:
            return verify_stability(*args, **kwargs)
        finally:
            inside.pop()

    def counted_call(self, x):
        if inside and self is inside[-1]["f"]:
            seen["f"].append(np.shape(x))
        if inside and any(self is c.source for c in inside[-1]["components"]):
            seen["sources"].append((self, np.shape(x)))
        return call(self, x)

    def counted_memberships(self, x, a):
        if inside:
            seen["N"].append((self is inside[-1]["N"], np.shape(x), np.shape(a)))
        return memberships(self, x, a)

    def counted_component(self, x):
        if inside:
            seen["components"].append((self, np.asarray(x).tobytes()))
        return component(self, x)

    monkeypatch.setattr(harness, "verify_stability", counted_verify_stability)
    monkeypatch.setattr(TestFunction, "__call__", counted_call)
    monkeypatch.setattr(FuzzyNorm, "memberships", counted_memberships)
    monkeypatch.setattr(extraction.ExtractedComponent, "__call__", counted_component)
    report = run_pipeline(cfg, _STAGES_BY_COMMAND["run"])
    (arguments,) = received
    assert report.verification_reports[0].lhs.shape == (cfg.x_count, cfg.a_points) == (60, 25)
    assert seen["f"] == [(cfg.x_count, cfg.space.dim_x)] == [(60, 3)]
    assert seen["N"] == [(True, (cfg.x_count, 1, cfg.space.dim_y), (cfg.a_points,))]
    components = arguments["components"]
    assert tuple(c.scheme for c in components) == control.THEOREMS["combined"].schemes
    stack = np.array(arguments["xs"], dtype=float)
    assert stack.shape == (60, 3)
    assert seen["components"] == [(c, stack.tobytes()) for c in components]
    assert seen["sources"] == [(c.source, (60, N_MAX + 1, 3)) for c in components]


def test_verification_of_no_points_evaluates_nothing():
    calls = []

    def f(points):
        calls.append(points)
        return points

    report = control.verify_stability(
        f,
        (f,),
        control.ConstantControl(delta=1.0),
        "quadratic_up",
        [],
        (1.0, 2.0),
        FuzzyNorm.induced(),
        premise_margin=control.Margin(0.0, None),
    )
    assert (report.lhs.shape, report.worst_slack, report.violations) == ((0, 2), 0.0, 0)
    assert report.hypothesis_ok and calls == []


def test_pair_audit_makes_one_membership_call_per_block(monkeypatch):
    # axioms_dense audits N on 200 points and N' on 50 scalar points, all at
    # positive thresholds: the N4 pairs of P points take ceil(P / rows per
    # block) calls of whole rows of the pair matrix (the per-point loop made
    # P), and the other axioms a fixed 9 calls between them
    cfg = ExperimentConfig.from_dict(_workload_config("axioms_dense"))
    audits = []  # (sample count, shape of x in each memberships call)
    check_axioms, memberships = harness.check_axioms, FuzzyNorm.memberships

    def counted_check_axioms(norm, points, *args, **kwargs):
        audits.append((len(points), []))
        return check_axioms(norm, points, *args, **kwargs)

    def counted_memberships(self, x, a):
        audits[-1][1].append(np.shape(x))
        return memberships(self, x, a)

    monkeypatch.setattr(harness, "check_axioms", counted_check_axioms)
    monkeypatch.setattr(FuzzyNorm, "memberships", counted_memberships)
    run_pipeline(cfg, ("axioms",))
    assert [p for p, _ in audits] == [200, 50]
    for p, shapes in audits:
        rows = spaces.PAIR_BLOCK_CELLS // p
        blocks = [rows] * (p // rows) + [p % rows] * (p % rows > 0)
        assert [s[0] for s in shapes if len(s) == 3 and s[1] == p] == blocks
        assert len(shapes) == 9 + len(blocks)
    assert len(audits[0][1]) == 9 + 5
