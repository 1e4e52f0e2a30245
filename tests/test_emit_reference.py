"""The report writer against the serializer it replaced.

``reference_emit`` keeps the previous serializer: the recursive
``_json_text`` walker over the ``_report_document`` dict and the
``_csv_rows`` lists.  Hypothesis builds ``RunReport``s with every value type
a report holds (Python and numpy floats, ints and bools; NaN, infinities and
``-0.0``; empty sections; notes with commas, quotes, newlines and non-ASCII
text) and requires ``emit_report`` to write the same bytes in both formats,
whichever of them is emitted first.

The previous serializer computed the Euclidean norm of each extraction
limit itself; the generated reports store exactly that number
(``ExtractionTable.limit_norms``), so this file checks how values print,
not which norm a report uses; ``tests/test_harness.py`` covers that.  It
reads an extraction table a point at a time: ``x_index`` is the point's
position in the columns, and ``x_norm`` comes from ``RunReport.x_norms``.

A verification report holds its bound as ``(points, thresholds)`` grids.
The reference walks each grid x-major, one row per cell, takes ``x_norm``
from ``RunReport.x_norms`` and computes each slack itself as
``float(lhs) - float(rhs)``.  The generated grids hold every float kind, so
the byte comparison pins the report's slack grid cell by cell.
"""

import csv
import json
import math
from dataclasses import fields

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fuzzystab.control import StabilityReport
from fuzzystab.harness import (
    ExperimentConfig,
    ExtractionTable,
    HypothesisRow,
    RunReport,
    emit_report,
    run_pipeline,
)
from fuzzystab.spaces import AxiomCheck

# --- the previous serializer ------------------------------------------------

_CSV_HEADERS = {
    "axioms": ["norm", "axiom", "status", "passed", "violations", "worst_slack", "note"],
    "hypothesis": ["theorem_id", "check", "passed", "worst_slack", "note"],
    "extraction": [
        "theorem_id",
        "component",
        "x_index",
        "x_norm",
        "limit_norm",
        "n_used",
        "converged",
        "ratio_estimate",
        "stopped_reason",
    ],
    "verification": ["theorem_id", "x_index", "x_norm", "a", "lhs", "rhs", "slack"],
    "repair_log": ["repair_id", "description"],
}


def _fmt_float(v: float) -> str:
    if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
        return str(int(v))
    f = float(v)
    if math.isnan(f):
        return "nan"
    if math.isinf(f):
        return "inf" if f > 0 else "-inf"
    return f"{f:.17g}"


def _json_text(obj, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [
            f"{inner}{json.dumps(str(k))}: {_json_text(v, indent + 1)}" for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(parts) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        parts = [f"{inner}{_json_text(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(parts) + f"\n{pad}]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        if math.isfinite(f):
            return _fmt_float(f)
        return json.dumps(_fmt_float(f))
    return json.dumps(obj)


def _cells(rep: StabilityReport):
    """(x_index, a, lhs, rhs) of each cell of the verification grid, x-major."""
    for i, (lhs_at_x, rhs_at_x) in enumerate(zip(rep.lhs, rep.rhs)):
        yield from ((i, a, lhs, rhs) for a, lhs, rhs in zip(rep.a_values, lhs_at_x, rhs_at_x))


def _report_document(report: RunReport) -> dict:
    doc: dict = {
        "seed": report.seed,
        "stages": list(report.stages),
        "axioms": [
            {
                "norm": label,
                "axiom": c.axiom,
                "status": c.status,
                "passed": c.passed,
                "violations": c.violations,
                "worst_slack": c.worst_slack,
                "note": c.note,
            }
            for label, c in report.axiom_rows
        ],
        "hypothesis": [
            {
                "theorem_id": r.theorem_id,
                "check": r.check,
                "passed": r.passed,
                "worst_slack": r.worst_slack,
                "note": r.note,
            }
            for r in report.hypothesis_rows
        ],
        "extraction": [
            {
                "theorem_id": t.theorem_id,
                "component": t.component,
                "x_index": i,
                "x_norm": report.x_norms[i],
                "limit": list(t.limits[i]),
                "n_used": t.n_used[i],
                "converged": t.converged[i],
                "ratio_estimate": t.ratio_estimate[i],
                "stopped_reason": t.stopped_reason[i],
            }
            for t in report.extractions
            for i in range(len(t.n_used))
        ],
        "verification": [
            {
                "theorem_id": rep.theorem_id,
                "hypothesis_ok": rep.hypothesis_ok,
                "note": rep.note,
                "worst_slack": rep.worst_slack,
                "violations": rep.violations,
                "repairs": list(rep.repairs),
                "rows": [
                    {
                        "x_index": i,
                        "x_norm": report.x_norms[i],
                        "a": a,
                        "lhs": lhs,
                        "rhs": rhs,
                        "slack": float(lhs) - float(rhs),
                    }
                    for i, a, lhs, rhs in _cells(rep)
                ],
            }
            for rep in report.verification_reports
        ],
        "repair_log": [
            {"repair_id": rid, "description": desc} for rid, desc in report.repair_log
        ],
        "summary": {
            "violations": report.total_violations,
            "all_converged": report.all_converged,
        },
        "exit_status": report.exit_status,
    }
    if report.resolved_delta is not None:
        doc["summary"]["resolved_delta"] = report.resolved_delta
    return doc


def _csv_rows(report: RunReport, section: str) -> list[list]:
    if section == "axioms":
        return [
            [label, c.axiom, c.status, c.passed, c.violations, _fmt_float(c.worst_slack), c.note]
            for label, c in report.axiom_rows
        ]
    if section == "hypothesis":
        return [
            [r.theorem_id, r.check, r.passed, _fmt_float(r.worst_slack), r.note]
            for r in report.hypothesis_rows
        ]
    if section == "extraction":
        return [
            [
                t.theorem_id,
                t.component,
                i,
                _fmt_float(report.x_norms[i]),
                _fmt_float(float(np.linalg.norm(t.limits[i]))),
                t.n_used[i],
                t.converged[i],
                _fmt_float(t.ratio_estimate[i]),
                t.stopped_reason[i],
            ]
            for t in report.extractions
            for i in range(len(t.n_used))
        ]
    if section == "verification":
        rows = []
        for rep in report.verification_reports:
            for i, a, lhs, rhs in _cells(rep):
                rows.append(
                    [
                        rep.theorem_id,
                        i,
                        _fmt_float(report.x_norms[i]),
                        _fmt_float(a),
                        _fmt_float(lhs),
                        _fmt_float(rhs),
                        _fmt_float(float(lhs) - float(rhs)),
                    ]
                )
        return rows
    if section == "repair_log":
        return [[rid, desc] for rid, desc in report.repair_log]
    raise ValueError(f"unknown section {section!r}")


@np.errstate(over="ignore")  # the previous serializer's norms may overflow to inf
def reference_emit(report: RunReport, fmt: str, out_dir) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    if fmt == "json":
        text = _json_text(_report_document(report)) + "\n"
        (out_dir / "report.json").write_text(text, encoding="utf-8")
        return
    for section, header in _CSV_HEADERS.items():
        with (out_dir / f"{section}.csv").open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(_csv_rows(report, section))


def assert_same_bytes(report: RunReport, tmp_path) -> None:
    # csv then json on the report, then json then csv on a copy that was never
    # emitted, so that each format is once the first to render the texts
    copy = RunReport(**{f.name: getattr(report, f.name) for f in fields(RunReport) if f.init})
    for emitted, order in ((report, ("csv", "json")), (copy, ("json", "csv"))):
        for fmt in order:
            expected = tmp_path / f"reference_{fmt}"
            actual = tmp_path / f"emitted_{fmt}_{order[0]}_first"
            if not expected.exists():
                reference_emit(report, fmt, expected)
            written = emit_report(emitted, fmt, actual)
            names = sorted(p.name for p in expected.iterdir())
            assert sorted(p.name for p in written) == names
            for name in names:
                assert (actual / name).read_bytes() == (expected / name).read_bytes(), name


# --- generated reports -----------------------------------------------------

# Text of every kind a note may hold; lone surrogates cannot be written as UTF-8.
texts = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=12),
    st.sampled_from(["", "a,b", 'say "hi"', "line\nbreak", "cr\rlf\r\n", "naïve ∞ 数", "%s %d"]),
)
plain_floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 1e308, 5e-324, 0.1]
)
floats = st.one_of(plain_floats, plain_floats.map(np.float64))
ints = st.one_of(
    st.integers(-(2**62), 2**62), st.integers(-(2**62), 2**62).map(np.int64)
)
bools = st.one_of(st.booleans(), st.booleans().map(np.bool_))


@st.composite
def run_reports(draw):
    seed = draw(ints)
    stages = tuple(draw(st.lists(texts, max_size=4)))
    resolved_delta = draw(st.none() | floats)
    # every table and grid has at most as many points as there are norms
    x_norms = tuple(draw(st.lists(floats, max_size=4)))
    points = st.integers(0, len(x_norms))
    axiom_rows = draw(
        st.lists(
            st.tuples(
                texts,
                st.builds(
                    AxiomCheck,
                    axiom=texts,
                    passed=bools,
                    violations=ints,
                    worst_slack=floats,
                    status=st.sampled_from(["checked", "sampled"]) | texts,
                    note=texts,
                ),
            ),
            max_size=4,
        )
    )
    hypothesis_rows = draw(
        st.lists(
            st.builds(
                HypothesisRow,
                theorem_id=texts,
                check=texts,
                passed=bools,
                worst_slack=floats,
                note=texts,
            ),
            max_size=4,
        )
    )
    extractions, verified = [], []
    for _ in range(draw(st.integers(0, 3))):
        n, dim = draw(points), draw(st.integers(0, 3))

        def column(values):
            return tuple(draw(st.lists(values, min_size=n, max_size=n)))

        limits = np.array(column(st.lists(floats, min_size=dim, max_size=dim)), dtype=float)
        limits = limits.reshape(n, dim)
        limits.flags.writeable = False
        with np.errstate(over="ignore"):
            limit_norms = tuple(float(np.linalg.norm(limit)) for limit in limits)
        extractions.append(
            ExtractionTable(
                theorem_id=draw(texts),
                component=draw(texts),
                limits=limits,
                limit_norms=limit_norms,
                n_used=column(ints),
                converged=column(bools),
                ratio_estimate=column(floats),
                stopped_reason=column(texts),
            )
        )
    for _ in range(draw(st.integers(0, 3))):
        # a grid of n <= len(xs) points by A thresholds
        a_values = np.array(draw(st.lists(floats, max_size=3)), dtype=float)
        shape = (draw(points), a_values.size)
        grid = st.lists(floats, min_size=math.prod(shape), max_size=math.prod(shape))
        verified.append(
            StabilityReport(
                theorem_id=draw(texts),
                a_values=a_values,
                lhs=np.array(draw(grid), dtype=float).reshape(shape),
                rhs=np.array(draw(grid), dtype=float).reshape(shape),
                worst_slack=draw(floats),
                violations=draw(ints),
                hypothesis_ok=draw(bools),
                note=draw(texts),
                repairs=tuple(draw(st.lists(texts, max_size=3))),
            )
        )
    repair_log = draw(st.lists(st.tuples(texts, texts), max_size=3))
    return RunReport(
        seed,
        stages,
        tuple(axiom_rows),
        tuple(hypothesis_rows),
        tuple(extractions),
        tuple(verified),
        tuple(repair_log),
        resolved_delta,
        x_norms,
    )


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(report=run_reports())
def test_generated_reports_match_previous_serializer(report, tmp_path_factory):
    # a grid may hold inf - inf, which must write nan and never warn
    assert_same_bytes(report, tmp_path_factory.mktemp("emit"))


def test_empty_report_matches_previous_serializer(tmp_path):
    assert_same_bytes(RunReport(seed=0, stages=()), tmp_path)


def test_pipeline_report_matches_previous_serializer(tmp_path):
    # every section filled, with auto delta in the summary; the Euclidean norm
    # makes the stored norms those the previous serializer computed
    config = {
        "seed": 31,
        "space": {"dim_x": 2, "dim_y": 2, "crisp_norm": "euclidean"},
        "function": {
            "coords": [
                {"quad": [[1.0, 0.5], [0.5, 2.0]], "linear": [1.0, -1.0]},
                {"quad": [[0.5, 0.0], [0.0, 1.0]], "linear": [0.5, 2.0], "const": 0.25},
            ],
            "perturbations": [{"shape": "sin", "amplitude": 0.01}],
        },
        "control": {"family": "constant", "delta": "auto", "alpha": 1.0},
        "theorems": ["combined", "quadratic_up"],
        "grids": {"x_count": 5, "a_points": 4, "axiom_points": 30},
    }
    report = run_pipeline(ExperimentConfig.from_dict(config))
    assert report.repair_log and report.resolved_delta is not None
    assert_same_bytes(report, tmp_path)
