"""Output check applied to every benchmark operation.

At a workload's default seed the report is compared with the reference
stored under ``reference/``, which was generated from the package code at
the commit that added the benchmark:

* verdict fields exactly: exit status, violations, ``all_converged``,
  hypothesis ``passed`` and the row count of every section;
* the numbers the verdicts rest on (``lhs``, ``rhs``, ``slack``,
  ``worst_slack`` and extraction ``limit``) within ``REL_TOL``/``ABS_TOL``.

Every other report field is ignored, so documented schema additions do not
count as failures.  At every seed the invariants hold: exit status 0, zero
violations, every extraction converged, ``x_count * a_points`` verification
rows and ``x_count`` extraction rows per component and theorem, and each
CSV has as many data rows as its JSON section.

The ``combined`` bound's up-schemes remove every bounded perturbation, so
its rows carry an oracle at any seed: the recovered error
``||Q + A - (f - f(0))|| = a (1 - lhs) / lhs`` is at most the perturbations'
sup, ``sqrt(dim_y) * sum(amplitude * sup|shape|)``.  A mis-scaled component
(``negative_control``) breaks it even where the bound itself still holds.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: Numbers may move by a reordered floating-point sum, or by an extraction
#: stopping one step earlier or later (limit change <= tol * (1 + |limit|));
#: anything larger is a change of result.  Memberships live in [0, 1].
REL_TOL = 1e-6
ABS_TOL = 1e-7

VERDICTS = ("exit_code", "exit_status", "violations", "all_converged", "hypothesis_passed", "rows")
NUMBERS = ("worst_slack", "lhs", "rhs", "slack", "limit")
SECTIONS = ("axioms", "hypothesis", "extraction", "verification", "repair_log")


def summarize(out_dir: Path, exit_code: int) -> dict:
    """The compared fields of one operation's report.

    Raises OSError, ValueError or KeyError when the report is missing or
    malformed.
    """
    doc = json.loads((Path(out_dir) / "report.json").read_text(encoding="utf-8"))
    verification = doc["verification"]
    return {
        "exit_code": exit_code,
        "exit_status": doc["exit_status"],
        "violations": doc["summary"]["violations"],
        "all_converged": doc["summary"]["all_converged"],
        "hypothesis_passed": [r["passed"] for r in doc["hypothesis"]],
        "rows": {
            "axioms": len(doc["axioms"]),
            "hypothesis": len(doc["hypothesis"]),
            "extraction": len(doc["extraction"]),
            "verification": [len(rep["rows"]) for rep in verification],
            "repair_log": len(doc["repair_log"]),
        },
        "csv_rows": {section: _csv_data_rows(Path(out_dir) / f"{section}.csv") for section in SECTIONS},
        "worst_slack": [r["worst_slack"] for r in doc["axioms"]]
        + [r["worst_slack"] for r in doc["hypothesis"]]
        + [rep["worst_slack"] for rep in verification],
        "lhs": [row["lhs"] for rep in verification for row in rep["rows"]],
        "rhs": [row["rhs"] for rep in verification for row in rep["rows"]],
        "slack": [row["slack"] for rep in verification for row in rep["rows"]],
        "limit": [v for r in doc["extraction"] for v in r["limit"]],
        "combined_a_lhs": [
            (row["a"], row["lhs"])
            for rep in verification
            if rep["theorem_id"] == "combined"
            for row in rep["rows"]
        ],
    }


def _csv_data_rows(path: Path) -> int:
    with path.open(encoding="utf-8", newline="") as fh:
        return max(sum(1 for _ in csv.reader(fh)) - 1, 0)


def _close(actual, expected) -> bool:
    numeric = (int, float)
    if isinstance(actual, numeric) and isinstance(expected, numeric):
        if not isinstance(actual, bool) and not isinstance(expected, bool):
            if math.isfinite(actual) and math.isfinite(expected):
                return math.isclose(actual, expected, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    return actual == expected  # non-finite values are serialized as strings


def compare(summary: dict, reference: dict) -> list[str]:
    """Differences between a summary and the stored reference."""
    problems = [
        f"{key}: {summary[key]!r} != reference {reference[key]!r}"
        for key in VERDICTS
        if summary[key] != reference[key]
    ]
    for key in NUMBERS:
        got, want = summary[key], reference[key]
        if len(got) != len(want):
            problems.append(f"{key}: {len(got)} values, reference has {len(want)}")
            continue
        bad = [i for i, (g, w) in enumerate(zip(got, want)) if not _close(g, w)]
        if bad:
            i = bad[0]
            problems.append(
                f"{key}: {len(bad)} of {len(want)} values differ, first at {i}: {got[i]!r} vs {want[i]!r}"
            )
    return problems


def invariants(summary: dict, command: str, config: dict) -> list[str]:
    """Properties every operation of every workload must have."""
    problems = []
    for key, want in (("exit_code", 0), ("exit_status", 0), ("violations", 0), ("all_converged", True)):
        if summary[key] != want:
            problems.append(f"{key} is {summary[key]!r}, expected {want!r}")
    grids = config["grids"]
    theorems = config["theorems"]
    rows = summary["rows"]
    components = sum(2 if t == "combined" else 1 for t in theorems)
    if rows["extraction"] != grids["x_count"] * components:
        problems.append(f"{rows['extraction']} extraction rows, expected {grids['x_count'] * components}")
    expected_verification = [grids["x_count"] * grids["a_points"]] * len(theorems) if command == "run" else []
    if rows["verification"] != expected_verification:
        problems.append(f"verification rows {rows['verification']}, expected {expected_verification}")
    for section in SECTIONS:
        json_rows = rows[section]
        json_rows = sum(json_rows) if isinstance(json_rows, list) else json_rows
        if summary["csv_rows"][section] != json_rows:
            problems.append(f"{section}.csv has {summary['csv_rows'][section]} rows, report.json {json_rows}")
    return problems


#: sup |shape(q)| of each perturbation shape, per unit amplitude.
SHAPE_SUP = {"sin": 1.0, "cos": 2.0, "rational": 0.5}


def combined_error_budget(config: dict) -> float:
    amplitudes = [
        (max(p["amplitude"]) if isinstance(p["amplitude"], list) else p["amplitude"]) * SHAPE_SUP[p["shape"]]
        for p in config["function"].get("perturbations", [])
    ]
    return math.sqrt(config["space"]["dim_y"]) * sum(amplitudes)


def error_budget_problems(summary: dict, config: dict) -> list[str]:
    budget = combined_error_budget(config) * (1.0 + REL_TOL) + ABS_TOL
    worst = 0.0
    for a, lhs in summary["combined_a_lhs"]:
        if not (isinstance(lhs, (int, float)) and 0.0 < lhs <= 1.0):
            return [f"combined lhs {lhs!r} at a={a!r} is not a membership in (0, 1]"]
        worst = max(worst, a * (1.0 - lhs) / lhs)
    if worst > budget:
        return [f"combined error {worst:.6g} exceeds the perturbation budget {budget:.6g}"]
    return []


def load_reference(workload: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{workload}.json").read_text(encoding="utf-8"))


def check_operation(
    out_dir: Path, exit_code: int, command: str, config: dict, reference: dict | None
) -> list[str]:
    """All problems of one operation's output; empty when it is correct."""
    try:
        summary = summarize(out_dir, exit_code)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"exit code {exit_code}; unreadable report: {exc!r}"]
    problems = invariants(summary, command, config) + error_budget_problems(summary, config)
    if reference is not None:
        problems += compare(summary, reference)
    return problems
