"""Golden report files: a fixed config must reproduce its reports byte for byte.

``tests/golden/<case>/`` holds ``report.json`` and the section CSVs that the
``fuzzystab`` subcommand of each case below wrote for its config.  A
refactor either reproduces them exactly or explains every changed byte.  To
re-create them after an intended report change, run
``PYTHONPATH=src python tests/test_golden.py`` from the repository root and
review the diff.
"""

import csv
import difflib
import inspect
import io
import json
import math
import re
import tempfile
import typing
from itertools import zip_longest
from pathlib import Path

import pytest

from fuzzystab.cli import main as cli_main
from fuzzystab.control import THEOREMS, ControlFunction
from fuzzystab.funceq import PERTURBATION_SHAPES
from fuzzystab.harness import ExperimentConfig
from fuzzystab.spaces import crisp_norm

GOLDEN = Path(__file__).parent / "golden"
CONFIGS = Path(__file__).parent.parent / "configs"

_TWO_D_FUNCTION = {
    "coords": [
        {"quad": [[1.0, 0.5], [0.5, 2.0]], "linear": [1.0, -1.0]},
        {"quad": [[0.5, 0.0], [0.0, 1.0]], "linear": [0.5, 2.0], "const": 0.25},
    ],
    "perturbations": [
        {"shape": "sin", "amplitude": 0.01},
        {"shape": "cos", "amplitude": 0.01},
    ],
}

#: Small runs: 2-D under the two crisp norms that the configs/ files do not
#: use, and the combined and additive_up bounds under a control whose
#: scaling check reads y.
_RUN_2D = {
    "max_2d": {
        "seed": 2718,
        "space": {"dim_x": 2, "dim_y": 2, "crisp_norm": "max"},
        "function": _TWO_D_FUNCTION,
        "control": {"family": "constant", "delta": "auto", "alpha": 1.0},
        "theorems": ["combined"],
        "grids": {"x_count": 8, "a_points": 9, "axiom_points": 60},
    },
    "weighted_2d": {
        "seed": 1618,
        "space": {"dim_x": 2, "dim_y": 2, "crisp_norm": "weighted", "weights": [1.0, 2.0]},
        "function": _TWO_D_FUNCTION,
        "control": {"family": "constant", "delta": "auto", "alpha": 1.0},
        "theorems": ["combined"],
        "grids": {"x_count": 8, "a_points": 9, "axiom_points": 60},
    },
    # The power control's scaling check reads the y-set, which the constant
    # control of the other combined cases ignores.
    "combined_power": {
        "seed": 5,
        "space": {"dim_x": 1, "dim_y": 1},
        "function": {
            "quad": 1.0,
            "linear": 2.0,
            "perturbations": [
                {"shape": "sin", "amplitude": 0.01},
                {"shape": "cos", "amplitude": 0.01},
            ],
        },
        "control": {"family": "power", "theta": 1.0, "p": 0.25, "alpha": 1.5},
        "theorems": ["combined"],
        "grids": {"x_count": 8, "a_points": 9, "axiom_points": 60},
    },
    # The additive y-set through the premise check, and a scaling margin of
    # 1.5 - 2^0.5: degree 0.5 < log2 1.5.
    "additive_up_power": {
        "seed": 1414,
        "space": {"dim_x": 2, "dim_y": 1},
        "function": {
            "coords": [{"linear": [1.0, -0.5]}],
            "perturbations": [{"shape": "sin", "amplitude": 0.01}],
        },
        "control": {"family": "power", "theta": 1.0, "p": 0.5, "alpha": 1.5},
        "theorems": ["additive_up"],
        "grids": {"x_count": 8, "a_points": 9, "axiom_points": 60},
    },
    # Two theorems in one run: the row order across theorems and the repair
    # log written once per description.  Its auto-delta sup lies in the
    # first theorem's pairs, so test_work_counts.py pins the joined pairs.
    "two_theorems": {
        "seed": 7,
        "space": {"dim_x": 2, "dim_y": 1},
        "function": {
            "coords": [{"linear": [1.0, -0.5]}],
            "perturbations": [{"shape": "sin", "amplitude": 0.01}],
        },
        "control": {"family": "constant", "delta": "auto", "alpha": 1.0},
        "theorems": ["combined", "additive_up"],
        "grids": {"x_count": 6, "a_points": 7, "axiom_points": 40},
    },
    # The product control, which no other case, config or workload uses: its
    # premise and envelope evaluate phi(x, y) = theta ||x||^p1 ||y||^p2.
    "additive_down_product": {
        "seed": 2,
        "space": {"dim_x": 2, "dim_y": 1},
        "function": {
            "coords": [{"linear": [1.0, -0.5]}],
            "perturbations": [{"shape": "sin", "amplitude": 0.001}],
        },
        "control": {"family": "product", "theta": 1.0, "p1": 1.5, "p2": 1.5, "alpha": 4.0},
        "theorems": ["additive_down"],
        "grids": {"x_count": 8, "a_points": 9, "axiom_points": 60},
    },
    # Defects that overflow at x near 1e154: the auto-delta sup is NaN and
    # every premise row fails at -inf, quietly, with exit 1.
    "defect_overflow": {
        "seed": 3,
        "space": {"dim_x": 1, "dim_y": 1},
        "function": {"quad": 1.0},
        "control": {"family": "constant", "delta": "auto", "alpha": 5.0},
        "theorems": ["quadratic_down"],
        "grids": {"x_count": 6, "x_radius": 1e154, "a_points": 5, "axiom_points": 20},
    },
}

#: Extraction-only runs of the two down-schemes.
_EXTRACT_DOWN = {
    # The shape of the benchmark's extract_down workload on fewer points.
    "quadratic_down_max_2d": {
        "seed": 4000,
        "space": {"dim_x": 2, "dim_y": 1, "crisp_norm": "max"},
        "function": {
            "coords": [{"quad": [[1.0, 0.25], [0.25, 0.5]]}],
            "perturbations": [{"shape": "cos", "amplitude": 0.01}],
        },
        "control": {"family": "power", "theta": 1.0, "p": 3.0, "alpha": 6.0},
        "theorems": ["quadratic_down"],
        "grids": {"x_count": 50, "a_points": 25, "axiom_points": 20},
    },
    "additive_down_2d": {
        "seed": 2024,
        "space": {"dim_x": 2, "dim_y": 2, "crisp_norm": "euclidean"},
        "function": {
            "coords": [
                {"quad": [[0.5, 0.0], [0.0, 1.0]], "linear": [1.0, -2.0], "const": 0.5},
                {"linear": [0.5, 0.25]},
            ],
            "perturbations": [
                {"shape": "sin", "amplitude": 0.02, "frequency": [1.0, -0.5]},
                {"shape": "rational", "amplitude": 0.01},
            ],
        },
        "control": {"family": "power", "theta": 1.0, "p": 3.0, "alpha": 8.0},
        "theorems": ["additive_down"],
        "grids": {"x_count": 40, "a_points": 25, "axiom_points": 20},
    },
}

#: Case name -> (subcommand, inline config, or None for ``configs/<case>.json``).
CASES = {
    "combined": ("run", None),
    "quadratic_power": ("run", None),
    **{case: ("run", config) for case, config in _RUN_2D.items()},
    **{case: ("extract", config) for case, config in _EXTRACT_DOWN.items()},
}


def _config_path(case: str, tmp_dir: Path) -> Path:
    config = CASES[case][1]
    if config is None:
        return CONFIGS / f"{case}.json"
    path = tmp_dir / f"{case}.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


def _run(case: str, config_dir: Path, out_dir: Path) -> None:
    command = CASES[case][0]
    cli_main([command, "--config", str(_config_path(case, config_dir)), "--out-dir", str(out_dir)])


#: Changed values that a failed golden comparison lists.
SHOWN_CHANGES = 10


def _changes(name: str, golden: bytes, new: bytes) -> list[str]:
    """The first changed values of the report file ``name``: for a CSV, the
    row (0 is the header), the column and golden -> new; for ``report.json``,
    the lines that differ, golden ones marked ``-`` and new ones ``+``."""
    old_text, new_text = golden.decode("utf-8"), new.decode("utf-8")
    if not name.endswith(".csv"):
        diff = difflib.unified_diff(old_text.splitlines(), new_text.splitlines(), lineterm="", n=0)
        return [line for line in diff if line[:1] in "+-" and line[:3] not in ("---", "+++")][
            :SHOWN_CHANGES
        ]
    old_rows, new_rows = (list(csv.reader(io.StringIO(text))) for text in (old_text, new_text))
    header = old_rows[0] if old_rows else []
    changes = []
    for i, (old, row) in enumerate(zip_longest(old_rows, new_rows, fillvalue=())):
        for j, (a, b) in enumerate(zip_longest(old, row, fillvalue="<none>")):
            if a != b:
                column = header[j] if j < len(header) else f"#{j}"
                changes.append(f"row {i}, {column}: {a} -> {b}")
    return changes[:SHOWN_CHANGES]


def _values(name: str, data: bytes):
    """The report file ``name`` as one list of its column's values per
    column: a CSV file's by header, report.json's leaves by their key."""
    columns: dict[str, list] = {}
    if name.endswith(".csv"):
        header, *rows = csv.reader(io.StringIO(data.decode("utf-8")))
        for row in rows:
            for j, value in enumerate(row):
                columns.setdefault(header[j] if j < len(header) else f"#{j}", []).append(value)
        return columns

    def walk(node, key):
        if isinstance(node, dict):
            for k, v in node.items():
                walk(v, k)
        elif isinstance(node, list):
            for v in node:
                walk(v, key)
        else:
            columns.setdefault(key, []).append(node)

    walk(json.loads(data), "")
    return columns


def _number(value) -> float | None:
    """A finite number from a JSON or CSV value, else None."""
    if isinstance(value, bool):
        return None
    try:
        number = float(value)
    except (TypeError, ValueError):
        return None
    return number if math.isfinite(number) else None


def _summary(name: str, golden: bytes, new: bytes) -> list[str]:
    """One line per column of the report file ``name`` whose values changed:
    how many did and, where both values are finite numbers, the largest
    relative change.  A column's values pair in order."""
    old_columns, new_columns = _values(name, golden), _values(name, new)
    lines = []
    for column in dict.fromkeys([*old_columns, *new_columns]):
        pairs = zip_longest(old_columns.get(column, ()), new_columns.get(column, ()))
        changed = [(a, b) for a, b in pairs if a != b]
        if not changed:
            continue
        line = f"{name} {column}: {len(changed)} changed"
        numbers = [(_number(a), _number(b)) for a, b in changed]
        if all(a is not None and b is not None for a, b in numbers):
            largest = max(abs(b - a) / abs(a) if a else math.inf for a, b in numbers)
            line += f", largest relative change {largest:.2g}"
        lines.append(line)
    return lines


def test_readme_golden_paragraph_names_every_case():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (paragraph,) = [p for p in readme.split("\n\n") if p.startswith("`tests/test_golden.py`")]
    assert set(CASES) <= set(re.findall(r"`(\w+)`", paragraph))


def test_cases_cover_every_config_value():
    # every control family, theorem, crisp norm kind and perturbation shape
    # is in at least one golden report
    configs = [
        ExperimentConfig.load(CONFIGS / f"{case}.json")
        if config is None
        else ExperimentConfig.from_dict(config)
        for case, (_, config) in CASES.items()
    ]
    kinds = set(re.findall(r'kind == "(\w+)"', inspect.getsource(crisp_norm)))
    assert {type(cfg.control) for cfg in configs} == set(typing.get_args(ControlFunction))
    assert {t for cfg in configs for t in cfg.theorems} == set(THEOREMS)
    assert {cfg.space.crisp_norm_kind for cfg in configs} == kinds
    shapes = {p.shape for cfg in configs for p in cfg.function.perturbations}
    assert shapes == set(PERTURBATION_SHAPES)


@pytest.mark.parametrize("case", CASES)
def test_reports_match_golden_bytes(case, tmp_path):
    out = tmp_path / "out"
    _run(case, tmp_path, out)
    expected = sorted(p.name for p in (GOLDEN / case).iterdir())
    assert sorted(p.name for p in out.iterdir()) == expected
    for name in expected:
        new, golden = (out / name).read_bytes(), (GOLDEN / case / name).read_bytes()
        assert new == golden, "\n".join([f"{case}/{name} changed:", *_changes(name, golden, new)])


def test_a_golden_failure_names_the_changed_values():
    csv_golden = b"norm,axiom,worst_slack\r\nN,N3,-7.5e-152\r\nN,N4,0\r\n"
    csv_new = b"norm,axiom,worst_slack\r\nN,N3,-3.4e-167\r\nN,N4,0\r\nN,N5,0\r\n"
    assert _changes("axioms.csv", csv_golden, csv_new) == [
        "row 1, worst_slack: -7.5e-152 -> -3.4e-167",
        "row 3, norm: <none> -> N",
        "row 3, axiom: <none> -> N5",
        "row 3, worst_slack: <none> -> 0",
    ]
    json_golden = b'{\n  "a": 1,\n  "b": 2,\n  "c": 3\n}\n'
    json_new = b'{\n  "a": 1,\n  "b": 5,\n  "c": 3\n}\n'
    assert _changes("report.json", json_golden, json_new) == ['-  "b": 2,', '+  "b": 5,']
    many = b"x\r\n" + b"1\r\n" * 20
    assert len(_changes("a.csv", many, many.replace(b"1", b"2"))) == SHOWN_CHANGES


def test_the_golden_summary_counts_the_changes_of_each_column():
    csv_golden = b"axiom,worst_slack,note\r\nN3,-0.5,a\r\nN4,0,b\r\nN5,2,c\r\n"
    csv_new = b"axiom,worst_slack,note\r\nN3,-0.25,a\r\nN4,1e-9,d\r\nN5,2,c\r\n"
    assert _summary("axioms.csv", csv_golden, csv_new) == [
        "axioms.csv worst_slack: 2 changed, largest relative change inf",
        "axioms.csv note: 1 changed",
    ]
    json_golden = b'{"rows": [{"r": 0.25, "n": 3}, {"r": 0.5, "n": 4}], "r": "nan"}'
    json_new = b'{"rows": [{"r": 0.25, "n": 3}, {"r": 0.5000001, "n": 4}], "r": "nan"}'
    assert _summary("report.json", json_golden, json_new) == [
        "report.json r: 1 changed, largest relative change 2e-07"
    ]
    # a row added or removed changes each of its values
    assert _summary("a.csv", b"x\r\n1\r\n", b"x\r\n1\r\n2\r\n") == ["a.csv x: 1 changed"]
    assert _summary("a.csv", csv_golden, csv_golden) == []


if __name__ == "__main__":
    # Each case's old files are read first, so that the run prints what
    # changed in each column of each.
    with tempfile.TemporaryDirectory() as config_dir:
        for case in CASES:
            old = {p.name: p.read_bytes() for p in (GOLDEN / case).glob("*")}
            _run(case, Path(config_dir), GOLDEN / case)
            for path in sorted((GOLDEN / case).iterdir()):
                if path.name not in old:
                    print(f"{case}/{path.name}: added")
                    continue
                for line in _summary(path.name, old.pop(path.name), path.read_bytes()):
                    print(f"{case}/{line}")
            for name in old:
                print(f"{case}/{name}: removed")
