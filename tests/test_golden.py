"""Golden report files: a fixed config must reproduce its reports byte for byte.

``tests/golden/<case>/`` holds ``report.json`` and the section CSVs that the
``fuzzystab`` subcommand of each case below wrote for its config.  A
refactor either reproduces them exactly or explains every changed byte.  To
re-create them after an intended report change, run
``PYTHONPATH=src python tests/test_golden.py`` from the repository root and
review the diff.
"""

import json
import re
import tempfile
from pathlib import Path

import pytest

from fuzzystab.cli import main as cli_main

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


def test_readme_golden_paragraph_names_every_case():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (paragraph,) = [p for p in readme.split("\n\n") if p.startswith("`tests/test_golden.py`")]
    assert set(CASES) <= set(re.findall(r"`(\w+)`", paragraph))


@pytest.mark.parametrize("case", CASES)
def test_reports_match_golden_bytes(case, tmp_path):
    out = tmp_path / "out"
    _run(case, tmp_path, out)
    expected = sorted(p.name for p in (GOLDEN / case).iterdir())
    assert sorted(p.name for p in out.iterdir()) == expected
    for name in expected:
        assert (out / name).read_bytes() == (GOLDEN / case / name).read_bytes(), f"{case}/{name}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as config_dir:
        for case in CASES:
            _run(case, Path(config_dir), GOLDEN / case)
