"""Golden report files: a fixed config must reproduce its reports byte for byte.

``tests/golden/<case>/`` holds ``report.json`` and the section CSVs that
``fuzzystab run`` wrote for each case below.  A refactor either reproduces
them exactly or explains every changed byte.  To re-create them after an
intended report change, run ``PYTHONPATH=src python tests/test_golden.py`` from the
repository root and review the diff.
"""

import json
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

#: Small 2-D runs under the two crisp norms that the configs/ files do not use.
INLINE_CONFIGS = {
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
}

CASES = ("combined", "quadratic_power", *INLINE_CONFIGS)


def _config_path(case: str, tmp_dir: Path) -> Path:
    if case in INLINE_CONFIGS:
        path = tmp_dir / f"{case}.json"
        path.write_text(json.dumps(INLINE_CONFIGS[case]), encoding="utf-8")
        return path
    return CONFIGS / f"{case}.json"


def _run(case: str, config_dir: Path, out_dir: Path) -> None:
    cli_main(["run", "--config", str(_config_path(case, config_dir)), "--out-dir", str(out_dir)])


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
