"""Workload definitions: one generated config and one CLI command per name.

A workload's inputs depend only on its name and the workload seed, which
becomes the config ``seed``; every other field is fixed, so the amount of
work per operation is the same for every seed.
"""

from __future__ import annotations

import copy
import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Seed whose reports are stored under ``reference/``; other seeds are
#: checked against invariants only.
DEFAULT_SEED = 1

#: BLAS and OpenMP thread pools are pinned to one thread, set before numpy
#: is imported in every benchmark process.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # CLI subcommand
    why: str
    base: dict  # config without ``seed``

    def config(self, seed: int) -> dict:
        return {"seed": seed, **copy.deepcopy(self.base)}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="axioms_dense",
            command="run",
            why=(
                "full run whose time is the quadratic N4 pairwise audit of 200 "
                "axiom points, so the spaces layer dominates"
            ),
            base={
                "space": {"dim_x": 2, "dim_y": 2, "crisp_norm": "euclidean"},
                "function": {
                    "coords": [
                        {"quad": [[1.0, 0.5], [0.5, 2.0]], "linear": [1.0, -1.0], "const": 0.5},
                        {"quad": [[0.5, 0.0], [0.0, 1.0]], "linear": [0.5, 2.0]},
                    ],
                    "perturbations": [
                        {"shape": "sin", "amplitude": 0.01},
                        {"shape": "cos", "amplitude": 0.01},
                    ],
                },
                "control": {"family": "constant", "delta": "auto", "alpha": 1.0},
                "theorems": ["combined"],
                # 300 points would take 2.3 s per operation and push the
                # benchmark's runs past their time budget; 200 keep the
                # spaces layer above 70% of the time.
                "grids": {"x_count": 10, "a_points": 25, "axiom_points": 200},
            },
        ),
        Workload(
            name="grid_dense",
            command="run",
            why=(
                "full run over 60 points in 3 dimensions, so control checks and "
                "equation residuals dominate and each point is extracted twice"
            ),
            base={
                "space": {"dim_x": 3, "dim_y": 2, "crisp_norm": "euclidean"},
                "function": {
                    "coords": [
                        {
                            "quad": [[1.0, 0.2, 0.0], [0.2, 2.0, 0.1], [0.0, 0.1, 0.5]],
                            "linear": [1.0, -0.5, 0.25],
                        },
                        {
                            "quad": [[0.5, 0.0, 0.0], [0.0, 1.0, 0.3], [0.0, 0.3, 1.5]],
                            "linear": [0.0, 2.0, -1.0],
                            "const": 1.0,
                        },
                    ],
                    "perturbations": [
                        {"shape": "sin", "amplitude": 0.01, "frequency": [1.0, 0.5, -0.25]},
                        {"shape": "cos", "amplitude": 0.01},
                    ],
                },
                "control": {"family": "constant", "delta": "auto", "alpha": 1.0},
                "theorems": ["combined"],
                # The N5 audit only reaches large thresholds through the sampled
                # ones; with 20 axiom points about 1 seed in 70 samples none
                # above 66 and a correct norm is reported as violating N5 (see
                # test_bench.py).  With 60 points that chance is about 2e-6.
                "grids": {"x_count": 60, "a_points": 25, "axiom_points": 60},
            },
        ),
        Workload(
            name="extract_down",
            command="extract",
            why=(
                "extraction stage alone, down scheme under the max norm on 4000 "
                "points; it never touches the spaces or control layers"
            ),
            base={
                "space": {"dim_x": 2, "dim_y": 1, "crisp_norm": "max"},
                "function": {
                    "coords": [{"quad": [[1.0, 0.25], [0.25, 0.5]]}],
                    "perturbations": [{"shape": "cos", "amplitude": 0.01}],
                },
                "control": {"family": "power", "theta": 1.0, "p": 3.0, "alpha": 6.0},
                "theorems": ["quadratic_down"],
                "grids": {"x_count": 4000, "a_points": 25, "axiom_points": 20},
            },
        ),
    )
}


def config_text(config: dict) -> str:
    return json.dumps(config, indent=2, sort_keys=True) + "\n"


def config_sha256(config: dict) -> str:
    return hashlib.sha256(config_text(config).encode("utf-8")).hexdigest()


def write_config(config: dict, path: Path) -> Path:
    path.write_text(config_text(config), encoding="utf-8")
    return path


def cli_argv(workload: Workload, config_path: Path, out_dir: Path) -> list[str]:
    """Arguments of one operation; ``--format`` is left at its default (both)."""
    return [workload.command, "--config", str(config_path), "--out-dir", str(out_dir)]


def use_checkout_source() -> None:
    """Import ``fuzzystab`` from this checkout's ``src`` and nowhere else.

    Raises SystemExit when the checkout has no package source, so the
    benchmark cannot silently measure an installed copy.
    """
    if not (SRC / "fuzzystab" / "__init__.py").is_file():
        raise SystemExit(f"bench: no package source at {SRC / 'fuzzystab'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
