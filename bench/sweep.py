"""Opt-in scaling sweep; not one of the gated workloads.

    python3 bench/sweep.py [--out FILE]

Grows one input at a time from a gated workload's shape: ``axiom_points``
over {200, 400, 800} on ``axioms_dense``, and ``x_count`` over
{20, 200, 2000} and ``dim_x`` over {1, 3, 10} on ``grid_dense``, all at the
default seed.  Each size runs one untimed warm-up operation, then records
the times of REPEATS untraced operations with their median, the stage times
and exact counts of one traced operation, and the number of failed
operations.  Times are scaled to the reference host speed as in ``run.py``;
the unscaled operation times are recorded too.  The largest sizes take tens
of seconds per operation, and the whole sweep about ten minutes.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

from calibrate import Pace
from run import WORK_ROOT, Runner, _cli_main, environment
from workloads import DEFAULT_SEED, WORKLOADS, use_checkout_source

AXES = (
    ("axioms_dense", "axiom_points", (200, 400, 800)),
    ("grid_dense", "x_count", (20, 200, 2000)),
    ("grid_dense", "dim_x", (1, 3, 10)),
)
REPEATS = 3


def _with_dim_x(base: dict, dim: int) -> dict:
    """The grid_dense function and space extended to ``dim`` inputs."""
    coords = [
        {
            "quad": [[(1.0 + 0.5 * j + 0.5 * i) if i == k else 0.1 for k in range(dim)] for i in range(dim)],
            "linear": [(-1.0) ** (i + j) * (1.0 + 0.25 * i) for i in range(dim)],
            "const": float(j),
        }
        for j in range(base["space"]["dim_y"])
    ]
    perturbations = [
        {"shape": "sin", "amplitude": 0.01, "frequency": [1.0 / (i + 1) for i in range(dim)]},
        {"shape": "cos", "amplitude": 0.01},
    ]
    return {
        **base,
        "space": {**base["space"], "dim_x": dim},
        "function": {"coords": coords, "perturbations": perturbations},
    }


def sized(workload_name: str, axis: str, value: int):
    workload = WORKLOADS[workload_name]
    if axis == "dim_x":
        base = _with_dim_x(workload.base, value)
    else:
        base = {**workload.base, "grids": {**workload.base["grids"], axis: value}}
    return dataclasses.replace(workload, name=f"{workload_name}[{axis}={value}]", base=base)


def measure(workload, work: Path) -> dict:
    from fuzzystab import cli
    from tracing import EXACT, STAGES, Tracer

    runner = Runner(workload, DEFAULT_SEED, work)
    runner.op(_cli_main)  # warm-up, checked but not timed
    pace = Pace()
    wall, times = [], []
    for _ in range(REPEATS):
        wall.append(runner.op(_cli_main)[0])
        times.append(wall[-1] * pace.factor())
    tracer = Tracer()
    tracer.install()
    try:
        runner.op(lambda argv: tracer.root(cli.main, argv))
    finally:
        tracer.uninstall()
    factor = pace.factor()
    traced = tracer.operation_metrics()
    return {
        "run_s": statistics.median(times),
        "run_s_samples": times,
        "wall_s_samples": wall,
        "stages_s": {stage: traced[f"stage.{stage}_s"] * factor for stage in STAGES},
        "counts": {name: traced[name] for name in EXACT},
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": runner.problems[:5],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, help="also write the record to this file")
    args = parser.parse_args(argv)
    use_checkout_source()

    points, configs = [], {}
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="sweep-", dir=WORK_ROOT))
    try:
        for workload_name, axis, values in AXES:
            for value in values:
                workload = sized(workload_name, axis, value)
                configs[workload.name] = workload.config(DEFAULT_SEED)
                op_dir = work / workload.name
                op_dir.mkdir()
                point = {"workload": workload_name, "axis": axis, "value": value}
                point.update(measure(workload, op_dir))
                points.append(point)
                print(json.dumps({k: point[k] for k in ("axis", "value", "run_s", "failed")}),
                      file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()
    record = {
        "environment": environment(DEFAULT_SEED, configs),
        "repeats": REPEATS,
        "points": points,
    }
    text = json.dumps(record, indent=1)
    if args.out:
        args.out.write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
