"""fuzzystab benchmark: workloads run through the CLI entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each operation is one ``fuzzystab.cli.main`` invocation (``run`` or
``extract``, default ``--format both``) on the workload's generated config,
writing into a fresh directory, in this process and on one thread.  Every
operation's output is checked (see ``check.py``); an operation fails if it
raises, returns the wrong exit status or fails the check.

Every run starts with one untimed warm-up operation at the default seed,
whose output is compared with the stored reference report whatever seed the
run is given; the measured operations use the run's seed.

``--trace 0`` measures the end-to-end metrics with tracing off:

* ``run_s``: median wall time of a warm operation, measured for S seconds
  and over at least 14 operations;
* ``run_s_tail``: the upper quartile (75th percentile) of those times;
* ``cold_run_s``, ``setup_s``, ``peak_rss_mb``: medians over fresh
  interpreters, spread through the run (see ``cold.py``).

Times are scaled to a reference host speed measured by ``calibrate.py``
between consecutive measured items; the unscaled wall times are recorded.

``--trace 1`` alternates untraced and traced operations for S seconds and
reports the per-layer metrics of ``tracing.py``, their medians over traced
operations, and ``trace.overhead_s`` (traced minus untraced median).

The last stdout line is the result object; the line before it records the
environment, sample counts and ``failed_ratio``.  The program is imported
from ``src/`` of the checkout this file sits in; without it the benchmark
exits with status 1 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from calibrate import Pace
from check import check_operation, load_reference
from workloads import (
    DEFAULT_SEED,
    ROOT,
    SRC,
    THREAD_ENV,
    WORKLOADS,
    cli_argv,
    config_sha256,
    use_checkout_source,
    write_config,
)

os.environ.update(THREAD_ENV)  # before numpy is first imported

BENCH_DIR = Path(__file__).resolve().parent
WORK_ROOT = ROOT / ".bench_work"

#: A run times at least this many warm operations, so that the upper
#: quartile has three to four samples above it.
MIN_TIMED = 14
COLD_PROCESSES = 6
MIN_TRACED = 3
CHILD_TIMEOUT_S = 150


def _median(values):
    return statistics.median(values) if values else float("nan")


def _upper_quartile(values) -> float:
    return statistics.quantiles(values, n=4)[2]


def _spread(values) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "quartiles": [q1, q3], "min": min(values), "max": max(values),
            "samples": len(values)}


class Runner:
    """Runs and checks operations of one workload at one seed."""

    def __init__(self, workload, seed: int, work: Path, reference: dict | None = None) -> None:
        self.workload = workload
        self.config = workload.config(seed)
        self.config_path = write_config(self.config, work / "config.json")
        self.reference = reference
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._next = 0

    def _out_dir(self) -> Path:
        self._next += 1
        return self.work / f"op{self._next}"

    def _record(self, out: Path, exit_code, error: str | None) -> int:
        problems = [error] if error else check_operation(
            out, exit_code, self.workload.command, self.config, self.reference
        )
        report_bytes = sum(p.stat().st_size for p in out.glob("*") if p.is_file())
        shutil.rmtree(out, ignore_errors=True)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:3])
        return report_bytes

    def absorb(self, other: Runner) -> None:
        """Count ``other``'s operations and problems as this runner's."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems[:0] = other.problems

    def op(self, entry) -> tuple[float, int]:
        """One in-process operation through ``entry(argv)``; returns (seconds, report bytes)."""
        out = self._out_dir()
        argv = cli_argv(self.workload, self.config_path, out)
        exit_code, error = None, None
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            try:
                exit_code = entry(argv)
            except (Exception, SystemExit):
                error = traceback.format_exc(limit=3)
            elapsed = time.perf_counter() - start
        return elapsed, self._record(out, exit_code, error)

    def cold(self) -> dict | None:
        """One operation in a fresh interpreter; returns its measurements."""
        out = self._out_dir()
        cmd = [sys.executable, "-I", str(BENCH_DIR / "cold.py"), str(SRC), str(self.config_path),
               str(out), self.workload.command]
        sample, error = None, None
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                                  env={**os.environ, **THREAD_ENV}, cwd=ROOT)
            sample = json.loads(proc.stdout.strip().splitlines()[-1])
            if Path(sample["package"]).resolve().parent != SRC / "fuzzystab":
                sample, error = None, f"cold process imported {sample['package']}"
        except subprocess.TimeoutExpired:
            error = f"cold process did not finish within {CHILD_TIMEOUT_S} s"
        except (IndexError, ValueError):
            error = f"cold process exited {proc.returncode}: {proc.stderr.strip()[-400:]}"
        self._record(out, sample["exit_code"] if sample else None, error)
        return sample


def _cli_main(argv):
    from fuzzystab import cli

    return cli.main(argv)


def timed_run(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics with tracing off.

    A calibration pass runs between consecutive measured items, so every
    operation and fresh process is bracketed by two passes; its time is
    scaled by the mean of the two (see ``calibrate.py``).
    """
    # Compile bytecode once, so that no cold sample pays for it.
    subprocess.run([sys.executable, "-I", "-c", f"import sys; sys.path.insert(0, {str(SRC)!r}); "
                    "import fuzzystab.cli"], check=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    pace = Pace()
    wall: list[float] = []
    scaled: list[float] = []
    colds: list[dict] = []

    def warm_op():
        elapsed = runner.op(_cli_main)[0]
        wall.append(elapsed)
        scaled.append(elapsed * pace.factor())

    for _ in range(COLD_PROCESSES):
        sample = runner.cold()
        factor = pace.factor()
        if sample:
            colds.append({**sample, "scaled": {k: sample[k] * factor for k in ("setup_s", "cold_run_s")}})
        round_start = time.perf_counter()
        while time.perf_counter() - round_start < seconds / COLD_PROCESSES:
            warm_op()
    while len(wall) < MIN_TIMED:
        warm_op()
    metrics = {
        "run_s": (_median(scaled), "s"),
        "run_s_tail": (_upper_quartile(scaled), "s"),
        "cold_run_s": (_median([c["scaled"]["cold_run_s"] for c in colds]), "s"),
        "setup_s": (_median([c["scaled"]["setup_s"] for c in colds]), "s"),
        "peak_rss_mb": (_median([c["peak_rss_mb"] for c in colds]), "MB"),
    }
    detail = {
        "run_s_samples": len(scaled),
        "cold_samples": len(colds),
        "calibration_s": _spread(pace.passes),
        "wall_s": {
            "run_s": _spread(wall),
            "run_s_tail": _upper_quartile(wall),
            "cold_run_s": _median([c["cold_run_s"] for c in colds]),
            "setup_s": _median([c["setup_s"] for c in colds]),
        },
    }
    return metrics, detail


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "B"
    return "count"


def traced_run(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """Per-layer metrics from alternating untraced and traced operations.

    Times are scaled like the end-to-end ones; counts are not.
    """
    from fuzzystab import cli
    from tracing import LAYERS, Tracer, summarize

    tracer = Tracer()

    def traced_entry(argv):
        return tracer.root(cli.main, argv)

    pace = Pace()
    plain: list[float] = []
    traced: list[float] = []
    per_op: list[dict] = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(traced) < MIN_TRACED:
        plain.append(runner.op(_cli_main)[0] * pace.factor())
        tracer.reset()
        tracer.install()
        try:
            elapsed, report_bytes = runner.op(traced_entry)
        finally:
            tracer.uninstall()
        factor = pace.factor()
        traced.append(elapsed * factor)
        op_metrics = {k: v * factor if _unit(k) == "s" else v
                      for k, v in tracer.operation_metrics().items()}
        per_op.append({**op_metrics, "harness.report_bytes": report_bytes})
    merged, unsteady = summarize(per_op)
    runner.problems.extend(f"count {name} differs between operations of one seed" for name in unsteady)
    merged["trace.overhead_s"] = _median(traced) - _median(plain)
    merged["failed_ratio"] = runner.failed / runner.attempted
    metrics = {name: (value, _unit(name)) for name, value in merged.items()}
    detail = {
        "traced_samples": len(traced),
        "untraced_run_s": _median(plain),
        "traced_run_s": _median(traced),
        "layer_share": {
            layer: merged[f"layer.{layer}.self_s"] / _median(traced) for layer in LAYERS
        },
        "calibration_s": _spread(pace.passes),
        "unsteady_counts": unsteady,
    }
    return metrics, detail


def environment(seed: int, configs: dict[str, dict]) -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
            commit = proc.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "fuzzystab").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        usable_cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        usable_cpus = os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "nproc": usable_cpus,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "workload_seed": seed,
        "config_sha256": {name: config_sha256(config) for name, config in configs.items()},
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    use_checkout_source()
    import fuzzystab

    if Path(fuzzystab.__file__).resolve().parent != SRC / "fuzzystab":
        raise SystemExit(f"bench: fuzzystab imported from {fuzzystab.__file__}, not {SRC}")

    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        workload = WORKLOADS[args.workload]
        reference = load_reference(args.workload)
        (work / "reference").mkdir()
        checker = Runner(workload, DEFAULT_SEED, work / "reference", reference)
        checker.op(_cli_main)  # untimed warm-up, compared with the reference at any seed
        (work / "seed").mkdir()
        runner = Runner(workload, args.seed, work / "seed",
                        reference if args.seed == DEFAULT_SEED else None)
        runner.absorb(checker)
        if args.trace:
            metrics, detail = traced_run(runner, args.seconds)
        else:
            metrics, detail = timed_run(runner, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()

    record = {
        "workload": args.workload,
        "trace": args.trace,
        **detail,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failed_ratio": runner.failed / runner.attempted,
        "problems": runner.problems[:10],
        "environment": environment(
            args.seed, {args.workload: runner.config, "reference": checker.config}
        ),
    }
    print(json.dumps(record))
    print(
        json.dumps(
            {
                "correct": runner.failed == 0 and not detail.get("unsteady_counts"),
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
