"""Command-line entry point.

Subcommands map to pipeline stages:

    check-axioms   axiom section only
    extract        extraction section only
    verify         hypothesis + extraction + verification
    run            full pipeline

Each subcommand loads a JSON config, runs its stages, writes report files
and exits with the status recorded in the report (see harness module for
the exit-code contract).
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .errors import ConfigError, DomainError, ScaleError
from .harness import (
    ALL_STAGES,
    EXIT_CONFIG,
    EXIT_OUTPUT,
    EXIT_SCALE,
    ExperimentConfig,
    emit_report,
    run_pipeline,
)

_STAGES_BY_COMMAND = {
    "check-axioms": ("axioms",),
    "extract": ("extraction",),
    "verify": ("hypothesis", "extraction", "verification"),
    "run": ALL_STAGES,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuzzystab",
        description="Verify fuzzy-norm stability bounds for the additive-quadratic equation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _STAGES_BY_COMMAND:
        p = sub.add_parser(name, help=f"run the {name.replace('-', ' ')} stage(s)")
        p.add_argument("--config", required=True, help="path to the JSON experiment config")
        p.add_argument("--out-dir", default="out", help="directory for report files")
        p.add_argument(
            "--format",
            choices=("json", "csv", "both"),
            default="both",
            help="report format(s) to write",
        )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = ExperimentConfig.load(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        report = run_pipeline(cfg, stages=_STAGES_BY_COMMAND[args.command])
    except ScaleError as exc:
        print(f"scale error: {exc}", file=sys.stderr)
        return EXIT_SCALE
    except DomainError as exc:
        message = f"config error: control family undefined on sampled arguments: {exc}"
        print(message, file=sys.stderr)
        return EXIT_CONFIG

    formats = ("json", "csv") if args.format == "both" else (args.format,)
    try:
        for fmt in formats:
            for path in emit_report(report, fmt, args.out_dir):
                print(f"wrote {path}")
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_OUTPUT

    print(
        f"violations={report.total_violations} converged={report.all_converged} "
        f"exit={report.exit_status}"
    )
    return report.exit_status


if __name__ == "__main__":
    sys.exit(main())
