"""Regenerate ``reference/<workload>.json`` from the package in ``src/``.

    python3 bench/make_reference.py [WORKLOAD ...]

Runs one operation of each workload at its default seed and stores the
fields ``check.py`` compares.  Only rerun this when a change of report
numbers is intended and explained; the stored files are the reference the
benchmark holds every later version to.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from check import NUMBERS, REFERENCE_DIR, VERDICTS, summarize
from workloads import DEFAULT_SEED, WORKLOADS, cli_argv, use_checkout_source, write_config


def main(names) -> None:
    use_checkout_source()
    from fuzzystab.cli import main as cli_main

    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        with tempfile.TemporaryDirectory() as tmp:
            config_path = write_config(workload.config(DEFAULT_SEED), Path(tmp) / "config.json")
            out = Path(tmp) / "out"
            with contextlib.redirect_stdout(io.StringIO()):
                exit_code = cli_main(cli_argv(workload, config_path, out))
            summary = summarize(out, exit_code)
        reference = {key: summary[key] for key in VERDICTS + NUMBERS}
        path = REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(reference, separators=(",", ":")) + "\n", encoding="utf-8")
        print(f"wrote {path} (exit {exit_code})")


if __name__ == "__main__":
    main(sys.argv[1:])
