"""Fresh-interpreter probe: set-up time, first-operation time and peak RSS.

    python3 -I bench/cold.py SRC CONFIG OUT_DIR COMMAND

Set-up is importing ``fuzzystab`` (and its CLI) from SRC and loading and
validating CONFIG; the cold operation is the first ``COMMAND`` invocation
after it.  Prints one JSON line with ``setup_s``, ``cold_run_s``,
``peak_rss_mb`` (peak resident set after both) and ``exit_code``.
"""

import sys
import time

start = time.perf_counter()
src, config, out_dir, command = sys.argv[1:5]
sys.path.insert(0, src)

import fuzzystab  # noqa: E402
from fuzzystab.cli import main  # noqa: E402
from fuzzystab.harness import ExperimentConfig  # noqa: E402

ExperimentConfig.load(config)
setup_s = time.perf_counter() - start

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

with contextlib.redirect_stdout(io.StringIO()):
    start = time.perf_counter()
    exit_code = main([command, "--config", config, "--out-dir", out_dir])
    cold_run_s = time.perf_counter() - start

print(
    json.dumps(
        {
            "setup_s": setup_s,
            "cold_run_s": cold_run_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "exit_code": exit_code,
            "package": fuzzystab.__file__,
        }
    )
)
