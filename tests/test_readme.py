"""Every Python block of README.md runs as written and prints what its
comments say, its config schema lists exactly the keys the reader
accepts, and the verifier settings and CSV headers it states are the
library's."""

import inspect
import re
from dataclasses import fields
from pathlib import Path

import pytest

from fuzzystab import extraction, harness, spaces
from fuzzystab.harness import ExperimentConfig

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_has_a_python_block():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(block, capsys):
    exec(compile(block, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    # the comment after each one-line print, "~ ..." for an approximate value
    comments = re.findall(r"^print\(.*\)\s+# (.*)$", block, re.M)
    assert len(comments) == len(printed)
    for comment, line in zip(comments, printed):
        if not comment.startswith("~"):
            assert line == comment


def test_readme_schema_lists_exactly_the_config_keys():
    # a key the reader drops, such as a deleted knob, must leave the schema too
    block = README.read_text(encoding="utf-8").split("```jsonc\n", 1)[1].split("```", 1)[0]
    documented = set(re.findall(r'"(\w+)":', block))
    knobs = [f for f in fields(ExperimentConfig) if f.metadata]
    tables = {key for keys in harness._KEYS.values() for key in keys}
    tables |= {key for _, keys in harness._CONTROLS.values() for key in keys}
    tables |= {f.name for f in knobs} | {f.metadata["section"] for f in knobs}
    assert documented == tables


def test_readme_settings_are_the_library_constants():
    text = README.read_text(encoding="utf-8")
    paragraph = text.split("Every run uses the same verifier settings", 1)[1].split("\n\n", 1)[0]
    number = r"(\d[\d.e-]*\d)"
    stated = dict(re.findall(rf"`\w+\.(\w+)` = {number}", paragraph))
    assert {name: float(value) for name, value in stated.items()} == {
        "TOL": extraction.TOL,
        "N_MAX": extraction.N_MAX,
        "MEMBERSHIP_SLACK": spaces.MEMBERSHIP_SLACK,
        "FUZZY_TOLERANCE": spaces.FUZZY_TOLERANCE,
    }
    bounds = re.search(rf"log-spaced from {number} to {number}", paragraph).groups()
    defaults = inspect.signature(spaces.log_a_grid).parameters
    assert tuple(map(float, bounds)) == (defaults["lo"].default, defaults["hi"].default)


def test_readme_csv_headers_are_the_emitted_ones(tmp_path):
    # the column lists that README "Reports" spells out for two CSV files
    text = README.read_text(encoding="utf-8")
    stated = dict(re.findall(r"`(\w+)\.csv` columns\s+are\s+`([\w,]+)`", text))
    assert sorted(stated) == ["extraction", "verification"]
    config = Path(__file__).resolve().parents[1] / "configs" / "combined.json"
    report = harness.run_pipeline(ExperimentConfig.load(config))
    harness.emit_report(report, "csv", tmp_path)
    for name, header in stated.items():
        lines = (tmp_path / f"{name}.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == header and len(lines) > 1, name
