"""Every Python block of README.md runs as written and prints what its
comments say, and its config schema lists exactly the keys the reader
accepts."""

import re
from dataclasses import fields
from pathlib import Path

import pytest

from fuzzystab import harness
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
