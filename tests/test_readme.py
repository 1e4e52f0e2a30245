"""Every Python block of README.md runs as written and prints what its
comments say."""

import re
from pathlib import Path

import pytest

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
