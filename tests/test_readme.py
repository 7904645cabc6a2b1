"""README's Python examples run and print what their comments say.

Each ```python block of README.md runs on its own.  Every line it prints
must be a prefix of the trailing comment on the matching ``print`` line,
in order, so the comment may add an explanation after the value.
"""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.S | re.M)


def test_readme_has_two_python_blocks():
    assert len(BLOCKS) == 2


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_block_prints_its_comments(block):
    comments = [
        line.partition("#")[2].strip() for line in block.splitlines() if line.startswith("print(")
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    assert len(printed) == len(comments)
    for line, comment in zip(printed, comments):
        assert line and comment.startswith(line), (line, comment)
