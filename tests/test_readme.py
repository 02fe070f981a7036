"""Every fenced ``python`` block of README.md runs as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
_TEXT = README.read_text(encoding="utf-8")
# (first line number, code) of each block
BLOCKS = [
    (_TEXT.count("\n", 0, m.start(1)) + 1, m.group(1))
    for m in re.finditer(r"^```python\n(.*?)^```$", _TEXT, re.M | re.S)
]


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 3


@pytest.mark.parametrize("line, code", BLOCKS, ids=[f"line-{line}" for line, _ in BLOCKS])
def test_readme_example_runs(line, code):
    # padded so that a traceback names the README line
    exec(compile("\n" * (line - 1) + code, str(README), "exec"), {"__name__": "readme"})
