"""Every fenced ``python`` block of README.md runs as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def _blocks(text):
    """(id, first line number, code) of each block.

    The id is the nearest preceding ``## `` heading, slugged, and the
    block's ordinal under it, so editing another section renames no test.
    """
    blocks, section, ordinal = [], "top", 0
    for m in re.finditer(r"^## ([^\n]*)$|^```python\n(.*?)^```$", text, re.M | re.S):
        if m.group(2) is None:
            section, ordinal = re.sub(r"[^a-z0-9]+", "-", m.group(1).lower()).strip("-"), 0
        else:
            ordinal += 1
            blocks.append((f"{section}-{ordinal}", text.count("\n", 0, m.start(2)) + 1, m.group(2)))
    return blocks


BLOCKS = _blocks(README.read_text(encoding="utf-8"))


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 3


@pytest.mark.parametrize("line, code", [b[1:] for b in BLOCKS], ids=[b[0] for b in BLOCKS])
def test_readme_example_runs(line, code):
    # padded so that a traceback names the README line
    exec(compile("\n" * (line - 1) + code, str(README), "exec"), {"__name__": "readme"})
