"""Every ```python block of README.md runs as written.

Each block runs on its own, in a fresh namespace, from the text of the
README (fences may be indented inside list items), so an example that no
longer matches the package fails here. A test is named by its block's
place among the python blocks, so editing the prose around the blocks
renames none; a traceback still gives the README line.
"""

import re
import textwrap
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCK = re.compile(r"^([ \t]*)```python\n(.*?)^\1```$", re.DOTALL | re.MULTILINE)


def _blocks():
    """(first line, dedented code) of each block."""
    text = README.read_text()
    return [(text.count("\n", 0, match.start()) + 1, textwrap.dedent(match.group(2)))
            for match in BLOCK.finditer(text)]


BLOCKS = _blocks()


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 3


@pytest.mark.parametrize("line,code", BLOCKS, ids=[f"block-{k}" for k in range(1, len(BLOCKS) + 1)])
def test_readme_python_block_runs(line, code):
    exec(compile(code, f"README.md:{line}", "exec"), {"__name__": "readme"})
