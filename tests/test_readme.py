"""README's Python examples run as written against the package.

The library example in README is the first code most users copy. Running
it here means a renamed or removed name fails the suite instead of leaving
the docs stale.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks(text):
    """The bodies of the ```python fenced blocks of a markdown text."""
    return re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)


def test_python_blocks_finds_each_fenced_block():
    text = "a\n```python\nx = 1\n```\n```\nshell\n```\n```python\ny\n```\n"
    assert python_blocks(text) == ["x = 1\n", "y\n"]


def test_readme_python_blocks_run():
    blocks = python_blocks(README.read_text())
    assert blocks, "README has no python block"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
