"""The README's library example, run as written."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def library_block() -> str:
    """The first python block under ``## Library``."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## Library\n"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_the_library_example_runs():
    """Every line of the example runs with the signatures it documents, and
    every check it shows holds: each ``.holds`` line is an ``assert``."""
    block = library_block()
    holds = [line for line in block.splitlines() if ".holds" in line]
    assert len(holds) == 4 and all(line.startswith("assert ") for line in holds)
    exec(compile(block, str(README), "exec"), {})
