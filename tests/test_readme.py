"""The README's examples, run as written: the library block, and the CLI
examples and the ``--json`` line through ``cli.main``."""

import pathlib
import re
import shlex

from qdyson import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def section(title: str) -> str:
    """The README from the heading ``## title`` on."""
    text = README.read_text(encoding="utf-8")
    return text[text.index(f"\n## {title}\n"):]


def library_block() -> str:
    """The first python block under ``## Library``."""
    return re.search(r"```python\n(.*?)```", section("Library"), re.S).group(1)


def cli_examples() -> list[tuple[list[str], list[str]]]:
    """(argv, output lines) of each ``$ qdyson ...`` example in the first
    plain block after ``Examples:`` under ``## CLI``."""
    text = section("CLI")
    block = re.search(r"Examples:\n\n```\n(.*?)```", text, re.S).group(1)
    examples = []
    for chunk in block.strip().split("\n\n"):
        command, *output = chunk.splitlines()
        assert command.startswith("$ qdyson "), command
        examples.append((shlex.split(command)[2:], output))
    return examples


def masked(text: str) -> str:
    """The text with its timings, a summary line's ``(... ms)`` and a JSON
    line's ``elapsed_ms`` value, masked."""
    text = re.sub(r"\(\d+(\.\d+)? ms\)", "(… ms)", text)
    return re.sub(r'"elapsed_ms":[-+.\deE]+', '"elapsed_ms":…', text)


def test_the_library_example_runs():
    """Every line of the example runs with the signatures it documents, and
    every check it shows holds: each ``.holds`` line is an ``assert``."""
    block = library_block()
    holds = [line for line in block.splitlines() if ".holds" in line]
    assert len(holds) == 4 and all(line.startswith("assert ") for line in holds)
    exec(compile(block, str(README), "exec"), {})


def test_the_cli_examples_print_as_written(capsys):
    """``verify main``, ``sweep qdyson`` and ``counterexample`` each exit 0
    and print the lines the README shows, timings masked."""
    examples = cli_examples()
    assert [argv[0] for argv, _ in examples] == ["verify", "sweep", "counterexample"]
    for argv, output in examples:
        assert cli.main(argv) == 0, argv
        printed = capsys.readouterr().out.splitlines()
        assert list(map(masked, printed)) == list(map(masked, output)), argv


def test_the_json_example_is_written_as_shown(tmp_path, capsys):
    """The command under the README's ``--json`` line writes that line,
    ``elapsed_ms`` masked."""
    text = section("CLI")
    line = re.search(r"```json\n(.*?)\n```", text, re.S).group(1)
    command = re.search(r"\(`qdyson (verify [^`]*) --json PATH`\.\)", text).group(1)
    path = tmp_path / "report.jsonl"
    assert cli.main([*shlex.split(command), "--json", str(path)]) == 0
    capsys.readouterr()
    assert masked(path.read_text(encoding="utf-8")) == masked(line) + "\n"
