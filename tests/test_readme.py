"""The Python API examples of README.md run, in order and in one namespace,
and print the output lines their comments show."""

import re
from pathlib import Path

from qa2nli.cli import main

TESTS = Path(__file__).parent
README = TESTS.parent / "README.md"


def _api_blocks() -> list[tuple[int, str]]:
    """Each fenced python block of the "## Python API" section, with the
    README line number of its first line."""
    text = README.read_text(encoding="utf-8")
    start = text.index("\n## Python API\n")
    end = text.index("\n## ", start + 1)
    blocks = re.compile(r"^```python\n(.*?)^```$", re.M | re.S).finditer(text, start, end)
    return [(text.count("\n", 0, m.start(1)) + 1, m.group(1)) for m in blocks]


def _documented(block: str) -> list[str]:
    """The comment-only lines that follow a line calling print, or another
    such comment line: the output the block says it prints."""
    lines, documenting = [], False
    for line in block.splitlines():
        comment = line.lstrip().startswith("# ")
        if comment and documenting:
            lines.append(line.lstrip()[2:])
        documenting = (comment and documenting) or (not comment and "print(" in line)
    return lines


def test_python_api_examples_run_and_print_what_they_show(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tests").symlink_to(TESTS, target_is_directory=True)
    assert main(["qa2d", "--qa", "tests/fixtures/qa2d_fixtures.jsonl",
                 "--parses", "tests/fixtures/qa2d_fixtures.conllu",
                 "--output", "declaratives.jsonl"]) == 0
    capsys.readouterr()
    blocks = _api_blocks()
    assert len(blocks) >= 5
    namespace: dict = {}
    checked = 0
    for first_line, block in blocks:
        # Padded so that a traceback names the README line.
        exec(compile("\n" * (first_line - 1) + block, str(README), "exec"), namespace)
        printed = capsys.readouterr().out.splitlines()
        for line in _documented(block):
            assert line in printed, f"README.md block at line {first_line}"
            checked += 1
    assert checked >= 5
