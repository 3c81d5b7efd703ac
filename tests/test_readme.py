"""The README's library example runs as printed, and its command lines parse."""

import re
import shlex
from pathlib import Path

from hypospec.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_block_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert capsys.readouterr().out.startswith("True ")


def test_readme_command_lines_parse():
    """Every `$ hypospec ...` line of the README names flags the parser takes."""
    lines = re.findall(r"^\$ hypospec (.*)$", README.read_text(encoding="utf-8"), re.M)
    assert len(lines) == 6
    parser = build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line.split("#", 1)[0]))
