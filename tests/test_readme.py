"""The README's library example runs as printed, its command lines parse,
and each command prints the transcript the README shows for it."""

import re
import shlex
from pathlib import Path

from hypospec.cli import build_parser, main

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


def _transcripts() -> list[tuple[list[str], list[str]]]:
    """(argv, lines) for each `$ hypospec` line of the README: the lines
    after it, up to the next command or the end of its code block."""
    transcripts: list = []
    for block in re.findall(r"^```\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S):
        lines = None
        for line in block.splitlines():
            if line.startswith("$ hypospec "):
                lines = []
                argv = shlex.split(line[len("$ hypospec "):].split("#", 1)[0])
                transcripts.append((argv, lines))
            elif lines is not None:
                lines.append(line)
    return transcripts


def test_readme_transcripts_match_the_commands(tmp_path, monkeypatch, capsys):
    """Each command, run in a directory that holds x3.hg and y3.hg, prints
    its transcript line for line: all of it, or where the transcript elides
    with `...`, the lines before as the start of the output and the lines
    after as its end.  `gen` prints its line to stderr, the rest to stdout."""
    monkeypatch.chdir(tmp_path)
    for tag in ("X", "Y"):
        assert main(["gen", "--family", tag, "--n", "3", "--out", f"{tag.lower()}3.hg"]) == 0
    transcripts = _transcripts()
    assert [argv[0] for argv, _ in transcripts] == ["gen", "spectrum", "compare", "deck",
                                                    "hypomorphic", "verify"]
    for argv, expected in transcripts:
        capsys.readouterr()
        assert main(argv) == 0, argv
        out, err = capsys.readouterr()
        printed = (err if argv[0] == "gen" else out).splitlines()
        if "..." in expected:
            cut = expected.index("...")
            head, tail = expected[:cut], expected[cut + 1:]
            assert printed[:len(head)] == head, argv
            assert printed[len(printed) - len(tail):] == tail, argv
        else:
            assert printed == expected, argv
