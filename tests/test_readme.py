"""The README's CLI transcripts, run in process against their shown output.

A transcript is a fenced code block of `$ ` command lines, each followed by
the lines it shows.  A command is `python3 -m thabound ...`, which may
continue over lines ending in a backslash, or `head -N FILE`, which shows
the first N lines of a file the block wrote.  A last shown line `...`,
indented or not, elides the rest of the output.  Each block runs in an
empty directory; a path under `tests/` resolves from the repository root.
"""

import pathlib
import re
import shlex

import pytest

from thabound.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
COMMAND = ["python3", "-m", "thabound"]


def _transcripts(text: str) -> list[list[tuple[str, list[str]]]]:
    """(command, shown lines) of each `$ ` line, per fenced code block."""
    transcripts = []
    block = None
    for line in text.splitlines():
        if line.startswith("```"):
            if block:
                transcripts.append(block)
            block = [] if block is None else None
        elif block is None:
            continue
        elif line.startswith("$ "):
            block.append((line[2:], []))
        elif block and block[-1][0].endswith("\\"):
            command, shown = block.pop()
            block.append((f"{command[:-1]} {line.strip()}", shown))
        elif block:
            block[-1][1].append(line)
    return transcripts


TRANSCRIPTS = _transcripts(README)


def _assert_shown(shown: list[str], actual: list[str]) -> None:
    if shown[-1].strip() != "...":
        assert actual == shown
        return
    assert actual[:len(shown) - 1] == shown[:-1]
    assert len(actual) >= len(shown), "'...' elides no line"


def test_every_command_is_in_a_transcript():
    commands = [command for block in TRANSCRIPTS for command, _ in block
                if command.startswith("python3 -m thabound ")]
    assert len(commands) == README.count("$ python3 -m thabound ")
    assert commands


@pytest.mark.parametrize("block", TRANSCRIPTS, ids=lambda block: (
    "-".join(block[0][0].split()[3:4]) or "unparsed"))
def test_transcript_matches_output(block, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert shlex.split(block[0][0])[:3] == COMMAND, block[0][0]
    for command, shown in block:
        argv = shlex.split(command)
        assert shown, f"{command!r} shows no output"
        if argv[:3] == COMMAND:
            args = [str(ROOT / arg) if arg.startswith("tests/") else arg
                    for arg in argv[3:]]
            assert main(args) == 0, command
            _assert_shown(shown, capsys.readouterr().out.splitlines())
        elif (len(argv) == 3 and argv[0] == "head"
              and re.fullmatch(r"-[1-9]\d*", argv[1])):
            count = int(argv[1][1:])
            assert len(shown) == count, command
            lines = pathlib.Path(argv[2]).read_text(encoding="utf-8").splitlines()
            assert lines[:count] == shown
        else:
            pytest.fail(f"cannot run transcript line {command!r}")
