"""The README's command-line examples print what the README shows."""

from __future__ import annotations

import shlex
from pathlib import Path

import pytest

from riffmix.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"

# Examples run only in part or not at all, by their leading arguments.
SKIPPED = {
    ("tvd", "--scenario", "redblack1", "--shuffles", "3..5", "--method", "mc-hist"): (
        "mc-hist run takes 4-5 s on two CPUs and 7-9 s on one"
    ),
    ("hardness", "battery"): "its output is cut with '...'",
}


def examples() -> list[tuple[list[str], str]]:
    """(argv, stdout) of every `$ riffmix` example in a fenced block.

    A command may continue over lines ending in a backslash; its output
    runs to the next blank line or the end of the block.
    """
    found = []
    for block in README.read_text().split("```")[1::2]:
        lines = block.splitlines()
        i = 0
        while i < len(lines):
            if not lines[i].startswith("$ riffmix "):
                i += 1
                continue
            command = lines[i][len("$ riffmix "):]
            while command.endswith("\\"):
                i += 1
                command = command[:-1] + " " + lines[i].strip()
            i += 1
            output = []
            while i < len(lines) and lines[i]:
                output.append(lines[i])
                i += 1
            found.append((shlex.split(command), "".join(f"{o}\n" for o in output)))
    return found


EXAMPLES = examples()


def test_readme_has_examples():
    assert len(EXAMPLES) >= 10


@pytest.mark.parametrize(
    "argv, stdout", EXAMPLES, ids=[" ".join(argv) for argv, _ in EXAMPLES]
)
def test_example_prints_what_the_readme_shows(capsys, argv, stdout):
    for prefix, reason in SKIPPED.items():
        if tuple(argv[: len(prefix)]) == prefix:
            pytest.skip(reason)
    assert main(argv) == 0
    assert capsys.readouterr().out == stdout
