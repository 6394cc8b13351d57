"""Every ``python -m repro …`` command shown in the docs must parse.

Collects each such line from the fenced code blocks of ``README.md``,
``docs/*.md``, ``EXPERIMENTS.md`` and ``DESIGN.md`` — ``\\`` continuations
joined, ``#`` comments stripped — and runs it through the CLI's own
argument parser, so a removed or renamed subcommand or flag cannot
linger in a documented example.  Only argument parsing runs: nothing is
simulated, so the check is cheap enough for every lane's fast suite.
"""

import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
DOCS = (
    ROOT / "README.md",
    *sorted((ROOT / "docs").glob("*.md")),
    ROOT / "EXPERIMENTS.md",
    ROOT / "DESIGN.md",
)
PREFIX = "python -m repro"


def _fenced_commands(path: Path) -> list[tuple[int, str]]:
    """(line number, command text) of each ``python -m repro`` line inside
    a fenced code block, continuation lines joined."""
    commands: list[tuple[int, str]] = []
    in_fence = False
    pending: tuple[int, str] | None = None
    for number, line in enumerate(path.read_text().splitlines(), 1):
        stripped = line.strip()
        if stripped.startswith("```"):
            in_fence = not in_fence
            pending = None
            continue
        if not in_fence:
            continue
        if pending is not None:
            start, text = pending
            text += " " + stripped
        elif stripped.startswith(PREFIX):
            start, text = number, stripped
        else:
            continue
        if text.endswith("\\"):
            pending = start, text[:-1]
        else:
            pending = None
            commands.append((start, text))
    return commands


def _doc_commands():
    params = []
    for path in DOCS:
        for number, text in _fenced_commands(path):
            params.append(pytest.param(
                text, id=f"{path.relative_to(ROOT)}:{number}",
            ))
    return params


DOC_COMMANDS = _doc_commands()


def test_docs_show_commands():
    """The collector is not vacuous: the README has CLI examples."""
    assert any(p.id.startswith("README.md:") for p in DOC_COMMANDS)


@pytest.mark.parametrize("command", DOC_COMMANDS)
def test_doc_command_parses(command, capsys):
    argv = shlex.split(command, comments=True)[len(PREFIX.split()):]
    try:
        build_parser().parse_args(argv)
    except SystemExit as exc:
        pytest.fail(
            f"documented command does not parse (exit {exc.code}): "
            f"{command}\n{capsys.readouterr().err}"
        )
