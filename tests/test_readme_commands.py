"""Every ``beamsteer`` command in the README's code blocks parses, and every
``python`` block runs.

The commands are only parsed, never run: nothing is simulated by them.  The
Python blocks are the library examples; each runs in a fresh namespace.
"""

import re
import shlex
from pathlib import Path

from beamsteer.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def code_blocks():
    """(language, body) of each fenced block of the README."""
    return re.findall(r"^```([^\n]*)\n(.*?)^```", README.read_text(), re.S | re.M)


def readme_commands():
    commands = []
    for _, block in code_blocks():
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("beamsteer "):
                commands.append(shlex.split(line, comments=True)[1:])
    return commands


def test_readme_commands_parse():
    commands = readme_commands()
    assert len(commands) >= 5
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)


def test_readme_python_blocks_run(capsys):
    blocks = [block for language, block in code_blocks() if language.strip() == "python"]
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out
