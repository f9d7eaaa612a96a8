"""Every ``beamsteer`` command in the README's code blocks parses.

The commands are only parsed, never run: nothing is simulated.
"""

import re
import shlex
from pathlib import Path

from beamsteer.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands():
    commands = []
    for block in re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(), re.S | re.M):
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
