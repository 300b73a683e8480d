"""Golden CLI output: every command of README's "Command line" block, plus a
few default and non-rational sweeps, must keep printing the recorded stdout
and stderr and exit with the recorded code.

The commands are parsed from README, so a documented command without a
recorded hash fails here too.  To record a new command, add its hashes to
``golden/cli_stdout.json`` from a run of the tree it should match.
"""

import hashlib
import json
import re
import shlex
from pathlib import Path

import pytest

from schurzeta import cli

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_stdout.json"

EXTRA_COMMANDS = [
    "all-verify",
    "lgv-verify",
    "layer-verify",
    "palindrome-verify",
    "all-verify --ring qsym --seed 5 --N 3",
    "all-verify --ring qseries:8 --seed 3 --N 3",
    "jt-verify --shape '[16,16]' --N 4 --seed 1",
    "palindrome-verify --keys '[2,3,2,3,2,3,2,3]' --N 9",
    "jt-verify --shape '[32,32]' --N 4 --seed 1",
    "jt-verify --shape '[16,16,16]' --N 5 --seed 1",
    "oyt-count --shape '[6,6,6,6,6,6]' --N 12",
]


def readme_commands() -> list[str]:
    """The `schurzeta ...` lines of README's "Command line" code block,
    without the program name and trailing comments."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    commands = []
    for line in block.splitlines():
        words = shlex.split(line, comments=True)
        if words and words[0] == "schurzeta":
            commands.append(shlex.join(words[1:]))
    return commands


def run_command(command: str, capsys) -> dict:
    code = cli.main(shlex.split(command))
    captured = capsys.readouterr()
    return {
        "exit": code,
        "stdout_sha256": hashlib.sha256(captured.out.encode()).hexdigest(),
        "stderr_sha256": hashlib.sha256(captured.err.encode()).hexdigest(),
    }


COMMANDS = readme_commands() + EXTRA_COMMANDS
RECORDED = json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_every_command_is_recorded():
    assert sorted(RECORDED) == sorted(COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_output_matches_golden(command, capsys):
    assert run_command(command, capsys) == RECORDED[command]
