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
    "compute --shape '[5,5,5,5,5]' --N 8 --diagonal"
    " '{\"-4\":3,\"-3\":2,\"-2\":3,\"-1\":2,\"0\":3,\"1\":2,\"2\":3,\"3\":2,\"4\":3}'",
    "oyt-count --shape '[6,6,6,6,6,6]' --N 12",
    "jt-verify --shape '[4,4,4]' --N 5 --ring qsym --seed 1",
    "jt-verify --shape '[10,8,3]' --N 5 --ring qseries:8 --seed 1",
    # 25 cells over qseries:8, at a size the packed q-series route makes cheap
    "jt-verify --shape '[5,5,5,5,5]' --N 7 --ring qseries:8 --seed 1",
    "linear-verify --max-r 4 --N 6",
    "all-verify --N 6 --max-cells 3 --trials 1",
    "jt-verify --max-cells 6 --N 5 --trials 1 --seed 11",
    "conjugation-verify --max-cells 6 --N 5 --trials 1 --seed 2",
    "lgv-verify --max-cells 5 --N 5 --seed 3",
    "layer-verify --max-cells 5 --M 4 --seed 4",
    "palindrome-verify --max-r 4 --N 5",
    "lgv-verify --max-cells 4 --N 4 --ring qsym --seed 2",
    # path rows and the path-matrix determinant on the packed q-series form
    "lgv-verify --max-cells 4 --N 4 --ring qseries:8 --seed 2",
    "layer-verify --max-cells 4 --M 3 --ring qseries:8 --seed 2",
    "compute --shape '[3,3]' --N 8 --ring qsym --diagonal '{\"-1\":2,\"0\":1,\"1\":3,\"2\":2}'",
    "conjugation-verify --max-cells 4 --N 4 --ring qsym --seed 1",
    "compute --shape '[6,2]' --N 4 --ring qsym --entries '[[1,2,1,2,1,2],[3,1]]'",
    # one per walk state form; the depth cut skips about a fifth of the
    # transitions out of the states each walk meets
    "compute --shape '[4,3,2,1]' --N 6 --diagonal"
    " '{\"-3\":2,\"-2\":3,\"-1\":2,\"0\":3,\"1\":2,\"2\":3,\"3\":2}'",
    "compute --shape '[3,2,1]' --N 5 --ring qseries:8 --diagonal"
    " '{\"-2\":1,\"-1\":1,\"0\":2,\"1\":1,\"2\":1}'",
    "oyt-count --shape '[5,4,3,2,1]' --N 6",
    # the empty shape: no path, no cell, both sides one
    "layer-verify --shape '[]' --b '[]' --M 2",
    "layer-verify --shape '[]' --b '[]' --M 2 --ring qsym",
    "jt-verify --shape '[]' --N 3",
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


def run_command(command: str, capsys, monkeypatch) -> dict:
    # Every payload the command writes is also checked against json.dumps,
    # which the report writer (cli._json_text) must match byte for byte.
    emit = cli._emit

    def checked_emit(payload, args):
        assert cli._json_text(payload) == json.dumps(payload, indent=2, sort_keys=True)
        emit(payload, args)

    monkeypatch.setattr(cli, "_emit", checked_emit)
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
def test_cli_output_matches_golden(command, capsys, monkeypatch):
    assert run_command(command, capsys, monkeypatch) == RECORDED[command]
