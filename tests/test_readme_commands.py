"""Every ``polcomp`` command in README's "Command line" block exits 0, and README
and the ``cli`` docstring name every subcommand."""

import re
import shlex
from pathlib import Path

import pytest

from polcomp import cli
from polcomp.cli import SUBCOMMANDS, main

ROOT = Path(__file__).resolve().parent.parent


def _readme_commands():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    return [line.strip() for line in block.splitlines() if line.startswith("polcomp ")]


def test_readme_lists_commands():
    assert len(_readme_commands()) >= 8


def test_readme_and_docstring_list_every_subcommand_in_order():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    listed = readme.split("Subcommands:", 1)[1].split(". ", 1)[0]
    assert tuple(re.findall(r"`([^`]+)`", listed)) == SUBCOMMANDS
    listed = cli.__doc__.split("Subcommands:", 1)[1].split(".\n", 1)[0]
    assert tuple(name.strip() for name in listed.split(",")) == SUBCOMMANDS


@pytest.mark.parametrize("command", _readme_commands())
def test_readme_command_exits_zero(command, tmp_path, monkeypatch):
    argv = shlex.split(command)[1:]
    i = argv.index("--scenario") + 1
    argv[i] = str(ROOT / argv[i])
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
