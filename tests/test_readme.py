"""The README's design notes name tests that exist, and its commands run."""

import re
import shlex
from pathlib import Path

from contactkit import cli

ROOT = Path(__file__).resolve().parent.parent


def test_every_test_the_readme_names_exists():
    named = re.findall(r"`(test_\w+\.py)::(test_\w+)`", (ROOT / "README.md").read_text())
    assert len(named) >= 20
    for path, name in named:
        source = (ROOT / "tests" / path).read_text()
        assert re.search(rf"^def {name}\(", source, re.M), f"{path}::{name}"


def readme_commands():
    """The lines of the README's fenced ``sh`` blocks, without comments."""
    blocks = re.findall(r"^```sh\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    return [line for block in blocks for line in block.splitlines()
            if line.strip() and not line.startswith("#")]


def test_every_readme_command_passes(tmp_path, monkeypatch, capsys):
    """Each ``contactkit ...`` line runs in-process in a fresh directory,
    exits 0 and ends its report with ``result: OK``; only the install and
    test lines are left to the shell."""
    monkeypatch.chdir(tmp_path)
    lines = readme_commands()
    commands = [line for line in lines if line.startswith("contactkit ")]
    assert len(commands) >= 8
    assert all(re.match(r"(pip|python3 -m pytest)\b", line)
               for line in lines if line not in commands)
    for line in commands:
        try:
            status = cli.main(shlex.split(line)[1:])
        except SystemExit as exc:
            raise AssertionError(f"{line!r} was refused by the parser: {exc}") from None
        out = capsys.readouterr().out
        assert status == 0, f"{line!r}\n{out}"
        assert out.strip().splitlines()[-1] == "result: OK", line
