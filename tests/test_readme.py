"""The README's library quick start runs against the current API, and each
command line it shows exits 0."""

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

import pytest

from test_cli_outputs import SYSTEM, _extended_path_text
from thermocontact import cli

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
# every `thermocontact ...` line of the sh blocks, without its comment; the
# bare `verify` (about 3 s) is left to tests/test_acceptance.py
COMMANDS = [
    shlex.split(line, comments=True)[1:]
    for block in re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S)
    for line in block.splitlines()
    if line.startswith("thermocontact ")
]
COMMANDS = [argv for argv in COMMANDS if argv != ["verify"]]


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_python_block_runs(block):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})
    assert out.getvalue().splitlines()[0] == "nonnegative"


def test_readme_has_command_lines():
    assert len(COMMANDS) >= 9


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(argv) for argv in COMMANDS])
def test_command_line_exits_zero(argv, tmp_path, monkeypatch, capsys):
    # the files the command lines name, in the directory they run in
    (tmp_path / "system.json").write_text(json.dumps(SYSTEM))
    (tmp_path / "path.csv").write_text(_extended_path_text())
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("THERMO_OUT_DIR", raising=False)
    status = cli.dispatch(argv)
    out, err = capsys.readouterr()
    assert status == 0 and out, err
