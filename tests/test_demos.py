"""Every demo script, and every command of the README's usage block, runs
to completion on the package in src/."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from franson.cli import main

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def readme_commands():
    """The ``franson ...`` command lines of the README's shell blocks, in
    order, with continuation lines joined and comments dropped."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", text, flags=re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["franson"]:
                commands.append(argv[1:])
    return commands


def test_readme_usage_block_runs(tmp_path, monkeypatch, capsys):
    # in order: a report reads the events file a simulate line wrote
    commands = readme_commands()
    assert len(commands) >= 5
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == 0, (argv, capsys.readouterr().err)
        capsys.readouterr()
