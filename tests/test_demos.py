"""Every demo script, and every command of the README's usage block, runs
to completion on the package in src/."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from franson import ModelKind
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


def verify_bounds_table():
    """(model-class flag, method, largest terms) per row of the README's
    ``verify-bounds`` table; a class cell names its class by the hyphenated
    ``ModelKind`` value its words begin with."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    header = r"\| class \| `method` \| exact maximum \| largest game \|\n\|[-|]+\|\n"
    table = re.search(header + r"((?:\|.*\n)+)", text)
    assert table, "README has no verify-bounds table"
    finite = [k.value for k in ModelKind if not k.takes_efficiency]
    rows = []
    for line in table.group(1).splitlines():
        name, method, _, largest = (cell.strip() for cell in line.strip("|").split("|"))
        words = "-".join(name.split(" (")[0].split())
        (kind,) = [k for k in finite if words.startswith(k)]
        rows.append((kind, method.strip("`"), int(re.fullmatch(r"(\d+) terms", largest)[1])))
    assert sorted(kind for kind, _, _ in rows) == sorted(finite)
    return rows


@pytest.mark.parametrize("kind, method, largest", verify_bounds_table())
def test_readme_verify_bounds_table_holds(capsys, kind, method, largest):
    """The documented largest game runs, and the next even term count exits 3."""
    argv = ["verify-bounds", "--model-class", kind, "--terms"]
    assert main([*argv, str(largest)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["method"], payload["exact"], payload["passed"]) == (method, True, True)
    assert main([*argv, str(largest + 2)]) == 3
    assert "resource limit" in capsys.readouterr().err
