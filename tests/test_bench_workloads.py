"""The benchmark's command lines still run and pass their own checks.

``bench/workloads.py`` fixes the ``franson`` command lines each benchmark
repetition runs and the checks its reports must pass.  A CLI change that
refuses one of its flags, or drops a report field a check reads, would
only show when the benchmark runs; this loads the file as it is and runs
every workload's warm-up and full commands through ``franson.cli.main``,
as the benchmark does.
"""

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from franson.cli import main

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    # its dataclass looks its module up by name while the class is built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


WORKLOADS = load_workloads().WORKLOADS


def run(commands):
    """Each command's exit code and report text, in order."""
    results = []
    for argv in commands:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        results.append((code, buf.getvalue()))
    return results


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_commands_run_and_pass_their_checks(tmp_path, name):
    workload = WORKLOADS[name]
    workdir = str(tmp_path)
    seed = 11
    # the warm-up commands: they run, and a repeated seed gives the same bytes
    warm = [run(workload.commands(seed, workdir, True)) for _ in range(2)]
    assert [code for code, _ in warm[0]] == [0] * len(warm[0])
    assert warm[1] == warm[0]
    assert workload.items([json.loads(text) for _, text in warm[0]]) > 0
    # the full commands: they run, and every report passes the workload's check
    full = run(workload.commands(seed, workdir, False))
    assert [code for code, _ in full] == [0] * len(full)
    reports = [json.loads(text) for _, text in full]
    assert workload.check(reports, workdir) == []
    assert workload.items(reports) > 0
