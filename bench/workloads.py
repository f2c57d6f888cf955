"""The benchmark's workloads: the ``franson`` command lines each repetition
runs, and the checks its reports must pass.

A repetition runs its command lines in order through ``franson.cli.main``.
Each gets the repetition's seed, so no result carries over between
repetitions.  ``warmup`` selects a small version of the same commands, used
for set-up and the reproducibility check of an untraced run.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable

AKLZ_TRIALS = 1_000_000
ROUNDTRIP_TRIALS = 10_000
WARMUP_TRIALS = 2_000

# (extra verify-bounds flags, closed-form bound the search must reach)
GAMES = (
    (("--lp-check", "--terms", "4"), 3.0),
    (("--lp-check", "--terms", "6"), 5.0),
    (("--model-class", "outcomes-only", "--terms", "4"), 4.0),
)
WARMUP_BUDGET = ("--restarts", "1", "--iterations", "20")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    item: str  # what one unit of throughput counts
    commands: Callable[[int, str, bool], list[list[str]]]  # (seed, workdir, warmup)
    check: Callable[[list[dict], str], list[str]]  # (reports, workdir) -> problems
    items: Callable[[list[dict]], int]  # work done by one repetition


def _near(problems: list[str], label: str, value: float, target: float, tol: float) -> None:
    if not abs(value - target) <= tol:
        problems.append(f"{label} {value!r} is not within {tol} of {target!r}")


# ---------------------------------------------------------------------------
# simulate_aklz


def _aklz_commands(seed: int, workdir: str, warmup: bool) -> list[list[str]]:
    trials = WARMUP_TRIALS if warmup else AKLZ_TRIALS
    return [
        ["simulate", "--source", "aklz", "--terms", "4",
         "--trials", str(trials), "--seed", str(seed)]
    ]


def _aklz_check(reports: list[dict], workdir: str) -> list[str]:
    (sim,) = reports
    problems: list[str] = []
    _near(problems, "statistic", sim["statistic"], 2.0 * math.sqrt(2.0), 0.01)
    _near(problems, "eta", sim["efficiency"]["eta"], 0.5, 0.005)
    violated = {v["model"]["kind"]: v["violated"] for v in sim["verdicts"]}
    if violated.get("plain-local-realism") is not True:
        problems.append("the plain-local-realism bound is not violated")
    if violated.get("outcomes-only") is not False:
        problems.append("the outcomes-only bound is violated")
    return problems


# ---------------------------------------------------------------------------
# events_roundtrip


def _events_path(workdir: str) -> str:
    return os.path.join(workdir, "events.csv")


def _roundtrip_commands(seed: int, workdir: str, warmup: bool) -> list[list[str]]:
    trials = WARMUP_TRIALS if warmup else ROUNDTRIP_TRIALS
    path = _events_path(workdir)
    return [
        ["simulate", "--terms", "6", "--visibility", "0.99", "--trials", str(trials),
         "--seed", str(seed), "--events-csv", path],
        ["report", "--events", path, "--terms", "6"],
    ]


def _detected(report: dict) -> int:
    return sum(e["detected"] for e in report["efficiency"]["entries"])


def _roundtrip_check(reports: list[dict], workdir: str) -> list[str]:
    sim, rep = reports
    problems: list[str] = []
    with open(_events_path(workdir), encoding="utf-8") as fh:
        lines = sum(1 for _ in fh) - 1
    written, read = _detected(sim), _detected(rep)
    if not written == lines == read:
        problems.append(f"rows: simulate {written}, file {lines}, report {read}")
    for key in ("statistic", "table"):
        if sim[key] != rep[key]:
            problems.append(f"report {key} differs from simulate {key}")
    if sim["efficiency"]["eta"] != rep["efficiency"]["eta"]:
        problems.append("report eta differs from simulate eta")
    if rep["coincidences"] / (sim["trials_per_pair"] * sim["terms"]) != sim["coincidence_fraction"]:
        problems.append("report coincidences differ from simulate coincidences")
    expected = 0.99 * 6.0 * math.cos(math.pi / 6.0)
    _near(problems, "statistic", rep["statistic"], expected, 5.0 * rep["stderr"])
    return problems


# ---------------------------------------------------------------------------
# verify_games


def _games_commands(seed: int, workdir: str, warmup: bool) -> list[list[str]]:
    if warmup:
        games = (GAMES[0][0] + WARMUP_BUDGET, GAMES[2][0] + WARMUP_BUDGET)
    else:
        games = tuple(flags for flags, _ in GAMES)
    return [["verify-bounds", *flags, "--seed", str(seed)] for flags in games]


def _games_check(reports: list[dict], workdir: str) -> list[str]:
    problems: list[str] = []
    for (flags, bound), rep in zip(GAMES, reports):
        label = " ".join(flags)
        if rep["bound"] != bound:
            problems.append(f"{label}: bound {rep['bound']!r}, expected {bound!r}")
        if rep["passed"] is not True:
            problems.append(f"{label}: not passed")
        _near(problems, f"{label}: best_value", rep["best_value"], bound, 1e-6)
        if "--lp-check" in flags:
            if rep["lp_value"] is None:
                problems.append(f"{label}: no lp_value")
            else:
                _near(problems, f"{label}: lp_value", rep["lp_value"], bound, 1e-9)
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="simulate_aklz",
            why=(
                "AKLZ delay model at 10^6 trials per pair through emit, "
                "postselect and tabulate: the O(n) postselect/tabulate work "
                "moves it; no CSV, no game"
            ),
            item="trials",
            commands=_aklz_commands,
            check=_aklz_check,
            items=lambda reports: reports[0]["trials_per_pair"] * reports[0]["terms"],
        ),
        Workload(
            name="events_roundtrip",
            why=(
                "quantum sampler at 10^4 trials per pair, CSV write then report "
                "on one merged 6-term stream: CSV I/O is about 87% of it; an LP "
                "change must not move it"
            ),
            item="event rows",
            commands=_roundtrip_commands,
            check=_roundtrip_check,
            items=lambda reports: _detected(reports[0]),
        ),
        Workload(
            name="verify_games",
            why=(
                "verify-bounds on the emission-time game at 4 and 6 terms with "
                "the LP, plus outcomes-only at 4: strategyopt only, both "
                "projection paths"
            ),
            item="games",
            commands=_games_commands,
            check=_games_check,
            items=len,
        ),
    )
}
