"""End-to-end checks of the command line front end.

Every assertion goes through ``main(argv)`` with captured stdout, exactly
as a shell user would drive it.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import franson
from franson import (
    DeterministicVertex,
    EventColumns,
    GameSpec,
    InterferometerTiming,
    MixedStrategy,
    ModelClass,
    ModelKind,
    RandomSource,
    SetupVariant,
    SiteVertex,
    aklz_quadrature,
    chain_settings,
    chained_statistic,
    cli,
    correlation_from_pairs,
    evaluate,
    evaluate_mixed,
    postselect,
    read_events_csv,
    simulate_setup,
    statistic_stderr,
    timing,
)
from franson.cli import main

SQRT2 = math.sqrt(2.0)


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out else None
    return code, payload, captured.err


def traced_peak(argv, capsys):
    """Peak bytes that ``main(argv)`` allocates above what was allocated
    before it, as tracemalloc sees them; the command must succeed."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    capsys.readouterr()
    return peak


def witness_from_json(payload):
    """The witness mixture of a verify-bounds report, as printed."""

    def side(d):
        late = d["late_outcomes"]
        return SiteVertex(
            outcomes=tuple(d["outcomes"]),
            early=tuple(d["early"]),
            detected=tuple(d["detected"]),
            late_outcomes=None if late is None else tuple(late),
        )

    return MixedStrategy(
        vertices=tuple(
            DeterministicVertex(side(v["site1"]), side(v["site2"])) for v in payload["vertices"]
        ),
        weights=tuple(payload["weights"]),
    )


def run_python(*args):
    """``python *args`` in a fresh process that imports this franson."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(franson.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )


def run_module(argv):
    """``python -m franson`` in a fresh process: its stderr shows the
    warnings that pytest captures in process."""
    return run_python("-m", "franson", *argv)


class TestBounds:
    def test_default_four_terms(self, capsys):
        code, p, _ = run_cli(["bounds"], capsys)
        assert code == 0
        assert p["command"] == "bounds"
        assert p["terms"] == 4
        assert p["quantum_value"] == pytest.approx(2 * SQRT2)
        assert p["critical_visibility"] == pytest.approx(3 / (2 * SQRT2))
        by_model = {r["model"]: r for r in p["rows"]}
        assert by_model["plain-local-realism"]["bound"] == 2.0
        assert by_model["emission-time-realism"]["bound"] == 3.0
        assert by_model["outcomes-only"]["bound"] == 4.0
        assert by_model["path-realism"]["bound"] == 2.0
        # efficiency-parameterized rows stay symbolic without --eta
        assert by_model["inefficiency"]["bound"] is None
        assert by_model["inefficiency"]["threshold_efficiency"] == pytest.approx(
            2 * (SQRT2 - 1)
        )
        assert by_model["delays"]["threshold_efficiency"] == pytest.approx(
            3 - 3 / SQRT2
        )

    def test_eta_fills_efficiency_bounds(self, capsys):
        code, p, _ = run_cli(["bounds", "--terms", "4", "--eta", "0.9"], capsys)
        assert code == 0
        by_model = {r["model"]: r for r in p["rows"]}
        assert by_model["inefficiency"]["bound"] == pytest.approx(4 / 0.9 - 2)
        assert by_model["delays"]["bound"] == pytest.approx(6 / 0.9 - 4)

    def test_six_terms_marks_chsh_only_models(self, capsys):
        code, p, _ = run_cli(["bounds", "--terms", "6"], capsys)
        assert code == 0
        by_model = {r["model"]: r for r in p["rows"]}
        for model in ("inefficiency", "delays"):
            assert by_model[model]["bound"] is None
            assert by_model[model]["note"] == "defined for 4 terms only"
        # path realism's bound is the plain one at every term count
        assert by_model["path-realism"]["bound"] == 4.0
        assert "note" not in by_model["path-realism"]
        assert by_model["plain-local-realism"]["bound"] == 4.0
        assert by_model["emission-time-realism"]["bound"] == 5.0


class TestVisibility:
    def test_default_term_sweep(self, capsys):
        code, p, _ = run_cli(["visibility"], capsys)
        assert code == 0
        assert [r["terms"] for r in p["rows"]] == [4, 6, 8, 10, 12]
        assert p["best_terms"] == 10
        by_terms = {r["terms"]: r for r in p["rows"]}
        assert by_terms[4]["discriminates"] is False
        assert by_terms[6]["discriminates"] is True
        assert by_terms[4]["critical_visibility"] > 1.0
        assert by_terms[10]["critical_visibility"] == pytest.approx(
            9 / (10 * math.cos(math.pi / 10))
        )

    def test_explicit_terms_subset(self, capsys):
        code, p, _ = run_cli(["visibility", "--terms", "6", "8"], capsys)
        assert code == 0
        assert [r["terms"] for r in p["rows"]] == [6, 8]
        assert p["best_terms"] == 8


class TestVerifyBounds:
    def test_emission_time_search_with_lp(self, capsys):
        code, p, _ = run_cli(
            [
                "verify-bounds",
                "--model-class",
                "emission-time-realism",
                "--terms",
                "4",
                "--restarts",
                "6",
                "--seed",
                "0",
                "--lp-check",
                "--witness",
            ],
            capsys,
        )
        assert code == 0
        assert p["command"] == "verify-bounds"
        assert p["passed"] is True
        assert p["bound"] == 3.0
        # the top level is the exact answer, the LP with a closed certificate
        assert p["method"] == "lp"
        assert p["exact"] is True
        assert p["best_value"] == p["lp_value"] == 3.0
        assert p["certificate"]["closed"] is True
        assert "witness" in p
        # a budget flag runs the search beside it
        search = p["search"]
        assert search["method"] == "successive-lp"
        assert search["restarts"] == 6
        assert search["passed"] is True
        assert search["best_value"] == pytest.approx(3.0, abs=1e-6)
        assert search["margin"] == 3.0 - search["best_value"]
        assert "successive LP" in search["notes"]
        assert "restarts" not in p

    def test_witness_report_is_deterministic(self, capsys):
        argv = ["verify-bounds", "--terms", "4", "--restarts", "6", "--seed", "3",
                "--lp-check", "--witness"]
        outs = []
        for _ in range(2):
            assert main(argv) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_plain_class_is_exact(self, capsys):
        code, p, _ = run_cli(
            ["verify-bounds", "--model-class", "plain-local-realism"], capsys
        )
        assert code == 0
        assert p["exact"] is True
        assert p["method"] == "exact-maximum"
        assert p["search"] is None
        assert p["certificate"] is None
        assert p["notes"] == (
            "closed form at the all-+1 vertex: each setting lies in two terms "
            "and one sign is -1, so every vertex has a -1 term under every "
            "group sign pattern and none exceeds terms - 2"
        )
        assert p["best_value"] == 2.0
        assert p["margin"] == 0.0

    def test_six_term_lp_is_exact(self, capsys):
        code, p, _ = run_cli(
            ["verify-bounds", "--terms", "6", "--restarts", "1", "--iterations", "20",
             "--lp-check"],
            capsys,
        )
        assert code == 0
        assert p["bound"] == 5.0
        assert p["lp_value"] == pytest.approx(5.0, abs=1e-9)

    def test_oversized_game_exits_with_resource_code(self, capsys):
        for flags in (
            # the closed form's site rows need 66 bits at 44 terms
            ("--model-class", "outcomes-only", "--terms", "44"),
            # the search's pricing, past 12 terms
            ("--model-class", "outcomes-only", "--terms", "14", "--restarts", "48"),
            ("--model-class", "emission-time-realism", "--terms", "14", "--restarts", "48"),
            # the emission-time witness's site rows need 66 bits at 44 terms
            ("--model-class", "emission-time-realism", "--terms", "44"),
            # games that fit, with budgets whose supports would not
            ("--restarts", "1000000"),
            ("--model-class", "outcomes-only", "--restarts", "1000000"),
            ("--terms", "12", "--restarts", "5000", "--lp-check"),
        ):
            code, p, err = run_cli(["verify-bounds", *flags], capsys)
            assert code == 3
            assert p is None
            assert "resource limit" in err

    @pytest.mark.parametrize("terms", [14, 24, 42])
    def test_emission_time_answers_exactly_up_to_int64_rows(self, capsys, terms):
        # the certificate's cycle DP prices every joint vertex past the
        # search's 12-term limit
        argv = ["verify-bounds", "--lp-check", "--witness", "--terms", str(terms)]
        code, p, _ = run_cli(argv, capsys)
        assert code == 0
        assert (p["method"], p["exact"], p["passed"]) == ("lp", True, True)
        assert p["best_value"] == p["lp_value"] == terms - 1
        assert p["certificate"]["closed"] is True
        assert p["certificate"]["largest_profit"] == 0.0
        assert len(p["witness"]["vertices"]) == terms + 2

    @pytest.mark.parametrize(
        "model_class, top", [("plain-local-realism", 126), ("path-realism", 124)]
    )
    def test_linear_classes_answer_up_to_int64_rows(self, capsys, model_class, top):
        for terms in (40, top):
            argv = ["verify-bounds", "--model-class", model_class, "--terms", str(terms)]
            code, p, _ = run_cli(argv, capsys)
            assert code == 0
            assert (p["method"], p["exact"], p["passed"]) == ("exact-maximum", True, True)
            assert p["best_value"] == p["bound"] == terms - 2
        argv = ["verify-bounds", "--model-class", model_class, "--terms", str(top + 2)]
        code, p, err = run_cli(argv, capsys)
        assert (code, p) == (3, None)
        assert "64-bit site rows; int64 holds 63 bits" in err

    def test_row_width_comes_before_the_chain(self, capsys, monkeypatch):
        class Started(Exception):
            pass

        def fail(*args):
            raise Started

        monkeypatch.setattr(cli, "chain_settings", fail)
        with pytest.raises(Started):
            main(["verify-bounds", "--terms", "42"])
        for model_class in ("emission-time-realism", "outcomes-only",
                            "plain-local-realism", "path-realism"):
            argv = ["verify-bounds", "--model-class", model_class, "--terms", "1000000"]
            code, p, err = run_cli(argv, capsys)
            assert (code, p) == (3, None)
            assert "int64 holds 63 bits" in err

    def test_thousand_restarts_at_four_terms_run(self, capsys):
        code, p, _ = run_cli(["verify-bounds", "--restarts", "1000"], capsys)
        assert code == 0
        assert p["search"]["restarts"] == 1000
        assert p["passed"] is True

    def test_eight_term_search_and_lp(self, capsys):
        code, p, _ = run_cli(
            ["verify-bounds", "--terms", "8", "--lp-check", "--restarts", "4"], capsys
        )
        assert code == 0
        assert p["passed"] is True
        assert p["bound"] == 7.0
        assert p["lp_value"] == p["best_value"] == 7.0
        assert p["search"]["best_value"] == pytest.approx(7.0, abs=1e-6)

    @pytest.mark.parametrize(
        "model_class, terms, method, value",
        [("plain-local-realism", 6, "exact-maximum", 4.0),
         ("path-realism", 6, "exact-maximum", 4.0),
         ("emission-time-realism", 6, "lp", 5.0),
         ("outcomes-only", 8, "closed-form", 8.0)],
    )
    def test_every_finite_class_is_exact_by_default(
        self, capsys, model_class, terms, method, value
    ):
        argv = ["verify-bounds", "--model-class", model_class, "--terms", str(terms),
                "--witness"]
        code, p, _ = run_cli(argv, capsys)
        assert code == 0
        assert (p["method"], p["exact"], p["passed"]) == (method, True, True)
        assert p["best_value"] == p["bound"] == value
        assert p["margin"] == 0.0
        assert p["search"] is None
        assert (p["certificate"] is not None) == (method == "lp")
        # the printed witness, read back, is feasible at the printed value
        game = GameSpec(ModelClass(ModelKind(model_class)), chain_settings(terms))
        check = evaluate_mixed(game, witness_from_json(p["witness"]))
        assert check.feasible
        assert check.statistic == pytest.approx(value, abs=1e-9)

    @pytest.mark.parametrize("terms", [4, 6, 8, 10, 12])
    def test_lp_check_prints_the_certified_value(self, capsys, terms):
        code, p, _ = run_cli(["verify-bounds", "--lp-check", "--terms", str(terms)], capsys)
        assert code == 0
        certificate = p["certificate"]
        assert certificate["closed"] is True
        assert certificate["largest_profit"] == 0.0
        assert certificate["duals"] == [2.0] * terms + [2.0 * (terms - 2), 0.0]
        assert p["lp_value"] == p["best_value"] == certificate["dual_value"] == terms - 1

    def test_outcomes_only_runs_to_42_terms(self, capsys):
        code, p, _ = run_cli(
            ["verify-bounds", "--model-class", "outcomes-only", "--terms", "42"], capsys
        )
        assert code == 0
        assert (p["method"], p["best_value"]) == ("closed-form", 42.0)

    @pytest.mark.parametrize(
        "model_class", ["plain-local-realism", "path-realism", "emission-time-realism",
                        "outcomes-only"],
    )
    def test_default_report_does_not_depend_on_the_seed(self, capsys, model_class):
        outs = []
        for seed in ("0", "7", "0"):
            argv = ["verify-bounds", "--model-class", model_class, "--terms", "6",
                    "--seed", seed, "--witness"]
            assert main(argv) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] == outs[2]

    @pytest.mark.parametrize(
        "flags",
        [["--restarts", "2"], ["--iterations", "5"], ["--config", "CONFIG"]],
        ids=["restarts", "iterations", "config-restarts"],
    )
    def test_search_runs_on_request(self, tmp_path, capsys, flags):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"restarts": 2}))
        argv = ["verify-bounds", "--model-class", "outcomes-only", "--seed", "3"]
        argv += [str(config) if f == "CONFIG" else f for f in flags]
        code, p, _ = run_cli(argv, capsys)
        assert code == 0
        assert p["method"] == "closed-form"
        assert p["search"]["method"] == "successive-lp"
        assert p["search"]["best_value"] == pytest.approx(4.0, abs=1e-9)
        expected = {"--restarts": 2, "--config": 2}.get(flags[0], 48)
        assert p["search"]["restarts"] == expected

    @pytest.mark.parametrize("flags", [["--restarts", "1"], ["--iterations", "5"]],
                             ids=["restarts", "iterations"])
    @pytest.mark.parametrize("model_class", ["plain-local-realism", "path-realism"])
    def test_search_outside_the_searched_games_is_an_error(self, capsys, model_class, flags):
        code, p, err = run_cli(["verify-bounds", "--model-class", model_class, *flags], capsys)
        assert code == 2
        assert p is None
        assert "the search applies to the emission-time and outcomes-only games" in err

    @pytest.mark.parametrize(
        "flag, field",
        [("--restarts", "restarts"), ("--iterations", "iterations"), ("--seed", "seed")],
    )
    def test_budget_below_one_is_a_clean_error(self, capsys, flag, field):
        # the seed's floor is 0, the counts' floor 1
        least = 0 if field == "seed" else 1
        code, p, err = run_cli(["verify-bounds", flag, str(least - 3)], capsys)
        assert code == 2
        assert p is None
        assert f"{field} must be at least {least}" in err
        assert "Traceback" not in err

    def test_efficiency_class_is_rejected(self, capsys):
        # analytic bounds have no finite game to search
        with pytest.raises(SystemExit) as exc:
            main(["verify-bounds", "--model-class", "inefficiency"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("model_class", ["outcomes-only", "plain-local-realism"])
    @pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
    def test_lp_check_outside_emission_time_is_an_error(
        self, tmp_path, capsys, model_class, via_config
    ):
        argv = ["verify-bounds", "--model-class", model_class, "--restarts", "1"]
        if via_config:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"lp-check": True}))
            argv += ["--config", str(cfg)]
        else:
            argv.append("--lp-check")
        code, p, err = run_cli(argv, capsys)
        assert code == 2
        assert p is None
        assert "emission-time game" in err

    def test_outcomes_only_search_is_successive_lp(self, capsys):
        code, p, _ = run_cli(
            ["verify-bounds", "--model-class", "outcomes-only", "--restarts", "4",
             "--seed", "1", "--witness"],
            capsys,
        )
        assert code == 0
        assert p["method"] == "closed-form"
        assert p["best_value"] == 4.0
        assert len(p["witness"]["vertices"]) == 2
        assert p["search"]["method"] == "successive-lp"
        assert p["search"]["best_value"] == pytest.approx(4.0, abs=1e-9)

    @pytest.mark.parametrize(
        "flags,digest",
        [
            (["--model-class", "plain-local-realism", "--terms", "4"],
             "03ee98213790e89e212a317c6c678018058ccd2e4c9234dfc502909463ee6fbb"),
            (["--model-class", "plain-local-realism", "--terms", "6"],
             "33d9a561c888da68ff5010cf9909bc7d7b58af8c1d8ea8612574aa6c99d5ef94"),
            (["--model-class", "path-realism", "--terms", "4"],
             "cc749e6ea85bf429c7472ee3c420e72e618709457da6f1f405c09b8e3878cd3d"),
            (["--model-class", "path-realism", "--terms", "6"],
             "820dca02cedaef88fba69669d83bf6716739ae6aa212972f7465a35bf37d70ab"),
            (["--model-class", "emission-time-realism", "--terms", "4"],
             "22a59bea308c0a36281901fd12e5f9195666cfea2522be95e36836369b546263"),
            (["--model-class", "emission-time-realism", "--terms", "6"],
             "0cedb6bc344614fcaa7b120b4c2e8c57c91ec8fba60d58c9c3d8accce4ee4c48"),
            (["--model-class", "outcomes-only", "--terms", "4"],
             "0c0d22c881b5fd709f1ddd56749d4414db70644c7795b3464005f86acf2bdf9e"),
            (["--model-class", "outcomes-only", "--terms", "6"],
             "5cf131890065e4df7359add72ccd30e895993f9f039348f6d8c5248404a99c84"),
            (["--lp-check", "--terms", "6"],
             "7c07c8e7d6bc1072e5b83d9938d62a5ee2a97fc62a171fe0cd4e9a27316a2f70"),
        ],
    )
    def test_witness_reports_are_pinned(self, flags, digest, capsys):
        # SHA-256 of the whole report: a leaner game solver must print the
        # same bytes, down to the last digit of every witness weight
        assert main(["verify-bounds", *flags, "--witness"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestGeometry:
    def test_satisfied_premise(self, capsys):
        code, p, _ = run_cli(
            [
                "geometry",
                "--path-difference-ns",
                "100",
                "--modulator-to-detector-ns",
                "20",
                "--switch-period-ns",
                "50",
            ],
            capsys,
        )
        assert code == 0
        assert p["premise"]["satisfied"] is True
        assert p["premise"]["margin_ns"] == pytest.approx(30.0)
        assert [e["label"] for e in p["timeline"]] == [
            "early_setting_readoff",
            "early_detection",
            "late_setting_readoff",
            "late_detection",
        ]

    def test_violated_premise(self, capsys):
        code, p, _ = run_cli(
            [
                "geometry",
                "--path-difference-ns",
                "10",
                "--modulator-to-detector-ns",
                "20",
                "--switch-period-ns",
                "1",
            ],
            capsys,
        )
        assert code == 0
        assert p["premise"]["satisfied"] is False
        assert p["premise"]["margin_ns"] == pytest.approx(-11.0)

    def test_invalid_geometry_is_a_config_error(self, capsys):
        code, p, err = run_cli(
            [
                "geometry",
                "--path-difference-ns",
                "-5",
                "--modulator-to-detector-ns",
                "20",
                "--switch-period-ns",
                "1",
            ],
            capsys,
        )
        assert code == 2
        assert p is None
        assert "error" in err


# simulate's route selectors, and options each given alone after one
_ROUTE_SELECTORS = {
    "quantum": [],
    "aklz": ["--source", "aklz"],
    "aklz-demo": ["--scenario", "aklz-demo"],
    "chained6": ["--scenario", "chained6"],
    "table1": ["--scenario", "table1"],
    "variant": ["--variant", "cross-coupled"],
}
_ROUTE_OPTIONS = {
    "variant-franson": ["--variant", "franson"],
    "variant-other": ["--variant", "switched-mirrors"],
    "source-quantum": ["--source", "quantum"],
    "source-aklz": ["--source", "aklz"],
    "events-csv": ["--events-csv", "EVENTS"],
    "pipeline": ["--pipeline"],
    "terms": ["--terms", "4"],
    "visibility": ["--visibility", "1"],
    "trials": ["--trials", "64"],
    "seed-0": ["--seed", "0"],
    "visibility-0": ["--visibility", "0"],
    "path-difference-ns": ["--path-difference-ns", "100"],
    "window-ns": ["--window-ns", "1"],
    "short-arm-ns": ["--short-arm-ns", "10"],
    "emission-gap-ns": ["--emission-gap-ns", "1000"],
}
_ROUTE_MATRIX = """
                    quantum  aklz  aklz-demo  chained6  table1  variant
variant-franson        .      .       .          .        .       .
variant-other          .      s       x          x        x       .
source-quantum         .      .       x          .        x       .
source-aklz            .      .       .          x        x       x
events-csv             .      .       .          x        x       x
pipeline               .      .       .          .        x       x
terms                  .      .       x          x        x       .
visibility             .      .       .          x        x       .
trials                 .      .       .          .        x       .
seed-0                 .      .       .          .        x       .
visibility-0           .      x       x          x        x       .
path-difference-ns     .      .       .          .        x       x
window-ns              .      .       .          .        x       x
short-arm-ns           .      .       .          .        x       x
emission-gap-ns        .      .       .          .        x       x
"""


class TestSimulate:
    def test_quantum_distribution_level(self, capsys):
        code, p, _ = run_cli(
            ["simulate", "--terms", "4", "--trials", "20000", "--seed", "7"], capsys
        )
        assert code == 0
        assert p["command"] == "simulate"
        assert p["source"] == "quantum"
        assert p["quantum_value"] == pytest.approx(2 * SQRT2)
        assert p["statistic"] == pytest.approx(2 * SQRT2, abs=0.1)
        assert p["coincidence_fraction"] == pytest.approx(0.5, abs=0.02)
        # measured by the timing pipeline: half the clicks are coincident
        assert p["efficiency"]["eta"] == pytest.approx(0.5, abs=0.03)
        verdicts = {v["model"]["kind"]: v for v in p["verdicts"]}
        assert verdicts["plain-local-realism"]["violated"] is True
        assert verdicts["emission-time-realism"]["violated"] is False
        assert verdicts["outcomes-only"]["violated"] is False

    @pytest.mark.parametrize("terms", [4, 6])
    def test_verdicts_list_path_realism_last(self, capsys, terms):
        code, p, _ = run_cli(
            ["simulate", "--terms", str(terms), "--trials", "2000", "--seed", "1"], capsys
        )
        assert code == 0
        kinds = [v["model"]["kind"] for v in p["verdicts"]]
        assert kinds == ["emission-time-realism", "plain-local-realism", "outcomes-only",
                         "path-realism"]
        assert p["verdicts"][-1]["bound"] == terms - 2

    @pytest.mark.parametrize(
        "seed,digest",
        [
            (1, "7587ea88a6eb022774adb7fd24d53e64a98e5ccdabf5983685feaaa4de0a0b90"),
            (2, "4d8af6d336cacb3dca87f4f14083acc4968411c57aba1906e1d34539f138ec13"),
            (3, "c99b5192d157edbb4fae124eb1cc1bdaba3713d4a642cad751e00c65c2474f13"),
        ],
    )
    def test_delay_model_reports_are_pinned(self, seed, digest, capsys):
        # SHA-256 of the whole report: a faster sampler or pipeline must
        # print the same bytes, down to the last digit of every count
        argv = ["simulate", "--source", "aklz", "--trials", "50000", "--seed", str(seed)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "trials,digest",
        [
            (65535, "68ebf0e118d2ae41a8cbee63993f400403cd49a661bbdf236abbf3b2a5212cca"),
            (65537, "69ebfcb6a57b32f8b0c9e3114bd8292ad28e481aa09c5011a54394b291247199"),
            (200000, "676247984182f5300b6c6dde97a8115c22f59978dfd4d476a47ab872e799b91f"),
        ],
    )
    def test_delay_model_reports_over_several_chunks_are_pinned(self, trials, digest, capsys):
        # one trial short of and one past 2^16 trials a pair, and 200,000:
        # pinned with 2^18-trial chunks, so each chunk boundary of the
        # default size changes no byte
        argv = ["simulate", "--source", "aklz", "--trials", str(trials), "--seed", "1"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_delay_model_events_csv_is_pinned(self, tmp_path, capsys):
        events = tmp_path / "events.csv"
        argv = ["simulate", "--source", "aklz", "--trials", "100000", "--seed", "1",
                "--events-csv", str(events)]
        assert main(argv) == 0
        capsys.readouterr()
        digest = hashlib.sha256(events.read_bytes()).hexdigest()
        assert digest == "d03114297db08654c9f179cfbe4fcb2b8e7b19ceeee479c38802512ec9338171"

    def test_delay_model_run_holds_a_few_chunks_of_arrays(self, capsys):
        # the arrays a run allocates on both threads (numpy reports them to
        # tracemalloc) peak at a few chunks' worth: about 14 MB with 2^16
        # trials a chunk, and about 39 MB with 2^18
        peak = traced_peak(["simulate", "--source", "aklz", "--trials", "400000"], capsys)
        assert peak < 20e6

    def test_events_csv_round_trip_holds_its_rows_once(self, tmp_path, capsys):
        # 800,000 rows of 26 bytes as EventColumns, and bounded blocks beside
        # them: simulate's chunks and writer blocks, report's parsed lines
        # and postselected blocks (about 29 and 23 MB; 75 and 55 MB when each
        # held whole-file copies)
        events = str(tmp_path / "events.csv")
        rows = 4 * 2 * 100_000
        argv = ["simulate", "--source", "aklz", "--trials", "100000", "--events-csv", events]
        assert traced_peak(argv, capsys) <= 40 * rows
        assert len(read_events_csv(events)) == rows
        assert traced_peak(["report", "--events", events], capsys) <= 40 * rows

    def test_an_odd_field_is_parsed_with_its_block_only(self, tmp_path, capsys):
        # int() takes 0_0, np.loadtxt does not: only the block holding it is
        # parsed row by row, so the report and the memory bound are the
        # unedited file's (a row-by-row parse of the whole file holds a
        # tuple of five Python objects per row)
        events, odd = tmp_path / "events.csv", tmp_path / "odd.csv"
        trials = 25_000
        argv = ["simulate", "--source", "aklz", "--trials", str(trials), "--events-csv"]
        assert main(argv + [str(events)]) == 0
        header, first, rest = events.read_bytes().split(b"\r\n", 2)
        site, trial, *fields = first.split(b",")
        assert trial == b"0"
        odd.write_bytes(b"\r\n".join([header, b",".join([site, b"0_0", *fields]), rest]))
        reports = []
        for path in (events, odd):
            out = tmp_path / f"{path.stem}.json"
            argv = ["report", "--events", str(path), "--out", str(out)]
            assert traced_peak(argv, capsys) <= 40 * 4 * 2 * trials
            reports.append(json.loads(out.read_text()))
            assert reports[-1].pop("events") == str(path)
        assert reports[0] == reports[1]

    @pytest.mark.parametrize(
        "seed,digests",
        [
            (1, ("b7ae6686bf1ef641c83f4ff91a60b7059e7087170fcfdc100ffca837e07a1d21",
                 "6404e1c88893583654a2f043a0a38d2e8465c0a6197232ed0fd5355c46b4de90",
                 "182eac9e2bc33123b328e1aa9b9e99430f5dd17b04ed97cf881d381978a5f179")),
            (2, ("8eacf52c51a1cc4f266e813ed04bcca9397693330c9825c7558ebc239ce9f705",
                 "9963f3a04e42a50d98b31ea04f2a9c20991d942c3d55a321d8e907eb8ab9ae5c",
                 "e566c2984cec3dca88a0e952c8981a6526249dda5b7de0384e424bc3d3e29db0")),
            # the run and file of the events_roundtrip benchmark workload
            (4, ("73ba09f572df25a2c89349f9cec1c17421b36a8f8a8c17b4acd22dc9b6e08fb0",
                 "e8061883f5d821b38582d4eec305b816af08ba3735f412b06501efc80584ce0f",
                 "a7e21925318636d9c9cf72cfac0d8dff4a9fd0888095d8afad418040b325f266")),
        ],
    )
    def test_quantum_events_and_their_report_are_pinned(
        self, tmp_path, monkeypatch, capsys, seed, digests
    ):
        # SHA-256 of the quantum source's report, of the CSV it writes and
        # of the report command's analysis of that CSV; the printed path is
        # relative, so the bytes do not depend on where the test runs
        monkeypatch.chdir(tmp_path)
        argv = ["simulate", "--terms", "6", "--visibility", "0.99", "--trials", "10000",
                "--seed", str(seed), "--events-csv", "events.csv"]
        assert main(argv) == 0
        simulated = capsys.readouterr().out
        assert main(["report", "--events", "events.csv", "--terms", "6"]) == 0
        reported = capsys.readouterr().out
        texts = (simulated.encode(), (tmp_path / "events.csv").read_bytes(), reported.encode())
        assert tuple(hashlib.sha256(t).hexdigest() for t in texts) == digests

    def test_reruns_are_byte_identical(self, capsys):
        argv = ["simulate", "--terms", "4", "--trials", "3000", "--seed", "11"]
        code1 = main(argv)
        out1 = capsys.readouterr().out
        code2 = main(argv)
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0
        assert out1 == out2

    @pytest.mark.parametrize("trials", [1000, 65537, 200_000])
    @pytest.mark.parametrize("visibility", [1.0, 0.9])
    @pytest.mark.parametrize("terms", [4, 6])
    def test_the_pipeline_counts_what_the_setup_draws(self, capsys, terms, visibility, trials):
        # simulate_setup is the referee: the same draws on the same
        # substreams, and a coincidence wherever both photons took equal arms
        argv = ["simulate", "--terms", str(terms), "--visibility", str(visibility),
                "--trials", str(trials), "--seed", "3"]
        code, p, _ = run_cli(argv, capsys)
        assert code == 0
        chain = chain_settings(terms)
        run = simulate_setup(SetupVariant.FRANSON, chain, visibility, trials,
                             RandomSource(seed=3))
        assert p["statistic"] == chained_statistic(run.table, chain)
        assert p["stderr"] == statistic_stderr(run.table, chain)
        assert p["table"] == run.table.to_json_dict()
        assert p["coincidence_fraction"] == run.coincidence_fraction
        verdicts = [evaluate(run.table, chain, m).to_json_dict() for m in cli._verdict_models()]
        assert p["verdicts"] == json.loads(json.dumps(verdicts))
        assert p["verdicts"][0] == json.loads(json.dumps(run.verdict.to_json_dict()))

    @pytest.mark.parametrize(
        "route", [["--terms", "6", "--visibility", "0.9"], ["--scenario", "chained6"]],
        ids=["quantum", "chained6"],
    )
    def test_the_pipeline_flag_changes_no_byte(self, capsys, route):
        argv = ["simulate", *route, "--trials", "3000", "--seed", "2"]
        outs = []
        for extra in ([], ["--pipeline"]):
            assert main(argv + extra) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_pipeline_reports_efficiency(self, capsys):
        code, p, _ = run_cli(
            ["simulate", "--terms", "4", "--trials", "4000", "--seed", "3", "--pipeline"],
            capsys,
        )
        assert code == 0
        assert p["efficiency"] is not None
        assert p["efficiency"]["eta"] == pytest.approx(0.5, abs=0.03)
        # both chain terms using a setting pool into one row: 2 sites x 2
        assert len(p["efficiency"]["entries"]) == 4
        assert all(e["detected"] == 8000 for e in p["efficiency"]["entries"])

    def test_aklz_source(self, capsys):
        code, p, _ = run_cli(
            ["simulate", "--source", "aklz", "--trials", "20000", "--seed", "2"], capsys
        )
        assert code == 0
        assert p["source"] == "aklz"
        assert p["statistic"] == pytest.approx(2 * SQRT2, abs=0.1)
        assert p["efficiency"]["eta"] == pytest.approx(0.5, abs=0.03)
        verdicts = {v["model"]["kind"]: v for v in p["verdicts"]}
        assert verdicts["plain-local-realism"]["violated"] is True
        assert verdicts["path-realism"]["violated"] is True
        assert verdicts["outcomes-only"]["violated"] is False
        # the site-2 setting at phase 0 prints as 0.0, never as -0.0
        phases = [c["psi_rad"] for c in p["table"]["cells"]]
        phases += [e["setting_rad"] for e in p["efficiency"]["entries"]]
        assert 0.0 in phases
        assert all(math.copysign(1.0, x) == 1.0 for x in phases)

    @pytest.mark.parametrize("terms", [6, 8])
    def test_aklz_source_at_longer_chains(self, capsys, terms):
        # referee: the chained sum of aklz_quadrature's per-cell
        # correlations, which is terms*cos(pi/terms)
        argv = ["simulate", "--source", "aklz", "--terms", str(terms), "--trials", "200000",
                "--seed", "3"]
        code, p, _ = run_cli(argv, capsys)
        assert code == 0
        assert p["terms"] == terms
        chain = chain_settings(terms)
        exact = sum(
            abs(sum(
                sign * aklz_quadrature(chain.site1_settings[i].phase,
                                       chain.site2_settings[j].phase).conditional_correlation
                for i, j, sign in group
            ))
            for group in chain.groups
        )
        assert exact == pytest.approx(terms * math.cos(math.pi / terms), abs=1e-9)
        assert abs(p["statistic"] - exact) < 4 * p["stderr"]
        assert p["efficiency"]["eta"] == pytest.approx(0.5, abs=0.005)
        verdicts = {v["model"]["kind"]: v["violated"] for v in p["verdicts"]}
        assert verdicts == {
            "plain-local-realism": True, "outcomes-only": False, "path-realism": True
        }

    @pytest.mark.parametrize(
        "argv",
        [["--source", "aklz"], ["--pipeline"], [], ["--variant", "cross-coupled"]],
        ids=["aklz", "quantum-pipeline", "quantum", "variant"],
    )
    def test_uncovered_setting_pair_is_a_clean_error(self, argv, capsys):
        # one trial per pair leaves some pair without a coincidence
        code, p, err = run_cli(["simulate", *argv, "--trials", "1", "--seed", "1"], capsys)
        assert code == 2
        assert p is None
        assert err.startswith("error:")
        assert "no coincidences at (phi, psi)" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "route,sampler",
        [([], "sample_franson_events"), (["--source", "aklz"], "simulate_strategy_pairs")],
        ids=["quantum", "aklz"],
    )
    def test_an_uncovered_pair_stops_the_run(self, capsys, monkeypatch, route, sampler):
        # a pair without coincidences is refused once its last chunk is
        # tallied: one chunk a pair here, and the pairs after it are never
        # sampled
        calls, sample = [], getattr(cli, sampler)

        def recorded(*args):
            calls.append(args)
            return sample(*args)

        monkeypatch.setattr(cli, sampler, recorded)
        argv = ["simulate", *route, "--terms", "40", "--trials", "1", "--seed", "1"]
        code, p, err = run_cli(argv, capsys)
        assert (code, p) == (2, None)
        assert 1 <= len(calls) < 40
        chain = chain_settings(40)
        i, j, _ = chain.term_order[len(calls) - 1]
        assert err == (
            "error: events do not cover every setting pair of the 40-term chain: no "
            f"coincidences at (phi, psi) = ({chain.site1_settings[i].phase!r}, "
            f"{chain.site2_settings[j].phase!r})\n"
        )

    def test_a_run_refused_at_its_first_pair_makes_one_substream(self, capsys, monkeypatch):
        # with nothing tabulated, the first pair is refused once its one
        # small chunk is tallied; no later pair's substream is made
        made, substream = [], RandomSource.substream
        monkeypatch.setattr(
            RandomSource, "substream", lambda rs, offset: made.append(offset) or substream(rs, offset)
        )
        monkeypatch.setattr(cli, "correlation_from_pairs", lambda pairs, table: table)
        code, p, err = run_cli(["simulate", "--terms", "1000", "--trials", "10"], capsys)
        assert (code, p) == (2, None)
        assert "no coincidences at (phi, psi)" in err
        assert made == [1]

    @pytest.mark.parametrize("trials", ["-5", "0"])
    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["--source", "aklz"],
            ["--pipeline"],
            ["--variant", "polarization-entangled"],
            ["--scenario", "chained6"],
            ["--scenario", "table1"],
        ],
        ids=["quantum", "aklz", "quantum-pipeline", "variant", "chained6", "table1"],
    )
    def test_trials_below_one_is_rejected_up_front(self, argv, trials, capsys):
        code, p, err = run_cli(["simulate", *argv, "--trials", trials], capsys)
        assert code == 2
        assert p is None
        assert err.startswith("error:")
        assert "--trials" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flags", [["--events-csv", "EVENTS"], ["--pipeline"]],
                             ids=["events-csv", "pipeline"])
    @pytest.mark.parametrize("variant", ["switched-mirrors", "polarization-entangled"])
    def test_variant_rejects_pipeline_flags(self, tmp_path, capsys, variant, flags):
        events = tmp_path / "events.csv"
        argv = ["simulate", "--variant", variant, "--trials", "100"]
        argv += [str(events) if f == "EVENTS" else f for f in flags]
        code, p, err = run_cli(argv, capsys)
        assert code == 2
        assert p is None
        assert err.startswith("error:")
        assert flags[0] in err
        assert not events.exists()

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["--source", "aklz", "--variant", "cross-coupled"], "--source aklz"),
            (["--scenario", "chained6", "--source", "aklz"], "--source aklz"),
            (["--scenario", "table1", "--source", "aklz"], "--source aklz"),
            (["--scenario", "chained6", "--events-csv", "EVENTS"], "--events-csv"),
            (["--scenario", "table1", "--events-csv", "EVENTS"], "--events-csv"),
            (["--scenario", "table1", "--pipeline"], "--pipeline"),
            (["--scenario", "chained6", "--variant", "cross-coupled"], "--variant cross-coupled"),
            (["--scenario", "table1", "--variant", "switched-mirrors"],
             "--variant switched-mirrors"),
            (["--scenario", "aklz-demo", "--variant", "polarization-entangled"],
             "--variant polarization-entangled"),
            # aklz-demo runs 4 terms: a given value is refused even at 4
            (["--scenario", "aklz-demo", "--terms", "4"], "--terms 4"),
            (["--scenario", "aklz-demo", "--terms", "6"], "--terms 6"),
            # chained6 runs 6 terms at its own visibilities: a given value is
            # refused even where it equals a default
            (["--scenario", "chained6", "--terms", "4"], "--terms 4"),
            (["--scenario", "chained6", "--terms", "6"], "--terms 6"),
            (["--scenario", "chained6", "--visibility", "0.5"], "--visibility 0.5"),
            (["--scenario", "chained6", "--visibility", "1"], "--visibility 1.0"),
            (["--scenario", "table1", "--terms", "6"], "--terms 6"),
            (["--scenario", "table1", "--visibility", "1"], "--visibility 1.0"),
            # aklz-demo is the delay-model source
            (["--scenario", "aklz-demo", "--source", "quantum"], "--source quantum"),
            # a variant other than franson runs no timing pipeline
            (["--variant", "switched-mirrors", "--window-ns", "1"],
             "--window-ns 1.0 does not apply to --variant switched-mirrors"),
        ],
        ids=["variant-source", "chained6-source", "table1-source", "chained6-events-csv",
             "table1-events-csv", "table1-pipeline", "chained6-variant",
             "table1-variant", "aklz-demo-variant", "aklz-demo-terms-4", "aklz-demo-terms",
             "chained6-terms-4",
             "chained6-terms-6", "chained6-visibility", "chained6-visibility-1",
             "table1-terms", "table1-visibility", "aklz-demo-quantum", "variant-window"],
    )
    def test_dropped_flags_are_refused(self, tmp_path, capsys, argv, flag):
        events = tmp_path / "events.csv"
        argv = ["simulate", *[str(events) if a == "EVENTS" else a for a in argv]]
        code, p, err = run_cli(argv + ["--trials", "100"], capsys)
        assert code == 2
        assert p is None
        assert err.startswith("error:")
        assert flag in err
        assert not events.exists()

    @pytest.mark.parametrize("route", list(_ROUTE_SELECTORS))
    @pytest.mark.parametrize("option", list(_ROUTE_OPTIONS))
    def test_every_route_against_every_option(self, tmp_path, capsys, route, option):
        # "." runs; "x" is refused naming the option, "s" naming the
        # route's own selector (a variant run has no delay-model source)
        column = _ROUTE_MATRIX.split()[: len(_ROUTE_SELECTORS)].index(route)
        (row,) = [r.split() for r in _ROUTE_MATRIX.splitlines() if r.split()[:1] == [option]]
        expected = row[1 + column]
        events = tmp_path / "events.csv"
        argv = ["simulate", *_ROUTE_SELECTORS[route]]
        if route != "table1":
            argv += ["--trials", "64"]  # every other route reads it
        argv += [str(events) if a == "EVENTS" else a for a in _ROUTE_OPTIONS[option]]
        code, p, err = run_cli(argv, capsys)
        if expected == ".":
            assert (code, err) == (0, "")
            assert p is not None
            return
        named = _ROUTE_OPTIONS[option] if expected == "x" else _ROUTE_SELECTORS[route]
        assert (code, p) == (2, None)
        assert err.startswith(f"error: {named[0]} ")
        if named[0] != "--events-csv":
            assert err.startswith(f"error: {' '.join(named)}")  # 1 prints as 1.0
        assert "does not apply" in err
        assert not events.exists()

    def test_a_refused_events_csv_is_named_with_its_path(self, tmp_path, capsys):
        events = tmp_path / "events.csv"
        argv = ["simulate", "--scenario", "chained6", "--events-csv", str(events)]
        code, p, err = run_cli(argv, capsys)
        assert (code, p) == (2, None)
        assert err == f"error: --events-csv {events} does not apply to --scenario chained6\n"

    @pytest.mark.parametrize(
        "route",
        [["--source", "aklz"], ["--scenario", "aklz-demo"], ["--pipeline"],
         ["--events-csv", "EVENTS"], [], ["--scenario", "chained6"],
         ["--scenario", "chained6", "--pipeline"]],
        ids=["aklz", "aklz-demo", "quantum-pipeline", "quantum-events-csv", "quantum",
             "chained6", "chained6-pipeline"],
    )
    def test_timing_flags_apply_where_the_pipeline_runs(self, tmp_path, capsys, route):
        argv = ["simulate", *[str(tmp_path / "events.csv") if a == "EVENTS" else a
                              for a in route]]
        flags = ["--trials", "200", "--path-difference-ns", "100", "--window-ns", "2",
                 "--short-arm-ns", "10", "--emission-gap-ns", "1000"]
        code, p, _ = run_cli(argv + flags, capsys)
        assert code == 0
        reports = p.get("rows", [p])
        assert all(r["efficiency"]["eta"] > 0 for r in reports)

    @pytest.mark.parametrize("route", [["--terms", "4"], ["--scenario", "chained6"]],
                             ids=["quantum", "chained6"])
    def test_a_window_wider_than_the_path_difference_is_refused(self, capsys, route):
        # the pipeline's own check, no longer a refusal of a dropped flag
        argv = ["simulate", *route, "--window-ns", "500", "--trials", "100"]
        code, p, err = run_cli(argv, capsys)
        assert (code, p, err) == (2, None, "error: window must satisfy 0 < W < path difference\n")

    @pytest.mark.parametrize(
        "flag,value",
        [("--source", "quantum"), ("--terms", "4"), ("--visibility", "1.0"),
         ("--trials", "200000"), ("--seed", "1"), ("--path-difference-ns", "100.0"),
         ("--window-ns", "5.0"), ("--short-arm-ns", "10.0"), ("--emission-gap-ns", "1000.0")],
    )
    @pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
    def test_table1_refuses_every_simulation_flag(self, tmp_path, capsys, flag, value,
                                                  via_config):
        # table1 prints closed forms only, so even a default value is dropped
        argv = ["simulate", "--scenario", "table1"]
        if via_config:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({flag[2:]: value}))
            argv += ["--config", str(cfg)]
        else:
            argv += [flag, value]
        code, p, err = run_cli(argv, capsys)
        assert code == 2
        assert p is None
        assert err == f"error: {flag} {value} does not apply to --scenario table1\n"

    @pytest.mark.parametrize("route", [["--source", "aklz"], ["--scenario", "aklz-demo"]],
                             ids=["aklz", "aklz-demo"])
    @pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
    def test_aklz_rejects_another_visibility(self, tmp_path, capsys, route, via_config):
        argv = ["simulate", *route, "--trials", "2000"]
        cfg = tmp_path / "cfg.json"
        for visibility in (0.5, 1.0):
            if via_config:
                cfg.write_text(json.dumps({"visibility": visibility}))
                extra = ["--config", str(cfg)]
            else:
                extra = ["--visibility", str(visibility)]
            code, p, err = run_cli(argv + extra, capsys)
            if visibility == 1.0:
                # the one visibility the delay model has, and its report states
                assert code == 0
                assert p["visibility"] == 1.0
            else:
                assert code == 2
                assert p is None
                assert err.startswith("error:")
                assert "--visibility 0.5" in err

    @pytest.mark.parametrize("gap", ["inf", "nan", "0", "-5", "200"])
    @pytest.mark.parametrize("route", [["--source", "aklz"], ["--pipeline"]],
                             ids=["aklz", "quantum-pipeline"])
    def test_emission_gap_is_checked_up_front(self, capsys, route, gap):
        argv = ["simulate", *route, "--trials", "200", "--emission-gap-ns", gap]
        code, p, err = run_cli(argv, capsys)
        assert code == 2
        assert p is None
        assert err.startswith("error: --emission-gap-ns")
        assert "twice the path difference" in err

    def test_infinite_emission_gap_prints_no_warning(self):
        run = run_module(["simulate", "--source", "aklz", "--trials", "200",
                          "--emission-gap-ns", "inf"])
        assert run.returncode == 2
        assert run.stdout == ""
        assert run.stderr.startswith("error: --emission-gap-ns")
        assert "Warning" not in run.stderr

    def test_timestamps_too_coarse_for_the_path_difference_are_refused(self, capsys):
        argv = ["simulate", "--source", "aklz", "--trials", "20000", "--seed", "1"]
        # at 1e14 ns per trial the last timestamps are near 8e18 ns, where
        # doubles are 1024 ns apart and swallow the 100 ns path difference
        code, p, err = run_cli(argv + ["--emission-gap-ns", "1e14"], capsys)
        assert code == 2
        assert p is None
        assert err.startswith("error: emission times")
        assert "resolve the path difference" in err
        # at 1e12 ns they are 16 ns apart: the same report as the default gap
        code, coarse, _ = run_cli(argv + ["--emission-gap-ns", "1e12"], capsys)
        assert code == 0
        assert coarse["statistic"] == 2.8320781463132376
        code, default, _ = run_cli(argv, capsys)
        assert code == 0
        assert coarse == default

    def test_chunks_are_refused_and_reported_as_whole_pairs(self, capsys, monkeypatch):
        # the refusal and the report of the test above, with 7 trials a chunk:
        # the schedule is checked per pair, with the whole pair's reach
        argv = ["simulate", "--source", "aklz", "--trials", "20000", "--seed", "1"]
        runs = []
        for chunk in (cli._CHUNK_TRIALS, 7):
            monkeypatch.setattr(cli, "_CHUNK_TRIALS", chunk)
            runs.append([run_cli(argv + ["--emission-gap-ns", gap], capsys)
                         for gap in ("1e14", "1e12")])
        assert runs[1] == runs[0]
        (code, _, err), (coarse_code, coarse, _) = runs[1]
        assert code == 2
        assert err.startswith("error: emission times give timestamps up to 1.9999e+18 ns")
        assert coarse_code == 0
        assert coarse["statistic"] == 2.8320781463132376

    @pytest.mark.parametrize("chunk", [None, 1000])
    def test_a_refused_gap_comes_before_coarse_timestamps(self, capsys, monkeypatch, chunk):
        # gaps of 200.00000001 ns round to 200 ns, twice the path difference,
        # in the second pair's block, whose timestamps are too coarse too
        if chunk:
            monkeypatch.setattr(cli, "_CHUNK_TRIALS", chunk)
        code, p, err = run_cli(
            ["simulate", "--source", "aklz", "--trials", "200000",
             "--window-ns", "99.9999999", "--emission-gap-ns", "200.00000001",
             "--short-arm-ns", "2e8"],
            capsys,
        )
        assert code == 2
        assert p is None
        assert err.startswith("error: emission times must be strictly increasing with gaps")

    @pytest.mark.parametrize("route", [["--source", "aklz"], ["--pipeline"]],
                             ids=["aklz", "quantum-pipeline"])
    def test_overflowing_emission_times_are_refused_up_front(self, capsys, route):
        argv = ["simulate", *route, "--trials", "20000"]
        code, p, err = run_cli(argv + ["--emission-gap-ns", "1e305"], capsys)
        assert code == 2
        assert p is None
        assert err.startswith("error: --emission-gap-ns 1e+305 is too large")
        # the last time, 3*20008*gap + 19999*gap, is finite at 2e303 ns: the
        # timestamps are refused as too coarse instead
        code, p, err = run_cli(argv + ["--emission-gap-ns", "2e303"], capsys)
        assert code == 2
        assert err.startswith("error: emission times give timestamps up to")

    @pytest.mark.parametrize("background", ["threads", "main"])
    @pytest.mark.parametrize("trials", ["0", "1", "3", "300"])
    @pytest.mark.parametrize("route", [["--source", "aklz"], ["--pipeline", "--terms", "6"]],
                             ids=["aklz", "quantum-pipeline-6"])
    def test_chunk_size_changes_no_output(
        self, tmp_path, capsys, monkeypatch, route, trials, background
    ):
        # every chunk sampled on a background thread, or every one on the
        # main thread as chunks this small are by default
        if background == "threads":
            monkeypatch.setattr(cli, "_BACKGROUND_MIN_TRIALS", 1)
        events = tmp_path / "events.csv"
        argv = ["simulate", *route, "--trials", trials, "--seed", "5", "--events-csv", str(events)]
        runs, threads = [], threading.active_count()
        for chunk in (1, 7, 1 << 18, 10**9):
            monkeypatch.setattr(cli, "_CHUNK_TRIALS", chunk)
            code = main(argv)
            out, err = capsys.readouterr()
            runs.append((code, out, err, events.read_bytes() if events.exists() else None))
            events.unlink(missing_ok=True)
        assert all(run == runs[0] for run in runs[1:])
        # no sampler thread outlives a run
        assert threading.active_count() == threads
        if trials == "0":
            assert runs[0][0] == 2
        if trials == "300":
            assert runs[0][0] == 0
            assert runs[0][3].count(b"\n") > 300

    def test_only_large_chunks_are_sampled_in_the_background(self, capsys, monkeypatch):
        sample, on_main, workers = cli.simulate_strategy_pairs, [], set()

        def traced(*args):
            on_main.append(threading.current_thread() is threading.main_thread())
            if not on_main[-1]:
                workers.add(threading.current_thread())
            return sample(*args)

        monkeypatch.setattr(cli, "simulate_strategy_pairs", traced)
        for trials in (cli._BACKGROUND_MIN_TRIALS - 1, cli._BACKGROUND_MIN_TRIALS):
            assert run_cli(["simulate", "--source", "aklz", "--trials", str(trials)], capsys)[0] == 0
        assert on_main == [True] * 4 + [False] * 4
        # the four background chunks of one run share one worker thread
        assert len(workers) == 1

    @pytest.mark.parametrize(
        "route", [["--source", "aklz"], ["--pipeline"]], ids=["aklz", "quantum-pipeline"]
    )
    def test_every_chunk_pairs_trial_by_trial(self, capsys, monkeypatch, route):
        # per pair a full chunk and a small one, each of them separated runs
        separated, rule = [], timing._separated_runs

        def recorded(*args):
            separated.append(rule(*args))
            return separated[-1]

        monkeypatch.setattr(timing, "_separated_runs", recorded)
        trials = cli._CHUNK_TRIALS + 4464
        assert run_cli(["simulate", *route, "--trials", str(trials)], capsys)[0] == 0
        assert separated == [True] * 8

    @pytest.mark.parametrize(
        "route,sampler",
        [
            (["--source", "aklz"], "simulate_strategy_pairs"),
            (["--pipeline"], "sample_franson_events"),
        ],
        ids=["aklz", "quantum-pipeline"],
    )
    def test_the_sampler_runs_at_most_two_chunks_ahead_of_emit(
        self, capsys, monkeypatch, route, sampler
    ):
        # a slow emit lets the worker run as far ahead as it may
        monkeypatch.setattr(cli, "_CHUNK_TRIALS", 100)
        monkeypatch.setattr(cli, "_BACKGROUND_MIN_TRIALS", 100)
        log = []  # "sampling" as each chunk's sampling starts, "emitted" after each emit
        sample, emit = getattr(cli, sampler), cli.emit_events_from_batch

        def sampling(*args):
            log.append("sampling")
            return sample(*args)

        def emitted(*args, **kwargs):
            time.sleep(0.02)
            events = emit(*args, **kwargs)
            log.append("emitted")
            return events

        monkeypatch.setattr(cli, sampler, sampling)
        monkeypatch.setattr(cli, "emit_events_from_batch", emitted)
        assert run_cli(["simulate", *route, "--trials", "300"], capsys)[0] == 0
        # chunk j's sampling starts once emit has finished j - 2 chunks, and
        # with emit this slow some chunk starts as soon as it may
        ahead = [
            log[:at].count("sampling") - log[:at].count("emitted")
            for at, name in enumerate(log)
            if name == "sampling"
        ]
        assert len(ahead) == log.count("emitted") == 12
        assert max(ahead) == 2

    @pytest.mark.parametrize("stage", ["sampler", "postselect"])
    @pytest.mark.parametrize(
        "route,sampler",
        [
            (["--source", "aklz"], "simulate_strategy_pairs"),
            (["--pipeline"], "sample_franson_events"),
        ],
        ids=["aklz", "quantum-pipeline"],
    )
    def test_a_failing_stage_leaves_no_thread_behind(
        self, capsys, monkeypatch, route, sampler, stage
    ):
        # the second chunk's sampling or the second chunk's postselection
        # fails; the chunks after it are handed out two ahead of emit
        monkeypatch.setattr(cli, "_CHUNK_TRIALS", 100)
        monkeypatch.setattr(cli, "_BACKGROUND_MIN_TRIALS", 100)
        calls = []  # (stage, on the main thread)
        analysis_masks = []  # the main thread's CPU mask in each analysis stage

        def traced(name, fn):
            def call(*args, **kwargs):
                calls.append((name, threading.current_thread() is threading.main_thread()))
                if name != "sampler":
                    analysis_masks.append(cpu_mask())
                if name == stage and [n for n, _ in calls].count(name) == 2:
                    raise ValueError(f"{stage} failed")
                if name == "sampler":
                    time.sleep(0.05)
                return fn(*args, **kwargs)

            return call

        for name, attr in [
            ("sampler", sampler),
            ("emit", "emit_events_from_batch"),
            ("postselect", "postselect"),
            ("tabulate", "correlation_from_pairs"),
        ]:
            monkeypatch.setattr(cli, attr, traced(name, getattr(cli, attr)))
        threads, mask = threading.active_count(), cpu_mask()
        code, p, err = run_cli(["simulate", *route, "--trials", "300", "--seed", "1"], capsys)
        assert (code, p, err) == (2, None, f"error: {stage} failed\n")
        assert threading.active_count() == threads
        # the calling thread ran on fewer CPUs, and has them all back
        assert cpu_mask() == mask
        if can_split_cpus():
            assert all(m < mask for m in analysis_masks)
        # sampling runs off the main thread; the analysis runs on it, in order
        assert all(not main for name, main in calls if name == "sampler")
        analysis = [(name, main) for name, main in calls if name != "sampler"]
        expected = ["emit", "postselect", "tabulate"]
        if stage == "postselect":
            expected += ["emit", "postselect"]
        assert analysis == [(name, True) for name in expected]
        # no queued chunk is sampled after the failure: when postselect
        # fails, chunk 2 is being sampled and chunk 3, queued, is cancelled;
        # when chunk 1's sampling fails, chunk 2 may have started, and
        # chunk 3 was never handed out
        sampled = [name for name, _ in calls].count("sampler")
        assert sampled == 3 if stage == "postselect" else sampled in (2, 3)

    def test_variant_comparison(self, capsys):
        code, p, _ = run_cli(
            [
                "simulate",
                "--variant",
                "switched-mirrors",
                "--terms",
                "4",
                "--trials",
                "20000",
                "--seed",
                "4",
            ],
            capsys,
        )
        assert code == 0
        assert p["variant"] == "switched-mirrors"
        assert p["coincidence_fraction"] == 1.0
        assert p["verdict"]["model"]["kind"] == "plain-local-realism"
        assert p["verdict"]["bound"] == 2.0
        assert p["verdict"]["violated"] is True

    def test_table_scenario(self, capsys):
        code, p, _ = run_cli(["simulate", "--scenario", "table1"], capsys)
        assert code == 0
        assert [r["terms"] for r in p["rows"]] == [4, 6, 8, 10, 12]
        assert p["best_terms"] == 10
        by_terms = {r["terms"]: r for r in p["rows"]}
        assert by_terms[6]["quantum_value"] == pytest.approx(6 * math.cos(math.pi / 6))
        assert by_terms[6]["emission_time_bound"] == 5.0

    def test_chained_six_scenario(self, capsys):
        code, p, _ = run_cli(
            ["simulate", "--scenario", "chained6", "--trials", "4000", "--seed", "5"],
            capsys,
        )
        assert code == 0
        assert [r["visibility"] for r in p["rows"]] == [1.0, 0.97, 0.95]
        assert all(r["terms"] == 6 for r in p["rows"])
        # lower visibility scales the statistic down
        stats = [r["statistic"] for r in p["rows"]]
        assert stats[0] > stats[1] > stats[2]


def cpu_mask():
    """The calling thread's CPU mask, or None where it cannot be read."""
    return os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None


def can_split_cpus():
    return hasattr(os, "sched_setaffinity") and len(os.sched_getaffinity(0)) >= 2


# a fresh process on one CPU of its mask, then one command
ONE_CPU_RUN = """
import os, sys
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from franson.cli import main
code = main(sys.argv[1:])
assert len(os.sched_getaffinity(0)) == 1
sys.exit(code)
"""


class TestCpuSplit:
    AKLZ = ["simulate", "--source", "aklz", "--trials", "70000", "--seed", "5"]

    @pytest.mark.skipif(not can_split_cpus(), reason="needs sched_setaffinity and 2 CPUs")
    @pytest.mark.parametrize(
        "route,sampler",
        [
            (["--source", "aklz"], "simulate_strategy_pairs"),
            (["--pipeline"], "sample_franson_events"),
        ],
        ids=["aklz", "quantum-pipeline"],
    )
    def test_the_worker_and_the_calling_thread_run_on_disjoint_cpus(
        self, capsys, monkeypatch, route, sampler
    ):
        masks = {"sampler": [], "postselect": []}  # (on the main thread, mask)

        def recorded(name, fn):
            def call(*args, **kwargs):
                on_main = threading.current_thread() is threading.main_thread()
                masks[name].append((on_main, frozenset(os.sched_getaffinity(0))))
                return fn(*args, **kwargs)

            return call

        monkeypatch.setattr(cli, sampler, recorded("sampler", getattr(cli, sampler)))
        monkeypatch.setattr(cli, "postselect", recorded("postselect", cli.postselect))
        before = os.sched_getaffinity(0)
        # per pair a full chunk for the worker, then a small one on the main thread
        trials = cli._CHUNK_TRIALS + cli._BACKGROUND_MIN_TRIALS - 1
        assert run_cli(["simulate", *route, "--trials", str(trials)], capsys)[0] == 0
        assert os.sched_getaffinity(0) == before
        workers = {m for on_main, m in masks["sampler"] if not on_main}
        assert len(workers) == 1
        (worker,) = workers
        assert len(worker) == 1 and worker < before
        main_masks = [m for on_main, m in masks["sampler"] + masks["postselect"] if on_main]
        assert len(main_masks) == 4 + 8
        assert all(m == before - worker for m in main_masks)

    def test_a_run_of_small_chunks_makes_no_affinity_call(self, capsys, monkeypatch):
        calls = []
        for name in ("sched_getaffinity", "sched_setaffinity"):
            monkeypatch.setattr(
                os, name, lambda *args, name=name: calls.append((name, args)), raising=False
            )
        argv = ["simulate", "--source", "aklz", "--trials", str(cli._BACKGROUND_MIN_TRIALS - 1)]
        assert run_cli(argv, capsys)[0] == 0
        assert calls == []

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs sched_setaffinity")
    @pytest.mark.parametrize("failure", ["raises", "raises-in-worker", "missing"])
    def test_a_failed_split_runs_unpinned_with_the_same_output(
        self, capsys, monkeypatch, failure
    ):
        mask = os.sched_getaffinity(0)
        assert main(self.AKLZ) == 0
        reference = capsys.readouterr().out
        if failure == "missing":
            monkeypatch.delattr(os, "sched_setaffinity")
        else:
            pin = os.sched_setaffinity

            def failing(pid, cpus):
                if failure == "raises" or threading.current_thread() is not threading.main_thread():
                    raise OSError(22, "Invalid argument")
                return pin(pid, cpus)

            monkeypatch.setattr(os, "sched_setaffinity", failing)
        assert main(self.AKLZ) == 0
        assert capsys.readouterr().out == reference
        assert os.sched_getaffinity(0) == mask

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs sched_setaffinity")
    def test_a_process_on_one_cpu_prints_the_same_bytes(self):
        runs = [run_python("-m", "franson", *self.AKLZ),
                run_python("-c", ONE_CPU_RUN, *self.AKLZ)]
        assert [r.returncode for r in runs] == [0, 0], [r.stderr for r in runs]
        assert runs[1].stdout == runs[0].stdout


def on_glibc():
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


# three in-process runs of one command in a fresh process: the minor page
# faults of each and whether all three printed the same bytes
REPEATED_RUNS = """
import contextlib, io, json, resource, sys
from franson.cli import main
faults, outs = [], []
for _ in range(3):
    out = io.StringIO()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with contextlib.redirect_stdout(out):
        assert main(sys.argv[1:]) == 0
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    outs.append(out.getvalue())
print(json.dumps({"faults": faults, "same": len(set(outs)) == 1}))
"""


class FakeLibc:
    """Stands in for ``ctypes.CDLL``: records each load and mallopt call."""

    def __init__(self):
        self.loads, self.calls = [], []

    def __call__(self, name):
        self.loads.append(name)
        return self

    def mallopt(self, param, value):
        self.calls.append((param, value))
        return 1


class TestAllocatorThresholds:
    AKLZ = ["simulate", "--source", "aklz", "--trials", "70000", "--seed", "5"]

    @pytest.fixture
    def fresh_helper(self):
        # the helper runs once per process: forget that it ran, and forget
        # this test's run afterwards, so later runs set the thresholds again
        cli._keep_freed_heap.cache_clear()
        yield
        cli._keep_freed_heap.cache_clear()

    @pytest.mark.skipif(not on_glibc(), reason="the thresholds are set on glibc only")
    def test_a_repeated_run_faults_no_pages_in_again(self):
        # in a fresh process, as a process that already freed a large array
        # has a high dynamic threshold of its own: with glibc's dynamic
        # thresholds every chunk faults its arrays in again (about 8,000
        # faults a run), with the fixed ones a repeated run reuses the heap
        # the first one freed (about 20)
        argv = ["simulate", "--source", "aklz", "--trials", "262144", "--seed", "5"]
        run = run_python("-c", REPEATED_RUNS, *argv)
        assert run.returncode == 0, run.stderr
        result = json.loads(run.stdout)
        assert result["same"]
        assert result["faults"][1] < 1000, result["faults"]

    @pytest.mark.skipif(not on_glibc(), reason="the thresholds are set on glibc only")
    def test_a_repeated_report_faults_no_pages_in_again(self, tmp_path, capsys):
        # the thresholds are fixed before the file is read: set only once
        # it had been read, the second report of this 60,000-trial file
        # took about 3,000 faults, as the file's columns and parse blocks
        # were allocated under glibc's dynamic thresholds
        events = str(tmp_path / "events.csv")
        argv = ["simulate", "--source", "aklz", "--trials", "60000", "--seed", "5"]
        assert main(argv + ["--events-csv", events]) == 0
        capsys.readouterr()
        run = run_python("-c", REPEATED_RUNS, "report", "--events", events)
        assert run.returncode == 0, run.stderr
        result = json.loads(run.stdout)
        assert result["same"]
        assert result["faults"][1] < 1000, result["faults"]

    def test_the_thresholds_are_set_once_per_process(self, fresh_helper, monkeypatch, capsys):
        libc = FakeLibc()
        monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.99")
        monkeypatch.setattr(cli.ctypes, "CDLL", libc)
        for _ in range(2):
            assert main(self.AKLZ) == 0
        assert libc.loads == [None]
        assert libc.calls == [(cli._M_MMAP_THRESHOLD, 32 << 20),
                              (cli._M_TRIM_THRESHOLD, 64 << 20)]
        assert (cli._M_MMAP_THRESHOLD, cli._M_TRIM_THRESHOLD) == (-3, -1)

    def test_elsewhere_than_glibc_nothing_is_loaded(self, fresh_helper, monkeypatch, capsys):
        assert main(self.AKLZ) == 0
        reference = capsys.readouterr().out
        cli._keep_freed_heap.cache_clear()

        def no_confstr(name):
            raise ValueError(f"unrecognized configuration name {name!r}")

        libc = FakeLibc()
        monkeypatch.setattr(os, "confstr", no_confstr)
        monkeypatch.setattr(cli.ctypes, "CDLL", libc)
        assert main(self.AKLZ) == 0
        assert capsys.readouterr().out == reference
        assert libc.loads == libc.calls == []

    def test_both_loops_set_them_before_the_sampler_starts(
        self, tmp_path, monkeypatch, capsys
    ):
        # mallopt is MT-Unsafe: no sampler thread may be running at the call
        samplers_at_call = []
        monkeypatch.setattr(
            cli,
            "_keep_freed_heap",
            lambda: samplers_at_call.append(
                sum(t.name.startswith("franson-sampler") for t in threading.enumerate())
            ),
        )
        events = str(tmp_path / "events.csv")
        assert main(self.AKLZ + ["--events-csv", events]) == 0
        assert main(["report", "--events", events]) == 0
        capsys.readouterr()
        assert samplers_at_call == [0, 0]


class TestEventsRoundtrip:
    def test_report_matches_simulation(self, tmp_path, capsys):
        csv = str(tmp_path / "events.csv")
        code, sim, _ = run_cli(
            [
                "simulate",
                "--terms",
                "4",
                "--trials",
                "4000",
                "--seed",
                "3",
                "--events-csv",
                csv,
            ],
            capsys,
        )
        assert code == 0
        code, rep, _ = run_cli(["report", "--events", csv, "--terms", "4"], capsys)
        assert code == 0
        # re-analyzing the merged event file reproduces the run exactly
        assert rep["statistic"] == pytest.approx(sim["statistic"], abs=1e-12)
        assert rep["efficiency"]["eta"] == pytest.approx(
            sim["efficiency"]["eta"], abs=1e-12
        )
        assert rep["table"] == sim["table"]
        verdicts = {v["model"]["kind"]: v for v in rep["verdicts"]}
        assert verdicts["plain-local-realism"]["violated"] is True

    @pytest.mark.parametrize(
        "source", [["--source", "aklz"], ["--terms", "6", "--visibility", "0.99"]],
        ids=["aklz", "quantum"],
    )
    def test_events_csv_is_in_time_order(self, tmp_path, capsys, source):
        csv = str(tmp_path / "events.csv")
        trials = 2000
        code, _, _ = run_cli(
            ["simulate", *source, "--trials", str(trials), "--seed", "5", "--events-csv", csv],
            capsys,
        )
        assert code == 0
        events = read_events_csv(csv)
        ts, site, trial = events["timestamp_ns"], events["site"], events["trial"]
        step = np.diff(ts)
        assert np.all(step >= 0)
        # equal timestamps are coincident pairs, site 1's event first
        tie = np.flatnonzero(step == 0)
        assert tie.size > trials
        assert np.all(site[tie] == 1) and np.all(site[tie + 1] == 2)
        # each setting pair's block starts (trials + 8) default gaps of
        # 1000 ns after the last; trials increase within a block and site
        block = ts // ((trials + 8) * 1000.0)
        for s in (1, 2):
            mine = site == s
            same_block = block[mine][1:] == block[mine][:-1]
            assert np.all(np.diff(trial[mine])[same_block] > 0)
            assert np.count_nonzero(~same_block) == len(set(block.tolist())) - 1

    @pytest.mark.parametrize("kind", ["missing-directory", "directory"])
    def test_an_unwritable_events_csv_is_refused_before_the_run(
        self, tmp_path, capsys, monkeypatch, kind
    ):
        path = tmp_path / "missing" / "events.csv" if kind == "missing-directory" else tmp_path
        with pytest.raises(OSError) as refused:
            open(path, "w")

        def no_run(*args):
            raise AssertionError("the run started")

        monkeypatch.setattr(cli, "_pipeline_tables", no_run)
        argv = ["simulate", "--source", "aklz", "--trials", "1000", "--events-csv", str(path)]
        assert run_cli(argv, capsys) == (2, None, f"error: {refused.value}\n")

    @pytest.mark.parametrize("before", [None, b"kept\r\n"], ids=["new", "existing"])
    def test_a_refused_run_leaves_the_events_csv_path_as_it_was(
        self, tmp_path, capsys, monkeypatch, before
    ):
        # with nothing tabulated, the first setting pair is refused
        path = tmp_path / "events.csv"
        if before is not None:
            path.write_bytes(before)
        monkeypatch.setattr(cli, "correlation_from_pairs", lambda pairs, table: table)
        argv = ["simulate", "--trials", "10", "--events-csv", str(path)]
        code, p, err = run_cli(argv, capsys)
        assert (code, p) == (2, None)
        assert "no coincidences at (phi, psi)" in err
        assert (path.read_bytes() if path.exists() else None) == before

    def test_a_failed_allocation_exits_with_resource_code(self, tmp_path, capsys, monkeypatch):
        # raised, not allocated: a host that overcommits memory grants 7 TiB
        def fail(cls, size):
            raise MemoryError(f"Unable to allocate {size} rows")

        monkeypatch.setattr(EventColumns, "empty", classmethod(fail))
        path = tmp_path / "events.csv"
        argv = ["simulate", "--trials", "1000000000000", "--seed", "1", "--events-csv", str(path)]
        code, p, err = run_cli(argv, capsys)
        assert (code, p) == (3, None)
        assert err == "resource limit: Unable to allocate 8000000000000 rows\n"
        assert not path.exists()

    def test_wrong_terms_is_detected(self, tmp_path, capsys):
        csv = str(tmp_path / "events.csv")
        run_cli(
            ["simulate", "--terms", "4", "--trials", "1000", "--seed", "3",
             "--events-csv", csv],
            capsys,
        )
        code, p, err = run_cli(["report", "--events", csv, "--terms", "6"], capsys)
        assert code == 2
        assert "setting pair" in err

    @pytest.mark.parametrize(
        "row,shown",
        [("2,0,10.0,5,0.0", "outcome=5"), ("3,0,10.0,1,0.0", "site=3"),
         ("", "expected 5 fields, got 0")],
        ids=["outcome-5", "site-3", "blank-line"],
    )
    def test_bad_event_row_is_named(self, tmp_path, capsys, row, shown):
        csv = tmp_path / "events.csv"
        csv.write_text(
            "site,trial,timestamp_ns,outcome,setting_rad\n"
            f"1,0,10.0,1,0.5\n{row}\n1,1,2010.0,1,0.5\n"
        )
        code, p, err = run_cli(["report", "--events", str(csv)], capsys)
        assert code == 2
        assert p is None
        assert err.startswith("error:")
        assert "line 3" in err
        assert shown in err
        assert "correlation estimate" not in err

    @pytest.mark.parametrize("model_class", [None, "emission-time-realism"])
    @pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
    def test_unused_eta_is_an_error(self, tmp_path, capsys, model_class, via_config):
        csv = str(tmp_path / "events.csv")
        run_cli(
            ["simulate", "--trials", "200", "--seed", "1", "--events-csv", csv], capsys
        )
        argv = ["report", "--events", csv]
        if model_class:
            argv += ["--model-class", model_class]
        if via_config:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"eta": 0.5}))
            argv += ["--config", str(cfg)]
        else:
            argv += ["--eta", "0.5"]
        code, p, err = run_cli(argv, capsys)
        assert code == 2
        assert p is None
        assert "--eta" in err

    def test_missing_events_file(self, tmp_path, capsys):
        code, p, err = run_cli(
            ["report", "--events", str(tmp_path / "nope.csv")], capsys
        )
        assert code == 2

    @pytest.mark.parametrize(
        "flags,shown",
        [
            (["--terms", "5"], "terms must be an even number >= 4, got 5"),
            (["--window-ns", "0"], "window must satisfy 0 < W < path difference"),
            (["--path-difference-ns", "-1"], "path difference must be positive and finite"),
            (["--short-arm-ns", "nan"], "short arm delay must be nonnegative and finite"),
            (["--eta", "0.9"], "--eta needs --model-class inefficiency or delays"),
            (["--model-class", "inefficiency"], "inefficiency requires --eta"),
        ],
        ids=["terms", "window", "path-difference", "short-arm", "eta", "model-class"],
    )
    def test_a_bad_flag_is_refused_before_the_file_is_read(
        self, tmp_path, capsys, monkeypatch, flags, shown
    ):
        def read(path):
            raise AssertionError(f"{path} was read")

        monkeypatch.setattr(cli, "read_events_csv", read)
        code, p, err = run_cli(["report", "--events", str(tmp_path / "events.csv"), *flags], capsys)
        assert (code, p, err) == (2, None, f"error: {shown}\n")


W = 1.0
BLOCK_TIMING = InterferometerTiming(path_difference_ns=100.0, window_ns=W)
# a setting, its other zero, and the largest double below 2*pi, which
# reduces to the same setting key
BLOCK_PHASES = (0.0, -0.0, math.nextafter(2 * math.pi, 0), math.pi / 4, 0.3)
# time steps between rows: ties, a window's width and one ulp less, and gaps
# inside and beyond the window
BLOCK_STEPS = (0.0, W, math.nextafter(W, 0), 0.25, 0.5, 3.0)


def whole_stream_outcome(events):
    """One postselect of every row and its table, as report printed them
    before it postselected in blocks; or ("raises", the message)."""
    try:
        result = postselect(events, BLOCK_TIMING)
    except ValueError as exc:
        return "raises", str(exc)
    table = correlation_from_pairs(result.pairs)
    return (result.coincidences, json.dumps(table.to_json_dict()),
            json.dumps(result.report.to_json_dict()))


def blockwise_outcome(events):
    try:
        tally = cli._postselect_blocks(events, BLOCK_TIMING)
    except ValueError as exc:
        return "raises", str(exc)
    return (tally.coincidences, json.dumps(tally.table.to_json_dict()),
            json.dumps(tally.efficiency().to_json_dict()))


@st.composite
def timed_rows(draw):
    """Events at the running sum of the steps, in time order unless shuffled."""
    rows = draw(st.lists(
        st.tuples(st.sampled_from((1, 2)), st.sampled_from(BLOCK_STEPS),
                  st.sampled_from((-1, 1)), st.sampled_from(BLOCK_PHASES)),
        max_size=24,
    ))
    times = np.cumsum([step for _, step, _, _ in rows])
    order = list(range(len(rows)))
    if draw(st.booleans()):
        order = draw(st.permutations(order))
    return EventColumns(
        site=[rows[k][0] for k in order],
        trial=order,
        timestamp_ns=times[order] if rows else [],
        outcome=[rows[k][2] for k in order],
        setting_rad=[rows[k][3] for k in order],
    )


class TestBlockwiseReport:
    """report postselects rows in time order block by block; the blocks must
    add up to one postselection of the whole stream."""

    @settings(max_examples=400, deadline=None)
    @given(events=timed_rows(), block=st.integers(1, 4))
    @example(events=EventColumns([1, 2], [0, 1], [0.0, math.nextafter(W, 0)], [1, 1], [0.0, 0.0]),
             block=1)
    @example(events=EventColumns([1, 2], [0, 1], [0.0, W], [1, 1], [0.0, 0.0]), block=1)
    @example(events=EventColumns([1, 2, 1], [0, 1, 2], [0.0, 0.25, 0.5], [1, 1, -1],
                                 [0.0, 0.0, 0.0]), block=1)
    @example(events=EventColumns([], [], [], [], []), block=1)
    def test_blocks_add_up_to_the_whole_stream(self, events, block):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "_REPORT_BLOCK_ROWS", block)
            assert blockwise_outcome(events) == whole_stream_outcome(events)

    def test_labels_and_order_come_from_the_first_block(self, monkeypatch):
        # the same cell and setting keys under other bits in later blocks
        monkeypatch.setattr(cli, "_REPORT_BLOCK_ROWS", 2)
        twopi = math.nextafter(2 * math.pi, 0)
        events = EventColumns(
            site=[1, 2, 1, 2, 1, 2],
            trial=[0, 0, 1, 1, 2, 2],
            timestamp_ns=[0.0, 0.5, 10.0, 10.0, 20.0, 20.25],
            outcome=[1, 1, -1, 1, 1, 1],
            setting_rad=[0.0, 0.3, -0.0, 0.3, twopi, 0.3],
        )
        got = blockwise_outcome(events)
        assert got == whole_stream_outcome(events)
        table = json.loads(got[1])
        assert [(c["phi_rad"], c["count"]) for c in table["cells"]] == [(0.0, 3)]
        assert json.dumps(table["cells"][0]["phi_rad"]) == "0.0"

    def test_each_block_is_postselected_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "postselect", lambda ev, t: calls.append(len(ev)) or
                            postselect(ev, t))
        monkeypatch.setattr(cli, "_REPORT_BLOCK_ROWS", 2)
        times = [0.0, 0.5, 0.9, 3.9, 3.9, 6.9, 7.15, 7.4, 7.65]
        n = len(times)
        ordered = EventColumns([1, 2, 2, 2, 1, 1, 2, 2, 2], range(n), times, [1] * n, [0.0] * n)
        cli._postselect_blocks(ordered, BLOCK_TIMING)
        # a block ends at the first gap of a window or more after 2 rows
        assert calls == [3, 2, 4]
        calls.clear()
        cli._postselect_blocks(ordered.take(np.arange(n)[::-1]), BLOCK_TIMING)
        assert calls == [n]

    @pytest.mark.parametrize("route", [["--source", "aklz"], ["--terms", "6"]],
                             ids=["aklz", "quantum-6"])
    def test_block_size_changes_no_report(self, tmp_path, capsys, monkeypatch, route):
        events = str(tmp_path / "events.csv")
        argv = ["simulate", *route, "--trials", "300", "--seed", "4", "--events-csv", events]
        assert run_cli(argv, capsys)[0] == 0
        terms = route[1] if route[0] == "--terms" else "4"
        runs = []
        for block in (cli._REPORT_BLOCK_ROWS, 1, 5, 64):
            monkeypatch.setattr(cli, "_REPORT_BLOCK_ROWS", block)
            runs.append(run_cli(["report", "--events", events, "--terms", terms], capsys))
        assert runs[0][0] == 0
        assert all(run == runs[0] for run in runs[1:])

    @pytest.mark.parametrize(
        "content,shown",
        [(b"", "unexpected CSV header: None"),
         (b"site,trial,timestamp_ns,outcome,setting_rad\r\n", "events do not cover")],
        ids=["empty", "header-only"],
    )
    def test_files_without_rows(self, tmp_path, capsys, monkeypatch, content, shown):
        path = tmp_path / "events.csv"
        path.write_bytes(content)
        monkeypatch.setattr(cli, "_REPORT_BLOCK_ROWS", 1)
        code, p, err = run_cli(["report", "--events", str(path)], capsys)
        assert (code, p) == (2, None)
        assert shown in err


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"terms": 6}))
        code, p, _ = run_cli(["bounds", "--config", str(cfg)], capsys)
        assert code == 0
        assert p["terms"] == 6

    def test_explicit_flag_wins(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"terms": 6}))
        code, p, _ = run_cli(["bounds", "--config", str(cfg), "--terms", "4"], capsys)
        assert code == 0
        assert p["terms"] == 4

    def test_config_can_enable_flags(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"pipeline": True, "trials": 2000, "seed": 9}))
        code, p, _ = run_cli(["simulate", "--config", str(cfg)], capsys)
        assert code == 0
        assert p["efficiency"] is not None

    def test_unknown_key_is_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"no_such_option": 1}))
        code, p, err = run_cli(["bounds", "--config", str(cfg)], capsys)
        assert code == 2
        assert "unknown config key" in err

    def test_malformed_json_is_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        code, p, err = run_cli(["bounds", "--config", str(cfg)], capsys)
        assert code == 2

    def test_non_object_config_is_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps([1, 2]))
        code, p, err = run_cli(["bounds", "--config", str(cfg)], capsys)
        assert code == 2
        assert "JSON object" in err

    def test_config_injected_bad_scenario(self, tmp_path, capsys):
        # scenario names typed on the command line are vetted by argparse;
        # a config value goes through the same choices check
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": "bogus"}))
        code, p, err = run_cli(["simulate", "--config", str(cfg)], capsys)
        assert code == 2
        assert "unknown scenario" in err


    @pytest.mark.parametrize(
        "command, config, shown",
        [
            ("bounds", {"terms": 4.7}, "'terms': invalid int value 4.7"),
            ("bounds", {"terms": True}, "'terms': invalid int value true"),
            ("bounds", {"eta": "high"}, "'eta': invalid float value \"high\""),
            ("simulate", {"trials": "12x"}, "'trials': invalid int value \"12x\""),
            ("simulate", {"pipeline": 1}, "'pipeline': expected true or false, got 1"),
            ("simulate", {"events-csv": 5}, "'events-csv': invalid string value 5"),
            ("simulate", {"source": "classical"}, "'source': unknown source 'classical'"),
            ("verify-bounds", {"lp_check": "no"}, "'lp_check': expected true or false"),
            ("visibility", {"terms": 6}, "'terms': expected a non-empty list, got 6"),
            ("visibility", {"terms": [4, 6.5]}, "'terms': invalid int value 6.5"),
        ],
        ids=["float-for-int", "bool-for-int", "text-for-float", "bad-int-text",
             "number-for-switch", "number-for-path", "bad-choice", "text-for-switch",
             "scalar-for-list", "float-in-list"],
    )
    def test_config_value_fails_its_flag_check(self, tmp_path, capsys, command, config, shown):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, p, err = run_cli([command, "--config", str(cfg)], capsys)
        assert code == 2
        assert p is None
        assert f"config key {shown}" in err
        assert "Traceback" not in err

    def test_config_values_take_their_flag_types(self, tmp_path, capsys):
        # what the flag would accept as text, the config accepts as JSON
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"terms": "6", "eta": 1}))
        code, p, _ = run_cli(["bounds", "--config", str(cfg)], capsys)
        assert code == 0
        assert (p["terms"], p["eta"]) == (6, 1.0)
        cfg.write_text(json.dumps({"terms": [4, 6]}))
        code, p, _ = run_cli(["visibility", "--config", str(cfg)], capsys)
        assert code == 0
        assert [r["terms"] for r in p["rows"]] == [4, 6]


class TestOutputFile:
    def test_out_writes_file_and_silences_stdout(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code, p, _ = run_cli(["visibility", "--out", str(out)], capsys)
        assert code == 0
        assert p is None
        payload = json.loads(out.read_text())
        assert payload["command"] == "visibility"
        assert payload["best_terms"] == 10


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


STRICT_CASES = {
    "simulate-quantum": ["simulate", "--trials", "200", "--seed", "1"],
    "simulate-pipeline": ["simulate", "--trials", "200", "--seed", "1", "--pipeline"],
    "simulate-aklz": ["simulate", "--source", "aklz", "--trials", "200", "--seed", "1"],
    "simulate-aklz-demo": ["simulate", "--scenario", "aklz-demo", "--trials", "200"],
    "simulate-table1": ["simulate", "--scenario", "table1"],
    "simulate-chained6": ["simulate", "--scenario", "chained6", "--trials", "200"],
    # one trial: an exact table, stderr 0
    "simulate-polarization-1": ["simulate", "--variant", "polarization-entangled",
                                "--trials", "1"],
    "simulate-switched-mirrors-1": ["simulate", "--variant", "switched-mirrors",
                                    "--trials", "1"],
    "simulate-cross-coupled": ["simulate", "--variant", "cross-coupled", "--trials", "200"],
    "bounds": ["bounds"],
    "bounds-6": ["bounds", "--terms", "6"],
    "bounds-eta": ["bounds", "--eta", "0.9"],
    "visibility": ["visibility"],
    "verify-bounds-plain": ["verify-bounds", "--model-class", "plain-local-realism",
                            "--witness"],
    "verify-bounds-lp": ["verify-bounds", "--restarts", "1", "--iterations", "20",
                         "--lp-check", "--witness"],
    "verify-bounds-outcomes-only": ["verify-bounds", "--model-class", "outcomes-only",
                                    "--restarts", "1", "--iterations", "20"],
    "geometry": ["geometry", "--path-difference-ns", "100",
                 "--modulator-to-detector-ns", "20", "--switch-period-ns", "50"],
    "geometry-static": ["geometry", "--path-difference-ns", "100",
                        "--modulator-to-detector-ns", "20", "--switch-period-ns", "inf"],
}


@pytest.mark.parametrize("argv", list(STRICT_CASES.values()), ids=list(STRICT_CASES))
def test_every_report_is_strict_json(argv, capsys):
    assert main(argv) == 0
    json.loads(capsys.readouterr().out, parse_constant=_reject_constant)


def test_report_is_strict_json(tmp_path, capsys):
    csv = str(tmp_path / "events.csv")
    assert main(["simulate", "--trials", "200", "--seed", "1", "--events-csv", csv]) == 0
    capsys.readouterr()
    assert main(["report", "--events", csv]) == 0
    json.loads(capsys.readouterr().out, parse_constant=_reject_constant)


def test_static_switch_period_prints_null(capsys):
    code, p, _ = run_cli(STRICT_CASES["geometry-static"], capsys)
    assert code == 0
    assert p["geometry"]["switch_period_ns"] is None
    assert p["premise"] == {"margin_ns": None, "satisfied": False}


def test_one_parser_serves_every_command_of_a_process(tmp_path, capsys, monkeypatch):
    # main builds the argparse tree once per process; each command, run in
    # turn in this process, prints the bytes it prints in a fresh one
    monkeypatch.setenv("COLUMNS", "80")  # the width argparse wraps usage at
    events, config = tmp_path / "events.csv", tmp_path / "config.json"
    config.write_text(json.dumps({"terms": 6, "eta": 0.9}))
    commands = [
        ["simulate", "--trials", "300", "--seed", "2", "--events-csv", str(events)],
        ["verify-bounds", "--terms", "6"],
        ["report", "--events", str(events)],
        ["bounds", "--config", str(config)],
        ["simulate", "--trials", "many"],
    ]
    for argv in commands:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        fresh = run_module(argv)
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert code == 2 and "invalid int value: 'many'" in err
    assert cli.build_parser() is cli.build_parser()


def test_python_dash_m_runs_the_same_command_line(capsys):
    assert main(["bounds", "--terms", "4"]) == 0
    in_process = capsys.readouterr().out
    src = os.path.dirname(os.path.dirname(os.path.abspath(franson.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-m", "franson", "bounds", "--terms", "4"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == in_process


# run in a fresh interpreter: the modules that a command loads stay loaded
# for the rest of the process, so only a new one shows which it needs
LEAN_START = """
import json, sys

from franson.cli import main

events = sys.argv[1]
codes = [
    main(argv)
    for argv in (
        ["simulate", "--trials", "2000", "--events-csv", events],
        ["simulate", "--source", "aklz", "--trials", "2000"],
        ["report", "--events", events],
        ["bounds"],
        ["visibility"],
    )
]
heavy = ("franson.strategyopt", "franson.spacetime", "franson._gauss", "scipy")
loaded = [name for name in heavy if name in sys.modules]
codes += [
    main(["verify-bounds", "--terms", "44"]),
    main(["geometry", "--path-difference-ns", "100",
          "--modulator-to-detector-ns", "20", "--switch-period-ns", "50"]),
]
import franson

bound = {}
exec("from franson import *", bound)
unbound = [name for name in franson.__all__ if name not in bound]
print(json.dumps({"codes": codes, "loaded": loaded, "unbound": unbound}))
"""


def test_simulate_report_bounds_and_visibility_start_without_the_solver(tmp_path):
    run = run_python("-c", LEAN_START, str(tmp_path / "events.csv"))
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout.splitlines()[-1]) == {
        "codes": [0, 0, 0, 0, 0, 3, 0], "loaded": [], "unbound": []
    }
    # the resource limit is caught as before, though the solver loads late
    assert run.stderr.startswith("resource limit: ")


# every class's exact answer is a closed form; only the search needs scipy.
# The largest emission-time game, 42 terms, is answered in under 1 s
LEAN_VERIFY = """
import json, sys, time

from franson.cli import main

codes = []
for terms in ("4", "6"):
    for model_class in ("emission-time-realism", "outcomes-only",
                        "plain-local-realism", "path-realism"):
        lp_check = ["--lp-check"] if model_class == "emission-time-realism" else []
        codes.append(main(["verify-bounds", "--model-class", model_class, "--terms", terms,
                           "--witness", *lp_check]))
start = time.perf_counter()
codes.append(main(["verify-bounds", "--terms", "42", "--lp-check", "--witness"]))
fast = time.perf_counter() - start < 1.0
lean = "scipy" in sys.modules
codes.append(main(["verify-bounds", "--terms", "4", "--lp-check", "--witness",
                   "--restarts", "1"]))
print(json.dumps({"codes": codes, "fast": fast, "lean": lean,
                  "searched": "scipy" in sys.modules}))
"""


def test_verify_bounds_answers_every_class_without_scipy():
    run = run_python("-c", LEAN_VERIFY)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout.splitlines()[-1]) == {
        "codes": [0] * 10, "fast": True, "lean": False, "searched": True
    }
