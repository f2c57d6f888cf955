"""End-to-end checks of the command line front end.

Every assertion goes through ``main(argv)`` with captured stdout, exactly
as a shell user would drive it.
"""

import json
import math
import os
import subprocess
import sys

import pytest

import franson
from franson.cli import main

SQRT2 = math.sqrt(2.0)


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out else None
    return code, payload, captured.err


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
        assert by_model["path-realism"]["bound"] is None
        assert "note" in by_model["path-realism"]
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
        assert p["best_value"] <= 3.0 + 1e-6
        assert p["lp_value"] == pytest.approx(3.0, abs=1e-9)
        assert p["method"] == "successive-lp"
        assert "witness" in p

    def test_plain_class_is_exact(self, capsys):
        code, p, _ = run_cli(
            ["verify-bounds", "--model-class", "plain-local-realism"], capsys
        )
        assert code == 0
        assert p["exact"] is True
        assert p["method"] == "enumeration"
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
        for model_class, terms in (("outcomes-only", "8"), ("emission-time-realism", "14")):
            code, p, err = run_cli(
                ["verify-bounds", "--model-class", model_class, "--terms", terms], capsys
            )
            assert code == 3
            assert p is None
            assert "resource limit" in err

    def test_eight_term_search_and_lp(self, capsys):
        code, p, _ = run_cli(
            ["verify-bounds", "--terms", "8", "--lp-check", "--restarts", "4"], capsys
        )
        assert code == 0
        assert p["passed"] is True
        assert p["bound"] == 7.0
        assert p["lp_value"] == pytest.approx(7.0, abs=1e-9)
        assert p["best_value"] == pytest.approx(7.0, abs=1e-6)

    @pytest.mark.parametrize(
        "flag, field",
        [("--restarts", "restarts"), ("--iterations", "iterations"),
         ("--support-size", "support_size")],
    )
    def test_budget_below_one_is_a_clean_error(self, capsys, flag, field):
        code, p, err = run_cli(["verify-bounds", flag, "0"], capsys)
        assert code == 2
        assert p is None
        assert f"{field} must be at least 1" in err
        assert "Traceback" not in err

    def test_efficiency_class_is_rejected(self, capsys):
        # analytic bounds have no finite game to search
        with pytest.raises(SystemExit) as exc:
            main(["verify-bounds", "--model-class", "inefficiency"])
        assert exc.value.code == 2


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
        assert p["efficiency"] is None
        verdicts = {v["model"]["kind"]: v for v in p["verdicts"]}
        assert verdicts["plain-local-realism"]["violated"] is True
        assert verdicts["emission-time-realism"]["violated"] is False
        assert verdicts["outcomes-only"]["violated"] is False

    def test_reruns_are_byte_identical(self, capsys):
        argv = ["simulate", "--terms", "4", "--trials", "3000", "--seed", "11"]
        code1 = main(argv)
        out1 = capsys.readouterr().out
        code2 = main(argv)
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0
        assert out1 == out2

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

    def test_aklz_needs_four_terms(self, capsys):
        code, p, err = run_cli(
            ["simulate", "--source", "aklz", "--terms", "6"], capsys
        )
        assert code == 2
        assert "4-term" in err

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

    def test_missing_events_file(self, tmp_path, capsys):
        code, p, err = run_cli(
            ["report", "--events", str(tmp_path / "nope.csv")], capsys
        )
        assert code == 2


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
        # a config file can smuggle anything, so the command revalidates
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": "bogus"}))
        code, p, err = run_cli(["simulate", "--config", str(cfg)], capsys)
        assert code == 2
        assert "unknown scenario" in err


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
