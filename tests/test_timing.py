import math

import numpy as np
import pytest

from franson import (
    EVENT_DTYPE,
    InterferometerTiming,
    TrialBatch,
    correlation_from_pairs,
    emit_events_from_batch,
    postselect,
    read_events_csv,
    write_events_csv,
)
from franson.timing import CSV_COLUMNS

TIMING = InterferometerTiming(path_difference_ns=100.0, window_ns=1.0)


def make_events(site, times, outcomes, setting, trials=None):
    ev = np.empty(len(times), dtype=EVENT_DTYPE)
    ev["site"] = site
    ev["trial"] = np.arange(len(times)) if trials is None else trials
    ev["timestamp_ns"] = times
    ev["outcome"] = outcomes
    ev["setting_rad"] = setting
    return ev


class TestInterferometerTiming:
    def test_accepts_valid(self):
        t = InterferometerTiming(100.0, 1.0, short_arm_ns=10.0)
        assert t.path_difference_ns == 100.0

    @pytest.mark.parametrize(
        "dt,w,short",
        [
            (0.0, 1.0, 0.0),
            (100.0, 0.0, 0.0),
            (100.0, 100.0, 0.0),   # window must stay below the arm delay
            (100.0, 150.0, 0.0),
            (100.0, 1.0, -1.0),
        ],
    )
    def test_rejects_invalid(self, dt, w, short):
        with pytest.raises(ValueError):
            InterferometerTiming(dt, w, short_arm_ns=short)


class TestEmitEvents:
    def _batch(self):
        return TrialBatch(
            outcome1=np.array([1, -1, 1], dtype=np.int8),
            late1=np.array([False, True, False]),
            detected1=np.array([True, True, False]),
            outcome2=np.array([-1, 1, 1], dtype=np.int8),
            late2=np.array([True, True, True]),
            detected2=np.array([True, False, True]),
        )

    def test_timestamps_filter_and_sort(self):
        timing = InterferometerTiming(100.0, 1.0, short_arm_ns=10.0)
        emission = np.array([0.0, 1000.0, 2000.0])
        events = emit_events_from_batch(self._batch(), emission, timing, 0.25, 0.75)
        # detected1 drops trial 2, detected2 drops trial 1: four events remain
        assert events.size == 4
        ts = events["timestamp_ns"]
        assert np.all(np.diff(ts) >= 0)
        site1 = events[events["site"] == 1]
        site2 = events[events["site"] == 2]
        # trial 0 site 1 early: 0 + 10; trial 1 site 1 late: 1000 + 10 + 100
        assert site1["timestamp_ns"].tolist() == [10.0, 1110.0]
        assert site1["trial"].tolist() == [0, 1]
        # site 2 late events at trials 0 and 2
        assert site2["timestamp_ns"].tolist() == [110.0, 2110.0]
        assert np.all(site1["setting_rad"] == 0.25)
        assert np.all(site2["setting_rad"] == 0.75)

    def test_trial_offset(self):
        emission = np.array([0.0, 1000.0, 2000.0])
        events = emit_events_from_batch(
            self._batch(), emission, TIMING, 0.0, 0.0, trial_offset=50
        )
        assert events["trial"].min() == 50

    def test_emission_gap_validation(self):
        batch = self._batch()
        with pytest.raises(ValueError, match="gaps"):
            emit_events_from_batch(batch, np.array([0.0, 150.0, 1000.0]), TIMING, 0, 0)
        # a gap of exactly twice the path difference is still ambiguous
        with pytest.raises(ValueError, match="gaps"):
            emit_events_from_batch(batch, np.array([0.0, 200.0, 1000.0]), TIMING, 0, 0)

    def test_count_mismatch(self):
        with pytest.raises(ValueError, match="per trial"):
            emit_events_from_batch(self._batch(), np.array([0.0, 1000.0]), TIMING, 0, 0)

    def test_empty_responses(self):
        empty = TrialBatch(*(np.empty(0, dtype=d) for d in (np.int8, bool, bool) * 2))
        events = emit_events_from_batch(empty, np.array([]), TIMING, 0.0, 0.0)
        assert events.size == 0
        assert events.dtype == EVENT_DTYPE


class TestPostselect:
    def test_hand_built_coincidences(self):
        # trials at 0, 1000, 2000, 3000; site 2 drifts out of the window
        # only on the third
        e1 = make_events(1, [0.0, 1000.0, 2000.0, 3000.0], [1, 1, -1, -1], 0.3)
        e2 = make_events(2, [0.5, 1000.4, 2100.0, 3000.2], [1, -1, -1, 1], 0.5)
        result = postselect(np.concatenate([e1, e2]), TIMING)
        assert result.coincidences == 3
        pairs = result.pairs
        assert pairs["timestamp1_ns"].tolist() == [0.0, 1000.0, 3000.0]
        prods = pairs["outcome1"].astype(int) * pairs["outcome2"].astype(int)
        assert prods.tolist() == [1, -1, -1]
        report = result.report
        assert report.eta == pytest.approx(0.75)
        assert len(report.entries) == 2
        for entry in report.entries:
            assert entry.detected == 4
            assert entry.coincident == 3
            assert entry.ratio == pytest.approx(0.75)

    def test_window_boundary_is_strict(self):
        e1 = make_events(1, [0.0], [1], 0.0)
        e2 = make_events(2, [1.0], [1], 0.0)
        result = postselect(np.concatenate([e1, e2]), TIMING)
        assert result.coincidences == 0
        just_inside = make_events(2, [1.0 - 1e-9], [1], 0.0)
        result = postselect(np.concatenate([e1, just_inside]), TIMING)
        assert result.coincidences == 1

    def test_ambiguous_match_raises(self):
        e1 = make_events(1, [0.0, 0.5], [1, 1], 0.0)
        e2 = make_events(2, [0.3], [1], 0.0)
        with pytest.raises(ValueError, match="ambiguous"):
            postselect(np.concatenate([e1, e2]), TIMING)

    def test_unsorted_input_is_handled(self):
        e1 = make_events(1, [1000.0, 0.0], [1, -1], 0.0, trials=[1, 0])
        e2 = make_events(2, [0.2, 1000.3], [1, 1], 0.0)
        result = postselect(np.concatenate([e1, e2]), TIMING)
        assert result.coincidences == 2

    def test_efficiency_split_by_setting(self):
        e1a = make_events(1, [0.0], [1], 0.3)
        e1b = make_events(1, [1000.0], [1], 0.7)
        e2 = make_events(2, [0.1], [1], 0.5)
        result = postselect(np.concatenate([e1a, e1b, e2]), TIMING)
        by_site_setting = {
            (e.site, round(e.setting_rad, 3)): e for e in result.report.entries
        }
        assert by_site_setting[(1, 0.3)].coincident == 1
        assert by_site_setting[(1, 0.7)].coincident == 0
        assert result.report.eta == 0.0

    def test_matches_trialwise_rule_on_random_batches(self):
        # event pairing through the window must agree with the direct
        # per-trial rule: both detected and equal delay classes
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = 200
            batch = TrialBatch(
                outcome1=rng.choice([-1, 1], n).astype(np.int8),
                late1=rng.random(n) < 0.5,
                detected1=rng.random(n) < 0.9,
                outcome2=rng.choice([-1, 1], n).astype(np.int8),
                late2=rng.random(n) < 0.5,
                detected2=rng.random(n) < 0.9,
            )
            emission = np.arange(n) * 1000.0
            events = emit_events_from_batch(batch, emission, TIMING, 0.1, 0.2)
            result = postselect(events, TIMING)
            expected_mask = (
                batch.detected1 & batch.detected2 & (batch.late1 == batch.late2)
            )
            assert result.coincidences == int(expected_mask.sum())
            prods = result.pairs["outcome1"].astype(int) * result.pairs["outcome2"]
            direct = (batch.outcome1 * batch.outcome2)[expected_mask]
            assert prods.tolist() == direct.tolist()


class TestCorrelationFromPairs:
    def _pairs(self, n, phi, psi, seed):
        rng = np.random.default_rng(seed)
        from franson.timing import PAIR_DTYPE

        out = np.empty(n, dtype=PAIR_DTYPE)
        out["timestamp1_ns"] = np.arange(n) * 1000.0
        out["timestamp2_ns"] = out["timestamp1_ns"] + 0.1
        out["outcome1"] = rng.choice([-1, 1], n)
        out["outcome2"] = rng.choice([-1, 1], n)
        out["setting1_rad"] = phi
        out["setting2_rad"] = psi
        return out

    def test_single_block(self):
        pairs = self._pairs(500, 0.3, 0.4, seed=1)
        table = correlation_from_pairs(pairs)
        cell = table.cell(0.3, 0.4)
        assert cell.count == 500
        prod = (pairs["outcome1"].astype(int) * pairs["outcome2"]).sum()
        assert cell.estimate == pytest.approx(prod / 500)

    def test_accumulates_across_blocks(self):
        a = self._pairs(300, 0.3, 0.4, seed=2)
        b = self._pairs(200, 0.3, 0.4, seed=3)
        table = correlation_from_pairs(a)
        table = correlation_from_pairs(b, table)
        cell = table.cell(0.3, 0.4)
        assert cell.count == 500
        total = (
            (a["outcome1"].astype(int) * a["outcome2"]).sum()
            + (b["outcome1"].astype(int) * b["outcome2"]).sum()
        )
        assert cell.estimate == pytest.approx(total / 500)

    def test_multiple_setting_pairs(self):
        a = self._pairs(100, 0.1, 0.2, seed=4)
        b = self._pairs(100, 0.5, 0.6, seed=5)
        table = correlation_from_pairs(np.concatenate([a, b]))
        assert len(table) == 2
        assert table.cell(0.1, 0.2).count == 100

    def test_empty_pairs(self):
        table = correlation_from_pairs(self._pairs(0, 0, 0, seed=6))
        assert len(table) == 0


class TestCsvRoundTrip:
    def test_exact_roundtrip(self, tmp_path):
        rng = np.random.default_rng(9)
        n = 200
        ev = np.empty(n, dtype=EVENT_DTYPE)
        ev["site"] = rng.integers(1, 3, n)
        ev["trial"] = np.arange(n)
        ev["timestamp_ns"] = np.sort(rng.uniform(0, 1e9, n))
        ev["outcome"] = rng.choice([-1, 1], n)
        ev["setting_rad"] = rng.uniform(0, 2 * math.pi, n)
        path = tmp_path / "events.csv"
        write_events_csv(path, ev)
        back = read_events_csv(path)
        assert np.array_equal(ev, back)

    def test_header_is_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("site,trial,when,outcome,setting_rad\n")
        with pytest.raises(ValueError, match="header"):
            read_events_csv(path)

    def test_empty_file_roundtrip(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_events_csv(path, np.empty(0, dtype=EVENT_DTYPE))
        back = read_events_csv(path)
        assert back.size == 0
        assert back.dtype == EVENT_DTYPE

    def test_columns_constant(self):
        assert CSV_COLUMNS == ("site", "trial", "timestamp_ns", "outcome", "setting_rad")
