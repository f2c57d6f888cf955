import csv
import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from franson import (
    CorrelationTable,
    EventColumns,
    InterferometerTiming,
    PairColumns,
    TrialBatch,
    correlation_from_pairs,
    emit_events_from_batch,
    postselect,
    read_events_csv,
    write_events_csv,
)
from franson import timing
from franson.core import chain_settings, setting_key
from franson.timing import _CSV_BLOCK_ROWS, CSV_COLUMNS

TIMING = InterferometerTiming(path_difference_ns=100.0, window_ns=1.0)
PAIR_FIELDS = (
    "timestamp1_ns", "timestamp2_ns", "outcome1", "outcome2", "setting1_rad", "setting2_rad",
)


def make_events(site, times, outcomes, setting, trials=None):
    n = len(times)
    return EventColumns(
        site=np.full(n, site),
        trial=np.arange(n) if trials is None else trials,
        timestamp_ns=times,
        outcome=outcomes,
        setting_rad=np.full(n, setting),
    )


def joined(*blocks):
    """The blocks' rows one after another, in a container of their type."""
    cls = type(blocks[0])
    return cls(*(np.concatenate([b[f.name] for b in blocks]) for f in dataclasses.fields(cls)))


def rows_of(columns, names):
    """The rows of a column container as tuples of Python scalars."""
    return list(zip(*(columns[name].tolist() for name in names)))


def column_bytes(events):
    """Each event column's dtype and bits, to compare containers exactly."""
    return [(events[name].dtype, events[name].tobytes()) for name in CSV_COLUMNS]


class TestColumns:
    def test_len_is_the_row_count(self):
        ev = make_events(1, [0.0, 1.0, 2.0], [1, -1, 1], 0.5)
        assert len(ev) == 3
        pairs = PairColumns(*([0.0] * 2 for _ in PAIR_FIELDS))
        assert len(pairs) == 2

    def test_fields_are_contiguous_columns_of_their_dtypes(self):
        strided = np.arange(6.0)[::2]
        ev = EventColumns(site=[1, 2, 1], trial=[0, 1, 2], timestamp_ns=strided,
                          outcome=[1, -1, 1], setting_rad=[0.0, 0.5, 0.0])
        dtypes = [np.uint8, np.int64, np.float64, np.int8, np.float64]
        assert [ev[name].dtype for name in CSV_COLUMNS] == [np.dtype(d) for d in dtypes]
        assert all(ev[name].flags.c_contiguous for name in CSV_COLUMNS)
        assert ev["timestamp_ns"].tolist() == [0.0, 2.0, 4.0]
        assert ev["site"] is ev.site

    def test_unknown_column_is_a_key_error(self):
        ev = make_events(1, [0.0], [1], 0.0)
        with pytest.raises(KeyError):
            ev["concatenate"]

    @pytest.mark.parametrize("bad", ["ragged", "scalar", "2-d"])
    def test_rejects_malformed_columns(self, bad):
        columns = {name: [0, 0] for name in CSV_COLUMNS}
        columns["trial"] = {"ragged": [0], "scalar": 0, "2-d": [[0, 0]]}[bad]
        with pytest.raises(ValueError, match="length" if bad == "ragged" else "1-d"):
            EventColumns(**columns)


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

    @pytest.mark.parametrize(
        "dt,w,short",
        [(math.nan, 1.0, 0.0), (math.inf, 1.0, 0.0), (100.0, 1.0, math.nan), (100.0, 1.0, math.inf)],
    )
    def test_rejects_non_finite(self, dt, w, short):
        with pytest.raises(ValueError, match="finite"):
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
        # detected1 drops trial 2, detected2 drops trial 1: four events
        # remain, grouped by site (site 1's, then site 2's), each in trial
        # order, which is time order within a site
        assert len(events) == 4
        assert events["site"].tolist() == [1, 1, 2, 2]
        assert events["trial"].tolist() == [0, 1, 0, 2]
        # trial 0 site 1 early: 0 + 10; trial 1 site 1 late: 1000 + 10 + 100;
        # site 2 late events at trials 0 and 2
        assert events["timestamp_ns"].tolist() == [10.0, 1110.0, 110.0, 2110.0]
        assert events["outcome"].tolist() == [1, -1, -1, 1]
        assert events["setting_rad"].tolist() == [0.25, 0.25, 0.75, 0.75]
        # a chunk of a longer run numbers its trials from its first
        events = emit_events_from_batch(self._batch(), emission, timing, 0.25, 0.75, 5)
        assert events["trial"].tolist() == [5, 6, 5, 7]

    def test_emission_gap_validation(self):
        batch = self._batch()
        with pytest.raises(ValueError, match="gaps"):
            emit_events_from_batch(batch, np.array([0.0, 150.0, 1000.0]), TIMING, 0, 0)
        # a gap of exactly twice the path difference is still ambiguous
        with pytest.raises(ValueError, match="gaps"):
            emit_events_from_batch(batch, np.array([0.0, 200.0, 1000.0]), TIMING, 0, 0)

    @pytest.mark.parametrize(
        "emission,ok",
        [
            # dt = 100, W = 1: doubles must be at most 49.5 ns apart at the
            # largest |emission| + short arm + dt; they are 32 ns apart below
            # 2**58 and 64 ns from there on
            ([0.0, 2.0**57], True),
            ([0.0, 2.0**58 - 128.0], True),
            ([0.0, 2.0**58 - 64.0], False),  # + short arm + dt crosses 2**58
            ([0.0, 2.0**58], False),
            ([-(2.0**58), 0.0], False),  # the largest |emission| comes first
            ([1e14, 2e14], True),
        ],
        ids=["2**57", "below-2**58", "crossing-2**58", "2**58", "-2**58", "1e14"],
    )
    def test_emission_times_must_resolve_the_path_difference(self, emission, ok):
        timing = InterferometerTiming(100.0, 1.0, short_arm_ns=10.0)
        batch = TrialBatch(*(a[:2] for a in self._batch()))
        if ok:
            events = emit_events_from_batch(batch, np.array(emission), timing, 0, 0)
            assert np.all(np.diff(events["timestamp_ns"][events["site"] == 1]) > 0)
        else:
            with pytest.raises(ValueError, match="resolve the path difference"):
                emit_events_from_batch(batch, np.array(emission), timing, 0, 0)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_emission_times_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            emit_events_from_batch(self._batch(), np.array([0.0, 1000.0, bad]), TIMING, 0, 0)

    def test_count_mismatch(self):
        with pytest.raises(ValueError, match="per trial"):
            emit_events_from_batch(self._batch(), np.array([0.0, 1000.0]), TIMING, 0, 0)

    def test_empty_responses(self):
        empty = TrialBatch(*(np.empty(0, dtype=d) for d in (np.int8, bool, bool) * 2))
        events = emit_events_from_batch(empty, np.array([]), TIMING, 0.0, 0.0)
        assert len(events) == 0
        assert column_bytes(events) == column_bytes(make_events(1, [], [], 0.0))


def _schedule(values):
    base = np.array(values, dtype=np.float64)
    return lambda first, count: base[first : first + count]


_STEPS = 1000.0 * np.arange(60)
_COARSE = 1e16 * np.arange(60)


class TestEmissionSchedule:
    """``check_emission_schedule`` with emit's check of each chunk refuses
    what one check of all the times refuses, with the same message."""

    @staticmethod
    def refusal(check) -> str | None:
        try:
            check()
        except ValueError as exc:
            return str(exc)
        return None

    @pytest.mark.parametrize(
        "values,shown",
        [
            (_STEPS, None),
            (np.append(_STEPS[:-1], math.inf), "finite"),
            # one gap of 150 ns, between times 29 and 30
            (np.append(_STEPS[:30], _STEPS[30:] - 850.0), "gaps"),
            # doubles are 64 ns apart from 2**58 ns on
            (_COARSE, "resolve the path difference"),
            # coarse, and a 128 ns gap after time 29: the gap is refused first
            (np.concatenate([_COARSE[:30], [_COARSE[29] + 100.0], _COARSE[31:]]), "gaps"),
        ],
        ids=["accepted", "not-finite", "gap", "coarse", "coarse-and-gap"],
    )
    @pytest.mark.parametrize("chunk", [*range(1, 12), 30, 60, 1000])
    def test_chunks_are_refused_as_one_call(self, values, shown, chunk):
        times, count = _schedule(values), len(values)
        whole = self.refusal(lambda: timing._check_emission_times(times(0, count), TIMING))
        assert (whole is None) == (shown is None)
        assert shown is None or shown in whole

        def chunked():
            timing.check_emission_schedule(times, count, TIMING, chunk)
            for first in range(0, count, chunk):
                timing._check_emission_times(times(first, min(chunk, count - first)), TIMING)

        assert self.refusal(chunked) == whole

    @pytest.mark.parametrize("short_arm_ns", [0.0, 3e8])
    @pytest.mark.parametrize("chunk", [1, 2, 3, 7, 60])
    def test_rounded_gaps_are_refused_as_one_call(self, short_arm_ns, chunk):
        # at 1e8 ns doubles are 2**-26 ns apart, so gaps of 200.00000001 ns
        # round to 200 ns, twice the path difference, now and then; with a
        # 3e8 ns short arm the timestamps are too coarse as well
        tm = InterferometerTiming(100.0, 99.9999999, short_arm_ns=short_arm_ns)
        count = 60

        def times(first, n):
            return 1e8 + 200.00000001 * np.arange(first, first + n, dtype=np.float64)

        whole = self.refusal(lambda: timing._check_emission_times(times(0, count), tm))
        assert "gaps" in whole

        def chunked():
            timing.check_emission_schedule(times, count, tm, chunk)
            for first in range(0, count, chunk):
                timing._check_emission_times(times(first, min(chunk, count - first)), tm)

        assert self.refusal(chunked) == whole


class TestPostselect:
    def test_hand_built_coincidences(self):
        # trials at 0, 1000, 2000, 3000; site 2 drifts out of the window
        # only on the third
        e1 = make_events(1, [0.0, 1000.0, 2000.0, 3000.0], [1, 1, -1, -1], 0.3)
        e2 = make_events(2, [0.5, 1000.4, 2100.0, 3000.2], [1, -1, -1, 1], 0.5)
        result = postselect(joined(e1, e2), TIMING)
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
        result = postselect(joined(e1, e2), TIMING)
        assert result.coincidences == 0
        just_inside = make_events(2, [1.0 - 1e-9], [1], 0.0)
        result = postselect(joined(e1, just_inside), TIMING)
        assert result.coincidences == 1

    def test_ambiguous_match_raises(self):
        e1 = make_events(1, [0.0, 0.5], [1, 1], 0.0)
        e2 = make_events(2, [0.3], [1], 0.0)
        with pytest.raises(ValueError, match="ambiguous"):
            postselect(joined(e1, e2), TIMING)

    def test_window_edge_is_rounded_like_the_timestamps(self):
        # at 2**60 ns the spacing of doubles is 256 ns and t - W rounds to t,
        # but t2 - t1 is exact: equal timestamps differ by 0 < W, so the
        # site-1 event pairs with the site-2 event ahead of it, as the
        # referee pairs them
        t = 2.0**60
        ev = EventColumns(site=[2, 1, 2], trial=[0, 0, 0], timestamp_ns=[t, t, t],
                          outcome=[1, 1, -1], setting_rad=[0.0, 0.0, 0.0])
        result = postselect(ev, TIMING)
        assert result.pairs["outcome2"].tolist() == [1]
        assert reference_postselect(ev, TIMING.window_ns)[0] == rows_of(result.pairs, PAIR_FIELDS)
        # near zero t1 - W is exact but t2 - t1 rounds: 1e-20 - 1 is -W, so
        # the partner is the site-2 event at 0.5
        ev = EventColumns(site=[2, 2, 1], trial=[0, 0, 0], timestamp_ns=[1e-20, 0.5, 1.0],
                          outcome=[1, -1, 1], setting_rad=[0.0, 0.0, 0.0])
        result = postselect(ev, TIMING)
        assert result.pairs["timestamp2_ns"].tolist() == [0.5]
        assert reference_postselect(ev, TIMING.window_ns)[0] == rows_of(result.pairs, PAIR_FIELDS)
        # away from that scale the site-2 event ahead is the partner
        near = joined(make_events(2, [5.0], [1], 0.0),
                      make_events(1, [5.0], [1], 0.0),
                      make_events(2, [5.0], [-1], 0.0))
        assert postselect(near, TIMING).pairs["outcome2"].tolist() == [1]

    def test_unsorted_input_is_handled(self):
        e1 = make_events(1, [1000.0, 0.0], [1, -1], 0.0, trials=[1, 0])
        e2 = make_events(2, [0.2, 1000.3], [1, 1], 0.0)
        result = postselect(joined(e1, e2), TIMING)
        assert result.coincidences == 2

    def test_efficiency_split_by_setting(self):
        e1a = make_events(1, [0.0], [1], 0.3)
        e1b = make_events(1, [1000.0], [1], 0.7)
        e2 = make_events(2, [0.1], [1], 0.5)
        result = postselect(joined(e1a, e1b, e2), TIMING)
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
        t1 = np.arange(n) * 1000.0
        return PairColumns(
            timestamp1_ns=t1,
            timestamp2_ns=t1 + 0.1,
            outcome1=rng.choice([-1, 1], n),
            outcome2=rng.choice([-1, 1], n),
            setting1_rad=np.full(n, phi),
            setting2_rad=np.full(n, psi),
        )

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
        assert cell.product_sum == total
        assert cell.estimate == pytest.approx(total / 500)

    def test_multiple_setting_pairs(self):
        a = self._pairs(100, 0.1, 0.2, seed=4)
        b = self._pairs(100, 0.5, 0.6, seed=5)
        table = correlation_from_pairs(joined(a, b))
        assert len(list(table.items())) == 2
        assert table.cell(0.1, 0.2).count == 100

    def test_empty_pairs(self):
        table = correlation_from_pairs(self._pairs(0, 0, 0, seed=6))
        assert list(table.items()) == []


def reference_setting_runs(*columns):
    """``timing._setting_runs`` as np.unique over the run heads' key rows."""
    n = columns[0].size
    head = np.zeros(n, dtype=bool)
    head[:1] = True
    for c in columns:
        head[1:] |= c[1:] != c[:-1]
    heads = np.flatnonzero(head)
    keys = np.stack([timing._setting_keys(c[heads]) for c in columns], axis=1)
    _, first, code = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    return np.append(heads, n), code.reshape(-1), heads[first]


class TestSettingRuns:
    # -0.0 and 0.0 share a run; 2*pi less an ulp and 0.0 share a key but
    # not a run, as do 0.3 and 0.3 + 2*pi
    RUN_PHASES = (
        0.0, -0.0, np.nextafter(2 * math.pi, 0.0), 0.3, 0.3 + 2 * math.pi, math.pi / 4, 5.5,
    )

    @pytest.mark.parametrize("width", [1, 2])
    def test_matches_unique_on_random_runs(self, width):
        rng = np.random.default_rng(40 + width)
        for _ in range(500):
            runs = int(rng.integers(0, 12))
            lengths = rng.integers(1, 5, runs)
            columns = [
                np.repeat(rng.choice(self.RUN_PHASES, runs), lengths) for _ in range(width)
            ]
            got = timing._setting_runs(*columns)
            want = reference_setting_runs(*columns)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and np.array_equal(g, w)

    def test_keys_match_the_scalar_setting_key(self):
        # the table's cells and the efficiency entries are pooled by these
        # keys, so the vectorized np.mod and the scalar fmod must agree
        two_pi = 2 * math.pi
        edges = [0.0, -0.0, two_pi, -two_pi, np.nextafter(two_pi, 0.0),
                 -np.nextafter(two_pi, 0.0), 1e300, -1e300]
        near = [e + np.linspace(-1e-9, 1e-9, 2001) for e in (0.0, two_pi, -two_pi)]
        rng = np.random.default_rng(7)
        spread = rng.uniform(-1.0, 1.0, 20_000) * 10.0 ** rng.uniform(-3.0, 15.0, 20_000)
        phases = np.concatenate([edges, *near, spread])
        assert timing._setting_keys(phases).tolist() == [setting_key(p) for p in phases]


class TestCsvRoundTrip:
    def test_exact_roundtrip(self, tmp_path):
        rng = np.random.default_rng(9)
        n = 200
        ev = EventColumns(
            site=rng.integers(1, 3, n),
            trial=np.arange(n),
            timestamp_ns=np.sort(rng.uniform(0, 1e9, n)),
            outcome=rng.choice([-1, 1], n),
            setting_rad=rng.uniform(0, 2 * math.pi, n),
        )
        path = tmp_path / "events.csv"
        write_events_csv(path, ev)
        back = read_events_csv(path)
        assert column_bytes(back) == column_bytes(ev)

    def test_header_is_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("site,trial,when,outcome,setting_rad\n")
        with pytest.raises(ValueError, match="header"):
            read_events_csv(path)

    @pytest.mark.parametrize(
        "row,shown",
        [
            ("2,0,10.0,5,0.0", "outcome=5"),
            ("3,0,10.0,1,0.0", "site=3"),
            ("0,0,10.0,1,0.0", "site=0"),
            ("2,0,10.0,0,0.0", "outcome=0"),
            ("2,0,inf,1,0.0", "timestamp_ns=inf"),
            ("2,0,nan,1,0.0", "timestamp_ns=nan"),
            ("2,0,10.0,1,nan", "setting_rad=nan"),
            ("300,0,10.0,1,0.0", "site=300"),
            ("2,0,10.0,-200,0.0", "outcome=-200"),
            # np.loadtxt refuses a site outside uint8 and an outcome outside
            # int8, and parses the rest, which the row checks refuse
            ("256,0,10.0,1,0.0", "site=256"),
            ("257,0,10.0,1,0.0", "site=257"),
            ("-1,0,10.0,1,0.0", "site=-1"),
            ("-255,0,10.0,1,0.0", "site=-255"),
            ("2,0,10.0,2,0.0", "outcome=2"),
            ("2,0,10.0,128,0.0", "outcome=128"),
            ("2,0,10.0,-129,0.0", "outcome=-129"),
            ("2,0,10.0,255,0.0", "outcome=255"),
            # setting texts that float() reads as not finite, or refuses
            ("2,0,10.0,1,inf", "setting_rad=inf"),
            ("2,0,10.0,1,1e999", "setting_rad=inf"),
            ("2,0,10.0,1,0x1p-2", "malformed event row"),
            ("2,0,10.0,1,0.5\0", "malformed event row"),  # loadtxt's text drops the NUL
        ],
    )
    def test_bad_row_names_its_line(self, tmp_path, row, shown):
        path = tmp_path / "bad.csv"
        good = "1,0,10.0,1,0.5\n"
        path.write_text(",".join(CSV_COLUMNS) + "\n" + good + row + "\n" + good)
        with pytest.raises(ValueError, match="line 3") as exc:
            read_events_csv(path)
        assert shown in str(exc.value)
        assert str(exc.value) == read_outcome(reference_read_events_csv, path)

    @pytest.mark.parametrize("row", ["1,0,x,1,0.5", "1,0"])
    def test_malformed_row_names_its_line(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(",".join(CSV_COLUMNS) + "\n1,0,10.0,1,0.5\n" + row + "\n")
        with pytest.raises(ValueError, match="line 3: malformed"):
            read_events_csv(path)

    def test_empty_file_roundtrip(self, tmp_path):
        path = tmp_path / "empty.csv"
        empty = make_events(1, [], [], 0.0)
        write_events_csv(path, empty)
        back = read_events_csv(path)
        assert len(back) == 0
        assert column_bytes(back) == column_bytes(empty)

    def test_columns_constant(self):
        assert CSV_COLUMNS == ("site", "trial", "timestamp_ns", "outcome", "setting_rad")

    @pytest.mark.parametrize(
        "row,fields", [("1,0", 2), ("", 0), ("1,0,10.0,1,0.5,", 6)],
        ids=["short", "blank", "trailing-comma"],
    )
    def test_wrong_field_count_is_named(self, tmp_path, row, fields):
        path = tmp_path / "bad.csv"
        path.write_text(",".join(CSV_COLUMNS) + "\n1,0,10.0,1,0.5\n" + row + "\n")
        expected = f"line 3: malformed event row (expected 5 fields, got {fields})"
        with pytest.raises(ValueError, match=re.escape(expected)):
            read_events_csv(path)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("end", ["\r\n", ""], ids=["crlf", "no-newline"])
    def test_header_only_skips_the_parser(self, tmp_path, monkeypatch, end):
        def no_parse(*args, **kwargs):
            raise AssertionError("np.loadtxt called on a file without rows")

        monkeypatch.setattr(np, "loadtxt", no_parse)
        path = tmp_path / "empty.csv"
        path.write_bytes((",".join(CSV_COLUMNS) + end).encode())
        back = read_events_csv(path)
        assert len(back) == 0
        assert column_bytes(back) == column_bytes(make_events(1, [], [], 0.0))

    def test_first_bad_row_is_named_before_a_later_overflow(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(",".join(CSV_COLUMNS) + "\n3,0,10.0,1,0.0\n300,0,10.0,1,0.0\n")
        with pytest.raises(ValueError, match="line 2: .*site=3,"):
            read_events_csv(path)

    @pytest.mark.parametrize(
        "content",
        [b"", b"a", b"a\r\n", b"a\rb", b"a\n\r\nb", b"a\r\r\n", b"\r\n\r", b"a\n\n",
         b"x" * (2**20 - 1) + b"\r\nb", b"x" * (2**20 - 1) + b"\r\rb", b"x" * 2**20 + b"\nb"],
        ids=["empty", "no-end", "crlf", "cr", "lf-crlf", "cr-crlf", "crlf-cr", "lf-lf",
             "crlf-across-chunks", "cr-cr-across-chunks", "lf-after-chunk"],
    )
    def test_line_count_matches_python_line_splitting(self, tmp_path, content):
        path = tmp_path / "lines.csv"
        path.write_bytes(content)
        with open(path, newline="") as fh:
            expected = sum(1 for _ in fh)
        assert timing._count_lines(path) == expected

    @settings(max_examples=300, deadline=None)
    @given(
        content=st.lists(st.sampled_from([b"a", b"\r", b"\n"]), max_size=24).map(b"".join),
        chunk=st.integers(1, 5),
    )
    def test_line_count_matches_python_line_splitting_at_every_chunk_edge(
        self, tmp_path_factory, content, chunk
    ):
        # chunks of 1-5 bytes put a chunk edge between many a \r and \n
        path = tmp_path_factory.getbasetemp() / "lines.csv"
        path.write_bytes(content)
        with open(path, newline="") as fh:
            expected = sum(1 for _ in fh)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(timing, "_COUNT_CHUNK_BYTES", chunk)
            assert timing._count_lines(path) == expected

    @pytest.mark.parametrize("line", [2, 3])
    def test_overlong_field_is_named(self, tmp_path, line):
        path = tmp_path / "bad.csv"
        rows = ["1,0,10.0,1,0.5", "1,0," + "1" * 200_000 + ",1,0.5"]
        path.write_text(",".join(CSV_COLUMNS) + "\n" + "\n".join(rows[3 - line :]) + "\n")
        with pytest.raises(ValueError, match=f"line {line}: malformed event row .*field limit"):
            read_events_csv(path)

    def test_overlong_header_is_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x" * 200_000 + "\n")
        with pytest.raises(ValueError, match="unexpected CSV header .*field limit"):
            read_events_csv(path)

    def test_zero_byte_file_has_no_header(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_bytes(b"")
        with pytest.raises(ValueError, match="unexpected CSV header: None"):
            read_events_csv(path)

    def test_written_file_is_read_by_the_column_parser(self, tmp_path, monkeypatch):
        # two blocks of the six phases of the 6-term chain, written as reprs
        # of up to 17 digits, then rows that each have a setting of their own
        def no_rows(*args):
            raise AssertionError("a valid file fell back to the row-by-row reader")

        monkeypatch.setattr(timing, "_read_rows", no_rows)
        rng = np.random.default_rng(3)
        n = 3 * _CSV_BLOCK_ROWS + 5
        raw = random_events(rng, n)
        ts, setting = raw["timestamp_ns"], raw["setting_rad"].copy()
        chain = chain_settings(6)
        phases = [s.phase for s in chain.site1_settings + chain.site2_settings]
        setting[: 2 * _CSV_BLOCK_ROWS] = rng.choice(phases, 2 * _CSV_BLOCK_ROWS)
        ev = EventColumns(
            site=np.where(raw["site"] == 1, 1, 2),
            trial=raw["trial"],
            timestamp_ns=np.where(np.isfinite(ts), ts, 0.0),
            outcome=np.where(raw["outcome"] > 0, 1, -1),
            setting_rad=np.where(np.isfinite(setting), setting, -0.0),
        )
        path = tmp_path / "events.csv"
        write_events_csv(path, ev)
        assert column_bytes(read_events_csv(path)) == column_bytes(ev)


# ---------------------------------------------------------------------------
# row-by-row referee for the CSV kernels: the writer and reader as they were
# before the column kernels, with two rules stated outright: a row has
# exactly five fields, and the first bad row is named even when a later row
# overflows its column


def reference_write_events_csv(path, events):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for k in range(len(events)):
            writer.writerow(
                [
                    int(events["site"][k]),
                    int(events["trial"][k]),
                    repr(float(events["timestamp_ns"][k])),
                    int(events["outcome"][k]),
                    repr(float(events["setting_rad"][k])),
                ]
            )


def reference_read_events_csv(path):
    # each row's range is checked as it is parsed: the first bad row in file
    # order, malformed or out of range, is named
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != CSV_COLUMNS:
            raise ValueError(f"unexpected CSV header: {header}")
        rows = []
        for r in reader:
            if len(r) != 5:
                raise ValueError(
                    f"{path}, line {reader.line_num}: malformed event row "
                    f"(expected 5 fields, got {len(r)})"
                )
            try:
                site, trial, ts, outcome, setting = (
                    int(r[0]), int(r[1]), float(r[2]), int(r[3]), float(r[4])
                )
            except ValueError as exc:
                raise ValueError(
                    f"{path}, line {reader.line_num}: malformed event row ({exc})"
                ) from exc
            if (
                site not in (1, 2)
                or outcome not in (-1, 1)
                or not -(2**63) <= trial < 2**63
                or not math.isfinite(ts)
                or not math.isfinite(setting)
            ):
                raise ValueError(
                    f"{path}, line {reader.line_num}: site must be 1 or 2, outcome -1 or +1, "
                    f"timestamp and setting finite; got site={site}, trial={trial}, "
                    f"timestamp_ns={ts!r}, outcome={outcome}, setting_rad={setting!r}"
                )
            rows.append((site, trial, ts, outcome, setting))
    return EventColumns(*(list(zip(*rows)) or [()] * len(CSV_COLUMNS)))


def random_events(rng, n):
    """Events with arbitrary bits: int64 trials at both ends, subnormals, -0.0, nan, inf."""
    columns = {
        "site": rng.integers(0, 256, n),
        "trial": rng.integers(-(2**63), 2**63 - 1, n, endpoint=True),
        "outcome": rng.integers(-128, 128, n),
    }
    for name in ("timestamp_ns", "setting_rad"):
        bits = rng.integers(0, 2**64 - 1, n, dtype=np.uint64, endpoint=True)
        values = bits.view(np.float64).copy()
        values[rng.random(n) < 0.1] = -0.0
        subnormal = rng.random(n) < 0.1
        values[subnormal] = rng.integers(1, 2**52, subnormal.sum()) * 5e-324
        columns[name] = values
    return EventColumns(**columns)


def read_outcome(read, path):
    try:
        out = read(path)
    except ValueError as exc:
        return str(exc)
    return column_bytes(out)


_INT64 = st.integers(-(2**63), 2**63 - 1)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_VALID_ROWS = st.lists(
    st.tuples(st.sampled_from([1, 2]), _INT64, _FINITE, st.sampled_from([-1, 1]), _FINITE),
    min_size=1,
    max_size=6,
)


def _with_field(line, j, edit):
    fields = line.split(",")
    fields[j] = edit(fields[j])
    return ",".join(fields)


# one change to one row of a valid file, given the row and a field index;
# the _FILE_EDITS act on the blank lines and line ends of the whole file
_ROW_EDITS = {
    "quoted": lambda line, j: _with_field(line, j, lambda f: f'"{f}"'),
    "padded": lambda line, j: _with_field(line, j, lambda f: f" {f} "),
    "plus-one": lambda line, j: _with_field(line, j, lambda f: "+1"),
    "underscore": lambda line, j: _with_field(line, j, lambda f: "1_0"),
    "comment": lambda line, j: "#" + line,
    "trailing-comma": lambda line, j: line + ",",
    "1e400": lambda line, j: _with_field(line, j, lambda f: "1e400"),
    "0x10": lambda line, j: _with_field(line, j, lambda f: "0x10"),
    "trial-overflow": lambda line, j: _with_field(line, 1, lambda f: str(2**63)),
    "site-300": lambda line, j: _with_field(line, 0, lambda f: "300"),
}
_FILE_EDITS = ("blank-line", "cr-only", "no-final-newline")

# timestamps at and around the edges of the writer's whole-number template
_EDGE_TIMESTAMPS = [
    0.0, -0.0, 1.0, -1.0, 2.0**53 - 1, -(2.0**53 - 1), 2.0**53, -(2.0**53),
    1e15, -1e15, 1e16, -1e16, math.inf, -math.inf, math.nan, 0.5, -0.5, 2.0**52 - 0.5,
]
_TIMESTAMPS = st.one_of(
    st.sampled_from(_EDGE_TIMESTAMPS),
    st.integers(-(2**53), 2**53).map(float),
    st.floats(),
)


class TestCsvReferee:
    @pytest.mark.parametrize(
        "n", [0, 1, _CSV_BLOCK_ROWS - 1, _CSV_BLOCK_ROWS, _CSV_BLOCK_ROWS + 1]
    )
    def test_writer_bytes_match_reference(self, tmp_path, n):
        ev = random_events(np.random.default_rng(n), n)
        write_events_csv(tmp_path / "new.csv", ev)
        reference_write_events_csv(tmp_path / "ref.csv", ev)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_writer_bytes_match_reference_on_repeated_settings(self, tmp_path):
        # a few settings repeated over blocks, as a simulation writes them:
        # -0.0, nan, inf and subnormals each keep their own text
        rng = np.random.default_rng(5)
        n = 2 * _CSV_BLOCK_ROWS + 3
        values = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, 0.1])
        ev = dataclasses.replace(
            random_events(rng, n), setting_rad=values[rng.integers(0, values.size, n)]
        )
        write_events_csv(tmp_path / "new.csv", ev)
        reference_write_events_csv(tmp_path / "ref.csv", ev)
        written = (tmp_path / "new.csv").read_bytes()
        assert written == (tmp_path / "ref.csv").read_bytes()
        settings_written = {line.rsplit(b",", 1)[1] for line in written.splitlines()[1:]}
        assert settings_written == {
            b"0.0", b"-0.0", b"nan", b"inf", b"-inf", b"5e-324", b"-5e-324", b"0.1"
        }

    @pytest.mark.parametrize("first_seen", [0, 3, 4, 5, 8], ids=lambda k: f"row{k}")
    def test_writer_text_of_a_setting_first_seen_in_a_later_block(
        self, tmp_path, monkeypatch, first_seen
    ):
        # -0.0 appears first in a later writer block, after blocks of 0.0
        monkeypatch.setattr(timing, "_CSV_BLOCK_ROWS", 4)
        setting = np.zeros(10)
        setting[first_seen:] = -0.0
        setting[-1] = 0.0
        ev = dataclasses.replace(make_events(1, np.arange(10.0), [1] * 10, 0.0),
                                 setting_rad=setting)
        write_events_csv(tmp_path / "new.csv", ev)
        reference_write_events_csv(tmp_path / "ref.csv", ev)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize(
        "site",
        [
            np.arange(13) // 4 % 2 + 1,  # changes at each edge of 4-row blocks
            np.arange(12) // 4 % 2 + 1,  # and ends at one
            np.array([0, 255, 3, 3, 17, 0, 0, 254, 1, 2, 128, 9, 200]),
            np.array([7]),
        ],
        ids=["block-edges", "block-edges-to-the-end", "other-sites", "one-row"],
    )
    def test_writer_bytes_match_reference_as_the_site_changes(self, tmp_path, monkeypatch, site):
        # a row's text ends with the next row's site, the last of a block
        # with the first of the next block's
        monkeypatch.setattr(timing, "_CSV_BLOCK_ROWS", 4)
        n = site.size
        ev = EventColumns(
            site=site,
            trial=np.arange(n),
            timestamp_ns=np.arange(n) * 10.0,
            outcome=np.where(np.arange(n) % 3, 1, -1),
            setting_rad=np.arange(n) % 2 * 0.5,
        )
        write_events_csv(tmp_path / "new.csv", ev)
        reference_write_events_csv(tmp_path / "ref.csv", ev)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @settings(max_examples=300, deadline=None)
    @given(timestamps=st.lists(_TIMESTAMPS, max_size=13))
    @example(timestamps=[0.0, 1.0, -1.0, 2.0**53 - 1, 0.5, -(2.0**53 - 1), 1e15, 1e16, 7.0])
    @example(timestamps=[0.0, 1.0, 2.0, 3.0, -0.0, 5.0, 6.0, 7.0, 2.0**53, 9.0])
    @example(timestamps=[1.0, 2.0, 3.0, math.inf, -(2.0**53), 1.0, 2.0, 3.0, math.nan])
    def test_writer_bytes_match_reference_with_whole_and_fractional_timestamps(
        self, tmp_path_factory, timestamps
    ):
        # blocks of 4 rows: a block of whole numbers below 2^53, none -0.0,
        # is written through int64, any other block through repr
        n = len(timestamps)
        ev = EventColumns(
            site=np.arange(n) % 2 + 1,
            trial=np.arange(n) - 3,
            timestamp_ns=timestamps,
            outcome=np.where(np.arange(n) % 3, 1, -1),
            setting_rad=np.arange(n) % 3 * 0.5,
        )
        new, ref = (tmp_path_factory.getbasetemp() / f"{k}.csv" for k in ("new", "ref"))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(timing, "_CSV_BLOCK_ROWS", 4)
            write_events_csv(new, ev)
        reference_write_events_csv(ref, ev)
        assert new.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("edit", ["site-3", "malformed", "blank-line"])
    @pytest.mark.parametrize("row", [0, 3, 4, 7, 8, 11], ids=lambda k: f"row{k}")
    def test_reader_names_a_bad_line_at_a_block_edge(self, tmp_path, monkeypatch, edit, row):
        # blocks of 4 rows: lines 2-5, 6-9 and 10-13 after the header;
        # the edited row is the first or last of its block
        monkeypatch.setattr(timing, "_CSV_BLOCK_ROWS", 4)
        lines = [",".join(CSV_COLUMNS)] + [f"1,{k},{10.0 * k!r},1,0.5" for k in range(12)]
        if edit == "blank-line":
            lines.insert(1 + row, "")
        else:
            lines[1 + row] = "3,0,10.0,1,0.5" if edit == "site-3" else "1,0,x,1,0.5"
        path = tmp_path / "bad.csv"
        path.write_bytes(("\r\n".join(lines) + "\r\n").encode())
        outcome = read_outcome(read_events_csv, path)
        assert outcome == read_outcome(reference_read_events_csv, path)
        assert f", line {row + 2}:" in outcome

    @settings(max_examples=300, deadline=None)
    @given(
        rows=_VALID_ROWS,
        edit=st.sampled_from(sorted(_ROW_EDITS) + list(_FILE_EDITS)),
        at=st.integers(0, 10),
        field=st.integers(0, 4),
    )
    def test_reader_matches_reference_after_one_change(
        self, tmp_path_factory, rows, edit, at, field
    ):
        lines = [",".join(CSV_COLUMNS)] + [
            f"{s},{t},{ts!r},{o},{phi!r}" for s, t, ts, o, phi in rows
        ]
        k = 1 + at % len(rows)
        end, tail = "\r\n", "\r\n"
        if edit in _ROW_EDITS:
            lines[k] = _ROW_EDITS[edit](lines[k], field)
        elif edit == "blank-line":
            lines.insert(1 + at % len(lines), "")
        elif edit == "cr-only":
            end = tail = "\r"
        else:
            tail = ""
        path = tmp_path_factory.getbasetemp() / "mutated.csv"
        path.write_bytes((end.join(lines) + tail).encode())
        assert read_outcome(read_events_csv, path) == read_outcome(
            reference_read_events_csv, path
        )

    @staticmethod
    def block_file(path, edits):
        """A 12-row file, read in blocks of 4 rows (lines 2-5, 6-9 and
        10-13), with the given rows replaced."""
        lines = [",".join(CSV_COLUMNS)] + [f"1,{k},{10.0 * k!r},1,0.5" for k in range(12)]
        for row, text in edits.items():
            lines[1 + row] = text
        path.write_bytes(("\r\n".join(lines) + "\r\n").encode())

    @pytest.fixture
    def row_path_blocks(self, monkeypatch):
        """Blocks of 4 rows; the (first line, line count) of each block
        that is read row by row."""
        monkeypatch.setattr(timing, "_CSV_BLOCK_ROWS", 4)
        calls, read_rows_of_block = [], timing._read_rows

        def read_rows(path, lines, more, line):
            calls.append((line, len(lines)))
            return read_rows_of_block(path, lines, more, line)

        monkeypatch.setattr(timing, "_read_rows", read_rows)
        return calls

    def test_only_the_block_with_an_odd_field_is_read_row_by_row(self, tmp_path, row_path_blocks):
        # int() takes 0_5 for 5, np.loadtxt does not
        self.block_file(tmp_path / "odd.csv", {5: "1,0_5,50.0,1,0.5"})
        self.block_file(tmp_path / "plain.csv", {})
        odd = read_events_csv(tmp_path / "odd.csv")
        assert row_path_blocks == [(6, 4)]
        assert column_bytes(odd) == column_bytes(read_events_csv(tmp_path / "plain.csv"))
        assert column_bytes(odd) == column_bytes(reference_read_events_csv(tmp_path / "odd.csv"))

    @pytest.mark.parametrize("row", [2, 3, 4], ids=lambda k: f"row{k}")
    def test_a_quoted_row_may_run_across_a_block_edge(self, tmp_path, monkeypatch, row):
        # a quoted line break inside a field: the row spans two lines, the
        # second of them in the next block when the row is a block's last
        monkeypatch.setattr(timing, "_CSV_BLOCK_ROWS", 4)
        path = tmp_path / "quoted.csv"
        self.block_file(path, {row: f'1,{row},"{10.0 * row!r}\r\n",1,0.5'})
        events = read_events_csv(path)
        assert len(events) == 12
        assert column_bytes(events) == column_bytes(reference_read_events_csv(path))
        # a malformed row after it and a row out of range are both named by
        # their line
        for text, shown in (
            ("1,0,x,1,0.5", "line 13: malformed"),
            ("3,0,1.0,1,0.5", "line 13:"),
            ('3,0,"1.0\r\n",1,0.5', "line 14:"),  # a quoted row is named by its last line
        ):
            self.block_file(path, {row: f'1,{row},"{10.0 * row!r}\r\n",1,0.5', 10: text})
            outcome = read_outcome(read_events_csv, path)
            assert outcome == read_outcome(reference_read_events_csv, path)
            assert shown in outcome

    @pytest.mark.parametrize(
        "edits,shown",
        [
            # in different blocks: a row out of range on line 2, a malformed
            # row on line 11
            ({0: "3,0,1.0,1,0.5", 9: "1,0,x,1,0.5"}, ", line 2: site must be"),
            ({0: "1,0,x,1,0.5", 9: "3,0,1.0,1,0.5"}, ", line 2: malformed"),
            # in one block (lines 6-9), either first
            ({5: "3,0,1.0,1,0.5", 6: "1,0,x,1,0.5"}, ", line 7: site must be"),
            ({5: "1,0,x,1,0.5", 6: "3,0,1.0,1,0.5"}, ", line 7: malformed"),
        ],
        ids=["value-then-malformed", "malformed-then-value", "one-block-value-first",
             "one-block-malformed-first"],
    )
    def test_the_first_bad_row_is_named(self, tmp_path, monkeypatch, edits, shown):
        monkeypatch.setattr(timing, "_CSV_BLOCK_ROWS", 4)
        path = tmp_path / "bad.csv"
        self.block_file(path, edits)
        outcome = read_outcome(read_events_csv, path)
        assert outcome == read_outcome(reference_read_events_csv, path)
        assert shown in outcome

    @pytest.mark.parametrize(
        "text,by_column_parser",
        [
            ("0." + "0" * 28 + "1", True),  # 31 bytes
            ("0." + "0" * 29 + "1", False),  # 32 bytes: it may have been cut
            ("0." + "0" * 30 + "1", False),  # 33 bytes: cut, it would read 0.0
            (" 0.5 ", True),
            ("0.5\xa0", False),  # float() takes a no-break space in text only
            ("1_0", True),
        ],
        ids=["31-bytes", "32-bytes", "33-bytes", "padded", "no-break-space", "underscore"],
    )
    def test_a_valid_setting_text_reads_as_float_reads_it(
        self, tmp_path, row_path_blocks, text, by_column_parser
    ):
        path = tmp_path / "setting.csv"
        self.block_file(path, {5: f"1,5,50.0,1,{text}"})
        events = read_events_csv(path)
        assert column_bytes(events) == column_bytes(reference_read_events_csv(path))
        assert events["setting_rad"][5] == float(text)
        assert row_path_blocks == ([] if by_column_parser else [(6, 4)])

    def test_colliding_setting_keys_send_the_block_row_by_row(
        self, tmp_path, monkeypatch, row_path_blocks
    ):
        # every text keyed 0: only the block holding two distinct settings
        # (lines 6-9) is read row by row, and every row keeps its own value
        monkeypatch.setattr(timing, "_text_keys", lambda words: np.zeros(len(words), np.uint64))
        path = tmp_path / "collide.csv"
        self.block_file(path, {5: "1,5,50.0,1,0.25", 7: "1,7,70.0,1,0.75"})
        events = read_events_csv(path)
        assert column_bytes(events) == column_bytes(reference_read_events_csv(path))
        assert events["setting_rad"].tolist() == [0.5] * 5 + [0.25, 0.5, 0.75] + [0.5] * 4
        assert row_path_blocks == [(6, 4)]


# ---------------------------------------------------------------------------
# brute-force referee for postselect and correlation_from_pairs


def reference_postselect(events, window):
    """O(n^2) matcher for the rule ``postselect`` documents.

    After a stable sort by timestamp, each site-1 event takes the first
    site-2 event with |dt| < window; a site-2 event taken twice raises.
    Returns the pairs and the efficiency entries as plain tuples.
    """
    rows = sorted(rows_of(events, CSV_COLUMNS), key=lambda r: r[2])
    site1 = [r for r in rows if r[0] == 1]
    site2 = [r for r in rows if r[0] == 2]
    pairs, matched1, matched2 = [], set(), set()
    for a_idx, a in enumerate(site1):
        for b_idx, b in enumerate(site2):
            if abs(b[2] - a[2]) < window:
                if b_idx in matched2:
                    raise ValueError("ambiguous")
                matched1.add(a_idx)
                matched2.add(b_idx)
                pairs.append((a[2], b[2], a[3], b[3], a[4], b[4]))
                break
    entries = []
    for site, evs, matched in ((1, site1, matched1), (2, site2, matched2)):
        by_key = {}
        for idx, r in enumerate(evs):
            slot = by_key.setdefault(setting_key(r[4]), [r[4], 0, 0])
            slot[1] += 1
            slot[2] += idx in matched
        entries.extend((site, *by_key[k]) for k in sorted(by_key))
    return pairs, entries


def reference_tabulate(blocks, cells=None):
    """Dict-based merge of pair blocks into (phi, psi, product sum, count).

    Within a block, cells follow sorted setting keys and carry the phases of
    their first pair; a cell seen in an earlier block adds its counts and
    keeps that block's phases.
    """
    cells = {} if cells is None else cells
    for block in blocks:
        acc = {}
        for t1, t2, o1, o2, s1, s2 in block:
            slot = acc.setdefault((setting_key(s1), setting_key(s2)), [s1, s2, 0, 0])
            slot[2] += o1 * o2
            slot[3] += 1
        for key in sorted(acc):
            phi, psi, total, n = acc[key]
            if key in cells and cells[key][3] > 0:
                phi, psi = cells[key][:2]
                total += cells[key][2]
                n += cells[key][3]
            cells[key] = (phi, psi, total, n)
    return list(cells.values())


def table_rows(table):
    return [(phi, psi, cell.product_sum, cell.count) for (phi, psi), cell in table.items()]


# Timestamps are whole multiples of TICK ns well below 2**40, so every
# timestamp difference and every t - W is exact in binary floating point;
# the referee then tests the matching rule, not rounding at the window edge.
TICK = 0.25
W_TICKS = round(TIMING.window_ns / TICK)
# 0.3 and 0.3 + 2 pi share a setting key but differ as floats; -0.0 and 0.0 too
PHASES = (0.0, -0.0, 0.3, 0.3 + 2 * math.pi, math.pi / 4, 5.5)


def events_from_rows(rows):
    """Event columns from (site, tick, outcome, phase) rows, in order."""
    return EventColumns(
        site=[site for site, _, _, _ in rows],
        trial=range(len(rows)),
        timestamp_ns=[tick * TICK for _, tick, _, _ in rows],
        outcome=[outcome for _, _, outcome, _ in rows],
        setting_rad=[phase for _, _, _, phase in rows],
    )


raw_event = st.tuples(
    st.sampled_from((1, 2)),
    st.integers(-8, 120),
    st.sampled_from((-1, 1)),
    st.sampled_from(PHASES),
)


@st.composite
def dense_streams(draw):
    """Unsorted events packed into a few windows: ties, +-W gaps, clashes."""
    return events_from_rows(draw(st.lists(raw_event, max_size=30)))


@st.composite
def trial_streams(draw):
    """Trials with detection loss, late arrivals, jitter and dark counts.

    Trials sit 16 ns apart and a late arrival adds 8 ns, so jitter of up to
    +-1.5 ns moves pairs across the window edge, exactly onto it, or into a
    neighbour's window.  Each trial draws its own settings, so settings
    interleave; the stream is shuffled before it is returned.
    """
    rows = []
    for trial in range(draw(st.integers(0, 12))):
        for site in (1, 2):
            if draw(st.integers(0, 3)) == 0:
                continue  # not detected
            tick = 64 * trial + 32 * draw(st.booleans()) + draw(st.integers(-6, 6))
            rows.append(
                (site, tick, draw(st.sampled_from((-1, 1))), draw(st.sampled_from(PHASES)))
            )
    rows.extend(draw(st.lists(raw_event, max_size=3)))  # dark counts
    return events_from_rows(draw(st.permutations(rows)))


streams = st.one_of(dense_streams(), trial_streams())


@st.composite
def site_distinct_rows(draw):
    """(site, tick, outcome, phase) rows whose ticks are distinct within a
    site, merged in time order with site 1 first at equal ticks.

    Across sites ticks tie and sit +-W apart; with no tie inside a site,
    every input order of the rows has one time order per site.
    """
    rows = [
        (site, tick, draw(st.sampled_from((-1, 1))), draw(st.sampled_from(PHASES)))
        for site in (1, 2)
        for tick in draw(st.lists(st.integers(-8, 60), unique=True, max_size=12))
    ]
    return sorted(rows, key=lambda r: r[1])


def row_orders(rows, shuffled):
    """The same rows merged (site 1 or site 2 first at equal ticks),
    grouped by site in time order or not, and in a given shuffled order."""
    merged2 = sorted(rows, key=lambda r: (r[1], -r[0]))
    grouped = sorted(rows, key=lambda r: r[0])
    grouped_reversed = [r for site in (1, 2) for r in reversed(rows) if r[0] == site]
    return {
        "merged, site 1 first": rows,
        "merged, site 2 first": merged2,
        "grouped": grouped,
        "grouped, unsorted": grouped_reversed,
        "site 2 then site 1": grouped[::-1],
        "shuffled": shuffled,
    }


class TestReferee:
    @settings(max_examples=400, deadline=None)
    @given(streams)
    @example(events_from_rows([(1, 0, 1, 0.3), (2, -W_TICKS, 1, 0.3), (2, W_TICKS, -1, 0.3)]))
    @example(events_from_rows([(2, 3, 1, -0.0), (1, 3, -1, 0.0), (1, 3, 1, 0.0), (2, 3, 1, 0.0)]))
    @example(events_from_rows([(1, 0, 1, 0.3), (2, W_TICKS - 1, 1, 0.3 + 2 * math.pi)]))
    def test_postselect_and_tabulate_match_reference(self, events):
        try:
            pairs, entries = reference_postselect(events, TIMING.window_ns)
        except ValueError:
            with pytest.raises(ValueError, match="ambiguous"):
                postselect(events, TIMING)
            return
        result = postselect(events, TIMING)
        # repr tells -0.0 from 0.0, so representative phases must match bitwise
        assert repr(rows_of(result.pairs, PAIR_FIELDS)) == repr(pairs)
        got = [(e.site, e.setting_rad, e.detected, e.coincident) for e in result.report.entries]
        assert repr(got) == repr(entries)
        eta = min((c / d for _, _, d, c in entries), default=None)
        assert repr(result.report.eta) == repr(eta)
        table = correlation_from_pairs(result.pairs)
        assert repr(table_rows(table)) == repr(reference_tabulate([pairs]))

    @settings(max_examples=300, deadline=None)
    @given(site_distinct_rows().flatmap(lambda r: st.tuples(st.just(r), st.permutations(r))))
    @example(([(1, 0, 1, 0.3), (2, 0, -1, 0.5)], [(2, 0, -1, 0.5), (1, 0, 1, 0.3)]))
    @example(([(2, 0, 1, 0.5), (1, 3, -1, 0.3), (2, 6, -1, 0.5)],) * 2)
    def test_postselect_does_not_depend_on_row_order(self, rows_and_shuffled):
        rows, shuffled = rows_and_shuffled
        try:
            expected = reference_postselect(events_from_rows(rows), TIMING.window_ns)
        except ValueError:
            expected = None
        for label, order in row_orders(rows, shuffled).items():
            events = events_from_rows(order)
            if expected is None:
                with pytest.raises(ValueError, match="ambiguous"):
                    postselect(events, TIMING)
                continue
            result = postselect(events, TIMING)
            got = [(e.site, e.setting_rad, e.detected, e.coincident) for e in result.report.entries]
            assert repr(rows_of(result.pairs, PAIR_FIELDS)) == repr(expected[0]), label
            assert repr(got) == repr(expected[1]), label

    @pytest.mark.parametrize(
        "rows,entries,eta",
        [
            # exactly one window apart, either way round: no coincidence
            ([(1, 0, 1, 0.3), (2, W_TICKS, 1, 0.5)], [(1, 0.3, 1, 0), (2, 0.5, 1, 0)], 0.0),
            ([(2, 0, 1, 0.5), (1, W_TICKS, 1, 0.3)], [(1, 0.3, 1, 0), (2, 0.5, 1, 0)], 0.0),
            ([(2, 0, 1, 0.5), (2, 9, -1, 0.5)], [(2, 0.5, 2, 0)], 0.0),
            ([(1, 9, 1, 0.3), (1, 0, -1, 0.3)], [(1, 0.3, 2, 0)], 0.0),
            ([], [], None),
        ],
        ids=["window-edge", "window-edge-site-2-first", "site-2-only", "site-1-only", "empty"],
    )
    def test_inputs_without_coincidences(self, rows, entries, eta):
        for order in (rows, rows[::-1]):
            result = postselect(events_from_rows(order), TIMING)
            assert result.coincidences == 0
            got = [(e.site, e.setting_rad, e.detected, e.coincident) for e in result.report.entries]
            assert got == entries
            assert result.report.eta == eta
            assert result.report.to_json_dict()["eta"] == eta

    def test_sites_other_than_1_and_2_are_refused(self):
        events = events_from_rows([(1, 0, 1, 0.3), (3, 0, 1, 0.3), (2, 0, 1, 0.5)])
        with pytest.raises(ValueError, match="site must be 1 or 2"):
            postselect(events, TIMING)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.tuples(
                    st.sampled_from((-1, 1)),
                    st.sampled_from((-1, 1)),
                    st.sampled_from(PHASES),
                    st.sampled_from(PHASES[:3]),
                ),
                max_size=20,
            ),
            min_size=1,
            max_size=4,
        ),
        st.booleans(),
    )
    def test_merged_blocks_match_reference(self, blocks, seed_exact_cell):
        table = CorrelationTable()
        cells = {}
        if seed_exact_cell:
            # an analytic cell is replaced by counts, never merged with them
            table.set_exact(0.3, 0.0, 0.5)
            cells[(setting_key(0.3), setting_key(0.0))] = (0.3, 0.0, 0, 0)
        rows = [[(0.0, 0.0, o1, o2, s1, s2) for o1, o2, s1, s2 in b] for b in blocks]
        for block in rows:
            pairs = PairColumns(*(list(zip(*block)) or [()] * len(PAIR_FIELDS)))
            assert correlation_from_pairs(pairs, table) is table
        expected = reference_tabulate(rows, cells)
        assert repr(table_rows(table)) == repr(expected)
        for (phi, psi), cell in table.items():
            if cell.count:
                assert cell.estimate == cell.product_sum / cell.count


# ---------------------------------------------------------------------------
# referee for the merge rank of grouped site runs


def stable_merge_counts(t1, t2):
    """For each site-1 time, the site-2 times ahead of it in one stable sort
    of t1 then t2: NaN last, site 1 first at equal times."""
    places = np.flatnonzero(np.argsort(np.concatenate([t1, t2]), kind="stable") < t1.size)
    return places - np.arange(t1.size)


def interleave(t1, t2):
    """Equal sorted runs of two or more times, one site-2 time between
    consecutive site-1 times and the reverse."""
    return bool(
        t1.size == t2.size > 1
        and np.all(t1[1:] >= t1[:-1])
        and np.all(t2[1:] >= t2[:-1])
        and np.all(t2[:-1] < t1[1:])
        and np.all(t1[:-1] <= t2[1:])
    )


def postselect_outcome(events):
    """postselect's pairs and efficiency entries as text, or ("raises",
    its error message)."""
    try:
        result = postselect(events, TIMING)
    except ValueError as exc:
        return "raises", str(exc)
    entries = [(e.site, e.setting_rad, e.detected, e.coincident) for e in result.report.entries]
    return repr(rows_of(result.pairs, PAIR_FIELDS)), repr(entries)


def reference_outcome(events):
    """reference_postselect in postselect_outcome's terms; NaN times sort
    last, as numpy sorts them."""
    rows = sorted(rows_of(events, CSV_COLUMNS), key=lambda r: (math.isnan(r[2]), r[2]))
    try:
        pairs, entries = reference_postselect(
            EventColumns(*(list(col) for col in zip(*rows))) if rows else events,
            TIMING.window_ns,
        )
    except ValueError:
        return "raises", "ambiguous coincidences: one event matches several partners"
    return repr(pairs), repr(entries)


def grouped_events(t1, t2, rng):
    """Site 1's rows, then site 2's, with random outcomes and phases."""
    n = t1.size + t2.size
    return EventColumns(
        site=np.repeat([1, 2], [t1.size, t2.size]),
        trial=np.arange(n),
        timestamp_ns=np.concatenate([t1, t2]),
        outcome=rng.choice([-1, 1], n),
        setting_rad=rng.choice(PHASES, n),
    )


EDGE_TIMES = (0.0, -0.0, np.inf, -np.inf, np.nan)


def random_runs(rng):
    """Two runs of times in ticks, often equal in length and interleaving,
    with ties across sites and the odd edge value; mostly sorted."""
    n1 = int(rng.integers(0, 7))
    n2 = n1 if rng.random() < 0.7 else int(rng.integers(0, 7))
    if n1 == n2 and rng.random() < 0.5:
        # trials 16 ticks apart, a late arrival 8 ticks on, jitter up to a
        # window: the pipeline's runs, moved onto and across the window edge
        base = 16 * np.arange(n1)
        t1, t2 = (base + 8 * rng.integers(0, 2, n1) + rng.integers(-4, 5, n1) for _ in "12")
    elif n1 == n2 and rng.random() < 0.5:
        # sorted times dealt in turn, either site taking the smaller
        both = np.sort(rng.integers(-6, 20, 2 * n1)).reshape(n1, 2)
        first = rng.integers(0, 2, n1)
        t1, t2 = both[np.arange(n1), first], both[np.arange(n1), 1 - first]
    else:
        t1, t2 = rng.integers(-6, 20, n1), rng.integers(-6, 20, n2)
    runs = []
    for t in (t1 * TICK, t2 * TICK):
        edge = rng.random(t.size) < 0.08
        t[edge] = rng.choice(EDGE_TIMES, int(edge.sum()))
        runs.append(np.sort(t) if rng.random() < 0.9 else rng.permutation(t))
    return runs


def separated(t1, t2):
    """Equal sorted runs of two or more times, each cross-trial difference,
    rounded as Python floats round it, at least the window."""
    w = TIMING.window_ns
    return bool(
        t1.size == t2.size > 1
        and np.all(t1[1:] >= t1[:-1])
        and np.all(t2[1:] >= t2[:-1])
        and all(float(a) - float(b) >= w for a, b in zip(t1[1:], t2[:-1]))
        and all(float(a) - float(b) >= w for a, b in zip(t2[1:], t1[:-1]))
    )


class TestMergeRank:
    def check(self, events, n1):
        """The merge rank of grouped rows against the stable merge and
        against the rank read off the same rows in time order, the same
        rows with site 2 first, and the brute-force referee."""
        (s1, s2), in_order = timing._site_streams(events)
        assert in_order is None
        ahead = timing._merge_rank(s1[0], s2[0])
        assert ahead.dtype == np.intp
        assert np.array_equal(ahead, stable_merge_counts(s1[0], s2[0]))
        merged = events.take(np.argsort(events["timestamp_ns"], kind="stable"))
        _, in_order = timing._site_streams(merged)
        if in_order is not None:
            assert np.array_equal(in_order, ahead)
        outcome = postselect_outcome(events)
        n = len(events)
        swapped = events.take(np.r_[n1:n, 0:n1])
        assert postselect_outcome(swapped) == outcome
        assert outcome == reference_outcome(events)
        return outcome

    def test_random_grouped_runs_match_the_stable_merge(self):
        rng = np.random.default_rng(2024)
        interleaved = paired = apart = apart_paired = 0
        for _ in range(2000):
            t1, t2 = random_runs(rng)
            interleaved += interleave(t1, t2)
            apart += separated(t1, t2)
            pairs, _ = self.check(grouped_events(t1, t2, rng), t1.size)
            paired += interleave(t1, t2) and pairs not in ("raises", "[]")
            apart_paired += separated(t1, t2) and pairs != "[]"
        # the interleaving runs, with and without pairs, are well covered,
        # and so are the separated ones that pair trial by trial
        assert interleaved > 400
        assert paired > 250
        assert apart > 250
        assert apart_paired > 200

    @pytest.mark.parametrize(
        "t1,t2",
        [
            ([0.0, 8.0], [0.0, 8.0]),                    # ties across sites
            ([0.0, 8.0], [-0.0, 8.0]),                   # -0.0 ties 0.0
            ([-0.0, 0.0], [0.0, -0.0]),
            ([-np.inf, 8.0], [-np.inf, 8.25]),
            ([0.0, np.inf], [0.25, np.inf]),
            ([0.0, np.nan], [0.25, 8.0]),                # NaN: not sorted, no pair
            ([0.0, 8.0], [0.25, np.nan]),
            ([np.nan], [0.25]),
            ([0.25], [np.nan]),
            ([0.0, 1.0, 2.0], [0.5, 1.5, 2.5]),          # interleave, every pair ambiguous
            ([0.0, 8.0], [16.0, 24.0]),                  # equal runs that do not interleave
            ([16.0, 24.0], [0.0, 8.0]),
            ([0.0, 8.0, 16.0], [8.25]),                  # n1 != n2
            ([], [0.0, 8.0]),                            # an empty run
            ([0.0, 8.0], []),
            ([], []),
        ],
    )
    def test_edge_runs_match_the_stable_merge(self, t1, t2):
        t1, t2 = np.array(t1, dtype=float), np.array(t2, dtype=float)
        self.check(grouped_events(t1, t2, np.random.default_rng(5)), t1.size)

    @pytest.mark.parametrize(
        "t1,t2,apart",
        [
            ([0.0, 1.5], [0.5, 2.0], True),               # a cross-trial difference of exactly W
            ([-3.0, 1.0], [2.0**-60, 1.5], True),         # 1 - 2^-60 rounds to W
            ([-5.0, 1 - 2.0**-53], [0.0, 1.5], False),    # the largest double below W:
            ([-0.5, 1 - 2.0**-53], [0.0, 1.5], False),    # t1[1] takes t2[0], maybe twice
            ([0.0, 3.0], [-3.0, 1 - 2.0**-53], False),    # t1[0] takes t2[1]
            ([0.0, 8.0], [-0.0, 8.25], True),             # -0.0 and 0.0 at either end
            ([-0.0, 8.0], [0.0, 8.25], True),
            ([-8.0, 0.0], [-8.25, -0.0], True),
            ([-8.0, -0.0], [-7.75, 0.0], True),
            ([-np.inf, 8.0], [0.25, 8.25], True),         # infinities at either end
            ([0.0, 8.0], [-np.inf, 8.25], True),
            ([-np.inf, 8.0], [-np.inf, 8.25], True),
            ([0.0, np.inf], [0.25, 8.0], True),
            ([0.0, 8.0], [0.25, np.inf], True),
            ([0.0, np.inf], [0.25, np.inf], True),
            ([np.inf, np.inf], [0.25, 8.0], False),
            ([np.nan, 8.0], [0.25, 8.25], False),         # NaN at either end, sorted last
            ([0.0, np.nan], [0.25, 8.25], False),
            ([0.0, 8.0], [np.nan, 8.25], False),
            ([0.0, 8.0], [0.25, np.nan], False),
            ([0.0, 8.0], [0.5, 0.75], False),             # only one side apart
            ([0.0], [0.5], False),                        # n = 1
        ],
    )
    def test_separated_runs_pair_trial_by_trial(self, t1, t2, apart):
        t1, t2 = np.array(t1, dtype=float), np.array(t2, dtype=float)
        events = grouped_events(t1, t2, np.random.default_rng(7))
        (s1, s2), _ = timing._site_streams(events)
        with np.errstate(invalid="ignore"):
            assert timing._separated_runs(s1[0], s2[0], TIMING.window_ns) is apart
        assert separated(s1[0], s2[0]) is apart
        self.check(events, t1.size)
        if apart:
            # trial by trial: site-1 time i pairs with site-2 time i or none
            w = TIMING.window_ns
            trial = [i for i in range(t1.size) if abs(float(s2[0][i]) - float(s1[0][i])) < w]
            pairs = postselect(events, TIMING).pairs
            assert np.array_equal(pairs["timestamp1_ns"], s1[0][trial])
            assert np.array_equal(pairs["timestamp2_ns"], s2[0][trial])

    @pytest.mark.parametrize("lost", ["neither", "site 1", "site 2", "both alike", "both apart"])
    def test_batches_with_detection_loss_match_the_stable_merge(self, lost):
        # loss at one site, or apart at both, leaves runs of unequal length;
        # the same loss at both sites leaves equal runs that interleave
        rng = np.random.default_rng(len(lost))
        n = 40
        for _ in range(50):
            loss = [rng.random(n) < 0.2 for _ in "12"]
            if lost == "both alike":
                loss[1] = loss[0]
            detected = [
                ~loss[k] if lost in (site, "both alike", "both apart") else np.ones(n, dtype=bool)
                for k, site in enumerate(("site 1", "site 2"))
            ]
            batch = TrialBatch(
                outcome1=rng.choice([-1, 1], n).astype(np.int8),
                late1=rng.random(n) < 0.5,
                detected1=detected[0],
                outcome2=rng.choice([-1, 1], n).astype(np.int8),
                late2=rng.random(n) < 0.5,
                detected2=detected[1],
            )
            events = emit_events_from_batch(batch, np.arange(n) * 1000.0, TIMING, 0.1, 0.2)
            self.check(events, int(detected[0].sum()))
