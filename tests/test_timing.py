import csv
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from franson import (
    EVENT_DTYPE,
    CorrelationTable,
    InterferometerTiming,
    TrialBatch,
    correlation_from_pairs,
    emit_events_from_batch,
    postselect,
    read_events_csv,
    write_events_csv,
)
from franson import timing
from franson.core import setting_key
from franson.timing import _CSV_BLOCK_ROWS, CSV_COLUMNS, PAIR_DTYPE

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
        assert cell.product_sum == total
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
        ],
    )
    def test_bad_row_names_its_line(self, tmp_path, row, shown):
        path = tmp_path / "bad.csv"
        good = "1,0,10.0,1,0.5\n"
        path.write_text(",".join(CSV_COLUMNS) + "\n" + good + row + "\n" + good)
        with pytest.raises(ValueError, match="line 3") as exc:
            read_events_csv(path)
        assert shown in str(exc.value)

    @pytest.mark.parametrize("row", ["1,0,x,1,0.5", "1,0"])
    def test_malformed_row_names_its_line(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(",".join(CSV_COLUMNS) + "\n1,0,10.0,1,0.5\n" + row + "\n")
        with pytest.raises(ValueError, match="line 3: malformed"):
            read_events_csv(path)

    def test_empty_file_roundtrip(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_events_csv(path, np.empty(0, dtype=EVENT_DTYPE))
        back = read_events_csv(path)
        assert back.size == 0
        assert back.dtype == EVENT_DTYPE

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
        assert back.size == 0
        assert back.dtype == EVENT_DTYPE

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
        def no_rows(path):
            raise AssertionError("a valid file fell back to the row-by-row reader")

        monkeypatch.setattr(timing, "_read_rows", no_rows)
        ev = random_events(np.random.default_rng(3), 1000)
        ev["site"] = np.where(ev["site"] == 1, 1, 2)
        ev["outcome"] = np.where(ev["outcome"] > 0, 1, -1)
        ev["timestamp_ns"][~np.isfinite(ev["timestamp_ns"])] = 0.0
        ev["setting_rad"][~np.isfinite(ev["setting_rad"])] = -0.0
        path = tmp_path / "events.csv"
        write_events_csv(path, ev)
        assert read_events_csv(path).tobytes() == ev.tobytes()


# ---------------------------------------------------------------------------
# row-by-row referee for the CSV kernels: the writer and reader as they were
# before the column kernels, with two rules stated outright: a row has
# exactly five fields, and the first bad row is named even when a later row
# overflows its column


def reference_write_events_csv(path, events):
    ev = np.asarray(events, dtype=EVENT_DTYPE)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for e in ev:
            writer.writerow(
                [
                    int(e["site"]),
                    int(e["trial"]),
                    repr(float(e["timestamp_ns"])),
                    int(e["outcome"]),
                    repr(float(e["setting_rad"])),
                ]
            )


def reference_read_events_csv(path):
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
                rows.append((int(r[0]), int(r[1]), float(r[2]), int(r[3]), float(r[4])))
            except ValueError as exc:
                raise ValueError(
                    f"{path}, line {reader.line_num}: malformed event row ({exc})"
                ) from exc
    for k, (site, trial, ts, outcome, setting) in enumerate(rows):
        if (
            site not in (1, 2)
            or outcome not in (-1, 1)
            or not -(2**63) <= trial < 2**63
            or not math.isfinite(ts)
            or not math.isfinite(setting)
        ):
            raise ValueError(
                f"{path}, line {k + 2}: site must be 1 or 2, outcome -1 or +1, timestamp "
                f"and setting finite; got site={site}, trial={trial}, timestamp_ns={ts!r}, "
                f"outcome={outcome}, setting_rad={setting!r}"
            )
    return np.array(rows, dtype=EVENT_DTYPE) if rows else np.empty(0, dtype=EVENT_DTYPE)


def random_events(rng, n):
    """Events with arbitrary bits: int64 trials at both ends, subnormals, -0.0, nan, inf."""
    ev = np.empty(n, dtype=EVENT_DTYPE)
    ev["site"] = rng.integers(0, 256, n)
    ev["trial"] = rng.integers(-(2**63), 2**63 - 1, n, endpoint=True)
    ev["outcome"] = rng.integers(-128, 128, n)
    for name in ("timestamp_ns", "setting_rad"):
        bits = rng.integers(0, 2**64 - 1, n, dtype=np.uint64, endpoint=True)
        values = bits.view(np.float64).copy()
        values[rng.random(n) < 0.1] = -0.0
        subnormal = rng.random(n) < 0.1
        values[subnormal] = rng.integers(1, 2**52, subnormal.sum()) * 5e-324
        ev[name] = values
    return ev


def read_outcome(read, path):
    try:
        out = read(path)
    except ValueError as exc:
        return str(exc)
    return out.dtype, out.tobytes()


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


class TestCsvReferee:
    @pytest.mark.parametrize(
        "n", [0, 1, _CSV_BLOCK_ROWS - 1, _CSV_BLOCK_ROWS, _CSV_BLOCK_ROWS + 1]
    )
    def test_writer_bytes_match_reference(self, tmp_path, n):
        ev = random_events(np.random.default_rng(n), n)
        write_events_csv(tmp_path / "new.csv", ev)
        reference_write_events_csv(tmp_path / "ref.csv", ev)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

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


# ---------------------------------------------------------------------------
# brute-force referee for postselect and correlation_from_pairs


def reference_postselect(events, window):
    """O(n^2) matcher for the rule ``postselect`` documents.

    After a stable sort by timestamp, each site-1 event takes the first
    site-2 event with |dt| < window; a site-2 event taken twice raises.
    Returns the pairs and the efficiency entries as plain tuples.
    """
    rows = sorted(events.tolist(), key=lambda r: r[2])
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
    their first pair; a cell seen in an earlier block adds its counts.
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
    """EVENT_DTYPE array from (site, tick, outcome, phase) rows, in order."""
    ev = np.empty(len(rows), dtype=EVENT_DTYPE)
    for k, (site, tick, outcome, phase) in enumerate(rows):
        ev[k] = (site, k, tick * TICK, outcome, phase)
    return ev


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
        assert repr(result.pairs.tolist()) == repr(pairs)
        got = [(e.site, e.setting_rad, e.detected, e.coincident) for e in result.report.entries]
        assert repr(got) == repr(entries)
        eta = min((c / d for _, _, d, c in entries), default=None)
        assert repr(result.report.eta) == repr(eta)
        table = correlation_from_pairs(result.pairs)
        assert repr(table_rows(table)) == repr(reference_tabulate([pairs]))

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
            pairs = np.array(block, dtype=PAIR_DTYPE) if block else np.empty(0, PAIR_DTYPE)
            assert correlation_from_pairs(pairs, table) is table
        expected = reference_tabulate(rows, cells)
        assert repr(table_rows(table)) == repr(expected)
        for (phi, psi), cell in table.items():
            if cell.count:
                assert cell.estimate == cell.product_sum / cell.count
