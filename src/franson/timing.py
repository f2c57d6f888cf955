"""Time-tagged detection events and coincidence-window postselection.

Turns per-trial station responses into timestamped detection records, pairs
them back up through a coincidence window the way a counting experiment
would, and reports the apparent postselection efficiency per site and
setting.
"""

from __future__ import annotations

import csv
import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .core import _KEY_QUANTUM, _KEY_WRAP, TWO_PI
from .inequalities import CorrelationTable
from .lhv import TrialBatch

EVENT_DTYPE = np.dtype(
    [
        ("site", np.uint8),
        ("trial", np.int64),
        ("timestamp_ns", np.float64),
        ("outcome", np.int8),
        ("setting_rad", np.float64),
    ]
)

CSV_COLUMNS = ("site", "trial", "timestamp_ns", "outcome", "setting_rad")


@dataclass(frozen=True)
class InterferometerTiming:
    """Arm imbalance and coincidence window, in nanoseconds.

    The window must be smaller than the arm delay, otherwise early-late
    cross terms would survive the postselection.
    """

    path_difference_ns: float
    window_ns: float
    short_arm_ns: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 < self.path_difference_ns < np.inf):
            raise ValueError("path difference must be positive and finite")
        if not (0.0 < self.window_ns < self.path_difference_ns):
            raise ValueError("window must satisfy 0 < W < path difference")
        if not (0.0 <= self.short_arm_ns < np.inf):
            raise ValueError("short arm delay must be nonnegative and finite")


def _check_emission_times(emission_times: np.ndarray, timing: InterferometerTiming) -> np.ndarray:
    t = np.asarray(emission_times, dtype=np.float64)
    if t.ndim != 1:
        raise ValueError("emission times must be a 1-d sequence")
    if t.size > 1:
        gaps = np.diff(t)
        if not np.all(gaps > 2.0 * timing.path_difference_ns):
            raise ValueError(
                "emission times must be strictly increasing with gaps larger "
                "than twice the path difference, so coincidences stay unambiguous"
            )
    return t


def emit_events_from_batch(
    batch: TrialBatch,
    emission_times: np.ndarray,
    timing: InterferometerTiming,
    phi: float,
    psi: float,
    trial_offset: int = 0,
) -> np.ndarray:
    """Vectorized event emission for a block of trials at fixed settings.

    A detected response produces one event with timestamp
    emission + short arm (+ path difference when the arrival is late).
    Returns a structured array sorted by timestamp; equal timestamps keep
    site 1 before site 2, each in trial order.

    Each site's stream is sorted by construction: emission gaps exceed twice
    the path difference, so a late arrival never overtakes the next trial.
    One stable sort of the two concatenated runs is then a linear merge.
    """
    t = _check_emission_times(emission_times, timing)
    n = len(batch.outcome1)
    if t.size != n:
        raise ValueError("one emission time is required per trial")
    dt = timing.path_difference_ns
    idx1 = np.flatnonzero(batch.detected1)
    idx2 = np.flatnonzero(batch.detected2)
    ts = np.concatenate(
        [
            t[idx] + timing.short_arm_ns + np.where(late[idx], dt, 0.0)
            for idx, late in ((idx1, batch.late1), (idx2, batch.late2))
        ]
    )
    order = np.argsort(ts, kind="stable")
    from_site2 = order >= idx1.size
    events = np.empty(ts.size, dtype=EVENT_DTYPE)
    events["site"] = from_site2 + np.uint8(1)
    events["trial"] = np.concatenate([idx1, idx2])[order] + trial_offset
    events["timestamp_ns"] = ts[order]
    events["outcome"] = np.concatenate([batch.outcome1[idx1], batch.outcome2[idx2]])[order]
    events["setting_rad"] = np.where(from_site2, psi, phi)
    return events


# ---------------------------------------------------------------------------
# postselection

PAIR_DTYPE = np.dtype(
    [
        ("timestamp1_ns", np.float64),
        ("timestamp2_ns", np.float64),
        ("outcome1", np.int8),
        ("outcome2", np.int8),
        ("setting1_rad", np.float64),
        ("setting2_rad", np.float64),
    ]
)


@dataclass(frozen=True)
class EfficiencyEntry:
    site: int
    setting_rad: float
    detected: int
    coincident: int

    @property
    def ratio(self) -> float | None:
        """P(coincident | detected); None without detections."""
        return self.coincident / self.detected if self.detected else None


@dataclass(frozen=True)
class EfficiencyReport:
    """Apparent postselection efficiency table.

    ``eta`` is the minimum over sites and settings of
    P(coincident | locally detected), the quantity the inefficiency and
    delay bounds are written in; None when no entry has a detection.
    """

    entries: tuple[EfficiencyEntry, ...]
    eta: float | None

    def to_json_dict(self) -> dict:
        return {
            "eta": self.eta,
            "entries": [
                {
                    "site": e.site,
                    "setting_rad": e.setting_rad,
                    "detected": e.detected,
                    "coincident": e.coincident,
                    "ratio": e.ratio,
                }
                for e in self.entries
            ],
        }


@dataclass(frozen=True)
class PostselectionResult:
    pairs: np.ndarray            # PAIR_DTYPE records, one per coincidence
    report: EfficiencyReport

    @property
    def coincidences(self) -> int:
        return int(self.pairs.size)


def _setting_keys(phases: np.ndarray) -> np.ndarray:
    """Vectorized core.setting_key."""
    reduced = np.mod(np.asarray(phases, dtype=np.float64), TWO_PI)
    return np.round(reduced / _KEY_QUANTUM).astype(np.int64) % _KEY_WRAP


def _setting_runs(*columns: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group the runs of equal rows of phase columns by their setting keys.

    Returns ``(bounds, code, first)``: run ``r`` spans rows
    ``bounds[r]:bounds[r + 1]`` and has index ``code[r]`` among the distinct
    key rows in sorted order, and ``first[k]`` is the first row with key
    row ``k``.  Keys are computed only at the run heads, so columns with a
    handful of runs cost O(n) however long they are.
    """
    n = columns[0].size
    head = np.zeros(n, dtype=bool)
    head[:1] = True
    for c in columns:
        head[1:] |= c[1:] != c[:-1]
    heads = np.flatnonzero(head)
    keys = np.stack([_setting_keys(c[heads]) for c in columns], axis=1)
    _, first, code = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    return np.append(heads, n), code.reshape(-1), heads[first]


def _sum_by_key(code: np.ndarray, size: int, per_run: np.ndarray) -> np.ndarray:
    """Exact integer totals per key of values given per run."""
    total = np.zeros(size, dtype=np.int64)
    np.add.at(total, code, per_run)
    return total


def postselect(events: np.ndarray, timing: InterferometerTiming) -> PostselectionResult:
    """Pair events across sites through the coincidence window.

    Events are first ordered by timestamp with a stable sort, so equal
    timestamps keep their input order.  Two detections coincide when they
    come from opposite sites and their timestamps differ by strictly less
    than the window.  Each site-1 event is paired with the earliest site-2
    event inside its window (the first in that order when several share a
    timestamp), whether or not another site-1 event claims it too.  A
    site-2 event claimed twice makes the data ambiguous and raises; with
    emission gaps above twice the path difference that cannot happen.
    """
    ev = np.asarray(events, dtype=EVENT_DTYPE)
    ts = ev["timestamp_ns"]
    # a stable sort of nondecreasing timestamps is the identity
    if not np.all(ts[1:] >= ts[:-1]):
        ev = ev[np.argsort(ts, kind="stable")]
        ts = ev["timestamp_ns"]
    i1 = np.flatnonzero(ev["site"] == 1)
    i2 = np.flatnonzero(ev["site"] == 2)
    t1 = ts[i1]
    t2 = ts[i2]
    w = timing.window_ns
    # first site-2 index with timestamp > t1 - w; nondecreasing, since t1 is
    cand = np.searchsorted(t2, t1 - w, side="right")
    # past the last site-2 event the partner is +inf, never inside the window
    i_idx = np.flatnonzero(np.abs(np.append(t2, np.inf)[cand] - t1) < w)
    j_idx = cand[i_idx]
    if np.any(j_idx[1:] == j_idx[:-1]):
        raise ValueError("ambiguous coincidences: one event matches several partners")
    phases1 = ev["setting_rad"][i1]
    phases2 = ev["setting_rad"][i2]
    out = np.empty(i_idx.size, dtype=PAIR_DTYPE)
    out["timestamp1_ns"] = t1[i_idx]
    out["timestamp2_ns"] = t2[j_idx]
    out["outcome1"] = ev["outcome"][i1[i_idx]]
    out["outcome2"] = ev["outcome"][i2[j_idx]]
    out["setting1_rad"] = phases1[i_idx]
    out["setting2_rad"] = phases2[j_idx]
    entries = []
    for site, phases, matched in ((1, phases1, i_idx), (2, phases2, j_idx)):
        bounds, code, first = _setting_runs(phases)
        detected = _sum_by_key(code, first.size, np.diff(bounds))
        coincident = _sum_by_key(code, first.size, np.diff(np.searchsorted(matched, bounds)))
        entries.extend(
            EfficiencyEntry(
                site=site,
                setting_rad=float(phases[f]),
                detected=int(d),
                coincident=int(c),
            )
            for f, d, c in zip(first, detected, coincident)
        )
    eta = min((x.ratio for x in entries if x.ratio is not None), default=None)
    return PostselectionResult(pairs=out, report=EfficiencyReport(tuple(entries), eta))


def correlation_from_pairs(pairs: np.ndarray, table: CorrelationTable | None = None) -> CorrelationTable:
    """Accumulate coincident outcome products into a correlation table.

    Cells come in sorted order of their (site-1, site-2) setting keys, each
    labelled with the phases of its first pair.  A setting pair already
    present in ``table`` (from an earlier block of the same run) has its
    integer counts merged, not replaced.
    """
    if table is None:
        table = CorrelationTable()
    if pairs.size == 0:
        return table
    s1 = pairs["setting1_rad"]
    s2 = pairs["setting2_rad"]
    bounds, code, first = _setting_runs(s1, s2)
    prod = pairs["outcome1"].astype(np.int64) * pairs["outcome2"]
    count = _sum_by_key(code, first.size, np.diff(bounds))
    prod_sum = _sum_by_key(code, first.size, np.add.reduceat(prod, bounds[:-1]))
    for f, total, n in zip(first.tolist(), prod_sum.tolist(), count.tolist()):
        phi = float(s1[f])
        psi = float(s2[f])
        if table.has(phi, psi):
            prev = table.cell(phi, psi)
            if prev.count > 0:
                total += prev.product_sum
                n += prev.count
        table.set_counts(phi, psi, total, n)
    return table


# ---------------------------------------------------------------------------
# CSV round trip


# Rows per block of the writer: big enough that the per-block Python calls
# are amortised, small enough that a block's strings stay a few MB.
_CSV_BLOCK_ROWS = 1 << 14

# How each column is written: integers in decimal, floats as their shortest
# round-trip repr.
_CSV_FORMATS = (str, str, repr, str, repr)

# The reader parses every integer column as int64 so that an out-of-range
# site or outcome is caught by the row checks before narrowing.
_CSV_PARSE_DTYPE = np.dtype(
    [(name, np.float64 if EVENT_DTYPE[name].kind == "f" else np.int64) for name in CSV_COLUMNS]
)


def write_events_csv(path, events: np.ndarray) -> None:
    """Write events as CSV with columns site,trial,timestamp_ns,outcome,setting_rad.

    Rows end in ``\\r\\n`` and floats are written as their shortest
    round-trip repr, so :func:`read_events_csv` gives back the same bits.
    """
    ev = np.asarray(events, dtype=EVENT_DTYPE)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\r\n")
        for start in range(0, len(ev), _CSV_BLOCK_ROWS):
            block = ev[start : start + _CSV_BLOCK_ROWS]
            columns = [
                map(fmt, block[name].tolist()) for name, fmt in zip(CSV_COLUMNS, _CSV_FORMATS)
            ]
            fh.write("".join([",".join(row) + "\r\n" for row in zip(*columns)]))


def read_events_csv(path) -> np.ndarray:
    """Read events written by write_events_csv; round trips exactly.

    Every row must have exactly five fields, site 1 or 2, outcome -1 or +1
    and a finite timestamp and setting; the first row that does not raises
    ValueError naming its line (the header is line 1).  A blank line is a
    malformed row.
    """
    with open(path, newline="") as fh:
        _check_header(csv.reader(fh))
        rows = _count_lines(path) - 1
        if rows == 0:
            return np.empty(0, dtype=EVENT_DTYPE)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                parsed = np.loadtxt(
                    fh, dtype=_CSV_PARSE_DTYPE, delimiter=",", comments=None, ndmin=1
                )
        except (ValueError, Warning):
            parsed = None
    # loadtxt skips blank lines, which are malformed rows here, so a row count
    # short of the line count sends the file to the row-by-row pass, as does a
    # parse error, a warning or a failed row check.
    if parsed is None or len(parsed) != rows or _bad_rows(parsed).any():
        return _read_rows(path)
    return parsed.astype(EVENT_DTYPE)


def _check_header(reader) -> None:
    try:
        header = next(reader, None)
    except csv.Error as exc:  # e.g. a field past csv's size limit
        raise ValueError(f"unexpected CSV header ({exc})") from None
    if header is None or tuple(header) != CSV_COLUMNS:
        raise ValueError(f"unexpected CSV header: {header}")


def _count_lines(path) -> int:
    """Lines in the file, ended by \\n, \\r\\n or a lone \\r as csv.reader splits them."""
    lines, last = 0, b"\n"
    with open(path, "rb") as fh:
        for chunk in iter(functools.partial(fh.read, 1 << 20), b""):
            lines += chunk.count(b"\n") + chunk.count(b"\r") - chunk.count(b"\r\n")
            if last == b"\r" and chunk[:1] == b"\n":
                lines -= 1  # a \r\n split across two chunks
            last = chunk[-1:]
    return lines + (last not in (b"\r", b"\n"))


def _bad_rows(ev: np.ndarray) -> np.ndarray:
    return (
        ((ev["site"] != 1) & (ev["site"] != 2))
        | ((ev["outcome"] != 1) & (ev["outcome"] != -1))
        | ~np.isfinite(ev["timestamp_ns"])
        | ~np.isfinite(ev["setting_rad"])
    )


def _read_rows(path) -> np.ndarray:
    """Row-by-row reader: accepts what int() and float() accept and names the first bad line."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        _check_header(reader)
        rows = []
        try:
            for r in reader:
                if len(r) != len(CSV_COLUMNS):
                    raise ValueError(f"expected {len(CSV_COLUMNS)} fields, got {len(r)}")
                rows.append((int(r[0]), int(r[1]), float(r[2]), int(r[3]), float(r[4])))
        except (ValueError, csv.Error) as exc:
            raise ValueError(
                f"{path}, line {reader.line_num}: malformed event row ({exc})"
            ) from exc
    try:
        out = np.array(rows, dtype=EVENT_DTYPE) if rows else np.empty(0, dtype=EVENT_DTYPE)
    except OverflowError:
        out = None  # a site, trial or outcome outside its column's integer range
    if out is None or _bad_rows(out).any():
        k = next(k for k, row in enumerate(rows) if _row_is_bad(row))
        raise ValueError(_bad_row_message(path, k, rows[k]))
    return out


def _row_is_bad(row: tuple) -> bool:
    try:
        return bool(_bad_rows(np.array([row], dtype=EVENT_DTYPE))[0])
    except OverflowError:
        return True


def _bad_row_message(path, k: int, row: tuple) -> str:
    site, trial, ts, outcome, setting = row
    return (
        f"{path}, line {k + 2}: site must be 1 or 2, outcome -1 or +1, timestamp "
        f"and setting finite; got site={site}, trial={trial}, timestamp_ns={ts!r}, "
        f"outcome={outcome}, setting_rad={setting!r}"
    )
