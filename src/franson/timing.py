"""Time-tagged detection events and coincidence-window postselection.

Turns per-trial station responses into timestamped detection records, pairs
them back up through a coincidence window the way a counting experiment
would, and reports the apparent postselection efficiency per site and
setting.
"""

from __future__ import annotations

import csv
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
        if self.path_difference_ns <= 0.0:
            raise ValueError("path difference must be positive")
        if not (0.0 < self.window_ns < self.path_difference_ns):
            raise ValueError("window must satisfy 0 < W < path difference")
        if self.short_arm_ns < 0.0:
            raise ValueError("short arm delay cannot be negative")


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
    Returns a structured array sorted by timestamp.
    """
    t = _check_emission_times(emission_times, timing)
    n = len(batch.outcome1)
    if t.size != n:
        raise ValueError("one emission time is required per trial")
    dt = timing.path_difference_ns
    rows = []
    for site, (out, late, det, setting) in enumerate(
        (
            (batch.outcome1, batch.late1, batch.detected1, phi),
            (batch.outcome2, batch.late2, batch.detected2, psi),
        ),
        start=1,
    ):
        idx = np.flatnonzero(det)
        ev = np.empty(idx.size, dtype=EVENT_DTYPE)
        ev["site"] = site
        ev["trial"] = idx + trial_offset
        ev["timestamp_ns"] = t[idx] + timing.short_arm_ns + np.where(late[idx], dt, 0.0)
        ev["outcome"] = out[idx]
        ev["setting_rad"] = setting
        rows.append(ev)
    events = np.concatenate(rows)
    events = events[np.argsort(events["timestamp_ns"], kind="stable")]
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
    def ratio(self) -> float:
        return self.coincident / self.detected if self.detected else float("nan")


@dataclass(frozen=True)
class EfficiencyReport:
    """Apparent postselection efficiency table.

    ``eta`` is the minimum over sites and settings of
    P(coincident | locally detected), the quantity the inefficiency and
    delay bounds are written in.
    """

    entries: tuple[EfficiencyEntry, ...]
    eta: float

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


def postselect(events: np.ndarray, timing: InterferometerTiming) -> PostselectionResult:
    """Pair events across sites through the coincidence window.

    Two detections coincide when they come from opposite sites and their
    timestamps differ by strictly less than the window.  Each site-1 event
    is matched to the earliest unused site-2 event inside its window; with
    emission gaps above twice the path difference that partner is unique.
    Ambiguous data (one site-2 event claimed twice) raises.
    """
    ev = np.asarray(events, dtype=EVENT_DTYPE)
    ev = ev[np.argsort(ev["timestamp_ns"], kind="stable")]
    e1 = ev[ev["site"] == 1]
    e2 = ev[ev["site"] == 2]
    t1 = e1["timestamp_ns"]
    t2 = e2["timestamp_ns"]
    w = timing.window_ns
    # first site-2 index with timestamp > t1 - w
    cand = np.searchsorted(t2, t1 - w, side="right")
    ok = cand < t2.size
    hit = np.zeros(t1.size, dtype=bool)
    hit[ok] = np.abs(t2[cand[ok]] - t1[ok]) < w
    i_idx = np.flatnonzero(hit)
    j_idx = cand[hit]
    if j_idx.size and np.unique(j_idx).size != j_idx.size:
        raise ValueError("ambiguous coincidences: one event matches several partners")
    out = np.empty(i_idx.size, dtype=PAIR_DTYPE)
    out["timestamp1_ns"] = t1[i_idx]
    out["timestamp2_ns"] = t2[j_idx]
    out["outcome1"] = e1["outcome"][i_idx]
    out["outcome2"] = e2["outcome"][j_idx]
    out["setting1_rad"] = e1["setting_rad"][i_idx]
    out["setting2_rad"] = e2["setting_rad"][j_idx]
    matched1 = hit
    matched2 = np.zeros(t2.size, dtype=bool)
    matched2[j_idx] = True
    entries = []
    for site, e, matched in ((1, e1, matched1), (2, e2, matched2)):
        keys = _setting_keys(e["setting_rad"])
        for key in np.unique(keys):
            sel = keys == key
            entries.append(
                EfficiencyEntry(
                    site=site,
                    setting_rad=float(e["setting_rad"][sel][0]),
                    detected=int(sel.sum()),
                    coincident=int(matched[sel].sum()),
                )
            )
    eta = min((x.ratio for x in entries), default=float("nan"))
    return PostselectionResult(pairs=out, report=EfficiencyReport(tuple(entries), eta))


def correlation_from_pairs(pairs: np.ndarray, table: CorrelationTable | None = None) -> CorrelationTable:
    """Accumulate coincident outcome products into a correlation table.

    A setting pair already present in ``table`` (from an earlier block of
    the same run) has its counts merged, not replaced.
    """
    if table is None:
        table = CorrelationTable()
    if pairs.size == 0:
        return table
    k1 = _setting_keys(pairs["setting1_rad"])
    k2 = _setting_keys(pairs["setting2_rad"])
    prod = pairs["outcome1"].astype(np.int64) * pairs["outcome2"].astype(np.int64)
    for row in np.unique(np.stack([k1, k2], axis=1), axis=0):
        sel = (k1 == row[0]) & (k2 == row[1])
        first = int(np.flatnonzero(sel)[0])
        phi = float(pairs["setting1_rad"][first])
        psi = float(pairs["setting2_rad"][first])
        prod_sum = int(prod[sel].sum())
        count = int(sel.sum())
        if table.has(phi, psi):
            prev = table.cell(phi, psi)
            if prev.count > 0:
                prod_sum += round(prev.estimate * prev.count)
                count += prev.count
        table.set_counts(phi, psi, prod_sum, count)
    return table


# ---------------------------------------------------------------------------
# CSV round trip


def write_events_csv(path, events: np.ndarray) -> None:
    """Write events as CSV with columns site,trial,timestamp_ns,outcome,setting_rad."""
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


def read_events_csv(path) -> np.ndarray:
    """Read events written by write_events_csv; round trips exactly."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != CSV_COLUMNS:
            raise ValueError(f"unexpected CSV header: {header}")
        rows = [
            (int(r[0]), int(r[1]), float(r[2]), int(r[3]), float(r[4]))
            for r in reader
        ]
    out = np.array(rows, dtype=EVENT_DTYPE) if rows else np.empty(0, dtype=EVENT_DTYPE)
    return out
