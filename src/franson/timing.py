"""Time-tagged detection events and coincidence-window postselection.

Turns per-trial station responses into timestamped detection events, pairs
them back up through a coincidence window the way a counting experiment
would, and reports the apparent postselection efficiency per site and
setting.

Events and coincident pairs are columns: :class:`EventColumns` and
:class:`PairColumns` hold one contiguous 1-d array per field, so each step
reads and writes only the fields it needs.  The events CSV has one column
per event field, in the same order.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from .core import _KEY_QUANTUM, _KEY_WRAP, TWO_PI
from .inequalities import CorrelationTable
from .lhv import TrialBatch

def _column(dtype):
    return field(metadata={"dtype": np.dtype(dtype)})


@dataclass(frozen=True, eq=False)
class _Columns:
    """One contiguous 1-d array per field, all of one length.

    Each field is converted to its column's dtype on construction.
    ``len()`` is the row count and ``columns[name]`` is a column.
    """

    def __post_init__(self) -> None:
        sizes = set()
        for f in fields(self):
            col = np.asarray(getattr(self, f.name), dtype=f.metadata["dtype"])
            if col.ndim != 1:
                raise ValueError(f"column {f.name} must be 1-d, got shape {col.shape}")
            object.__setattr__(self, f.name, np.ascontiguousarray(col))
            sizes.add(col.size)
        if len(sizes) > 1:
            raise ValueError(
                f"columns of one {type(self).__name__} differ in length: {sorted(sizes)}"
            )

    def __len__(self) -> int:
        return getattr(self, fields(self)[0].name).size

    def __getitem__(self, name: str) -> np.ndarray:
        if name not in self.__dataclass_fields__:
            raise KeyError(name)
        return getattr(self, name)

    def take(self, rows):
        """The rows at the indices ``rows``, in that order; a slice gives views."""
        return type(self)(*(getattr(self, f.name)[rows] for f in fields(self)))

    @classmethod
    def empty(cls, size: int):
        """``size`` rows of uninitialised columns, to be filled in place."""
        return cls(*(np.empty(size, dtype=f.metadata["dtype"]) for f in fields(cls)))


@dataclass(frozen=True, eq=False)
class EventColumns(_Columns):
    """Detection events, one row per click."""

    site: np.ndarray = _column(np.uint8)            # 1 or 2
    trial: np.ndarray = _column(np.int64)
    timestamp_ns: np.ndarray = _column(np.float64)
    outcome: np.ndarray = _column(np.int8)          # -1 or +1
    setting_rad: np.ndarray = _column(np.float64)


CSV_COLUMNS = tuple(f.name for f in fields(EventColumns))


@dataclass(frozen=True, eq=False)
class PairColumns(_Columns):
    """Coincident pairs, one row per coincidence."""

    timestamp1_ns: np.ndarray = _column(np.float64)
    timestamp2_ns: np.ndarray = _column(np.float64)
    outcome1: np.ndarray = _column(np.int8)
    outcome2: np.ndarray = _column(np.int8)
    setting1_rad: np.ndarray = _column(np.float64)
    setting2_rad: np.ndarray = _column(np.float64)


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


_NOT_FINITE = "emission times must be finite"
_GAPS_TOO_SMALL = (
    "emission times must be strictly increasing with gaps larger "
    "than twice the path difference, so coincidences stay unambiguous"
)


def _check_emission_gaps(t: np.ndarray, timing: InterferometerTiming) -> None:
    """Refuse times that are not finite, or not increasing by more than
    twice the path difference from one to the next."""
    if not np.all(np.isfinite(t)):
        raise ValueError(_NOT_FINITE)
    if not np.all(np.diff(t) > 2.0 * timing.path_difference_ns):
        raise ValueError(_GAPS_TOO_SMALL)


def _coarse_timestamps(first, last, timing: InterferometerTiming) -> str | None:
    """Why increasing emission times from ``first`` to ``last`` give
    timestamps too coarse to resolve the path difference, or None when
    they do not."""
    dt = timing.path_difference_ns
    # the largest |e| is at one end of the increasing times
    reach = max(abs(first), abs(last)) + timing.short_arm_ns + dt
    limit = (dt - timing.window_ns) / 2.0
    if np.spacing(reach) <= limit:
        return None
    return (
        f"emission times give timestamps up to {float(reach)!r} ns, where "
        f"doubles are {float(np.spacing(reach))!r} ns apart: more than (path "
        f"difference - window)/2 = {limit!r} ns, too coarse to resolve the "
        "path difference"
    )


def _check_emission_times(emission_times: np.ndarray, timing: InterferometerTiming) -> np.ndarray:
    """Emission times as a float64 array, refused unless their timestamps
    pair up unambiguously.

    The times must be finite, with gaps larger than twice the path
    difference d, and fine enough for float64 to resolve d: the spacing u
    of doubles at M = max|e| + s + d (e the emission times, s the short
    arm, computed in float64) must be at most (d - W)/2, W the window.

    Proof that this suffices.  A timestamp is fl(fl(e + s) + L*d), L 0 or
    1.  Rounding is monotone, so no rounded value here exceeds M in
    magnitude, and rounding to nearest errs by at most half the spacing at
    its result, at most u/2: a timestamp lies within u of e + s + L*d.
    Within one site, trials k < k' have exact timestamps more than
    2d - d = d apart, so their rounded timestamps are more than
    d - 2u >= W apart: each site stays sorted, and events of different
    trials never share a window.  Within one trial both sites round e + s
    alike, to y, so two early or two late arrivals get equal timestamps,
    and an early and a late one differ by fl(y + d) - y >= d - u/2 > W.
    Rounding the difference of two timestamps is monotone and W is a
    double, so no rounded difference crosses the window either.
    """
    t = np.asarray(emission_times, dtype=np.float64)
    if t.ndim != 1:
        raise ValueError("emission times must be a 1-d sequence")
    if t.size == 0:
        return t
    _check_emission_gaps(t, timing)
    coarse = _coarse_timestamps(t[0], t[-1], timing)
    if coarse:
        raise ValueError(coarse)
    return t


def check_emission_schedule(times, count: int, timing: InterferometerTiming, chunk: int) -> None:
    """Refuse ``count`` emission times, made a chunk at a time, as
    :func:`emit_events_from_batch` refuses all of them in one call: with the
    same message, the reach taken over all of them.

    ``times(first, n)`` makes times ``first`` to ``first + n - 1``, each
    chunk equal to the same slice of one whole call, and the times must be
    meant to increase.  Increasing times are finite when both ends are, and
    reach furthest at one end, so only the ends and the gap across each
    boundary between chunks of ``chunk`` times are made here; emit checks
    the gaps inside each chunk it is given.  One call refuses a gap before
    coarse timestamps, so coarse timestamps first have every gap scanned.
    """
    if count == 0:
        return
    ends = np.concatenate([times(0, 1), times(count - 1, 1)])
    if not np.all(np.isfinite(ends)):
        raise ValueError(_NOT_FINITE)
    for first in range(chunk, count, chunk):
        _check_emission_gaps(times(first - 1, 2), timing)
    coarse = _coarse_timestamps(ends[0], ends[1], timing)
    if coarse:
        for first in range(0, count, chunk):
            _check_emission_gaps(times(first, min(chunk, count - first)), timing)
        raise ValueError(coarse)


def emit_events_from_batch(
    batch: TrialBatch,
    emission_times: np.ndarray,
    timing: InterferometerTiming,
    phi: float,
    psi: float,
    first_trial: int = 0,
) -> EventColumns:
    """Vectorized event emission for a block of trials at fixed settings.

    A detected response produces one event with timestamp
    (emission + short arm) + path difference when the arrival is late, or
    + 0.0 when it is early.  Events come grouped by site: site 1's events,
    then site 2's, each in trial order.  The block's trials are numbered
    from ``first_trial``.

    Each site's run is sorted by timestamp by construction: emission gaps
    exceed twice the path difference, so a late arrival never overtakes the
    next trial.  :func:`postselect` takes the runs as they are; only the
    events CSV needs them merged into one time-ordered stream.
    """
    t = _check_emission_times(emission_times, timing)
    n = len(batch.outcome1)
    if t.size != n:
        raise ValueError("one emission time is required per trial")
    dt = timing.path_difference_ns
    early = t + timing.short_arm_ns
    # a site that detected every trial takes its rows as views
    rows = [
        slice(None) if d.all() else np.flatnonzero(d) for d in (batch.detected1, batch.detected2)
    ]
    numbers = np.arange(first_trial, first_trial + n)
    trials = [numbers[r] for r in rows]
    n1 = trials[0].size
    timestamps = np.empty(n1 + trials[1].size)
    for out, r, late in zip((timestamps[:n1], timestamps[n1:]), rows, (batch.late1, batch.late2)):
        # a late flag times dt is dt or +0.0, added to emission + short arm
        np.multiply(late[r], dt, out=out)
        out += early[r]
    site = np.full(timestamps.size, 2, dtype=np.uint8)
    site[:n1] = 1
    setting = np.full(timestamps.size, psi, dtype=np.float64)
    setting[:n1] = phi
    return EventColumns(
        site=site,
        trial=np.concatenate(trials),
        timestamp_ns=timestamps,
        outcome=np.concatenate([batch.outcome1[rows[0]], batch.outcome2[rows[1]]]),
        setting_rad=setting,
    )


# ---------------------------------------------------------------------------
# postselection

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
    """Apparent postselection efficiency table, one entry per site and
    setting."""

    entries: tuple[EfficiencyEntry, ...]

    @property
    def eta(self) -> float | None:
        """Minimum over sites and settings of P(coincident | locally
        detected), the quantity the inefficiency and delay bounds are
        written in; None when no entry has a detection."""
        return min((e.ratio for e in self.entries if e.ratio is not None), default=None)

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
    pairs: PairColumns
    report: EfficiencyReport

    @property
    def coincidences(self) -> int:
        return len(self.pairs)


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
    if heads.size == 1:
        # one run, as in every pipeline chunk: one key row, nothing to sort
        return np.append(heads, n), np.zeros(1, dtype=np.intp), heads
    keys = [_setting_keys(c[heads]) for c in columns]
    # a stable sort of the key rows, first column first, puts each key
    # row's first run at the front of its group
    order = np.lexsort(keys[::-1])
    new = np.zeros(order.size, dtype=bool)
    new[:1] = True
    for k in keys:
        k = k[order]
        new[1:] |= k[1:] != k[:-1]
    code = np.empty(order.size, dtype=np.intp)
    code[order] = np.cumsum(new) - 1
    return np.append(heads, n), code, heads[order[new]]


def _sum_by_key(code: np.ndarray, size: int, per_run: np.ndarray) -> np.ndarray:
    """Exact integer totals per key of values given per run."""
    total = np.zeros(size, dtype=np.int64)
    if code.size == size:
        # one run per key: the totals are the runs' values
        total[code] = per_run
    else:
        np.add.at(total, code, per_run)
    return total


def _site_streams(events: EventColumns):
    """Each site's (timestamps, outcomes, settings) in timestamp order, and,
    for rows not grouped by site that came in time order, each site-1
    event's count of site-2 events ahead of it (None for other rows).

    Rows grouped by site (site 1's, then site 2's) are sliced as they are;
    other orders are split by site first.  A site whose timestamps are not
    nondecreasing is sorted with a stable sort, so equal timestamps keep
    their input order.
    """
    ts, site = events["timestamp_ns"], events["site"]
    is1 = site == 1
    n1 = int(np.count_nonzero(is1))
    if is1[:n1].all() and (site[n1:] == 2).all():
        rows = (slice(0, n1), slice(n1, None))
    else:
        rows = (np.flatnonzero(is1), np.flatnonzero(site == 2))
        if n1 + rows[1].size != site.size:
            raise ValueError("every event's site must be 1 or 2")
        if np.all(ts[1:] >= ts[:-1]):
            streams = [(ts[r], events["outcome"][r], events["setting_rad"][r]) for r in rows]
            return streams, rows[0] - np.arange(n1)
    streams = []
    for r in rows:
        t, outcome, setting = ts[r], events["outcome"][r], events["setting_rad"][r]
        if not np.all(t[1:] >= t[:-1]):
            order = np.argsort(t, kind="stable")
            t, outcome, setting = t[order], outcome[order], setting[order]
        streams.append((t, outcome, setting))
    return streams, None


def _merge_rank(t1: np.ndarray, t2: np.ndarray) -> np.ndarray:
    """For each time of the sorted run t1, the count of times of the sorted
    run t2 ahead of it in one time order of both, t1's first at equal times:
    its place in one stable sort of the two runs, which is a linear merge,
    less its index in t1."""
    places = np.flatnonzero(np.argsort(np.concatenate([t1, t2]), kind="stable") < t1.size)
    return places - np.arange(t1.size)


def _separated_runs(t1: np.ndarray, t2: np.ndarray, w: float) -> bool:
    """Whether sorted runs t1 and t2 have one length n > 1 and every rounded
    difference across neighbouring indices is at least ``w``:
    fl(t1[i+1] - t2[i]) >= w and fl(t2[i+1] - t1[i]) >= w."""
    if not t1.size == t2.size > 1:
        return False
    gap = np.subtract(t1[1:], t2[:-1])
    if not np.all(gap >= w):
        return False
    np.subtract(t2[1:], t1[:-1], out=gap)
    return bool(np.all(gap >= w))


def _first_partners(
    t1: np.ndarray, t2: np.ndarray, ahead: np.ndarray, w: float
) -> tuple[np.ndarray, np.ndarray]:
    """Indices (i, j) of each site-1 time t1[i] with a partner and its
    earliest partner t2[j], |fl(t2[j] - t1[i])| < w, in site-1 order, given
    ``ahead``, the merge rank of t1 among t2 (see :func:`_merge_rank`).

    The partner is the first j with t2[j] - t1 > -w, the lower half of the
    |dt| < w rule as the rounded difference gives it.  The difference is
    nondecreasing in t2, and exact for t2 within a factor 2 of t1
    (Sterbenz's lemma), so it does not round onto the edge the way t1 - w
    does at large timestamps.  The first site-2 event behind a site-1 event
    in the merge has t2 >= t1 and passes; its index is ahead unless the
    site-2 event before it passes too.  There the index is bisected: every
    site-2 event below fl(t1 - w) fails.  Which of equal timestamps the
    merge puts first moves ahead only between passing indices, so it
    changes no pair.
    """
    # t2 padded with -inf in front and +inf behind, neither ever a partner:
    # at[j] is t2[j] and before[j] the site-2 time ahead of it
    padded = np.concatenate([[-np.inf], t2, [np.inf]])
    before, at = padded[:-1], padded[1:]
    dist = before[ahead]
    dist -= t1
    miss = np.flatnonzero(dist > -w)
    if miss.size:
        # bisected in padded indices, where index 0 (-inf) fails
        t1m = t1[miss]
        lo = np.searchsorted(t2, t1m - w)
        hi = ahead[miss] + 1
        while np.any(hi - lo > 1):
            mid = (lo + hi) // 2
            inside = padded[mid] - t1m > -w
            hi = np.where(inside, mid, hi)
            lo = np.where(inside, lo, mid)
        ahead[miss] = hi - 1
    dist = at[ahead]
    dist -= t1
    i_idx = np.flatnonzero(np.abs(dist, out=dist) < w)
    j_idx = ahead[i_idx]
    if np.any(j_idx[1:] == j_idx[:-1]):
        raise ValueError("ambiguous coincidences: one event matches several partners")
    return i_idx, j_idx


def postselect(events: EventColumns, timing: InterferometerTiming) -> PostselectionResult:
    """Pair events across sites through the coincidence window.

    Rows may come in any order: each site's events are taken in timestamp
    order, equal timestamps of one site in their input order.  Two
    detections coincide when they come from opposite sites and their
    timestamps differ by strictly less than the window.  Each site-1 event
    is paired with the earliest site-2 event inside its window (the first
    in that order when several share a timestamp), whether or not another
    site-1 event claims it too.  A site-2 event claimed twice makes the
    data ambiguous and raises; with emission gaps above twice the path
    difference that cannot happen.  Pairs come in site-1 order.

    Separated runs pair trial by trial.  When both sites' sorted runs t1
    and t2 have one length n > 1 and fl(t1[i+1] - t2[i]) >= W and
    fl(t2[i+1] - t1[i]) >= W for every i (W the window), as a timing
    pipeline chunk with every trial detected at both sites has, the pairs
    are exactly the i with |fl(t2[i] - t1[i])| < W.  Proof: rounding is monotone and fl(-x) =
    -fl(x), so for j < i, fl(t2[j] - t1[i]) <= fl(t2[i-1] - t1[i]) <= -W,
    and for j > i, fl(t2[j] - t1[i]) >= fl(t2[i+1] - t1[i]) >= W; only
    t2[i] can be t1[i]'s partner, and only t1[i] can claim t2[i], so no
    ambiguity arises.  A NaN fails a comparison, and every time takes part
    in one when n > 1, so runs with a NaN take the general search.
    """
    ((t1, outcome1, phases1), (t2, outcome2, phases2)), ahead = _site_streams(events)
    w = timing.window_ns
    # an infinite timestamp less its own infinity is NaN, never inside the
    # window, so the invalid-value warning is no news
    with np.errstate(invalid="ignore"):
        if _separated_runs(t1, t2, w):
            dist = np.subtract(t2, t1)
            i_idx = j_idx = np.flatnonzero(np.abs(dist, out=dist) < w)
        else:
            if ahead is None:
                ahead = _merge_rank(t1, t2)
            i_idx, j_idx = _first_partners(t1, t2, ahead, w)
    pairs = PairColumns(
        timestamp1_ns=t1[i_idx],
        timestamp2_ns=t2[j_idx],
        outcome1=outcome1[i_idx],
        outcome2=outcome2[j_idx],
        setting1_rad=phases1[i_idx],
        setting2_rad=phases2[j_idx],
    )
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
    return PostselectionResult(pairs=pairs, report=EfficiencyReport(tuple(entries)))


def correlation_from_pairs(
    pairs: PairColumns, table: CorrelationTable | None = None
) -> CorrelationTable:
    """Accumulate coincident outcome products into a correlation table.

    Cells come in sorted order of their (site-1, site-2) setting keys, each
    labelled with the phases of its first pair.  A setting pair already
    present in ``table`` (from an earlier block of the same run) has its
    integer counts merged, not replaced, and keeps its label, so blocks
    merged in order give the table of one call on all their pairs.
    """
    if table is None:
        table = CorrelationTable()
    if len(pairs) == 0:
        return table
    s1 = pairs["setting1_rad"]
    s2 = pairs["setting2_rad"]
    bounds, code, first = _setting_runs(s1, s2)
    prod = pairs["outcome1"].astype(np.int64) * pairs["outcome2"]
    count = _sum_by_key(code, first.size, np.diff(bounds))
    prod_sum = _sum_by_key(code, first.size, np.add.reduceat(prod, bounds[:-1]))
    for f, total, n in zip(first.tolist(), prod_sum.tolist(), count.tolist()):
        table.add_counts(float(s1[f]), float(s2[f]), total, n)
    return table


# ---------------------------------------------------------------------------
# CSV round trip


# Rows per block of the writer and the reader: big enough that the
# per-block Python calls are amortised, small enough that a block's strings
# and parsed records stay about 1 MB.  Blocks of 2^14 rows were no faster
# on 2 vCPUs and left the events round trip's peak memory about 3 MB higher.
_CSV_BLOCK_ROWS = 1 << 12

# The "site," text of every value of the uint8 site column, and "" for the
# row after the file's last.  A list: as a module-level object array it
# raised the events round trip's peak memory by about 0.2 MB, for no gain in
# speed.
_SITE_TEXT = ["%d," % site for site in range(256)] + [""]
_NO_SITE = 256

# Bytes per chunk when the reader counts the file's lines: a chunk and its
# three byte masks take 1 MB and stay in cache.  Chunks of 1 MiB were twice
# as slow and raised the events round trip's peak memory by about 1 MB.
_COUNT_CHUNK_BYTES = 1 << 18

# np.loadtxt's record of a block of rows.  The site and outcome are parsed
# into their columns' own dtypes: np.loadtxt refuses a value out of their
# range, and the block then goes row by row.  The setting is kept as its
# text, which float() converts once per distinct text of the block: a file
# holds a handful of settings, each written as a repr of up to 17 digits,
# which np.loadtxt would convert row by row.
_CSV_PARSE_DTYPE = np.dtype(
    [
        (f.name, "S32" if f.name == "setting_rad" else f.metadata["dtype"])
        for f in fields(EventColumns)
    ]
)

# The row path parses every integer column as int64, so that an
# out-of-range site or outcome is caught by its row checks before narrowing.
_CSV_ROW_DTYPE = np.dtype(
    [
        (f.name, np.float64 if f.metadata["dtype"].kind == "f" else np.int64)
        for f in fields(EventColumns)
    ]
)

# The odd multiplier of the polynomial that keys a 32-byte setting text by
# its four 64-bit words (the golden-ratio constant of Fibonacci hashing).
_TEXT_KEY_FACTOR = np.uint64(0x9E3779B97F4A7C15)


def write_events_csv(path, events: EventColumns) -> None:
    """Write events as CSV with columns site,trial,timestamp_ns,outcome,setting_rad.

    Rows end in ``\\r\\n``; integers are written in decimal and floats as
    their shortest round-trip repr, so :func:`read_events_csv` gives back
    the same bits.

    A block whose timestamps are all whole numbers below 2^53 in magnitude,
    none of them -0.0, writes them as ``"%d.0"`` of their int64 values,
    which is their repr.  Proof.  Such a double is exactly an integer n,
    and every integer of magnitude up to 2^53 is a double.  repr writes the
    shortest digit string that reads back as the double, the nearest one
    among equally short strings, so it writes n's own digits unless a
    shorter string reads back as n.  For n != 0, no other integer does,
    nor does a decimal more than 1/2 from n, which is nearer the double
    n - 1 or n + 1.  A non-integer within 1/2 of n has a digit at 10^-1 or
    below, and its leading digit is at 10^(p-1) or above, where
    10^p <= |n| < 10^(p+1), so it has at least p + 1 significant digits,
    and n has at most p + 1.  As |n| < 2^53 < 10^16, repr writes the digits
    in fixed notation, with the sign and ".0" appended, as "%d.0" does.
    0.0 is "0.0" either way; -0.0 is "-0.0" by repr and "0.0" by "%d.0".
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\r\n")
        if len(events):
            fh.write(_SITE_TEXT[events["site"][0]])
        for start in range(0, len(events), _CSV_BLOCK_ROWS):
            block = slice(start, start + _CSV_BLOCK_ROWS)
            timestamps = events["timestamp_ns"][block]
            whole = _whole_numbers(timestamps)
            # the block's values row by row, formatted by one %-template; a
            # row's text ends with the next row's "site,"
            values = [None] * (3 * timestamps.size)
            values[0::3] = events["trial"][block].tolist()
            values[1::3] = (timestamps if whole is None else whole).tolist()
            values[2::3] = _row_ends(events, block)
            row = "%d,%r%s" if whole is None else "%d,%d.0%s"
            fh.write(row * timestamps.size % tuple(values))


def _row_ends(events: EventColumns, block: slice) -> list[str]:
    """Each row's text after its timestamp in ``block``: its
    ``",outcome,setting\\r\\n"`` and the next row's ``"site,"``, none after
    the file's last row.  Each text is formatted once for each distinct
    (setting, outcome, next site) of the block.  Settings are told apart by
    their bits, not their values, so that -0.0 keeps its sign."""
    outcome, setting = events["outcome"][block], events["setting_rad"][block]
    following = events["site"][block.start + 1 : block.start + 1 + setting.size]
    next_site = np.full(setting.size, _NO_SITE)
    next_site[: following.size] = following
    bits, setting_codes = np.unique(setting.view(np.uint64), return_inverse=True)
    setting_text = [repr(x) for x in bits.view(np.float64).tolist()]
    # a row's key: its setting's index, the int8 outcome's byte, then the
    # next site in 9 bits, _NO_SITE after the file's last row
    keys, codes = np.unique(
        (setting_codes << 8 | outcome.view(np.uint8)) << 9 | next_site, return_inverse=True
    )
    outcomes = (keys >> 9).astype(np.uint8).view(np.int8).tolist()
    text = [
        ",%d,%s\r\n%s" % (o, setting_text[k], _SITE_TEXT[s])
        for o, k, s in zip(outcomes, (keys >> 17).tolist(), (keys & 511).tolist())
    ]
    return np.array(text, dtype=object)[codes].tolist()


def _whole_numbers(t: np.ndarray) -> np.ndarray | None:
    """``t`` as int64 when every value is a whole number below 2^53 in
    magnitude and none is -0.0, else None."""
    if not (np.abs(t) < 2.0**53).all():  # also refuses inf and nan
        return None
    n = t.astype(np.int64)
    # -0.0 has its sign bit set and converts to 0
    if (n != t).any() or (np.signbit(t) != (n < 0)).any():
        return None
    return n


def read_events_csv(path) -> EventColumns:
    """Read events written by write_events_csv; round trips exactly.

    Every row must have exactly five fields, site 1 or 2, outcome -1 or +1
    and a finite timestamp and setting; a row that does not raises
    ValueError naming its line (the header is line 1; a row that a quoted
    line break carries over several lines is named by its last).  A blank
    line is a malformed row.  The first bad row, malformed (a wrong field
    count, or a field that int() or float() refuses) or out of range, is
    named, and reading stops there.

    Blocks of lines are parsed and checked one at a time into columns
    sized by the file's line count, so the rows are held once.
    ``np.loadtxt`` parses a block's fields, each setting as its text, and
    float() converts each distinct setting text once.  A block that they
    do not take as valid rows is parsed row by row, as csv, int() and
    float() accept them.
    """
    with open(path, newline="") as fh:
        _check_header(csv.reader(fh))
        left = _count_lines(path) - 1
        out = EventColumns.empty(left)
        line, filled = 2, 0
        while left > 0 and (lines := list(itertools.islice(fh, min(_CSV_BLOCK_ROWS, left)))):
            block, used = _parse_block(lines), len(lines)
            if block is None:
                rows, used = _read_rows(path, lines, fh, line)
                block = np.array(rows, dtype=_CSV_ROW_DTYPE)
            for name in CSV_COLUMNS:
                out[name][filled : filled + len(block)] = block[name]
            filled += len(block)
            line, left = line + used, left - used
    return out.take(slice(0, filled))


def _parse_block(lines: list[str]) -> EventColumns | None:
    """``lines`` as checked rows, or None when a line does not parse as a
    valid row."""
    # np.loadtxt's text of a setting drops the NUL bytes that end it, and
    # float() refuses them
    if "\0" in "".join(lines):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            parsed = np.loadtxt(
                lines, dtype=_CSV_PARSE_DTYPE, delimiter=",", comments=None, ndmin=1
            )
    except (ValueError, Warning):
        return None
    # loadtxt skips blank lines, which are malformed rows here, so a row
    # count short of the line count is a bad block, as is a failed row check
    if len(parsed) != len(lines):
        return None
    setting = _setting_values(parsed["setting_rad"])
    if setting is None:
        return None
    block = EventColumns(*(parsed[name] for name in CSV_COLUMNS[:-1]), setting)
    return None if _bad_rows(block).any() else block


def _setting_values(text: np.ndarray) -> np.ndarray | None:
    """The float() of each 32-byte setting text, one call per distinct
    text, or None when a text fills all 32 bytes (it may have been cut),
    float() refuses one, or two distinct texts share a key."""
    words = np.ascontiguousarray(text).view(np.uint64).reshape(-1, 4)
    keys, codes = np.unique(_text_keys(words), return_inverse=True)
    # one row of each key, and every row must hold that row's words
    row = np.empty(keys.size, np.intp)
    row[codes] = np.arange(codes.size)
    # np.take: words[row[codes]] took about ten times as long
    if (np.take(words, row[codes], axis=0) != words).any():
        return None
    distinct = text[row].tolist()
    if any(len(t) == text.itemsize for t in distinct):
        return None
    try:
        return np.array([float(t) for t in distinct])[codes]
    except ValueError:
        return None


def _text_keys(words: np.ndarray) -> np.ndarray:
    """A 64-bit key of each row of four uint64 words, wrapping on overflow;
    equal rows have equal keys."""
    key = words[:, 0]
    for k in range(1, words.shape[1]):
        key = key * _TEXT_KEY_FACTOR + words[:, k]
    return key


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
        for chunk in iter(functools.partial(fh.read, _COUNT_CHUNK_BYTES), b""):
            text = np.frombuffer(chunk, np.uint8)
            lf, cr = text == ord("\n"), text == ord("\r")
            crlf = np.count_nonzero(cr[:-1] & lf[1:])
            lines += np.count_nonzero(lf) + np.count_nonzero(cr) - crlf
            if last == b"\r" and chunk[:1] == b"\n":
                lines -= 1  # a \r\n split across two chunks
            last = chunk[-1:]
    return lines + (last not in (b"\r", b"\n"))


def _bad_rows(ev) -> np.ndarray:
    return (
        ((ev["site"] != 1) & (ev["site"] != 2))
        | ((ev["outcome"] != 1) & (ev["outcome"] != -1))
        | ~np.isfinite(ev["timestamp_ns"])
        | ~np.isfinite(ev["setting_rad"])
    )


def _read_rows(path, lines: list[str], more, line: int) -> tuple[list[tuple], int]:
    """Row-by-row parse of ``lines``, the first of them line ``line`` of the
    file: the rows as int() and float() accept them, and the count of lines
    read, as csv.reader counts them.  A quoted field may carry a row on past
    ``lines`` into ``more``, the rest of the file.  A malformed row or one
    out of range raises ValueError naming its line."""
    reader = csv.reader(itertools.chain(lines, more))
    rows = []
    while reader.line_num < len(lines):
        try:
            r = next(reader)
            if len(r) != len(CSV_COLUMNS):
                raise ValueError(f"expected {len(CSV_COLUMNS)} fields, got {len(r)}")
            row = (int(r[0]), int(r[1]), float(r[2]), int(r[3]), float(r[4]))
        except (ValueError, csv.Error) as exc:
            raise ValueError(
                f"{path}, line {line - 1 + reader.line_num}: malformed event row ({exc})"
            ) from exc
        site, trial, ts, outcome, setting = row
        if not (
            site in (1, 2)
            and outcome in (1, -1)
            and -(2**63) <= trial < 2**63
            and math.isfinite(ts)
            and math.isfinite(setting)
        ):
            raise ValueError(
                f"{path}, line {line - 1 + reader.line_num}: site must be 1 or 2, outcome "
                f"-1 or +1, timestamp and setting finite; got site={site}, trial={trial}, "
                f"timestamp_ns={ts!r}, outcome={outcome}, setting_rad={setting!r}"
            )
        rows.append(row)
    return rows, reader.line_num
