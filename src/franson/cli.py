"""Command line front end.

Every subcommand prints one JSON document (stdout by default, ``--out`` to
write a file).  Reports contain no wall-clock data, and all randomness is
counter-based from the given seed, so reruns with the same arguments are
byte-identical.

Exit codes: 0 success, 2 invalid arguments or configuration, 3 resource
limit exceeded or an allocation failed.

On glibc, ``simulate``'s timing pipeline, ``report`` and the search of
``verify-bounds`` fix the allocator's thresholds for the rest of the process
(see ``_keep_freed_heap``): a program that calls ``main`` in-process keeps
up to 64 MiB of freed heap instead of returning it to the operating system.  While the timing pipeline
runs with its sampler thread, the calling thread's CPU mask is narrowed to
leave one CPU to that thread, and restored on exit (see ``_disjoint_cpus``).
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import ctypes
import functools
import itertools
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .core import RandomSource, ResourceLimitError, SettingsChain, chain_settings, setting_key
from .inequalities import (
    CorrelationTable,
    ModelClass,
    ModelKind,
    bound_for,
    chained_statistic,
    critical_visibility,
    evaluate,
    statistic_stderr,
    threshold_efficiency,
)
from .lhv import TrialBatch, aklz_strategy, simulate_strategy_pairs
from .quantum import chained_quantum_value, franson_correlation, sample_franson_events
from .setups import SetupVariant, simulate_setup
from .timing import (
    CSV_COLUMNS,
    EfficiencyEntry,
    EfficiencyReport,
    EventColumns,
    InterferometerTiming,
    check_emission_schedule,
    correlation_from_pairs,
    emit_events_from_batch,
    postselect,
    read_events_csv,
    write_events_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RESOURCE = 3

_TERM_COUNTS = (4, 6, 8, 10, 12)

class ConfigError(ValueError):
    pass


def _emit(payload: dict, out: str | None) -> None:
    # strict JSON (RFC 8259): a non-finite float raises instead of printing
    # NaN or Infinity
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _config_value(action: argparse.Action, key: str, value):
    """A config value through its flag's checks, converted as argparse would.

    On/off flags take only JSON booleans and multi-value flags a non-empty
    list.  Every other value is checked by the flag's type and choices in
    its JSON spelling, as if typed after the flag: 4.7 is not an int, and
    only a string stands for an option without a type.
    """
    if action.nargs == 0:
        if not isinstance(value, bool):
            raise ConfigError(f"config key {key!r}: expected true or false, got {json.dumps(value)}")
        return value
    if action.nargs == "+" and not (isinstance(value, list) and value):
        raise ConfigError(f"config key {key!r}: expected a non-empty list, got {json.dumps(value)}")
    what = getattr(action.type, "__name__", "string")
    items = []
    for item in value if action.nargs == "+" else [value]:
        invalid = ConfigError(f"config key {key!r}: invalid {what} value {json.dumps(item)}")
        if isinstance(item, str):
            text = item
        elif action.type is not None and type(item) in (int, float):
            text = json.dumps(item)
        else:
            raise invalid
        try:
            items.append(text if action.type is None else action.type(text))
        except ValueError:
            raise invalid from None
        if action.choices is not None and items[-1] not in action.choices:
            raise ConfigError(
                f"config key {key!r}: unknown {action.dest.replace('_', ' ')} {items[-1]!r} "
                f"(choose from {', '.join(action.choices)})"
            )
    return items if action.nargs == "+" else items[0]


def _merge_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> argparse.Namespace:
    """Fill unset options from the JSON config file, if one was given.

    Explicit command line flags win; config keys use the flag names with
    dashes or underscores, and each value passes its flag's checks.
    """
    path = getattr(args, "config", None)
    if not path:
        return args
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    # argparse has no public accessor for a parser's actions
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    actions = {a.dest: a for a in subparsers.choices[args.subcommand]._actions if a.dest != "help"}
    for key, value in raw.items():
        attr = key.replace("-", "_")
        if attr not in actions:
            raise ConfigError(f"unknown config key: {key}")
        value = _config_value(actions[attr], key, value)
        if getattr(args, attr) is None or getattr(args, attr) is False:
            setattr(args, attr, value)
    return args


def _fill_defaults(args: argparse.Namespace, defaults: dict) -> None:
    for attr, value in defaults.items():
        if getattr(args, attr) is None:
            setattr(args, attr, value)


def _timing(args) -> InterferometerTiming:
    return InterferometerTiming(
        path_difference_ns=float(args.path_difference_ns),
        window_ns=float(args.window_ns),
        short_arm_ns=float(args.short_arm_ns),
    )


def _emission_gap(args, timing: InterferometerTiming, chain: SettingsChain) -> float:
    """``--emission-gap-ns``: finite and larger than twice the path
    difference, so that late arrivals never overtake the next trial, and
    small enough that the last setting pair's last emission time is finite."""
    gap = float(args.emission_gap_ns)
    if not (2.0 * timing.path_difference_ns < gap < math.inf):
        raise ConfigError(
            "--emission-gap-ns must be finite and larger than twice the path "
            f"difference ({2.0 * timing.path_difference_ns!r} ns), got {gap!r}"
        )
    trials = int(args.trials)
    last = (chain.terms - 1) * (trials + 8) * gap + gap * (trials - 1)
    if not math.isfinite(last):
        raise ConfigError(
            f"--emission-gap-ns {gap!r} is too large: the last emission time, "
            f"(terms - 1)*(trials + 8)*gap + (trials - 1)*gap, overflows at "
            f"{chain.terms} terms and {trials} trials per setting pair"
        )
    return gap


def _model_class(name: str, eta: float | None) -> ModelClass:
    kind = ModelKind(name)
    if kind.takes_efficiency:
        if eta is None:
            raise ConfigError(f"{name} requires --eta")
        return ModelClass(kind=kind, eta=float(eta))
    return ModelClass(kind=kind)


def _verdict_models() -> list[ModelClass]:
    """Every class without an efficiency: emission-time realism, the
    paper's claim, first, path realism last, as 4-term reports list them."""
    kinds = [k for k in ModelKind if not k.takes_efficiency]
    kinds.sort(
        key=lambda k: (k is not ModelKind.EMISSION_TIME_REALISM, k is ModelKind.PATH_REALISM)
    )
    return [ModelClass(kind=k) for k in kinds]


def _require_pair(table, chain: SettingsChain, p: int) -> None:
    """Refuse a table without coincidences at the chain's ``term_order[p]``."""
    i, j, _ = chain.term_order[p]
    phi, psi = chain.site1_settings[i], chain.site2_settings[j]
    if not table.has(phi, psi):
        raise ConfigError(
            "events do not cover every setting pair of the "
            f"{chain.terms}-term chain: no coincidences at (phi, psi) = "
            f"({phi.phase!r}, {psi.phase!r})"
        )


def _table_report(table: CorrelationTable, chain: SettingsChain, models) -> dict:
    """A report's account of its correlation table: the chained statistic,
    its standard error, the table, and a verdict per model class."""
    return {
        "statistic": chained_statistic(table, chain),
        "stderr": statistic_stderr(table, chain),
        "table": table.to_json_dict(),
        "verdicts": [evaluate(table, chain, m).to_json_dict() for m in models],
    }


# ---------------------------------------------------------------------------
# simulate


# Trials per chunk of a setting pair's block.  The pipeline holds about
# three chunks' arrays at a time, one analysed while the next two are
# sampled, however many trials a pair has.  At 2^16 trials a float column
# is 512 kB, so the numpy passes over a chunk run in cache.  On 2 vCPUs,
# with freed heap kept between chunks, 2^15 trials lost all 10 alternating
# benchmark pairs (median throughput ratio 0.83), and 2^17 won 6 of 10
# (1.08) at 73 MB peak RSS against 59 MB.
_CHUNK_TRIALS = 1 << 16

# Chunks of fewer trials are sampled on the main thread: handing them to the
# worker thread costs about what overlapping their sampling saves.  On 2
# vCPUs, with freed heap kept between chunks, handing 10^6-trial runs' last
# 16,960-trial chunk of each pair to the worker too (a threshold of 2^14)
# lost 8 of 10 benchmark pairs (median throughput ratio 0.99).  With the
# two threads on disjoint CPUs, two chunks queued and separated runs paired
# trial by trial, in-process runs of one chunk a pair, in two sets of 10
# alternating runs: the worker beat sampling on the main thread in 6 and 8
# of 10 at 3.3*10^4 trials (9.2 against 8.9 and 9.8 against 12.0 ms), 5
# and 8 at 5*10^4 and 9 and 9 at 6.5*10^4.  Neither side won 8 of 10 in
# both sets at the smaller sizes, so the threshold stays.
_BACKGROUND_MIN_TRIALS = 1 << 15

# Chunks handed to the worker ahead of the one the main thread analyses.
# Once postselect pairs separated runs trial by trial, sampling a chunk
# takes longer than analysing one; with one chunk queued, the worker idled
# after each chunk until the main thread took it and queued the next.
_QUEUED_CHUNKS = 2

# mallopt parameters, from glibc's <malloc.h>
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


@functools.cache
def _keep_freed_heap() -> None:
    """On glibc, keep freed heap for reuse instead of returning it per chunk.

    glibc's dynamic trim threshold (a few MB after the first freed
    arrays) hands the freed top of the heap back to the operating system
    after every chunk, so the next chunk's arrays fault their pages in
    again: about 415 minor faults a 2^16-trial chunk of ``simulate
    --source aklz``, most of them in emit and postselect.  Fixing the mmap
    threshold at 32 MiB and the trim threshold at 64 MiB, the values
    glibc's own dynamic rule reaches once a 32 MiB block has been freed,
    keeps that heap for the next chunk.

    The setting is process-wide and lasts as long as the process.
    ``mallopt`` is MT-Unsafe, so this runs before the sampler thread
    starts, once per process.  Elsewhere than glibc it does nothing.
    """
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        glibc = None
    if not glibc:
        return
    libc = ctypes.CDLL(None)
    libc.mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    libc.mallopt(_M_TRIM_THRESHOLD, 64 << 20)


@contextlib.contextmanager
def _disjoint_cpus(split: bool):
    """Give the pipeline's worker one CPU and the calling thread the others.

    Yields the worker's initializer: it pins the worker to one CPU of the
    calling thread's mask (``sched_getaffinity(0)`` is per thread on
    Linux), and the calling thread keeps the rest of the mask until the
    block exits, where its mask is restored.  Unpinned, the two threads
    were often scheduled on one CPU: on 2 vCPUs, with a pure-Python loop
    run between in-process ``simulate --source aklz --trials 1000000``
    runs (as the benchmark runs its reference loop), process CPU time /
    wall time was at most 1.00 in 80 of 80 runs, and split its median was
    1.58 (0.17 against 0.23-0.31 s a run).  Yields None, and changes
    nothing, unless ``split`` holds, the platform has
    ``sched_setaffinity`` and the mask has two CPUs or more; an affinity
    call that fails leaves the threads unpinned.
    """

    def pin_to(cpus: set[int]) -> None:
        with contextlib.suppress(OSError):
            os.sched_setaffinity(0, cpus)

    worker = None
    if split and hasattr(os, "sched_setaffinity"):
        with contextlib.suppress(OSError):
            mask = os.sched_getaffinity(0)
            if len(mask) >= 2:
                os.sched_setaffinity(0, mask - {max(mask)})
                worker = max(mask)
    if worker is None:
        yield None
        return
    try:
        yield functools.partial(pin_to, {worker})
    finally:
        pin_to(mask)


def _pair_emission_times(p: int, trials: int, gap_ns: float):
    """Setting pair ``p``'s emission times ``first`` to ``first + count - 1``
    as ``times(first, count)``: one gap apart, each pair's block starting 8
    gaps after the previous one ends."""
    start = p * (trials + 8) * gap_ns
    return lambda first, count: start + gap_ns * np.arange(
        first, first + count, dtype=np.float64
    )


class _Tally:
    """Coincidences, correlation table and apparent efficiency added up over
    the postselected blocks of one event stream.

    A setting shows up in several blocks (the chunks of a setting pair, and
    two chain terms), so its efficiency counts are pooled by site and
    setting key, labelled with the first block's phase: the totals, labels
    and order are those of one postselection of the whole stream.
    """

    def __init__(self) -> None:
        self.table = CorrelationTable()
        self.coincidences = 0
        self._pooled: dict[tuple[int, int], list] = {}

    def add(self, result) -> None:
        correlation_from_pairs(result.pairs, self.table)
        self.coincidences += result.coincidences
        for e in result.report.entries:
            slot = self._pooled.setdefault(
                (e.site, setting_key(e.setting_rad)), [e.setting_rad, 0, 0]
            )
            slot[1] += e.detected
            slot[2] += e.coincident

    def efficiency(self) -> EfficiencyReport:
        return EfficiencyReport(
            tuple(
                EfficiencyEntry(site, rad, det, coinc)
                for (site, _), (rad, det, coinc) in sorted(self._pooled.items())
            )
        )


def _pipeline_tables(
    sample,
    rs: RandomSource,
    trials: int,
    chain: SettingsChain,
    timing: InterferometerTiming,
    gap_ns: float,
    events_csv: str | None,
):
    """Emit timed events per setting pair, postselect, and accumulate.

    Setting pair ``p`` is the chain's ``term_order[p]``: it runs at its two
    settings' phases on ``rs.substream(p + 1)``.  ``sample(phi, psi, rs,
    first, count)`` gives trials ``first`` to ``first + count - 1`` at site
    phases ``phi`` and ``psi`` from ``rs`` as a ``TrialBatch``, equal to
    that slice of one call for the whole pair.  Each pair runs in chunks of
    ``_CHUNK_TRIALS`` trials, pair after pair; while the main thread emits,
    postselects and tabulates one chunk, one worker thread, kept for the
    whole call, samples the next ``_QUEUED_CHUNKS`` (two) in turn, so three
    chunks' arrays are held at a time (a chunk of fewer than
    ``_BACKGROUND_MIN_TRIALS`` trials is sampled on the main thread when
    its turn comes).  When a stage raises, the chunks still queued are
    cancelled; the one being sampled finishes.  Emission gaps above twice
    the path difference keep every coincidence inside one trial, so chunks
    pair and count exactly as the whole block would.  A setting pair
    without coincidences is refused once its last chunk is tallied, before
    the next pair is emitted.

    Emit groups a chunk's events by site and postselect takes them so:
    every trial detected at both sites, as in both of ``simulate``'s
    sources, gives equal separated runs, which postselect pairs trial by
    trial.  Each pair's block starts far beyond the previous one so a
    single merged event file still pairs correctly.  Only the file needs
    that merge: when ``events_csv`` is given, a copy of each chunk's events
    goes in the file's time order straight into columns with room for the
    at most two events of every trial, and is written once the run ends.
    """
    _keep_freed_heap()

    @functools.cache
    def pair(p):
        # made on the main thread when the pair's first chunk is queued, or
        # sampled if it is small: a run refused at a pair makes none for the
        # pairs after the chunks it queued
        i, j, _ = chain.term_order[p]
        return chain.site1_settings[i].phase, chain.site2_settings[j].phase, rs.substream(p + 1)

    chunk = _CHUNK_TRIALS
    chunks = (
        (p, first, min(chunk, trials - first))
        for p in range(chain.terms)
        for first in range(0, trials, chunk)
    )
    tally = _Tally()
    kept = EventColumns.empty(2 * trials * chain.terms) if events_csv else None
    filled = 0
    # a pair's first chunk is its largest
    background = min(chunk, trials) >= _BACKGROUND_MIN_TRIALS
    with _disjoint_cpus(background) as pin_worker, contextlib.ExitStack() as stack:
        pool = ThreadPoolExecutor(1, thread_name_prefix="franson-sampler", initializer=pin_worker)
        # on the way out, chunks still queued are dropped, not sampled
        stack.callback(pool.shutdown, cancel_futures=True)

        def prefetch(p, first, count):
            # the chunk and its batch as a call that waits for it: a large
            # chunk is sampled from now on by the worker, a small one when
            # called
            if count < _BACKGROUND_MIN_TRIALS:
                return (p, first, count), lambda: sample(*pair(p), first, count)
            return (p, first, count), pool.submit(sample, *pair(p), first, count).result

        pending = collections.deque(
            prefetch(*c) for c in itertools.islice(chunks, _QUEUED_CHUNKS)
        )
        while pending:
            (p, first, count), wait = pending.popleft()
            batch = wait()
            following = next(chunks, None)
            if following is not None:
                pending.append(prefetch(*following))
            if first == 0:
                times = _pair_emission_times(p, trials, gap_ns)
                check_emission_schedule(times, trials, timing, chunk)
            phi, psi, _ = pair(p)
            events = emit_events_from_batch(
                batch, times(first, count), timing, phi, psi, first_trial=first
            )
            if kept is not None:
                # the file's time order: one stable sort by timestamp merges
                # the chunk's two site runs, site 1 first at equal
                # timestamps, each in trial order; chunks follow one another
                # in time
                order = np.argsort(events["timestamp_ns"], kind="stable")
                rows = slice(filled, filled + order.size)
                for name in CSV_COLUMNS:
                    np.take(events[name], order, out=kept[name][rows])
                filled = rows.stop
            # each setting shows up in two chain terms; the tally pools its
            # counts so the efficiency matches a re-analysis of the file
            tally.add(postselect(events, timing))
            # freed now, not when the next chunk's replace them: a fresh
            # 4*10^6-trial aklz run peaked about 3 MB lower
            del batch, events
            if first + count == trials:
                _require_pair(tally.table, chain, p)
    if kept is not None:
        write_events_csv(events_csv, kept.take(slice(0, filled)))
    return (
        tally.table,
        tally.coincidences / (chain.terms * trials),
        tally.efficiency().to_json_dict(),
    )


def _quantum_sampler(visibility: float):
    franson_correlation(0.0, 0.0, visibility)  # refuses a visibility outside [0, 1]

    def sample(phi, psi, rs, first, count):
        x1, x2, late1, late2 = sample_franson_events(phi, psi, visibility, rs, first, count)
        ones = np.ones(count, dtype=bool)
        return TrialBatch(x1, late1, ones, x2, late2, ones.copy())

    return sample


def _aklz_sampler(visibility: float):
    if visibility != 1.0:
        # the report states visibility 1.0, the delay model's only value
        raise ConfigError(
            f"--visibility {visibility!r} does not apply: the delay-model source has visibility 1"
        )
    strategy = aklz_strategy()
    return lambda phi, psi, rs, first, count: simulate_strategy_pairs(
        strategy, phi, psi, count, rs, first
    )


# the franson sources: each one's sampler for a visibility, which refuses a
# visibility the source does not have, and the model classes its report
# judges; the delay model's are all but emission-time realism, which
# _verdict_models() lists first
_SOURCES = {
    "quantum": (_quantum_sampler, tuple(_verdict_models())),
    "aklz": (_aklz_sampler, tuple(_verdict_models()[1:])),
}


@contextlib.contextmanager
def _events_file(path: str | None):
    """Open ``path``, when given, for append before the run, so that a path
    that cannot be written is refused before any trial is sampled; opening
    for append neither truncates nor changes a file.  A file that this
    opening made is removed again if the run fails."""
    if path is None:
        yield
        return
    try:
        open(path, "x").close()
        made = True
    except FileExistsError:
        open(path, "a").close()
        made = False
    try:
        yield
    except BaseException:
        if made:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise


def _simulate_franson(args, source: str, terms: int, visibility: float) -> dict:
    """A franson ``simulate`` report from a source of ``_SOURCES``.

    Every franson run goes through the timing pipeline (see
    ``_pipeline_tables``): timestamps, the coincidence window and the
    apparent efficiency, as a counting experiment sees them.
    """
    sampler, models = _SOURCES[source]
    chain = chain_settings(terms)
    sample, trials, timing = sampler(visibility), int(args.trials), _timing(args)
    gap_ns = _emission_gap(args, timing, chain)
    with _events_file(args.events_csv):
        table, coinc_fraction, efficiency = _pipeline_tables(
            sample, RandomSource(seed=int(args.seed)), trials, chain, timing, gap_ns,
            args.events_csv,
        )
    return {
        "command": "simulate",
        "source": source,
        "variant": "franson",
        "terms": terms,
        "visibility": visibility,
        "trials_per_pair": trials,
        "seed": int(args.seed),
        "quantum_value": chained_quantum_value(terms),
        "coincidence_fraction": coinc_fraction,
        "efficiency": efficiency,
        "events_csv": args.events_csv,
        **_table_report(table, chain, models),
    }


def _franson_route(source: str, terms: int | None = None):
    """A franson route's runner: ``source`` at ``terms`` terms, or at
    ``--terms`` when None, and at ``--visibility``."""
    return lambda args: _simulate_franson(
        args, source, int(args.terms) if terms is None else terms, float(args.visibility)
    )


def _simulate_variant(args) -> dict:
    variant = SetupVariant(args.variant)
    chain = chain_settings(int(args.terms))
    rs = RandomSource(seed=int(args.seed))
    run = simulate_setup(variant, chain, float(args.visibility), int(args.trials), rs)
    payload = run.to_json_dict()
    payload["command"] = "simulate"
    payload["source"] = "quantum"
    payload["seed"] = int(args.seed)
    payload["statistic"] = chained_statistic(run.table, chain)
    payload["stderr"] = statistic_stderr(run.table, chain)
    return payload


def _visibility_rows(terms_list) -> tuple[list[dict], int]:
    """Closed-form rows per term count, and the term count of the lowest
    critical visibility: the rows of ``visibility`` and ``--scenario
    table1``, each of which adds a key of its own."""
    rows = []
    for terms in map(int, terms_list):
        cv = critical_visibility(terms)
        rows.append(
            {
                "terms": terms,
                "quantum_value": chained_quantum_value(terms),
                "emission_time_bound": bound_for(ModelClass.emission_time_realism(), terms),
                "critical_visibility": cv,
            }
        )
    return rows, min(rows, key=lambda r: r["critical_visibility"])["terms"]


def _scenario_table1() -> dict:
    rows, best_terms = _visibility_rows(_TERM_COUNTS)
    plain = ModelClass(kind=ModelKind.PLAIN_LOCAL_REALISM)
    for row in rows:
        row["plain_bound"] = bound_for(plain, row["terms"])
    return {"command": "simulate", "scenario": "table1", "rows": rows, "best_terms": best_terms}


def _scenario_chained6(args) -> dict:
    rows = [_simulate_franson(args, "quantum", 6, vis) for vis in (1.0, 0.97, 0.95)]
    return {"command": "simulate", "scenario": "chained6", "rows": rows}


# simulate's options that a route may read, with their defaults (report's
# timing defaults too), in the order a refusal names them
_OPTIONS = {
    "events_csv": None, "pipeline": False, "terms": 4, "visibility": 1.0,
    "trials": 200_000, "seed": 1, "path_difference_ns": 100.0, "window_ns": 1.0,
    "short_arm_ns": 10.0, "emission_gap_ns": 1000.0,
}

# simulate's routes: each one's own --source (None: it takes none), the
# options it reads, and its runner.  The franson routes run a source of
# _SOURCES through the timing pipeline, which reads every option; aklz-demo
# fixes 4 terms, chained6 6 terms and its own visibilities, and writes no
# single events file; table1 prints closed forms only; the other variants
# run at distribution level, with no timestamps.
_ROUTES = {
    "quantum": ("quantum", _OPTIONS, _franson_route("quantum")),
    "aklz": ("aklz", _OPTIONS, _franson_route("aklz")),
    "aklz-demo": ("aklz", [o for o in _OPTIONS if o != "terms"], _franson_route("aklz", 4)),
    "chained6": (
        "quantum",
        ("pipeline", "trials", "seed",
         "path_difference_ns", "window_ns", "short_arm_ns", "emission_gap_ns"),
        _scenario_chained6,
    ),
    "table1": (None, (), lambda args: _scenario_table1()),
    "variant": ("quantum", ("terms", "visibility", "trials", "seed"), _simulate_variant),
}


def _route(args):
    """The runner of a ``simulate`` command from ``_ROUTES``, picked by
    ``--scenario``, else a ``--variant`` other than franson, else
    ``--source``.  The route refuses, naming it, an option given that it
    does not read, and a ``--source`` or ``--variant`` other than its own
    (the variant route's own variant is the one it names, every other
    route's franson).  Runs before the defaults are filled in, so that a
    default value given is refused too.
    """
    if args.scenario:
        route, chosen_by = args.scenario, f"--scenario {args.scenario}"
    elif args.variant not in (None, "franson"):
        route, chosen_by = "variant", f"--variant {args.variant}"
    else:
        route = args.source or "quantum"
        chosen_by = f"--source {route}"
    source, reads, run = _ROUTES[route]
    own = {"variant": args.variant if route == "variant" else "franson", "source": source}
    for attr in ("variant", "source", *_OPTIONS):
        value = getattr(args, attr)
        # given: not None, or True for an on/off flag; by identity, as 0 == False
        given = value is not None and value is not False
        if given and attr not in reads and value != own.get(attr):
            shown = "--" + attr.replace("_", "-") + ("" if value is True else f" {value}")
            raise ConfigError(f"{shown} does not apply to {chosen_by}")
    return run


def _cmd_simulate(args) -> dict:
    run = _route(args)
    _fill_defaults(args, _OPTIONS)
    if int(args.trials) < 1:
        raise ConfigError(f"--trials must be at least 1, got {args.trials}")
    return run(args)


# ---------------------------------------------------------------------------
# the other subcommands


def _cmd_bounds(args) -> dict:
    _fill_defaults(args, {"terms": 4})
    terms = int(args.terms)
    eta = None if args.eta is None else float(args.eta)
    rows = []
    for kind in ModelKind:
        row: dict = {"model": kind.value}
        if kind.takes_efficiency:
            row["threshold_efficiency"] = threshold_efficiency(kind)
        if kind.four_term_only and terms != 4:
            row["bound"] = None
            row["note"] = "defined for 4 terms only"
        elif kind.takes_efficiency and eta is None:
            row["bound"] = None
            row["note"] = "pass --eta for a numeric bound"
        else:
            model = _model_class(kind.value, eta)
            row["bound"] = bound_for(model, terms)
        rows.append(row)
    return {
        "command": "bounds",
        "terms": terms,
        "eta": eta,
        "quantum_value": chained_quantum_value(terms),
        "critical_visibility": critical_visibility(terms),
        "rows": rows,
    }


def _cmd_visibility(args) -> dict:
    rows, best_terms = _visibility_rows(args.terms or _TERM_COUNTS)
    for row in rows:
        row["discriminates"] = row["critical_visibility"] < 1.0
    return {"command": "visibility", "rows": rows, "best_terms": best_terms}


# verify-bounds flags that budget the search; giving either of them runs it
_SEARCH_BUDGET = ("restarts", "iterations")


def _cmd_verify_bounds(args) -> dict:
    # the game solver loads only here: the other subcommands start without it
    from .strategyopt import GameSpec, OptimizerBudget, _side_size, verify_bound

    search = any(getattr(args, a) is not None for a in _SEARCH_BUDGET)
    _fill_defaults(args, {"terms": 4, "model_class": "emission-time-realism"})
    model = _model_class(args.model_class, None)
    terms = int(args.terms)
    _side_size(model.kind, terms // 2)  # site rows wider than int64 raise before the chain
    chain = chain_settings(terms)
    game = GameSpec(model=model, chain=chain)
    # the flags given, checked even when no search runs, so a bad --seed is
    # never ignored; the rest at OptimizerBudget's defaults
    budget = OptimizerBudget(
        **{a: getattr(args, a) for a in (*_SEARCH_BUDGET, "seed") if getattr(args, a) is not None}
    )
    if search:
        # each column round's pricing frees several MB of temporaries, which
        # glibc's dynamic thresholds would hand back and fault in again
        _keep_freed_heap()
    report = verify_bound(game, budget if search else None, lp_check=bool(args.lp_check))
    payload = report.to_json_dict(include_witness=bool(args.witness))
    payload["command"] = "verify-bounds"
    return payload


def _cmd_geometry(args) -> dict:
    from .spacetime import StationGeometry, check_emission_time_premise, classify_event_order

    geometry = StationGeometry(
        path_difference_ns=float(args.path_difference_ns),
        modulator_to_detector_ns=float(args.modulator_to_detector_ns),
        switch_period_ns=float(args.switch_period_ns),
    )
    premise = check_emission_time_premise(geometry)
    sw = geometry.switch_period_ns
    order = classify_event_order(geometry)
    return {
        "command": "geometry",
        "geometry": {
            "path_difference_ns": geometry.path_difference_ns,
            "modulator_to_detector_ns": geometry.modulator_to_detector_ns,
            # null: a static setting, never switched
            "switch_period_ns": sw if math.isfinite(sw) else None,
        },
        "premise": premise.to_json_dict(),
        "timeline": [
            {"label": e.label, "time_ns": e.time_ns} for e in order.events
        ],
    }


# Rows per block of report's postselection.  Each site's columns of a block
# of 2^15 rows stay in cache: on 2 vCPUs 2^15 rows were faster than 2^16 and
# 2^17 (0.062 s against 0.076 and 0.086 s for 2*10^6 rows), and held less.
_REPORT_BLOCK_ROWS = 1 << 15


def _postselect_blocks(events: EventColumns, timing: InterferometerTiming) -> _Tally:
    """Postselect events block by block, as all of them at once.

    Rows in time order (nondecreasing timestamps) are cut into blocks of at
    least ``_REPORT_BLOCK_ROWS`` rows, each ending at the first row k from
    there on with fl(t[k] - t[k-1]) >= the window.  Rounding is monotone,
    so every timestamp difference across the cut rounds to at least the
    window in magnitude: no pair, partner candidate or ambiguity spans it.
    Rows not in time order are one block, which postselect sorts.
    """
    t, n, size = events["timestamp_ns"], len(events), _REPORT_BLOCK_ROWS
    # checked a block at a time, so that no temporary is as long as the rows
    in_order = all(
        np.all(t[s + 1 : s + size + 1] >= t[s : min(s + size, n - 1)])
        for s in range(0, n - 1, size)
    )
    tally, start = _Tally(), 0
    while start < n:
        stop = start + size if in_order else n
        while stop < n:
            gaps = np.diff(t[stop - 1 : stop + size])
            cut = np.flatnonzero(gaps >= timing.window_ns)
            if cut.size:
                stop += int(cut[0])
                break
            stop += gaps.size
        stop = min(stop, n)
        tally.add(postselect(events.take(slice(start, stop)), timing))
        start = stop
    return tally


def _cmd_report(args) -> dict:
    # simulate's defaults: a file simulated at them is reported at its timing
    _fill_defaults(
        args, {o: _OPTIONS[o] for o in ("terms", "path_difference_ns", "window_ns", "short_arm_ns")}
    )
    # every flag is checked before the file is read
    timing = _timing(args)
    chain = chain_settings(int(args.terms))
    if args.eta is not None and not (
        args.model_class and ModelKind(args.model_class).takes_efficiency
    ):
        raise ConfigError("--eta needs --model-class inefficiency or delays")
    if args.model_class:
        models = [_model_class(args.model_class, args.eta)]
    else:
        models = _verdict_models()
    # before the file's columns and parse blocks are allocated
    _keep_freed_heap()
    tally = _postselect_blocks(read_events_csv(args.events), timing)
    for p in range(chain.terms):
        _require_pair(tally.table, chain, p)
    return {
        "command": "report",
        "events": args.events,
        "terms": chain.terms,
        "coincidences": tally.coincidences,
        "efficiency": tally.efficiency().to_json_dict(),
        **_table_report(tally.table, chain, models),
    }


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process: parsing only reads it."""
    parser = argparse.ArgumentParser(
        prog="franson",
        description="Simulate and analyze energy-time entanglement tests.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON file with default option values")
        p.add_argument("--out", help="write the JSON report to this path")

    p_sim = sub.add_parser("simulate", help="run an event-level simulation")
    p_sim.add_argument("--scenario", choices=("table1", "aklz-demo", "chained6"))
    p_sim.add_argument("--source", choices=("quantum", "aklz"))
    p_sim.add_argument(
        "--variant",
        choices=tuple(v.value for v in SetupVariant),
        help="compare interferometer setups at the distribution level",
    )
    p_sim.add_argument("--terms", type=int)
    p_sim.add_argument("--visibility", type=float)
    p_sim.add_argument("--trials", type=int, help="trials per setting pair")
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--events-csv", help="export raw detection events")
    p_sim.add_argument(
        "--pipeline",
        action="store_true",
        help="accepted for older command lines: every franson run uses the "
        "timestamp/postselection pipeline",
    )
    p_sim.add_argument("--path-difference-ns", type=float)
    p_sim.add_argument("--window-ns", type=float)
    p_sim.add_argument("--short-arm-ns", type=float)
    p_sim.add_argument("--emission-gap-ns", type=float)
    add_common(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p_bounds = sub.add_parser("bounds", help="closed-form bounds per model class")
    p_bounds.add_argument("--terms", type=int)
    p_bounds.add_argument("--eta", type=float, help="detection efficiency")
    add_common(p_bounds)
    p_bounds.set_defaults(func=_cmd_bounds)

    p_vis = sub.add_parser(
        "visibility", help="critical visibility per chained term count"
    )
    p_vis.add_argument("--terms", type=int, nargs="+")
    add_common(p_vis)
    p_vis.set_defaults(func=_cmd_visibility)

    p_verify = sub.add_parser(
        "verify-bounds", help="check a model class's bound against its exact maximum"
    )
    p_verify.add_argument(
        "--model-class",
        choices=tuple(k.value for k in ModelKind if not k.takes_efficiency),
        help="efficiency-based bounds are closed-form (see the bounds command)",
    )
    p_verify.add_argument("--terms", type=int)
    p_verify.add_argument(
        "--restarts",
        type=int,
        help="search restarts (default 48); either budget flag also "
        "runs the successive-LP search (emission-time and outcomes-only games)",
    )
    p_verify.add_argument(
        "--iterations", type=int, help="search ascent steps per column round (default 220)"
    )
    p_verify.add_argument("--seed", type=int, help="seeds the search only")
    p_verify.add_argument(
        "--lp-check",
        action="store_true",
        help="also state the emission-time game's LP value as lp_value: the "
        "closed form's certified value, not an independent solve",
    )
    p_verify.add_argument(
        "--witness", action="store_true", help="include the witness mixture"
    )
    add_common(p_verify)
    p_verify.set_defaults(func=_cmd_verify_bounds)

    p_geo = sub.add_parser("geometry", help="check the two-setting timing premise")
    p_geo.add_argument("--path-difference-ns", type=float, required=True)
    p_geo.add_argument("--modulator-to-detector-ns", type=float, required=True)
    p_geo.add_argument("--switch-period-ns", type=float, required=True)
    add_common(p_geo)
    p_geo.set_defaults(func=_cmd_geometry)

    p_rep = sub.add_parser("report", help="analyze an exported events file")
    p_rep.add_argument("--events", required=True)
    p_rep.add_argument("--terms", type=int)
    p_rep.add_argument("--model-class", choices=tuple(k.value for k in ModelKind))
    p_rep.add_argument("--eta", type=float)
    p_rep.add_argument("--path-difference-ns", type=float)
    p_rep.add_argument("--window-ns", type=float)
    p_rep.add_argument("--short-arm-ns", type=float)
    add_common(p_rep)
    p_rep.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _merge_config(args, parser)
        payload = args.func(args)
        _emit(payload, args.out)
    except (ResourceLimitError, MemoryError) as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
