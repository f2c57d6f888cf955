"""Command line front end.

Every subcommand prints one JSON document (stdout by default, ``--out`` to
write a file).  Reports contain no wall-clock data, and all randomness is
counter-based from the given seed, so reruns with the same arguments are
byte-identical.

Exit codes: 0 success, 2 invalid arguments or configuration, 3 resource
limit exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .core import RandomSource, SettingsChain, chain_settings, setting_key
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
from .spacetime import StationGeometry, check_emission_time_premise, classify_event_order
from .strategyopt import (
    GameSpec,
    OptimizerBudget,
    ResourceLimitError,
    verify_bound,
)
from .timing import (
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

_SEARCHABLE = (
    "plain-local-realism",
    "path-realism",
    "emission-time-realism",
    "outcomes-only",
)


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


def _require_coverage(table, chain: SettingsChain) -> None:
    """Refuse a table without coincidences at some setting pair of the chain."""
    for i, j, _ in chain.term_order:
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


# Trials per chunk of a setting pair's block.  The pipeline holds about two
# chunks' arrays at a time, one analysed while the next is sampled, however
# many trials a pair has.  At 2^16 trials a float column is 512 kB, so the
# numpy passes over a chunk run in cache (2^15, 2^17 and 2^18 trials were
# slower on 2 vCPUs).
_CHUNK_TRIALS = 1 << 16

# Chunks of fewer trials are sampled on the main thread: handing them to the
# worker thread costs about what overlapping their sampling saves (at 10^4
# trials a chunk the thread was slower, from 3*10^4 on faster, on 2 vCPUs).
_BACKGROUND_MIN_TRIALS = 1 << 15


def _pair_emission_times(p: int, trials: int, gap_ns: float):
    """Setting pair ``p``'s emission times ``first`` to ``first + count - 1``
    as ``times(first, count)``: one gap apart, each pair's block starting 8
    gaps after the previous one ends."""
    start = p * (trials + 8) * gap_ns
    return lambda first, count: start + gap_ns * np.arange(
        first, first + count, dtype=np.float64
    )


def _pipeline_tables(
    sample,
    trials: int,
    chain: SettingsChain,
    timing: InterferometerTiming,
    gap_ns: float,
    events_csv: str | None,
):
    """Emit timed events per setting pair, postselect, and accumulate.

    ``sample(p, first, count)`` gives trials ``first`` to
    ``first + count - 1`` of setting pair ``p``, equal to that slice of one
    call for the whole pair.  Each pair runs in chunks of ``_CHUNK_TRIALS``
    trials, pair after pair; while the main thread emits, postselects and
    tabulates one chunk, one worker thread, kept for the whole call, samples
    the next (a chunk of fewer than ``_BACKGROUND_MIN_TRIALS`` trials is
    sampled on the main thread when its turn comes).  Emission gaps above
    twice the path difference keep every coincidence inside one trial, so
    chunks pair and count exactly as the whole block would.

    Emit groups a chunk's events by site and postselect takes them so.
    Each pair's block starts far beyond the previous one so a single merged
    event file still pairs correctly.  A chunk's events are kept only when
    they are to be written to ``events_csv``, and only then merged into
    the file's time order.
    """
    chunk = _CHUNK_TRIALS
    chunks = [
        (p, first, min(chunk, trials - first))
        for p in range(len(chain.term_order))
        for first in range(0, trials, chunk)
    ]
    table = CorrelationTable()
    kept_events = []
    coincidences = 0
    pooled: dict[tuple[int, int], list] = {}
    with ThreadPoolExecutor(1, thread_name_prefix="franson-sampler") as pool:

        def prefetch(p, first, count):
            # the chunk's batch as a call that waits for it: a large chunk is
            # sampled from now on by the worker, a small one when called
            if count < _BACKGROUND_MIN_TRIALS:
                return lambda: sample(p, first, count)
            return pool.submit(sample, p, first, count).result

        pending = prefetch(*chunks[0]) if chunks else None
        for k, (p, first, count) in enumerate(chunks):
            batch = pending()
            if k + 1 < len(chunks):
                pending = prefetch(*chunks[k + 1])
            if first == 0:
                times = _pair_emission_times(p, trials, gap_ns)
                check_emission_schedule(times, trials, timing, chunk)
            i, j, _ = chain.term_order[p]
            phi = chain.site1_settings[i].phase
            psi = chain.site2_settings[j].phase
            events = emit_events_from_batch(
                batch, times(first, count), timing, phi, psi, first_trial=first
            )
            if events_csv:
                # the file's time order: one stable sort by timestamp merges
                # the chunk's two site runs, site 1 first at equal
                # timestamps, each in trial order; chunks follow one another
                # in time
                events = events.take(np.argsort(events["timestamp_ns"], kind="stable"))
                kept_events.append(events)
            result = postselect(events, timing)
            correlation_from_pairs(result.pairs, table)
            coincidences += result.coincidences
            # each setting shows up in two chain terms; pool its counts so
            # the efficiency matches a re-analysis of the merged event file
            for e in result.report.entries:
                slot = pooled.setdefault(
                    (e.site, setting_key(e.setting_rad)), [e.setting_rad, 0, 0]
                )
                slot[1] += e.detected
                slot[2] += e.coincident
    _require_coverage(table, chain)
    if events_csv:
        write_events_csv(events_csv, EventColumns.concatenate(kept_events))
    report = EfficiencyReport(
        tuple(
            EfficiencyEntry(site, rad, det, coinc)
            for (site, _), (rad, det, coinc) in sorted(pooled.items())
        )
    )
    return table, coincidences / (len(chain.term_order) * trials), report.to_json_dict()


def _simulate_report(
    args, source: str, visibility: float, chain: SettingsChain, sample, models
) -> dict:
    """A ``simulate`` report of the franson variant.

    ``sample(p, first, count)`` runs the timing pipeline (see
    ``_pipeline_tables``); without it the table comes from the setup's
    distribution, with no timestamps and no efficiency.
    """
    trials = int(args.trials)
    if sample is None:
        rs = RandomSource(seed=int(args.seed))
        run = simulate_setup(SetupVariant.FRANSON, chain, visibility, trials, rs)
        table, coinc_fraction, efficiency = run.table, run.coincidence_fraction, None
    else:
        timing = _timing(args)
        table, coinc_fraction, efficiency = _pipeline_tables(
            sample, trials, chain, timing, _emission_gap(args, timing, chain), args.events_csv
        )
    return {
        "command": "simulate",
        "source": source,
        "variant": "franson",
        "terms": chain.terms,
        "visibility": visibility,
        "trials_per_pair": trials,
        "seed": int(args.seed),
        "quantum_value": chained_quantum_value(chain.terms),
        "coincidence_fraction": coinc_fraction,
        "efficiency": efficiency,
        "events_csv": args.events_csv,
        **_table_report(table, chain, models),
    }


def _simulate_quantum(args) -> dict:
    chain = chain_settings(int(args.terms))
    rs = RandomSource(seed=int(args.seed))
    visibility = float(args.visibility)
    sample = None
    if args.events_csv or args.pipeline:
        franson_correlation(0.0, 0.0, visibility)  # refuses a visibility outside [0, 1]

        def sample(p, first, count):
            i, j, _ = chain.term_order[p]
            x1, x2, late1, late2 = sample_franson_events(
                chain.site1_settings[i].phase,
                chain.site2_settings[j].phase,
                visibility,
                rs.substream(p + 1),
                first,
                count,
            )
            ones = np.ones(count, dtype=bool)
            return TrialBatch(x1, late1, ones, x2, late2, ones.copy())

    return _simulate_report(
        args, "quantum", visibility, chain, sample, _verdict_models()
    )


def _simulate_aklz(args) -> dict:
    terms = int(args.terms)
    if terms != 4:
        raise ConfigError(
            f"--terms {terms} does not apply: the delay-model source is a 4-term demonstration"
        )
    if float(args.visibility) != 1.0:
        # the report states visibility 1.0, the delay model's only value
        raise ConfigError(
            f"--visibility {args.visibility!r} does not apply: the delay-model "
            "source has visibility 1"
        )
    chain = chain_settings(terms)
    rs = RandomSource(seed=int(args.seed))
    strategy = aklz_strategy()

    def sample(p, first, count):
        i, j, _ = chain.term_order[p]
        return simulate_strategy_pairs(
            strategy,
            chain.site1_settings[i].phase,
            chain.site2_settings[j].phase,
            count,
            rs.substream(p + 1),
            first,
        )

    models = [
        ModelClass(kind=ModelKind.PLAIN_LOCAL_REALISM),
        ModelClass(kind=ModelKind.OUTCOMES_ONLY),
        ModelClass(kind=ModelKind.PATH_REALISM),
    ]
    return _simulate_report(args, "aklz", 1.0, chain, sample, models)


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


def _scenario_table1() -> dict:
    rows = []
    for terms in _TERM_COUNTS:
        rows.append(
            {
                "terms": terms,
                "quantum_value": chained_quantum_value(terms),
                "emission_time_bound": bound_for(ModelClass.emission_time_realism(), terms),
                "plain_bound": bound_for(
                    ModelClass(kind=ModelKind.PLAIN_LOCAL_REALISM), terms
                ),
                "critical_visibility": critical_visibility(terms),
            }
        )
    best = min(rows, key=lambda r: r["critical_visibility"])
    return {"command": "simulate", "scenario": "table1", "rows": rows, "best_terms": best["terms"]}


def _scenario_chained6(args) -> dict:
    rows = []
    for vis in (1.0, 0.97, 0.95):
        sub = argparse.Namespace(**vars(args))
        sub.terms = 6
        sub.visibility = vis
        rows.append(_simulate_quantum(sub))
    return {"command": "simulate", "scenario": "chained6", "rows": rows}


# the flags that only the timing pipeline reads
_TIMING_FLAGS = ("path_difference_ns", "window_ns", "short_arm_ns", "emission_gap_ns")


def _refuse_dropped_flags(args) -> None:
    """Refuse, naming it, a flag that the chosen route would drop.

    A scenario runs its own source on the franson variant, and only
    aklz-demo, the delay-model source, runs the timing pipeline; chained6
    sets its own terms and visibilities, and table1 simulates nothing.  A
    variant other than franson simulates the quantum source with no
    timestamps, and so does the quantum source without ``--pipeline`` or
    ``--events-csv``, so the timing flags apply to neither.  Runs before
    the defaults are filled in, so that a flag given at its default value
    is told from one not given.
    """
    other_variant = args.variant not in (None, "franson")
    aklz_demo = args.scenario == "aklz-demo"
    if args.scenario or other_variant:
        route = f"--scenario {args.scenario}" if args.scenario else f"--variant {args.variant}"
        for flag, dropped in (
            (f"--variant {args.variant}", other_variant and args.scenario is not None),
            ("--source aklz", args.source == "aklz" and not aklz_demo),
            ("--source quantum", args.source == "quantum" and aklz_demo),
            ("--events-csv", bool(args.events_csv) and not aklz_demo),
            ("--pipeline", args.pipeline and not aklz_demo),
        ):
            if dropped:
                raise ConfigError(f"{flag} does not apply to {route}")
    elif args.source == "aklz" or args.events_csv or args.pipeline:
        return  # the timing pipeline, which reads every flag
    else:
        route = "the quantum source without --pipeline or --events-csv"
    ignored = {
        "table1": ("source", "terms", "visibility", "trials", "seed"),
        "chained6": ("terms", "visibility"),
    }.get(args.scenario, ())
    if not aklz_demo:
        ignored += _TIMING_FLAGS
    for attr in ignored:
        value = getattr(args, attr)
        if value is not None:
            raise ConfigError(f"--{attr.replace('_', '-')} {value} does not apply to {route}")


def _cmd_simulate(args) -> dict:
    _refuse_dropped_flags(args)
    _fill_defaults(
        args,
        {
            "terms": 4,
            "visibility": 1.0,
            "trials": 200_000,
            "seed": 1,
            "source": "quantum",
            "path_difference_ns": 100.0,
            "window_ns": 1.0,
            "short_arm_ns": 10.0,
            "emission_gap_ns": 1000.0,
        },
    )
    if int(args.trials) < 1:
        raise ConfigError(f"--trials must be at least 1, got {args.trials}")
    if args.scenario == "table1":
        return _scenario_table1()
    if args.scenario == "chained6":
        return _scenario_chained6(args)
    if args.variant not in (None, "franson"):
        return _simulate_variant(args)
    if args.scenario == "aklz-demo" or args.source == "aklz":
        return _simulate_aklz(args)
    return _simulate_quantum(args)


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
    terms_list = args.terms or list(_TERM_COUNTS)
    rows = []
    for terms in terms_list:
        terms = int(terms)
        cv = critical_visibility(terms)
        rows.append(
            {
                "terms": terms,
                "quantum_value": chained_quantum_value(terms),
                "emission_time_bound": bound_for(ModelClass.emission_time_realism(), terms),
                "critical_visibility": cv,
                "discriminates": cv < 1.0,
            }
        )
    best = min(rows, key=lambda r: r["critical_visibility"])
    return {"command": "visibility", "rows": rows, "best_terms": best["terms"]}


# verify-bounds flags that budget the search; giving any of them runs it
_SEARCH_BUDGET = ("restarts", "iterations", "support_size")


def _cmd_verify_bounds(args) -> dict:
    search = any(getattr(args, a) is not None for a in _SEARCH_BUDGET)
    _fill_defaults(
        args,
        {
            "terms": 4,
            "model_class": "emission-time-realism",
            "restarts": 48,
            "iterations": 220,
            "support_size": 192,
            "seed": 0,
        },
    )
    model = _model_class(args.model_class, None)
    chain = chain_settings(int(args.terms))
    game = GameSpec(model=model, chain=chain)
    # checked even when no search runs, so a bad --seed is never ignored
    budget = OptimizerBudget(
        restarts=int(args.restarts),
        iterations=int(args.iterations),
        support_size=int(args.support_size),
        seed=int(args.seed),
    )
    report = verify_bound(game, budget if search else None, lp_check=bool(args.lp_check))
    payload = report.to_json_dict(include_witness=bool(args.witness))
    payload["command"] = "verify-bounds"
    return payload


def _cmd_geometry(args) -> dict:
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


def _cmd_report(args) -> dict:
    _fill_defaults(
        args,
        {
            "terms": 4,
            "path_difference_ns": 100.0,
            "window_ns": 1.0,
            "short_arm_ns": 10.0,
        },
    )
    events = read_events_csv(args.events)
    timing = _timing(args)
    result = postselect(events, timing)
    table = correlation_from_pairs(result.pairs)
    chain = chain_settings(int(args.terms))
    _require_coverage(table, chain)
    if args.eta is not None and not (
        args.model_class and ModelKind(args.model_class).takes_efficiency
    ):
        raise ConfigError("--eta needs --model-class inefficiency or delays")
    if args.model_class:
        models = [_model_class(args.model_class, args.eta)]
    else:
        models = _verdict_models()
    return {
        "command": "report",
        "events": args.events,
        "terms": chain.terms,
        "coincidences": result.coincidences,
        "efficiency": result.report.to_json_dict(),
        **_table_report(table, chain, models),
    }


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
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
        help="force the full timestamp/postselection pipeline",
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
        choices=_SEARCHABLE,
        help="efficiency-based bounds are closed-form (see the bounds command)",
    )
    p_verify.add_argument("--terms", type=int)
    p_verify.add_argument(
        "--restarts",
        type=int,
        help="search restarts (default 48); any of the three budget flags also "
        "runs the successive-LP search (emission-time and outcomes-only games)",
    )
    p_verify.add_argument(
        "--iterations", type=int, help="search ascent steps per column round (default 220)"
    )
    p_verify.add_argument("--support-size", type=int, help="search support atoms (default 192)")
    p_verify.add_argument("--seed", type=int, help="seeds the search only")
    p_verify.add_argument(
        "--lp-check",
        action="store_true",
        help="also state the emission-time game's LP value as lp_value",
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
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
