"""Layer spans for the traced benchmark run.

Nothing under ``src/`` is edited.  While a traced repetition runs,
``layers_traced`` rebinds the public functions that each calling module
looks up (``franson.cli.postselect``, ``franson.lhv.draw_uniforms``,
``franson.strategyopt.emission_time_lp_value`` and so on) to wrappers that
record a span and its counts, then restores the originals.  The traced and
the untraced repetitions therefore run the same code, and the difference of
their wall times is the tracing overhead.

A span records its name, start, end, parent span and counts.  Spans are kept
in memory; the benchmark writes them out once, at the end of its run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import os
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.rep: int | None = None
        self._stack: list[dict] = []
        self._ids = itertools.count()

    def wrap(self, name: str, fn, count=None):
        """``fn`` recording one span per call; ``count(arguments, result)``
        gives the span's counts, from arguments bound by parameter name."""
        signature = inspect.signature(fn) if count else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "id": next(self._ids),
                "name": name,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "rep": self.rep,
                "counts": {},
            }
            self._stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
                self.spans.append(span)
            if count:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span["counts"] = count(bound.arguments, result)
            return result

        return traced


def _postselect_counts(a: dict, r) -> dict:
    return {
        "events": len(a["events"]),
        "coincidences": r.coincidences,
        "site1_events": sum(e.detected for e in r.report.entries if e.site == 1),
    }


def _search_counts(a: dict, r) -> dict:
    from franson import strategyopt

    game = a["game"]
    side = strategyopt._side_arrays(game.model.kind, game.n_settings)
    # verify-bounds reports the restart budget, not restarts completed
    return {"restarts_budgeted": r.restarts_used, "joint_vertices": side.size**2}


# (module, attribute the callers look up, span name, counts)
PATCHES = (
    ("franson.lhv", "draw_uniforms", "core.draw_uniforms", lambda a, r: {"draws": len(r)}),
    ("franson.quantum", "draw_uniforms", "core.draw_uniforms", lambda a, r: {"draws": len(r)}),
    ("franson.cli", "simulate_strategy_pairs", "lhv.simulate_strategy_pairs",
     lambda a, r: {"trials": len(r.outcome1)}),
    ("franson.cli", "sample_franson_events", "quantum.sample_franson_events",
     lambda a, r: {"trials": len(r[0])}),
    ("franson.cli", "emit_events_from_batch", "timing.emit", lambda a, r: {"events": len(r)}),
    ("franson.cli", "postselect", "timing.postselect", _postselect_counts),
    ("franson.cli", "correlation_from_pairs", "timing.tabulate",
     lambda a, r: {"pairs": len(a["pairs"])}),
    ("franson.cli", "write_events_csv", "timing.csv_write",
     lambda a, r: {"rows": len(a["events"]), "bytes": os.path.getsize(a["path"])}),
    ("franson.cli", "read_events_csv", "timing.csv_read", lambda a, r: {"rows": len(r)}),
    ("franson.cli", "evaluate", "inequalities.evaluate", None),
    ("franson.cli", "chained_statistic", "inequalities.evaluate", None),
    ("franson.cli", "statistic_stderr", "inequalities.evaluate", None),
    ("franson.strategyopt", "max_statistic", "strategyopt.search", _search_counts),
    ("franson.strategyopt", "emission_time_lp_value", "strategyopt.lp", None),
    # strategyopt imports linprog when the LP runs, so this sees every solve
    ("scipy.optimize", "linprog", "strategyopt.lp.solve", lambda a, r: {"columns": len(a["c"])}),
)


@contextmanager
def layers_traced(tracer: Tracer):
    saved = []
    try:
        for module_name, attr, span, count in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(span, original, count))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics of one traced repetition


class RepSpans:
    def __init__(self, spans: list[dict]) -> None:
        self.spans = spans
        children: dict[int, float] = {}
        for s in spans:
            if s["parent"] is not None:
                children[s["parent"]] = children.get(s["parent"], 0.0) + s["end"] - s["start"]
        self._children = children

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def self_time(self, name: str) -> float:
        return sum(
            s["end"] - s["start"] - self._children.get(s["id"], 0.0)
            for s in self.spans
            if s["name"] == name
        )

    def count(self, name: str, key: str) -> int:
        return sum(s["counts"].get(key, 0) for s in self.spans if s["name"] == name)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s["name"] == name)

    def sampling_s(self) -> float:
        return (
            self.total("core.draw_uniforms")
            + self.self_time("lhv.simulate_strategy_pairs")
            + self.self_time("quantum.sample_franson_events")
        )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# (name, unit, better, the end-to-end metric it should move, value of one rep).
# throughput and wall_s are gated as throughput_rel and wall_rel.  A layer
# that a workload does not reach reads 0 on that workload.
PER_LAYER = (
    ("core.draw_uniforms.s", "s", "lower", "throughput on simulate_aklz; ceiling about 1%",
     lambda r: r.total("core.draw_uniforms")),
    ("core.draw_uniforms.draws", "count", "lower", "-",
     lambda r: r.count("core.draw_uniforms", "draws")),
    ("lhv.simulate_strategy_pairs.s", "s", "lower",
     "throughput on simulate_aklz; self time, the responders; ceiling about 5%",
     lambda r: r.self_time("lhv.simulate_strategy_pairs")),
    ("lhv.trials", "count", "lower", "-",
     lambda r: r.count("lhv.simulate_strategy_pairs", "trials")),
    ("quantum.sample_franson_events.s", "s", "lower",
     "wall_s on events_roundtrip, a small share; includes its draws",
     lambda r: r.total("quantum.sample_franson_events")),
    ("quantum.trials", "count", "lower", "-",
     lambda r: r.count("quantum.sample_franson_events", "trials")),
    ("timing.emit.s", "s", "lower", "throughput on simulate_aklz",
     lambda r: r.total("timing.emit")),
    ("timing.emit.events", "count", "lower", "-",
     lambda r: r.count("timing.emit", "events")),
    ("timing.postselect.s", "s", "lower",
     "throughput on simulate_aklz (per-block streams), wall_s on events_roundtrip (one merged stream)",
     lambda r: r.total("timing.postselect")),
    ("timing.postselect.events", "count", "lower", "-",
     lambda r: r.count("timing.postselect", "events")),
    ("timing.postselect.coincidences", "count", "higher", "-",
     lambda r: r.count("timing.postselect", "coincidences")),
    ("timing.postselect.useful_ratio", "ratio", "higher", "coincidences per site-1 event, about 0.5",
     lambda r: _ratio(r.count("timing.postselect", "coincidences"),
                      r.count("timing.postselect", "site1_events"))),
    ("timing.tabulate.s", "s", "lower", "throughput on simulate_aklz",
     lambda r: r.total("timing.tabulate")),
    ("timing.tabulate.pairs", "count", "lower", "-",
     lambda r: r.count("timing.tabulate", "pairs")),
    ("timing.csv_write.s", "s", "lower", "throughput on events_roundtrip",
     lambda r: r.total("timing.csv_write")),
    ("timing.csv_write.rows", "count", "lower", "-",
     lambda r: r.count("timing.csv_write", "rows")),
    ("timing.csv_write.bytes", "B", "lower", "-",
     lambda r: r.count("timing.csv_write", "bytes")),
    ("timing.csv_read.s", "s", "lower", "throughput on events_roundtrip",
     lambda r: r.total("timing.csv_read")),
    ("timing.csv_read.rows", "count", "lower", "-",
     lambda r: r.count("timing.csv_read", "rows")),
    ("pipeline_over_sampling", "ratio", "lower",
     "(sampling + emit + postselect + tabulate) / sampling; goal below 2 on simulate_aklz",
     lambda r: _ratio(r.sampling_s() + r.total("timing.emit") + r.total("timing.postselect")
                      + r.total("timing.tabulate"), r.sampling_s())),
    ("inequalities.evaluate.s", "s", "lower",
     "nothing; covers evaluate, chained_statistic and statistic_stderr",
     lambda r: r.total("inequalities.evaluate")),
    ("strategyopt.search.s", "s", "lower", "wall_s on verify_games",
     lambda r: r.total("strategyopt.search")),
    ("strategyopt.search.restarts_budgeted", "count", "lower",
     "the restart budget verify-bounds reports, not restarts completed",
     lambda r: r.count("strategyopt.search", "restarts_budgeted")),
    ("strategyopt.search.joint_vertices", "count", "lower", "-",
     lambda r: r.count("strategyopt.search", "joint_vertices")),
    ("strategyopt.lp.s", "s", "lower", "wall_s on verify_games",
     lambda r: r.total("strategyopt.lp")),
    ("strategyopt.lp.columns", "count", "lower", "columns handed to the solver, summed over solves",
     lambda r: r.count("strategyopt.lp.solve", "columns")),
    ("strategyopt.lp.solves", "count", "lower", "sign patterns solved",
     lambda r: r.calls("strategyopt.lp.solve")),
    ("cli.main.s", "s", "lower", "nothing; self time: argument handling, glue and JSON emission",
     lambda r: r.self_time("cli.main")),
)
