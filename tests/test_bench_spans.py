"""The traced benchmark still sees the timing pipeline and the game LP.

``bench/spans.py`` rebinds the pipeline functions that ``franson.cli`` calls,
``emission_time_lp_value`` and ``scipy.optimize.linprog``, and reads their
arguments by parameter name (``events``, ``pairs``, ``path``, ``c``).  A
renamed function or parameter would silently zero a layer of the trace, so
this loads the file as it is and checks that each timing layer records
spans with non-zero counts.  No code of the package calls ``linprog``, so
its solve spans must stay absent.
Its search counter calls the private ``strategyopt._side_arrays``, so the
search span's vertex count is checked too.
"""

import importlib.util
import json
from pathlib import Path

from franson.cli import main
from franson.inequalities import ModelKind
from franson.strategyopt import _side_arrays

SPANS_PY = Path(__file__).resolve().parents[1] / "bench" / "spans.py"

TIMING_LAYERS = (
    "timing.emit",
    "timing.postselect",
    "timing.tabulate",
    "timing.csv_write",
    "timing.csv_read",
)


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_timing_layers_record_spans_with_counts(tmp_path, capsys):
    spans = load_spans()
    tracer = spans.Tracer()
    events = str(tmp_path / "events.csv")

    def run(argv):
        start = len(tracer.spans)
        assert main(argv) == 0
        return json.loads(capsys.readouterr().out), tracer.spans[start:]

    def counts(recorded, layer, key):
        return [s["counts"][key] for s in recorded if s["name"] == layer]

    with spans.layers_traced(tracer):
        aklz, aklz_spans = run(["simulate", "--source", "aklz", "--trials", "2000", "--seed", "1"])
        run(["simulate", "--trials", "200", "--seed", "1", "--events-csv", events])
        run(["report", "--events", events])
    for layer in TIMING_LAYERS:
        recorded = [s for s in tracer.spans if s["name"] == layer]
        assert recorded, layer
        for span in recorded:
            assert span["counts"], layer
            assert all(v > 0 for v in span["counts"].values()), (layer, span["counts"])
    # counts are rows, not fields: the delay model detects every photon, so
    # each setting pair's block holds 2 x trials events
    assert sum(e["detected"] for e in aklz["efficiency"]["entries"]) == 4 * 2 * 2000
    assert counts(aklz_spans, "timing.emit", "events") == [2 * 2000] * 4
    assert counts(aklz_spans, "timing.postselect", "events") == [2 * 2000] * 4
    assert counts(aklz_spans, "timing.tabulate", "pairs") == counts(
        aklz_spans, "timing.postselect", "coincidences"
    )
    with open(events, newline="") as fh:
        lines = sum(1 for _ in fh)
    assert counts(tracer.spans, "timing.csv_write", "rows") == [lines - 1]
    assert counts(tracer.spans, "timing.csv_read", "rows") == [lines - 1]


def test_lp_layers_record_spans_with_columns(capsys):
    spans = load_spans()
    tracer = spans.Tracer()
    with spans.layers_traced(tracer):
        assert main(["verify-bounds", "--lp-check", "--terms", "4",
                     "--restarts", "1", "--iterations", "20"]) == 0
    capsys.readouterr()
    names = [s["name"] for s in tracer.spans]
    assert names.count("strategyopt.lp") == 1
    # the search span's counts read the private side arrays by name
    (search,) = [s for s in tracer.spans if s["name"] == "strategyopt.search"]
    side = _side_arrays(ModelKind.EMISSION_TIME_REALISM, 2)
    assert search["counts"]["joint_vertices"] == side.size**2
    assert search["counts"]["restarts_budgeted"] > 0
    # the exact answer is a closed form and the search solves its LPs
    # in-package, so no ``linprog`` call records a solve span
    assert names.count("strategyopt.lp.solve") == 0
