"""Benchmark of the ``franson`` command line, end to end and layer by layer.

Run from the root of a source checkout (stdlib only; it imports the
package from ``src/``):

    python3 bench/run.py --workload simulate_aklz --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --trace 1                # every workload, one process each

Each workload runs in its own process, which drives ``franson.cli.main``
in-process.  A run first measures set-up (a few fresh processes each import
franson, numpy and scipy and make one small warm-up call), then repeats the
workload, each repetition with a fresh seed derived from ``--seed``, for
about ``--seconds``, and checks every report.

``--trace 0`` reports the end-to-end metrics with tracing off.  Throughput,
wall time and set-up time are gated relative to a fixed reference loop timed
next to them, because the host's speed drifts (see ``end_to_end``); their
raw values are printed and recorded beside them.  ``--trace 1``
alternates untraced and traced repetitions on the same seed, checks that
their reports are byte-identical, and reports the per-layer metrics of
``spans.PER_LAYER`` plus the tracing overhead.

The layers are the package's modules: core, lhv, quantum, timing,
inequalities, strategyopt and cli.  ``setups`` and ``spacetime`` are left
out on purpose: the distribution-level ``simulate_setup`` path and the
geometry checker each take milliseconds, and no planned optimisation
targets them.  Each workload keeps the others' optimisations bypassed:
verify_games does not reach ``timing``, simulate_aklz writes no CSV and
solves no game, and events_roundtrip solves no game.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full record (provenance, every repetition, the spans) goes
to ``.bench_run/`` in the checkout.  The exit code is 0 only when every check
passed.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback

from spans import PER_LAYER, RepSpans, Tracer, layers_traced
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".bench_run")
SETUP_PROBES = 5
MIN_REPS = 2  # untraced repetitions; a traced run makes at least one pair
CHILD_TIMEOUT_S = 170

REFERENCE_LOOPS = 1_000_000
REFERENCE_SAMPLES = 2  # at least, before the first repetition and after each
REFERENCE_SHARE = 0.1  # after a repetition, time the loop for this share of it
# setup_s is in seconds of a host on which the reference loop takes this long
REFERENCE_NOMINAL_S = 0.1


def import_cli():
    """``franson.cli`` from this checkout's ``src/``; exits non-zero without it."""
    if not os.path.isfile(os.path.join(SRC, "franson", "cli.py")):
        sys.exit(f"error: no franson sources under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    import franson.cli

    if not os.path.abspath(franson.cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: franson was imported from {franson.cli.__file__}, not {SRC}")
    return franson.cli


def call_cli(cli_main, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli_main(argv)
    return rc, buf.getvalue()


def run_rep(workload, cli_main, seed: int, warmup: bool = False) -> dict:
    """One repetition: its wall time, report texts, work items and problems."""
    texts: list[str] = []
    problems: list[str] = []
    start = time.perf_counter()
    try:
        for argv in workload.commands(seed, WORKDIR, warmup):
            rc, text = call_cli(cli_main, argv)
            if rc != 0:
                problems.append(f"exit code {rc} from {' '.join(argv)}")
                break
            texts.append(text)
    except Exception:  # a crash is one failed operation; keep measuring
        traceback.print_exc()
        problems.append("the command raised")
    wall = time.perf_counter() - start
    items = 0
    if not problems:
        try:
            reports = [json.loads(t) for t in texts]
            items = workload.items(reports)
            if not warmup:
                problems += workload.check(reports, WORKDIR)
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"unreadable report: {exc!r}")
    return {"seed": seed, "wall_s": wall, "items": items, "texts": texts, "problems": problems}


def repeat(seconds: float, step, at_least: int) -> list[dict]:
    """Call ``step(k)`` for k = 0, 1, ... while another call is expected to
    end within ``seconds``, and at least ``at_least`` times.  Each result
    carries its ``wall_s``."""
    results: list[dict] = []
    start = time.perf_counter()
    while len(results) < at_least or (
        time.perf_counter() - start + statistics.median(r["wall_s"] for r in results)
        <= seconds
    ):
        results.append(step(len(results)))
    return results


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and that
    percentile.  Below 21 samples no percentile above the median has ten
    beyond it, so the maximum is reported instead."""
    ordered = sorted(values)
    n = len(ordered)
    k = n - 11 if n >= 21 else n - 1
    return ordered[k], 100.0 * (k + 1) / n


# ---------------------------------------------------------------------------
# set-up


def setup_probe(workload, seed: int) -> None:
    """Child process: time import and one warm-up call, and the reference
    loop before and after them; print both as JSON."""
    refs = [reference_s() for _ in range(REFERENCE_SAMPLES)]
    start = time.perf_counter()
    cli = import_cli()
    import numpy  # noqa: F401
    import scipy  # noqa: F401

    os.makedirs(WORKDIR, exist_ok=True)
    rep = run_rep(workload, cli.main, seed, warmup=True)
    elapsed = time.perf_counter() - start
    if rep["problems"]:
        sys.exit("error: warm-up failed: " + "; ".join(rep["problems"]))
    refs += [reference_s() for _ in range(REFERENCE_SAMPLES)]
    print(json.dumps({"setup_s": elapsed, "ref_s": statistics.mean(refs)}))


def measure_setup(workload, seed: int) -> list[dict]:
    """One record per set-up probe: its times, or the problem that stopped it."""
    probes = []
    for _ in range(SETUP_PROBES):
        try:
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--setup-probe",
                 "--workload", workload.name, "--seed", str(seed)],
                cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            probes.append({"problems": [f"set-up probe ran past {CHILD_TIMEOUT_S} s"]})
            continue
        try:
            probe = json.loads(proc.stdout.strip().splitlines()[-1])
            probe["problems"] = []
        except (IndexError, ValueError):
            sys.stderr.write(proc.stderr)
            probe = {"problems": [f"set-up probe exited with {proc.returncode}"]}
        probes.append(probe)
    return probes


# ---------------------------------------------------------------------------
# provenance


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS loaded in this process, by library."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return {}
    threads = {}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                threads[os.path.basename(path)] = fn()
                break
    return threads


def _git_commit() -> str | None:
    """HEAD of this checkout's own ``.git``, if it has one and git runs."""
    try:
        proc = subprocess.run(
            ["git", "--git-dir", os.path.join(ROOT, ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True,
        )
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(seeds: dict) -> dict:
    import franson
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads()},
        "franson": franson.__version__,
        "git_commit": _git_commit(),
        "seeds": seeds,
    }


# ---------------------------------------------------------------------------
# one workload


def derive_seed(workload, seed: int, k) -> int:
    """The seed of repetition ``k`` (or of the warm-up) of a workload run."""
    return random.Random(f"{workload.name}/{seed}/{k}").randrange(2**31)


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload]
    cli = import_cli()
    warmup_seed = derive_seed(workload, args.seed, "warmup")
    rep_seed = functools.partial(derive_seed, workload, args.seed)
    os.makedirs(WORKDIR, exist_ok=True)
    probes = [] if args.trace else measure_setup(workload, warmup_seed)
    if probes and all(p["problems"] for p in probes):
        sys.exit("error: no set-up probe succeeded: " + "; ".join(probes[0]["problems"]))
    # warm caches, and check that a repeated seed gives the same bytes
    warm = [run_rep(workload, cli.main, warmup_seed, warmup=True) for _ in range(2)]
    for rep in warm:
        rep["warmup"] = True
    if not warm[0]["problems"] and warm[0]["texts"] != warm[1]["texts"]:
        warm[1]["problems"].append("a repeated seed gave a different report")

    if args.trace:
        reps, metrics, spans = traced_run(workload, cli.main, rep_seed, args.seconds)
        reported, refs = {}, []
    else:
        refs = [reference_s() for _ in range(REFERENCE_SAMPLES)]
        before = list(refs)  # the samples timed just before the next repetition

        def step(k: int) -> dict:
            # the host's speed wanders within seconds: sample the loop long
            # enough that its mean stands for the whole repetition
            nonlocal before
            rep = run_rep(workload, cli.main, rep_seed(k))
            n = round(REFERENCE_SHARE * rep["wall_s"] / statistics.median(refs))
            after = [reference_s() for _ in range(max(REFERENCE_SAMPLES, n))]
            refs.extend(after)
            rep["ref_s"] = statistics.mean(before + after)
            before = after
            return rep

        reps = repeat(args.seconds, step, MIN_REPS)
        metrics, reported = end_to_end(workload, reps, refs, probes)
        spans = []

    done = warm + reps
    ops = probes + done
    failed = sum(1 for r in ops if r["problems"])
    reported["failed_ratio"] = {"value": failed / len(ops), "unit": "ratio",
                                "note": f"{failed} of {len(ops)} operations failed"}
    used = list(dict.fromkeys(r["seed"] for r in reps))
    record = {
        "workload": workload.name,
        "why": workload.why,
        "trace": bool(args.trace),
        "seconds": args.seconds,
        "provenance": provenance({"workload_seed": args.seed, "warmup_seed": warmup_seed,
                                  "repetition_seeds": used}),
        "setup_probes": probes,
        "reference_samples_s": refs,
        "repetitions": [{k: v for k, v in r.items() if k != "texts"} for r in done],
        "metrics": metrics,
        "reported": reported,
        "spans": spans,
    }
    out_path = os.path.join(WORKDIR, f"{workload.name}-seed{args.seed}-trace{int(args.trace)}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    with contextlib.suppress(FileNotFoundError):
        os.remove(os.path.join(WORKDIR, "events.csv"))

    print_summary(workload, args, record, out_path)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def reference_s() -> float:
    """Seconds this host takes for a fixed pure-Python loop that no change
    to franson can alter: the yardstick of the relative metrics."""
    start = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - start


def end_to_end(workload, reps: list[dict], refs: list[float],
               probes: list[dict]) -> tuple[dict, dict]:
    """The gated end-to-end metrics, and those only reported.

    The host's speed drifts by up to a factor of two over minutes, for all
    work alike, so raw times of separate runs spread too widely to gate on.
    Each repetition and each set-up probe is therefore divided by the
    reference loop timed just before and after it, which takes the drift
    out: ``wall_rel`` and ``throughput_rel`` are in units of that loop, and
    ``setup_s`` is in seconds of a host on which the loop takes
    ``REFERENCE_NOMINAL_S``.  The raw figures are reported beside them.  The
    tail is only reported: a run has too few repetitions for a steady tail.
    """
    walls = [r["wall_s"] for r in reps]
    ref = statistics.median(refs)
    throughput = sum(r["items"] for r in reps) / sum(walls)
    tail_s, tail_pct = tail(walls)
    n = len(walls)
    setups = [p for p in probes if not p["problems"]]

    def metric(value, unit, note):
        return {"value": value, "unit": unit, "note": note}

    metrics = {
        "throughput_rel": metric(statistics.median(r["items"] * r["ref_s"] / r["wall_s"]
                                                   for r in reps),
                                 "1/ref", f"{workload.item} per ref, median of {n} repetitions"),
        "wall_rel": metric(statistics.median(r["wall_s"] / r["ref_s"] for r in reps),
                           "ref", f"median of {n} repetitions"),
        "setup_s": metric(REFERENCE_NOMINAL_S * statistics.median(p["setup_s"] / p["ref_s"]
                                                                  for p in setups),
                          "s", f"at a {REFERENCE_NOMINAL_S} s ref, median of "
                          f"{len(setups)} fresh processes"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
                              "MB", "peak resident memory of this process"),
    }
    reported = {
        "throughput": metric(throughput, "1/s", f"{workload.item} per second"),
        "wall_s": metric(statistics.median(walls), "s", f"median of {n} repetitions"),
        "wall_s_tail": metric(tail_s, "s", f"p{tail_pct:.0f} of {n} repetitions"),
        "setup_raw_s": metric(statistics.median(p["setup_s"] for p in setups), "s",
                              f"median of {len(setups)} fresh processes"),
        "ref_s": metric(ref, "s", f"reference loop, median of {len(refs)}"),
    }
    return metrics, reported


def traced_run(workload, cli_main, rep_seed, seconds: float):
    """Pairs of one untraced and one traced repetition on the same seed,
    alternating which goes first."""
    tracer = Tracer()
    traced_main = tracer.wrap("cli.main", cli_main)

    def pair(k: int):
        def traced():
            tracer.rep = k
            with layers_traced(tracer):
                rep = run_rep(workload, traced_main, rep_seed(k))
            rep["traced"] = True
            return rep

        def plain():
            return run_rep(workload, cli_main, rep_seed(k))

        first, second = (plain, traced) if k % 2 == 0 else (traced, plain)
        a = first()
        b = second()
        untraced, traced_rep = (a, b) if k % 2 == 0 else (b, a)
        if not (untraced["problems"] or traced_rep["problems"]) and (
            untraced["texts"] != traced_rep["texts"]
        ):
            traced_rep["problems"].append("the traced report differs from the untraced one")
        return {"wall_s": a["wall_s"] + b["wall_s"], "untraced": untraced, "traced": traced_rep}

    pairs = repeat(seconds, pair, 1)
    per_rep = [
        RepSpans([s for s in tracer.spans if s["rep"] == k]) for k in range(len(pairs))
    ]
    metrics = {
        name: {"value": statistics.median(value(r) for r in per_rep), "unit": unit,
               "note": moves}
        for name, unit, _better, moves, value in PER_LAYER
    }
    metrics["trace.overhead_s"] = {
        "value": statistics.median(
            p["traced"]["wall_s"] - p["untraced"]["wall_s"] for p in pairs
        ),
        "unit": "s",
        "note": f"traced minus untraced wall_s, median of {len(pairs)} pairs",
    }
    reps = [rep for p in pairs for rep in (p["untraced"], p["traced"])]
    return reps, metrics, tracer.spans


def print_summary(workload, args, record, out_path) -> None:
    mode = "traced" if args.trace else "tracing off"
    print(f"{workload.name}  seed {args.seed}  {args.seconds}s  {mode}")
    print(f"  why: {workload.why}")
    for name, m in [*record["metrics"].items(), *record["reported"].items()]:
        print(f"  {name:40s} {m['value']:<22.10g} {m['unit']:6s} {m['note']}")
    for p in record["setup_probes"]:
        for problem in p["problems"]:
            print(f"  FAILED set-up: {problem}")
    for r in record["repetitions"]:
        for problem in r["problems"]:
            print(f"  FAILED seed {r['seed']}: {problem}")
    print("  provenance: " + json.dumps(record["provenance"], sort_keys=True)[:2000])
    print(f"  record: {os.path.relpath(out_path, ROOT)}")


# ---------------------------------------------------------------------------
# every workload


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    attempted = failed = 0
    correct = True
    metrics = {}
    for name in WORKLOADS:
        try:
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(int(args.trace))],
                cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S + 60,
            )
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1])
        except subprocess.TimeoutExpired:
            print(f"{name}: no result (ran past {CHILD_TIMEOUT_S + 60} s)")
            result = None
        except (IndexError, ValueError):
            print(f"{name}: no result (exit code {proc.returncode})")
            result = None
        if result is None:  # the workload counts as one failed operation
            correct = False
            attempted += 1
            failed += 1
            continue
        correct &= result["correct"] and proc.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("all", *WORKLOADS), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_probe:
        setup_probe(WORKLOADS[args.workload], args.seed)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
