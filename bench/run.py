"""Benchmark harness for thresholdkit.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py) in this process, on the package in
``src/`` of the checkout, calling only its public functions.  Every item is
checked; an item that raises, ends with status ``bound-exceeded`` or fails a
check counts as failed and the run goes on.

Set-up (importing the package, drawing the inputs from the seed, loading the
reference table, warming up on two pool items) is done SETUP_REPEATS times
and ``setup_s`` is the median; interpreter start-up is not included.  The
run then measures for S seconds, one item at a time in a closed loop.

--trace 0 reports the end-to-end metrics: ``items_per_s`` (items over their
summed latency, checks excluded), ``item_ms.p50`` and ``item_ms.p90`` (over
all items of the run; the sample count is ``attempted``), ``peak_rss_mb``
and ``setup_s``.  Their times are scaled to a reference host speed: before
every item and every set-up the harness times ``calibrate()``, fixed
pure-Python work that never calls the package, and multiplies the time
measured by CAL_REF_S over the median of the calibrations around it.  On a
shared host whose speed swings by tens of percent within seconds, this
keeps the spread between runs to a few percent.  The unscaled figures are
in the report as ``wall.*``.

--trace 1 reports the per-layer metrics.  Each item is run twice, untraced
and traced, in alternating order; the traced pass records a span around
every public call.  ``<layer>.calls`` and ``<layer>.busy_s`` cover every
call of the run, whether made by an item, by the checks or by the probe;
``<layer>.share`` is the layer's busy time inside items over
``harness.item.busy_s``.  The probe times ``maximin_lp`` on each searched
diagram outside the item, which estimates the LP inside ``ct_diagram`` and
``ct_bruteforce``; ``enum_est_s`` is ``ct_diagram`` time less that estimate.
``trace.overhead_frac`` is traced over untraced item time, minus one.
Per-layer times are not scaled; shares and counts do not need it.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``, where metrics are the
ones BENCHMARK.json lists for the mode.  A full report, and for traced runs
the spans, are written under ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import traceback
from collections import Counter
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 5
WARMUP_ITEMS = 2
# Median duration of calibrate() on the host the benchmark was defined on
# (x86_64, 2 vCPUs shared with other tenants, Python 3.11.7).
CAL_REF_S = 1.7e-3

sys.path.insert(0, str(SRC))

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, Layers, check, draw, load_pool, oracle_item  # noqa: E402


_CAL_GENS = ((2, 0, 0), (0, 3, 0), (0, 0, 7), (1, 1, 1))


def calibrate() -> float:
    """Seconds taken by a fixed piece of pure-Python work like the engine's
    inner loop (weighted minima and Fraction comparisons)."""
    start = perf_counter()
    best = Fraction(10**9)
    for a in range(1, 9):
        for b in range(1, 9):
            for c in range(1, 9):
                if math.gcd(a, b, c) != 1:
                    continue
                wf = min(a * m0 + b * m1 + c * m2 for m0, m1, m2 in _CAL_GENS)
                h = Fraction(a + b + c - 1, wf)
                if h < best:
                    best = h
    return perf_counter() - start


def host_scale(cal: list[float], i: int) -> float:
    """Factor taking a time measured between cal[i] and cal[i + 1] to a host
    on which calibrate() takes CAL_REF_S."""
    return CAL_REF_S / statistics.median(cal[max(0, i - 1): i + 3])


def import_package():
    """A fresh import of thresholdkit from this checkout, so that every
    set-up pays for it."""
    for name in [m for m in sys.modules if m == "thresholdkit" or m.startswith("thresholdkit.")]:
        del sys.modules[name]
    tk = importlib.import_module("thresholdkit")
    if SRC not in Path(tk.__file__).resolve().parents:
        raise ImportError(f"thresholdkit was imported from {tk.__file__}, not from {SRC}")
    return tk


def set_up(workload, seed: int):
    tk = import_package()
    pool = load_pool(workload)
    order = draw(pool, seed)
    layers = Layers(tk)
    for entry in pool[:WARMUP_ITEMS]:
        attempt(workload, layers, entry)
    return tk, order


def attempt(workload, layers, entry):
    """Run and check one item: (seconds it took, problems found)."""
    start = perf_counter()
    try:
        out = workload.item(layers, entry.spec)
    except Exception:
        return perf_counter() - start, [_error("raised")]
    seconds = perf_counter() - start
    try:
        problems = check(layers, entry, out, workload.brieskorn)
    except Exception:
        problems = [_error("check raised")]
    return seconds, problems


def _error(what: str) -> str:
    return f"{what} {traceback.format_exc().strip().splitlines()[-1]}"


def schedule(order, seconds, max_items):
    """Item indices and entries, round the order, until time or count is up."""
    deadline = None if seconds is None else perf_counter() + seconds
    i = 0
    while True:
        yield i, order[i % len(order)]
        i += 1
        if max_items is not None and i >= max_items:
            return
        if deadline is not None and perf_counter() >= deadline:
            return


def measure(workload, tk, order, seconds, max_items):
    """Latencies, calibrations around them, and failures."""
    layers = Layers(tk)
    latencies = []
    cal = []
    failures = []
    for _, entry in schedule(order, seconds, max_items):
        cal.append(calibrate())
        elapsed, problems = attempt(workload, layers, entry)
        latencies.append(elapsed)
        if problems:
            failures.append((entry.key, problems))
    cal.append(calibrate())
    return latencies, cal, failures


def measure_traced(workload, tk, order, seconds, max_items):
    tracer = Tracer()
    counters = Counter()
    plain, traced = Layers(tk), Layers(tk, tracer)
    oracle = workload.item is oracle_item
    untraced_s = 0.0
    attempted = 0
    failures = []
    for i, entry in schedule(order, seconds, max_items):
        attempted += 1
        tracer.item = i
        try:
            # alternate the order of the two passes so neither always runs warm
            if i % 2 == 0:
                untraced_s += _timed(workload, plain, entry)
            with tracer.span("harness.item"):
                out = workload.item(traced, entry.spec)
            if i % 2 == 1:
                untraced_s += _timed(workload, plain, entry)
        except tk.ParseError:
            counters["lattice.parse_polynomial.errors"] += 1
            failures.append((entry.key, [_error("raised")]))
            continue
        except Exception:
            failures.append((entry.key, [_error("raised")]))
            continue
        try:
            with tracer.span("harness.probe"):
                traced.maximin_lp(out.diagram.generators, out.diagram.dimension)
            with tracer.span("harness.check"):
                problems = check(traced, entry, out, workload.brieskorn)
        except Exception:
            problems = [_error("check raised")]
        if problems:
            failures.append((entry.key, problems))
        _observe(counters, out, oracle)
    return tracer, counters, untraced_s, attempted, failures


def _timed(workload, layers, entry) -> float:
    start = perf_counter()
    workload.item(layers, entry.spec)
    return perf_counter() - start


def _observe(counters: Counter, out, oracle: bool) -> None:
    """Machine-independent work counts of one traced item."""
    report = out.report
    search = "engine.ct_bruteforce" if oracle else "engine.ct_diagram"
    counters[f"{search}.nodes"] += report.nodes
    counters[f"{search}.witnesses"] += len(report.witnesses)
    if not oracle:
        counters["engine.ct_diagram.levels"] += report.search_bound
    counters["newton.from_support.points"] += len(out.support.points)
    counters["newton.from_support.kept"] += len(out.diagram.generators)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, counters: Counter, untraced_s: float) -> dict:
    """Every per-layer metric: name -> (value, unit).

    Sums over the run (``calls``, ``busy_s``, ``nodes``, ``levels``) grow
    with the number of items a run gets through; the per-call means, ratios
    and shares do not, so they compare across commits.
    """
    totals = tracer.totals()

    def calls(name):
        return sum(cell["calls"] for cell in totals.get(name, {}).values())

    def busy(name, root=None):
        cells = totals.get(name, {})
        if root is not None:
            return cells.get(root, {}).get("busy_s", 0.0)
        return sum(cell["busy_s"] for cell in cells.values())

    item_s = busy("harness.item")
    items = calls("harness.item")
    probe_lp_s = busy("lattice.maximin_lp", "harness.probe")
    ct_calls = calls("engine.ct_diagram")
    enum_est_s = busy("engine.ct_diagram", "harness.item") - probe_lp_s if ct_calls else 0.0
    m = {
        "trace.overhead_frac": (_ratio(item_s, untraced_s) - 1.0, "frac"),
        "harness.check.ms_per_item": (1000.0 * _ratio(busy("harness.check"), items), "ms"),
        "engine.ct_diagram.enum_est_s": (enum_est_s, "s"),
        "engine.ct_diagram.enum_share": (_ratio(enum_est_s, item_s), "frac"),
        "engine.ct_diagram.levels": (counters["engine.ct_diagram.levels"], "count"),
        "engine.ct_diagram.levels_per_call": (
            _ratio(counters["engine.ct_diagram.levels"], ct_calls), "count"),
        "engine.ct_diagram.nodes_per_s": (
            _ratio(counters["engine.ct_diagram.nodes"], busy("engine.ct_diagram")), "1/s"),
        "lattice.maximin_lp.gens_per_call": (
            _ratio(counters["newton.from_support.kept"], calls("lattice.maximin_lp")), "count"),
        "lattice.parse_polynomial.errors": (counters["lattice.parse_polynomial.errors"], "count"),
        "newton.from_support.kept_ratio": (
            _ratio(counters["newton.from_support.kept"], counters["newton.from_support.points"]),
            "ratio"),
    }
    for name in sorted(set(totals) | {f"engine.{f}" for f in ("ct_diagram", "ct_bruteforce")}
                       | {"lattice.parse_polynomial", "brieskorn.brieskorn_threshold"}):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.busy_s"] = (busy(name), "s")
        m[f"{name}.ms_per_call"] = (1000.0 * _ratio(busy(name), calls(name)), "ms")
        # the probe's LP runs outside items and stands for the LP inside them
        inside = probe_lp_s if name == "lattice.maximin_lp" else busy(name, "harness.item")
        m[f"{name}.share"] = (_ratio(inside, item_s), "frac")
    for search in ("engine.ct_diagram", "engine.ct_bruteforce"):
        nodes = counters[f"{search}.nodes"]
        m[f"{search}.nodes"] = (nodes, "count")
        m[f"{search}.nodes_per_call"] = (_ratio(nodes, calls(search)), "count")
        m[f"{search}.witness_ratio"] = (_ratio(counters[f"{search}.witnesses"], nodes), "ratio")
    return m


def _timing_metrics(latencies: list[float], prefix: str) -> dict:
    ms = [seconds * 1000.0 for seconds in latencies]
    p90 = statistics.quantiles(ms, n=10)[8] if len(ms) > 1 else ms[0]
    return {
        f"{prefix}items_per_s": (len(ms) / sum(latencies), "1/s"),
        f"{prefix}item_ms.p50": (statistics.median(ms), "ms"),
        f"{prefix}item_ms.p90": (p90, "ms"),
    }


def end_to_end_metrics(latencies, cal, setup_times, setup_cal) -> dict:
    """Every end-to-end metric: name -> (value, unit).

    Times are scaled to the reference host speed by the calibrations run
    between items; the unscaled wall-clock figures are kept as ``wall.*``.
    """
    scaled = [t * host_scale(cal, i) for i, t in enumerate(latencies)]
    setup = [t * host_scale(setup_cal, i) for i, t in enumerate(setup_times)]
    return {
        **_timing_metrics(scaled, ""),
        **_timing_metrics(latencies, "wall."),
        "setup_s": (statistics.median(setup), "s"),
        "wall.setup_s": (statistics.median(setup_times), "s"),
        "host_scale": (statistics.median(host_scale(cal, i) for i in range(len(latencies))), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": src_lines(),
        "machine": platform.machine(),
    }


def run(name: str, seed: int, seconds: float | None, traced: bool,
        max_items: int | None = None, tamper=None) -> dict:
    """One benchmark run; returns the full report.

    ``max_items`` stops after that many items instead of after ``seconds``;
    ``tamper`` may rewrite the drawn order before measuring.
    """
    workload = WORKLOADS[name]
    setup_times = []
    setup_cal = []
    for _ in range(SETUP_REPEATS):
        setup_cal.append(calibrate())
        start = perf_counter()
        tk, order = set_up(workload, seed)
        setup_times.append(perf_counter() - start)
    setup_cal.append(calibrate())
    if tamper is not None:
        order = tamper(order)
    report = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
              "environment": environment(), "setup_times_s": setup_times}
    origin = perf_counter()
    if traced:
        tracer, counters, untraced_s, attempted, failures = measure_traced(
            workload, tk, order, seconds, max_items)
        metrics = layer_metrics(tracer, counters, untraced_s)
        report["spans"] = tracer
        report["span_origin"] = origin
    else:
        latencies, cal, failures = measure(workload, tk, order, seconds, max_items)
        attempted = len(latencies)
        metrics = end_to_end_metrics(latencies, cal, setup_times, setup_cal)
        report.update(latencies_s=latencies, calibrations_s=cal)
    report["measured_s"] = perf_counter() - origin
    report.update(attempted=attempted, failed=len(failures),
                  failed_frac=len(failures) / attempted, failures=failures,
                  metrics=metrics)
    return report


def result_line(report: dict, names_units: list[tuple[str, str]]) -> dict:
    metrics = {}
    for name, unit in names_units:
        value, measured_unit = report["metrics"][name]
        if measured_unit != unit:
            raise ValueError(f"{name}: measured in {measured_unit}, BENCHMARK.json says {unit}")
        metrics[name] = {"value": value, "unit": unit}
    return {"correct": report["failed"] == 0, "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def write_report(report: dict) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{report['workload']}-seed{report['seed']}-trace{report['trace']}"
    tracer = report.pop("spans", None)
    if tracer is not None:
        tracer.write(OUT_DIR / f"{stem}-spans.jsonl", report.pop("span_origin"))
    path = OUT_DIR / f"{stem}.json"
    data = dict(report, metrics={k: {"value": v, "unit": u}
                                 for k, (v, u) in sorted(report["metrics"].items())})
    path.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="thresholdkit benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = [(m["name"], m["unit"]) for m in bench["per_layer" if args.trace else "end_to_end"]]
    try:
        report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"error: cannot import thresholdkit from {SRC}: {exc}", file=sys.stderr)
        return 2

    env = report["environment"]
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print(f"python {env['python']} nproc {env['nproc']} src_lines {env['src_lines']}")
    print(f"items {report['attempted']} failed {report['failed']} "
          f"failed_frac {report['failed_frac']:.6f}")
    for key, problems in report["failures"][:10]:
        print(f"FAILED {key}: {'; '.join(problems)}")
    for name, (value, unit) in sorted(report["metrics"].items()):
        print(f"  {name} = {value:.6g} {unit}")
    print(f"report {write_report(report).relative_to(ROOT)}")
    print(json.dumps(result_line(report, wanted)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
