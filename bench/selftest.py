"""Self-test of the benchmark harness.

    python3 bench/selftest.py

For every workload, at a tiny size:

* two traced runs with the same seed report exactly the same
  machine-independent counts (calls, nodes, levels, oracle nodes, ratios);
* a plain and a traced run each report every metric BENCHMARK.json lists,
  with its unit, and no failed item;
* a run whose reference table has one wrong witness reports exactly that
  item as failed, and finishes.

Exits 0 when every check holds and 1 otherwise.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace

import run as harness
from workloads import WORKLOADS

ITEMS = 4
SEED = 7


def counts(report: dict) -> dict:
    return {name: value for name, (value, unit) in report["metrics"].items()
            if unit in ("count", "ratio")}


def wrong_witness(order, corrupted: list):
    """The order with one entry, which has witnesses, moved to the front and
    given a reference whose first witness is off by one; its key is appended
    to ``corrupted``."""
    for i, entry in enumerate(order):
        ref = json.loads(entry.reference)
        if ref["witnesses"]:
            ref["witnesses"][0][0] += 1
            corrupted.append(entry.key)
            return [replace(entry, reference=json.dumps(ref))] + order[:i] + order[i + 1:]
    raise AssertionError("no pool item has a witness")


def check_workload(name: str, bench: dict) -> list[str]:
    problems = []
    wanted = {mode: [(m["name"], m["unit"]) for m in bench[key]]
              for mode, key in ((False, "end_to_end"), (True, "per_layer"))}
    runs = {}
    for label, traced in (("plain", False), ("traced", True), ("traced again", True)):
        report = harness.run(name, SEED, None, traced, max_items=ITEMS)
        runs[label] = report
        if report["attempted"] != ITEMS or report["failed"]:
            problems.append(f"{label} run: {report['attempted']} attempted, "
                            f"{report['failed']} failed: {report['failures']}")
        try:
            harness.result_line(report, wanted[traced])
        except (KeyError, ValueError) as exc:
            problems.append(f"{label} run lacks a listed metric: {exc!r}")
    first, second = counts(runs["traced"]), counts(runs["traced again"])
    for metric in sorted(first):
        if first[metric] != second.get(metric):
            problems.append(f"{metric} did not repeat: {first[metric]} then {second.get(metric)}")
    if not first.get("harness.item.calls"):
        problems.append("traced run recorded no item spans")

    for traced in (False, True):
        corrupted = []
        report = harness.run(name, SEED, None, traced, max_items=ITEMS,
                             tamper=lambda order: wrong_witness(order, corrupted))
        failed_keys = [key for key, _ in report["failures"]]
        if failed_keys != corrupted:
            problems.append(f"wrong witness (trace {int(traced)}): failures {report['failures']}, "
                            f"expected only {corrupted}")
        elif not any("witnesses differ" in p for p in report["failures"][0][1]):
            problems.append(f"wrong witness not named: {report['failures']}")
    return problems


def main() -> int:
    bench = json.loads((harness.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failed = False
    for name in sorted(WORKLOADS):
        problems = check_workload(name, bench)
        failed = failed or bool(problems)
        print(f"{name}: {'ok' if not problems else 'FAILED'}")
        for problem in problems:
            print(f"  {problem}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
