"""Build the reference tables that define the benchmark pools.

    python3 bench/build_reference.py [--workload NAME]

For each workload, draws the candidate inputs from the fixed pool seed,
keeps those the workload admits, runs the workload's item on each at the
current commit and writes ``reference/<name>.tsv.gz``: one line per pool item
with its key, work estimate and exact ``thresholdkit batch`` JSON line.  Every
item must also pass the independent checks; the build stops otherwise.

The tables are what later commits are checked against, so rebuild one only
when its pool is redefined.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import thresholdkit as tk  # noqa: E402

from workloads import (  # noqa: E402
    POOL_SEED, WORKLOADS, Entry, Layers, check, write_reference,
)


def build(workload) -> int:
    layers = Layers(tk)
    rng = random.Random(f"{POOL_SEED}:{workload.name}")
    rows = []
    seen = set()
    for spec in workload.candidates(rng):
        key = workload.key(spec)
        if key in seen:
            continue
        seen.add(key)
        if not workload.admit(tk, spec):
            continue
        out = workload.item(layers, spec)
        line = out.line if out.line is not None else layers.json_line(out.report)
        entry = Entry(key, workload.work(out), spec, line)
        problems = check(layers, entry, out, workload.brieskorn)
        if problems:
            raise SystemExit(f"{workload.name} {key}: {problems}")
        rows.append(f"{key}\t{entry.work}\t{line}\n")
    write_reference(workload.name, rows)
    return len(rows)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), action="append")
    args = parser.parse_args()
    for name in args.workload or sorted(WORKLOADS):
        start = time.perf_counter()
        count = build(WORKLOADS[name])
        print(f"{name}: {count} items in {time.perf_counter() - start:.1f} s", flush=True)


if __name__ == "__main__":
    main()
