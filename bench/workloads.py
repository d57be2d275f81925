"""The four benchmark workloads: their input pools, items and checks.

Every workload draws its items from a fixed pool.  The pool is the key list
of the workload's reference table (``reference/<name>.tsv.gz``), built once by
``build_reference.py``; each line holds an item key, a work estimate and the
exact JSON line ``thresholdkit batch`` printed for it.  A run orders the pool
by its seed (see ``draw``) and processes items in that order until its time
is up, going round again if it finishes the pool.

Only public functions of ``thresholdkit`` are called, always through a
``Layers`` object, so that a traced run can time each call as a span.
"""

from __future__ import annotations

import gzip
import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Box of the oracle workload; at 15 or less the oracle's own LP stops being
# a small share of its time.
BOX = 25

# Fixed seed from which the candidate pools were drawn; changing it changes
# the pools and needs a new reference table.
POOL_SEED = 20091218

# Items per stratum of similar cost; see draw().
STRATUM_SIZE = 4

# Public calls the harness makes, by span name.
LAYER_CALLS = {
    "lattice.parse_polynomial": "parse_polynomial",
    "lattice.maximin_lp": "maximin_lp",
    "newton.from_support": "from_support",
    "engine.ct_diagram": "ct_diagram",
    "engine.lct_diagram": "lct_diagram",
    "engine.ct_bruteforce": "ct_bruteforce",
    "brieskorn.brieskorn_threshold": "brieskorn_threshold",
    "brieskorn.lct_brieskorn": "lct_brieskorn",
    "blowup.ledger": "ledger",
}


def _json_line(report) -> str:
    """The per-line output step of ``thresholdkit batch``."""
    return json.dumps(report.to_json_dict())


class Layers:
    """The package's public functions, each wrapped in a span when traced."""

    def __init__(self, tk, tracer=None):
        self.tk = tk
        for span_name, attr in LAYER_CALLS.items():
            fn = getattr(tk, attr)
            setattr(self, attr, fn if tracer is None else tracer.wrap(span_name, fn))
        self.json_line = _json_line if tracer is None else tracer.wrap("cli.json", _json_line)


@dataclass
class Outcome:
    """What one item produced.  Optional fields are set by the items that
    compute them; the checks compute whatever an item did not."""

    support: object
    diagram: object
    report: object
    closed: object = None
    lct: Fraction | None = None
    lct_lp: Fraction | None = None
    line: str | None = None


@dataclass(frozen=True)
class Entry:
    """One pool item: key, work estimate, parsed input and reference JSON line."""

    key: str
    work: int
    spec: object
    reference: str


def axis_support(tk, exponents):
    """Support of x1^a1 + ... + xn^an."""
    n = len(exponents)
    points = frozenset(
        tuple(e if j == i else 0 for j in range(n)) for i, e in enumerate(exponents)
    )
    return tk.SupportSet(dimension=n, points=points)


# ---------------------------------------------------------------------------
# items: the public calls the CLI makes for one input
# ---------------------------------------------------------------------------

def scan_item(layers: Layers, exps) -> Outcome:
    """One triple of ``thresholdkit sweep``."""
    closed = layers.brieskorn_threshold(*exps)
    support = axis_support(layers.tk, exps)
    diagram = layers.from_support(support)
    report = layers.ct_diagram(diagram)
    lct = layers.lct_brieskorn(list(exps))
    return Outcome(support, diagram, report, closed=closed, lct=lct)


def search_item(layers: Layers, exps) -> Outcome:
    """``thresholdkit ct`` on a Brieskorn polynomial."""
    support = axis_support(layers.tk, exps)
    diagram = layers.from_support(support)
    return Outcome(support, diagram, layers.ct_diagram(diagram))


def batch_item(layers: Layers, text: str) -> Outcome:
    """One polynomial line of ``thresholdkit batch``, plus its lct."""
    support = layers.parse_polynomial(text)
    diagram = layers.from_support(support)
    report = layers.ct_diagram(diagram)
    lct_lp = layers.lct_diagram(diagram)
    return Outcome(support, diagram, report, lct_lp=lct_lp, line=layers.json_line(report))


def oracle_item(layers: Layers, exps) -> Outcome:
    """``thresholdkit ct --brute 25`` on a Brieskorn polynomial."""
    support = axis_support(layers.tk, exps)
    diagram = layers.from_support(support)
    return Outcome(support, diagram, layers.ct_bruteforce(diagram, BOX))


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

# The node count is a work counter that a faster search is expected to
# change (ROADMAP item 2), so the byte comparison masks its value only.
_NODES = re.compile(r'"nodes": \d+')


def compare_reference(report, line: str, reference: str) -> list[str]:
    """Exact match of value, witnesses, search bound and JSON bytes."""
    problems = []
    ref = json.loads(reference)
    if Fraction(ref["value"]["num"], ref["value"]["den"]) != report.value:
        problems.append(f"value {report.value} differs from the reference")
    if [tuple(w) for w in ref["witnesses"]] != list(report.witnesses):
        problems.append("witnesses differ from the reference")
    if ref["search_bound"] != report.search_bound:
        problems.append(f"search bound {report.search_bound} differs from the reference")
    if _NODES.sub('"nodes": N', line) != _NODES.sub('"nodes": N', reference):
        problems.append("JSON bytes differ from the reference")
    return problems


def check(layers: Layers, entry: Entry, out: Outcome, brieskorn: bool) -> list[str]:
    """Every independent check that applies to the item; [] when all hold."""
    problems = []
    report = out.report
    if report.status != "complete":
        problems.append(f"status {report.status}")
    if brieskorn:
        exps = entry.spec
        if len(exps) == 3:
            closed = out.closed if out.closed is not None else layers.brieskorn_threshold(*exps)
            if closed.value != report.value:
                problems.append(f"closed form {closed.value} != {report.value}")
            if not report.clamped and closed.weight not in report.witnesses:
                problems.append(f"closed-form weight {closed.weight} is not a witness")
        lct = out.lct if out.lct is not None else layers.lct_brieskorn(list(exps))
        lct_lp = layers.lct_diagram(out.diagram)
        if lct != lct_lp:
            problems.append(f"lct_diagram {lct_lp} != lct_brieskorn {lct}")
    elif out.lct_lp is not None and out.lct_lp != min(Fraction(1), report.relaxation):
        problems.append(f"lct_diagram {out.lct_lp} != clamped relaxation")
    for w in report.witnesses:
        if layers.ledger(out.diagram, w).excess(report.value) != 0:
            problems.append(f"witness {w} has nonzero excess")
    line = out.line if out.line is not None else layers.json_line(report)
    problems += compare_reference(report, line, entry.reference)
    return problems


# ---------------------------------------------------------------------------
# pools
# ---------------------------------------------------------------------------

def _triples(top: int):
    for a in range(2, top + 1):
        for b in range(a, top + 1):
            for c in range(b, top + 1):
                yield (a, b, c)


def scan_candidates(rng):
    return list(_triples(40))


def oracle_candidates(rng):
    return list(_triples(30))


def deep_candidates(rng):
    """x^2+y^3+z^c, a sample of the lcm rule with c <= 200, and 4-variable
    Brieskorn exponents."""
    family_z = [(2, 3, c) for c in range(20, 101)]
    lcm = [
        (a, b, c)
        for a in range(2, 11)
        for b in range(a, 13)
        for c in range(math.lcm(a, b), 201)
        # level bound c/a + c/b + 1 of the lcm rule: skip the trivial and the slow
        if 24 <= math.ceil(Fraction(c, a) + Fraction(c, b) + 1) <= 64
    ]
    family_lcm = sorted(rng.sample(lcm, 150))
    quads = set()
    while len(quads) < 250:
        quads.add(tuple(sorted([rng.randint(2, 5)] + [rng.randint(3, 14) for _ in range(3)])))
    return family_z + family_lcm + sorted(quads)


_NAMES = {3: "xyz", 4: "xyzw"}


def _monomial(coefficient: int, exps) -> str:
    factors = [v if e == 1 else f"{v}^{e}" for v, e in zip(_NAMES[len(exps)], exps) if e]
    if coefficient != 1:
        factors.insert(0, str(coefficient))
    return "*".join(factors)


def dense_polynomial(rng, n: int, d: int) -> str:
    """A pure power per axis and 6 to 12 mixed monomials of degree d-1..d+1."""
    terms = set()
    for i in range(n):
        terms.add(tuple(rng.randint(d, d + 2) if j == i else 0 for j in range(n)))
    mixed = rng.randint(6, 12)
    while len(terms) < n + mixed:
        degree = rng.randint(max(2, d - 1), d + 1)
        cuts = sorted(rng.randint(0, degree) for _ in range(n - 1))
        exps = tuple(hi - lo for lo, hi in zip([0] + cuts, cuts + [degree]))
        if sum(1 for e in exps if e) >= 2:
            terms.add(exps)
    return " + ".join(_monomial(rng.randint(1, 9), t) for t in sorted(terms, reverse=True))


def dense_candidates(rng):
    return [dense_polynomial(rng, n, d) for n in (3, 4) for d in range(3, 9) for _ in range(40)]


def _admit_all(tk, spec):
    return True


def _admit_deep(tk, exps):
    # enumeration-bound but at most a few tenths of a second per item
    cap = 70 if len(exps) == 3 else 30
    report = tk.ct_diagram(tk.from_support(axis_support(tk, exps)), max_bound=cap)
    return report.status == "complete" and 2500 <= report.nodes <= 40000


def _admit_dense(tk, text):
    # L <= 8 keeps the two LPs the dominant cost
    report = tk.ct_diagram(tk.from_support(tk.parse_polynomial(text)))
    return report.status == "complete" and report.search_bound <= 8


def _admit_oracle(tk, exps):
    # the box then covers the engine's whole search region, so the oracle
    # must reproduce the engine's value and witnesses exactly
    return tk.ct_diagram(tk.from_support(axis_support(tk, exps))).search_bound <= BOX


# Work estimates, machine-independent, that order a pool by cost.  One LP
# costs about as much as evaluating 80 vectors per variable.
def _search_work(out: Outcome) -> int:
    return out.diagram.dimension * (out.report.nodes + 80)


def _lp_work(out: Outcome) -> int:
    # the LPs dominate and grow with the number of generators
    return len(out.diagram.generators) * 10**6 + out.report.nodes


@dataclass(frozen=True)
class Workload:
    name: str
    item: Callable[[Layers, object], Outcome]
    brieskorn: bool
    candidates: Callable[[random.Random], list]
    admit: Callable[[object, object], bool]
    work: Callable[[Outcome], int]

    def spec(self, key: str):
        return tuple(int(x) for x in key.split(",")) if self.brieskorn else key

    def key(self, spec) -> str:
        return ",".join(map(str, spec)) if self.brieskorn else spec


WORKLOADS = {
    w.name: w for w in (
        Workload("brieskorn-scan", scan_item, True, scan_candidates, _admit_all, _search_work),
        Workload("deep-levels", search_item, True, deep_candidates, _admit_deep, _search_work),
        Workload("dense-supports", batch_item, False, dense_candidates, _admit_dense, _lp_work),
        Workload("box-oracle", oracle_item, True, oracle_candidates, _admit_oracle, _search_work),
    )
}


def reference_path(name: str) -> Path:
    return REFERENCE_DIR / f"{name}.tsv.gz"


def write_reference(name: str, rows: list[str]) -> None:
    """Gzip with a fixed timestamp, so that a rebuild is byte-identical."""
    REFERENCE_DIR.mkdir(exist_ok=True)
    with open(reference_path(name), "wb") as raw:
        with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as gz:
            gz.write("".join(rows).encode("utf-8"))


def load_pool(workload: Workload) -> list[Entry]:
    """The workload's pool, from its reference table."""
    pool = []
    with gzip.open(reference_path(workload.name), "rt", encoding="utf-8") as fh:
        for line in fh:
            key, work, reference = line.rstrip("\n").split("\t")
            pool.append(Entry(key, int(work), workload.spec(key), reference))
    return pool


def draw(pool: list[Entry], seed: int) -> list[Entry]:
    """The pool in a seeded order that keeps the same mix of costs.

    The pool is sorted by work estimate and cut into strata of STRATUM_SIZE
    items of similar cost.  Each stratum is shuffled by the seed, and round
    i of the order takes the i-th item of every stratum, strata in a seeded
    order.  Runs with different seeds thus see different items, but every
    round has the same spread of costs.
    """
    rng = random.Random(seed)
    ranked = sorted(pool, key=lambda entry: (entry.work, entry.key))
    keyed = []
    for start in range(0, len(ranked), STRATUM_SIZE):
        members = ranked[start:start + STRATUM_SIZE]
        rng.shuffle(members)
        offset = rng.random()
        keyed += [((i + offset) / len(members), e) for i, e in enumerate(members)]
    keyed.sort(key=lambda pair: pair[0])
    return [entry for _, entry in keyed]
