"""Threshold computation over Newton diagrams by exact weight-vector search.

For an admissible weight vector w (nonnegative, primitive, neither zero nor
a unit vector) the quantity of interest is

    h(w) = (w_1 + ... + w_n - 1) / wf(w),      wf(w) = min_m <w, m>,

the minimum over the diagram generators m; fractions with wf(w) = 0 count
as +infinity.  The threshold of the diagram is min(1, inf_w h(w)).

The infimum ranges over infinitely many vectors, but it can be resolved by
a finite search.  Let t* be the exact maximin value of <u, m> over
probability directions u (an LP over the generators) and r* = 1/t*.  Every
admissible w satisfies wf(w) <= |w|_1 * t*, hence

    h(w) >= r* * (1 - 1/|w|_1),

so once some evaluated vector achieves h < r*, all levels |w|_1 beyond
L = ceil(r* / (r* - best)) are strictly worse than the best value found and
enumeration through level L is exhaustive.  Clearing denominators of the
optimal LP direction gives a primitive vector with h = r*(1 - 1/|w|_1) < r*,
which primes the bound whenever that vector is admissible.  maximin_lp
returns a unit vector only when the whole optimal face is one coordinate
axis (e.g. a single generator on an axis); only then is there no ray seed.
Such diagrams may admit no vector below r*; the search then stops at the
configured cap and reports a partial result rather than a wrong one.  The
LP is solved once per diagram object, on first use, and kept on it:
ct_diagram, lct_diagram and ct_bruteforce share that one solve.  That
saves a solve only for a caller that makes more than one of these calls
on one object; the CLI commands make one each.

Within a level, a depth-first search fixes one coordinate at a time; its
prefixes wait on one explicit stack, pushed in reverse so that they pop in
lexicographic order.  A vector ties or beats the best value so far only if
<w, m> >= need = ceil((|w|_1 - 1) / best) for every generator m.  With a
prefix fixed and x the next coordinate, <w, m> is at most the prefix's dot
product plus x * m_k + (rest - x) * max_{j>k} m_j, linear in x, so the x
that keep every m in reach form one integer interval and the others are cut
(branch and bound).  best only decreases, so a cut vector cannot tie the
final value either: the witnesses are those of the exhaustive search.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Sequence

from .lattice import (
    InadmissibleWeightError,
    MaximinSolution,
    WeightVector,
    check_admissible_weight,
    fraction_to_json,
    maximin_lp,
    primitive,
)
from .newton import NewtonDiagram, weight_of

__all__ = [
    "INFINITY",
    "DEFAULT_MAX_BOUND",
    "UnitAtOriginError",
    "SearchBoundExceededError",
    "ThresholdReport",
    "Certification",
    "h_value",
    "ct_diagram",
    "lct_diagram",
    "ct_bruteforce",
    "certify",
]

DEFAULT_MAX_BOUND = 10**6
# most vectors ct_bruteforce packs into one block, a W-bit field each; bounds its memory
_BLOCK = 4096

STATUS_COMPLETE = "complete"
STATUS_BOUND_EXCEEDED = "bound-exceeded"


class UnitAtOriginError(ValueError):
    """The origin is a generator: the germ is a unit, no threshold exists."""


class SearchBoundExceededError(RuntimeError):
    """An exact answer was required but the weight search hit its cap."""


@functools.total_ordering
class _PlusInfinity:
    """Exact stand-in for +infinity; compares above every Fraction.  The
    module holds the one instance; equality and hash are by identity."""

    def __repr__(self):
        return "+inf"

    def __lt__(self, other):
        return False

    def __reduce__(self):
        # pickle and copy give back the module's instance
        return "INFINITY"


INFINITY = _PlusInfinity()


@dataclass(frozen=True)
class ThresholdReport:
    """Outcome of a threshold search.

    value        threshold, clamped into (0, 1]
    clamped      True iff the raw minimum exceeded 1 and was cut to 1
    witnesses    all admissible vectors within the search bound attaining the
                 raw minimum (empty when clamped), sorted lexicographically
    relaxation   r* = 1/t* from the maximin LP, unclamped
    search_bound the level bound L actually used (the cap if exceeded)
    nodes        number of admissible weight vectors evaluated (seeds and
                 the vectors the cut inside each level leaves; for the box
                 oracle, every admissible vector of the box)
    status       "complete" or "bound-exceeded"
    """

    value: Fraction
    clamped: bool
    witnesses: tuple[WeightVector, ...]
    relaxation: Fraction
    search_bound: int
    nodes: int
    status: str

    def to_json_dict(self) -> dict:
        return {
            "value": fraction_to_json(self.value),
            "clamped": self.clamped,
            "witnesses": [list(w) for w in self.witnesses],
            "relaxation": fraction_to_json(self.relaxation),
            "search_bound": self.search_bound,
            "nodes": self.nodes,
            "status": self.status,
        }


@dataclass(frozen=True)
class Certification:
    """Result of checking that a candidate value is the diagram threshold."""

    ok: bool
    witness: WeightVector | None
    report: ThresholdReport


class _Best:
    """Least h offered so far, as an unreduced pair num/den (den == 0: none
    yet), and every vector attaining it.  The search and the oracle offer
    only the vectors with wf >= ceil((|w|_1 - 1) * den / num), which keeps
    every tie; offer makes the exact comparison."""

    __slots__ = ("num", "den", "witnesses")

    def __init__(self):
        self.num = 0
        self.den = 0
        self.witnesses: list[WeightVector] = []

    def offer(self, w: WeightVector, num: int, wf: int) -> bool:
        """Record w if num/wf ties or beats the best value (wf == 0 is
        +infinity and never recorded); True iff it strictly beats it.
        Each vector must be offered at most once."""
        if wf == 0:
            return False
        if self.den == 0 or num * self.den < self.num * wf:
            self.num, self.den = num, wf
            self.witnesses = [w]
            return True
        if num * self.den == self.num * wf:
            self.witnesses.append(w)
        return False

    def report(self, relaxation: Fraction, search_bound: int, nodes: int,
               status: str) -> ThresholdReport:
        raw = Fraction(self.num, self.den)
        clamped = raw > 1
        return ThresholdReport(
            value=Fraction(1) if clamped else raw,
            clamped=clamped,
            witnesses=() if clamped else tuple(sorted(self.witnesses)),
            relaxation=relaxation,
            search_bound=search_bound,
            nodes=nodes,
            status=status,
        )


def _check_cap(value, name: str) -> int:
    """A search cap on |w|_1 or on the box side: a non-bool int >= 2."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 2:
        raise ValueError(f"{name} must be an integer >= 2, got {value!r}")
    return value


def _check_no_unit(diagram: NewtonDiagram) -> None:
    origin = (0,) * diagram.dimension
    if origin in diagram.generators:
        raise UnitAtOriginError(
            "constant term present: the germ is a unit at the origin, threshold undefined"
        )


def _maximin(diagram: NewtonDiagram) -> MaximinSolution:
    """The diagram's maximin LP, solved on first use and kept on the object
    (outside its fields, so equality, hash and repr do not see it).  It
    depends on the generators alone, so copies and pickles may carry it."""
    sol = getattr(diagram, "_maximin", None)
    if sol is None:
        sol = maximin_lp(diagram.generators, diagram.dimension)
        object.__setattr__(diagram, "_maximin", sol)
    return sol


def h_value(diagram: NewtonDiagram, weights: Sequence[int]) -> Fraction | _PlusInfinity:
    """(|w|_1 - 1) / wf(w) for an admissible weight vector, or +infinity."""
    w = check_admissible_weight(weights, diagram.dimension)
    wf = weight_of(diagram, w)
    if wf == 0:
        return INFINITY
    return Fraction(sum(w) - 1, wf)


def _ray_seed(direction: tuple[Fraction, ...]) -> WeightVector | None:
    """Primitive integer vector on the ray of a rational direction.

    Returns None when the ray is a coordinate axis (the resulting unit
    vector is not admissible), which maximin_lp returns only when the whole
    optimal face is that axis.
    """
    scale = math.lcm(*(u.denominator for u in direction))
    try:
        return primitive(tuple(int(u * scale) for u in direction))
    except InadmissibleWeightError:
        return None


def _search_limit(best: _Best, rstar: Fraction) -> int | None:
    """Level bound L = ceil(r* / (r* - best)), or None while best >= r*."""
    tau = min(Fraction(best.num, best.den), 1)
    if tau >= rstar:
        return None
    return max(2, math.ceil(rstar / (rstar - tau)))


def _sandwich(w: WeightVector, wf: int, tstar: Fraction) -> None:
    # relaxation sandwich: wf <= |w|_1 * t*, broken by a t* below the optimum
    if wf * tstar.denominator > sum(w) * tstar.numerator:
        raise AssertionError(f"wf({w}) = {wf} exceeds |w|_1 * t* = {sum(w) * tstar}")


def _search(best: _Best, gens: Sequence[tuple[int, ...]], tstar: Fraction, cap: int,
            skip: frozenset) -> tuple[int, int, str]:
    """Offer to best each vector outside skip that the cut leaves, level by
    level up to the level bound or the cap; returns (bound, nodes, status).
    A stack entry is a prefix: next coordinate k, head, its dot products with
    the generators, rest of the level, gcd; entries pop in lexicographic order."""
    n = len(gens[0])
    cols = tuple(zip(*gens))
    # tails[k][i]: largest entry of generator i after coordinate k
    tails = [[max(m[k + 1:]) for m in gens] for k in range(n - 1)]
    rstar = 1 / tstar
    nodes = 0
    limit = _search_limit(best, rstar)
    level = 2
    while limit is None or level <= limit:
        if level > cap:
            return cap, nodes, STATUS_BOUND_EXCEEDED
        improved = False
        # (level - 1) / wf ties or beats best iff wf >= need
        need = -(-(level - 1) * best.den // best.num)
        stack = [(0, (), [0] * len(gens), level, 0)]
        while stack:
            k, head, partial, rest, g = stack.pop()
            # the x that keep every <w, m> >= need in reach form [lo, hi]
            lo, hi = 0, rest
            for p, mk, mt in zip(partial, cols[k], tails[k]):
                d, c = mk - mt, need - p - rest * mt
                if d > 0:
                    lo = max(lo, -(-c // d))
                elif d < 0:
                    hi = min(hi, c // d)
                elif c > 0:
                    break
            else:
                if k < n - 2:
                    for x in range(hi, lo - 1, -1):
                        dots = [p + x * mk for p, mk in zip(partial, cols[k])]
                        stack.append((k + 1, head + (x,), dots, rest - x, math.gcd(g, x)))
                    continue
                # the last coordinate takes the rest, so the interval is exact
                for x in range(lo, hi + 1):
                    w = head + (x, rest - x)
                    if math.gcd(g, x, rest) != 1 or w in skip:
                        continue
                    nodes += 1
                    wf = min(p + x * a + (rest - x) * b for p, a, b in zip(partial, cols[k], cols[-1]))
                    _sandwich(w, wf, tstar)
                    if wf >= need and best.offer(w, level - 1, wf):
                        improved = True
                        need = -(-(level - 1) * best.den // best.num)
        if improved:
            limit = _search_limit(best, rstar)
        level += 1
    return limit, nodes, STATUS_COMPLETE


def ct_diagram(diagram: NewtonDiagram, max_bound: int | None = None) -> ThresholdReport:
    """Threshold of a diagram with complete witness list, by bounded search.

    Offers the seeds, then searches admissible vectors level by level
    (levels are values of |w|_1) with a stack of prefixes, shrinking the
    level bound as the best value improves; see the module docstring for
    why the bound is valid and why the cut keeps every tie.  If the bound
    never becomes finite before the cap, the report carries status
    "bound-exceeded" and the best value found so far, which is always a
    correct upper bound.
    """
    cap = _check_cap(DEFAULT_MAX_BOUND if max_bound is None else max_bound, "max_bound")
    _check_no_unit(diagram)

    sol = _maximin(diagram)
    tstar = sol.value
    rstar = 1 / tstar

    best = _Best()
    seeds: list[WeightVector] = []
    ray = _ray_seed(sol.direction)
    if ray is not None:
        seeds.append(ray)
    ones = (1,) * diagram.dimension
    if ones not in seeds:
        seeds.append(ones)
    for w in seeds:
        wf = weight_of(diagram, w)
        _sandwich(w, wf, tstar)
        # the primitive vector on the optimal ray sits strictly under r*
        if w is ray and not (wf > 0 and Fraction(sum(w) - 1, wf) < rstar):
            raise AssertionError(f"optimal-ray seed {w} does not beat r* = {rstar}")
        best.offer(w, sum(w) - 1, wf)

    bound, nodes, status = _search(best, diagram.generators, tstar, cap, frozenset(seeds))
    return best.report(rstar, bound, len(seeds) + nodes, status)


def lct_diagram(diagram: NewtonDiagram) -> Fraction:
    """Continuous relaxation of the threshold: min(1, 1/t*)."""
    _check_no_unit(diagram)
    return min(Fraction(1), 1 / _maximin(diagram).value)


def _packed_ge(lhs: int, rhs: int, guard: int) -> int:
    """Guard bits of the fields with lhs >= rhs, both below the guard bit.  Carries
    and borrows move up only, so a field depends on none above it."""
    return ((lhs | guard) - rhs) & guard


def ct_bruteforce(diagram: NewtonDiagram, cap: int) -> ThresholdReport:
    """Independent oracle: exhaust admissible vectors in the box [0, cap]^n.

    Reports the minimum over the box and every attaining vector; no
    completeness claim is made beyond the box, whose size is recorded in
    search_bound.  For each head of the first n-2 coordinates, the box is
    swept in blocks of whole rows of the last coordinate (at most _BLOCK
    vectors, or one row), one W-bit field of an int per vector.  A vector can
    tie or beat the best value num/den at the start of its block only if
    num * <w, m> + den >= den * |w|_1 for each generator m; one subtraction
    per m tests every field (_packed_ge), as num <= n * cap and den, <w, m>
    <= cap * max |m|_1 keep both sides below 2^(W-1).  best only decreases,
    so the vectors kept, then tested for admissibility and offered, include
    every final tie.  nodes, the admissible vectors of the box, is a Moebius sum.
    """
    _check_cap(cap, "cap")
    _check_no_unit(diagram)
    n = diagram.dimension
    gens = diagram.generators
    sol = _maximin(diagram)

    side = cap + 1
    rows = min(side, max(1, _BLOCK // side))
    top = cap * max(map(sum, gens))
    width = (n * cap * top + top + 1).bit_length() + 1
    # field i = dy * side + z is row y0 + dy, last coordinate z; strings end with field 0
    ones = ((1 << width * rows * side) - 1) // ((1 << width) - 1)
    dys = int("".join(format(dy, f"0{width}b") * side for dy in reversed(range(rows))), 2)
    zs = int("".join(format(z, f"0{width}b") for z in reversed(range(side))) * rows, 2)
    guard, sums = ones << (width - 1), dys + zs
    bases = [m[-2] * dys + m[-1] * zs for m in gens]
    tails = [cap * (m[-2] + m[-1]) for m in gens]
    best = _Best()
    for head in product(range(side), repeat=n - 2):
        g_head, s_head = math.gcd(*head), sum(head)
        offsets = [sum(map(operator.mul, head, m)) for m in gens]
        for y0 in range(0, side, rows):
            # before any offer, h(1, ..., 1) bounds the minimum over the box
            num, den = (best.num, best.den) if best.den else (n - 1, min(map(sum, gens)))
            if num > n * cap or den > top or max(map(operator.add, offsets, tails)) > top:
                raise AssertionError(f"a packed field of {width} bits overflows")
            rhs = den * (sums + (s_head + y0) * ones)
            keep = guard >> max(0, y0 + rows - side) * side * width  # drop fields past a short block
            for base, o, m in zip(bases, offsets, gens):
                if keep:  # else no field is left to test
                    keep &= _packed_ge(num * base + (num * (o + y0 * m[-2]) + den) * ones, rhs, guard)
            while keep:
                y, z = divmod((keep & -keep).bit_length() // width - 1 + y0 * side, side)
                keep &= keep - 1
                if s_head + y + z >= 2 and math.gcd(g_head, y, z) == 1:
                    wf = min(o + y * m[-2] + z * m[-1] for o, m in zip(offsets, gens))
                    best.offer(head + (y, z), s_head + y + z - 1, wf)
    mu = [0, 1] + [0] * (cap - 1)
    for k in range(1, side):
        for j in range(2 * k, side, k):
            mu[j] -= mu[k]
    nodes = sum(mu[k] * ((cap // k + 1) ** n - 1) for k in range(1, side)) - n
    return best.report(1 / sol.value, cap, nodes, STATUS_COMPLETE)


def certify(diagram: NewtonDiagram, c: Fraction,
            max_bound: int | None = None) -> Certification:
    """Check that c is the diagram threshold in the excess sense.

    True iff no admissible vector in the search region has
    (|w|_1 - 1) - c * wf(w) < 0 and at least one attains equality; the
    lexicographically least equality witness is returned.
    """
    if not (type(c) is int or isinstance(c, Fraction)):
        raise ValueError(f"candidate threshold must be an int or Fraction, got {c!r}")
    if not 0 < c <= 1:
        raise ValueError(f"candidate threshold must lie in (0, 1], got {c}")
    report = ct_diagram(diagram, max_bound=max_bound)
    if report.status != STATUS_COMPLETE:
        raise SearchBoundExceededError(
            f"weight search exceeded bound {report.search_bound}; cannot certify"
        )
    ok = not report.clamped and report.value == c
    witness = report.witnesses[0] if ok else None
    return Certification(ok=ok, witness=witness, report=report)
