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
enumeration through level L is exhaustive.  The optimal LP direction,
divided by the gcd of its integer numerators, is a primitive vector with
h = r*(1 - 1/|w|_1) < r*, which primes the bound whenever that vector is
admissible.  maximin_lp returns a unit vector only when the whole optimal
face is one coordinate axis (e.g. a single generator on an axis); only then
is there no ray seed.  Such diagrams may admit no vector below r*; the
search then stops at the configured cap and reports a partial result rather
than a wrong one.  The LP is the diagram's own, NewtonDiagram.maximin,
solved once per diagram object and shared by ct_diagram, lct_diagram and
ct_bruteforce.  It keeps t* = t / d as the kernel's integers, and every
comparison with t* or r* = d / t cross-multiplies them; a Fraction is built
only for a value the caller gets back.

Within a level, a depth-first search fixes one coordinate at a time; its
prefixes wait on one explicit stack, pushed in reverse so that they pop in
lexicographic order.  A vector ties or beats the best value so far only if
<w, m> >= need = ceil((|w|_1 - 1) / best) for every generator m.  With a
prefix fixed and x the next coordinate, <w, m> is at most the prefix's dot
product plus x * m_k + (rest - x) * max_{j>k} m_j, linear in x, so the x
that keep every m in reach form one integer interval and the others are cut
(branch and bound).  The last two coordinates get no stack entries: a
prefix of n-3 coordinates loops its next coordinate x in place, and for
each x the second-to-last coordinate y gets its interval straight from the
prefix's dot products.  The last coordinate takes the rest, so <w, m> is
linear in y and that interval is exact; its leaves are evaluated in order,
and need is refreshed after each improvement, so the vectors evaluated and
their order are those of a stack that pushed every prefix.  In 2
variables the same block runs on the root, with a zero coordinate x held
at 0 in front.  best only decreases, so a cut vector cannot tie the final
value either: the witnesses are those of the exhaustive search.

A level is skipped before it pushes its root prefix when floor(level * t*)
< need.  The dual certificate that NewtonDiagram.maximin checks is a point
p = sum lam_m m of conv(gens) with p <= t*, so every w has the integer
wf(w) <= <w, p> <= |w|_1 * t*.  Every leaf evaluated passed the exact
interval of its second-to-last coordinate, so it has wf >= need: a skipped
level would have evaluated none, and nodes is unchanged.  The skip rests on that
certificate, not on _sandwich, which checks wf <= |w|_1 * t* only on the
vectors evaluated: a t* below the optimum would skip levels holding ties.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Sequence

from .lattice import WeightVector, check_admissible_weight, fraction_to_json
from .newton import NewtonDiagram, _least_degree

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
    """Least h offered so far, as an unreduced pair num/den, and every vector
    attaining it.  Both searches start at h(1, ..., 1) = (n - 1) / min |m|_1
    with no witness: (1, ..., 1) is a seed and in every box, so it ties when
    offered.  Only vectors with wf >= ceil((|w|_1 - 1) * den / num) are
    offered, which keeps every tie; offer makes the exact comparison."""

    __slots__ = ("num", "den", "witnesses")

    def __init__(self, gens: Sequence[tuple[int, ...]]):
        self.num = len(gens[0]) - 1
        self.den = min(map(sum, gens))
        self.witnesses: list[WeightVector] = []

    def offer(self, w: WeightVector, num: int, wf: int) -> bool:
        """Record w if num/wf ties or beats the best value; True iff it
        strictly beats it.  den > 0, so wf == 0 (+infinity) does neither.
        Each vector must be offered at most once."""
        if num * self.den < self.num * wf:
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


def h_value(diagram: NewtonDiagram, weights: Sequence[int]) -> Fraction | _PlusInfinity:
    """(|w|_1 - 1) / wf(w) for an admissible weight vector, or +infinity."""
    w = check_admissible_weight(weights, diagram.dimension)
    wf = _least_degree(diagram.generators, w)
    return Fraction(sum(w) - 1, wf) if wf else INFINITY


def _ray_seed(u: Sequence[int]) -> WeightVector | None:
    """Primitive vector on the ray of the certified LP direction u (u >= 0, sum
    d > 0), or None on a coordinate axis (a unit vector is not admissible),
    which maximin_lp returns only when the whole optimal face is that axis."""
    g = math.gcd(*u)
    w = tuple(x // g for x in u)
    return None if sum(w) == 1 else w


def _search_limit(best: _Best, t: int, d: int) -> int | None:
    """Level bound L = ceil(r* / (r* - tau)) = ceil(d*td / (d*td - tn*t)) for
    r* = d / t and tau = min(best, 1) = tn / td, or None while tau >= r*.
    L >= 2 needs no clamp: tn >= 1 (best.num starts at n - 1, then is
    |w|_1 - 1) and t >= 1 (no generator is the origin), so d*td / gap > 1."""
    tn, td = (best.num, best.den) if best.num < best.den else (1, 1)
    gap = d * td - tn * t
    if gap <= 0:
        return None
    return -(-d * td // gap)


def _sandwich(w: WeightVector, wf: int, t: int, d: int) -> None:
    # relaxation sandwich: wf <= |w|_1 * t*, broken by a t* below the optimum
    if wf * d > sum(w) * t:
        raise AssertionError(f"wf({w}) = {wf} exceeds |w|_1 * t* = {Fraction(sum(w) * t, d)}")


def _search(best: _Best, gens: Sequence[tuple[int, ...]], t: int, d: int, cap: int,
            skip: frozenset) -> tuple[int, int, str]:
    """Offer to best each vector outside skip that the cut leaves, level by
    level up to the level bound or the cap; returns (bound, nodes, status).
    A stack entry is a prefix of at most n-3 coordinates: next coordinate k,
    head, its dot products with the generators, rest of the level, gcd;
    entries pop in lexicographic order.  A popped prefix of n-3 coordinates
    walks its next coordinate x in place and, per x, the exact interval of
    the second-to-last coordinate y, the last taking the rest.  n = 2 walks
    the same block, its generators given a zero first coordinate held at
    x = 0 and left out of w.  A level that the dual certificate rules out
    (module docstring) is skipped."""
    n = len(gens[0])
    lead = n == 2
    if lead:
        gens, n = [(0,) + m for m in gens], 3
    cols = tuple(zip(*gens))
    # coefs[k][i]: (m_k - tail, tail), tail the largest entry of generator i after k
    coefs = [[(m[k] - max(m[k + 1:]), max(m[k + 1:])) for m in gens] for k in range(n - 2)]
    # <head + (x, y, rest - x - y), m> = q + x * e + y * a, q = <head, m> + rest * m_{n-1}
    ends = [(m[-3] - m[-1], m[-2] - m[-1]) for m in gens]
    zeros = (0,) * len(gens)
    nodes = 0
    limit = _search_limit(best, t, d)
    level = 2
    while limit is None or level <= limit:
        if level > cap:
            return cap, nodes, STATUS_BOUND_EXCEEDED
        # (level - 1) / wf ties or beats best iff wf >= need
        need = -(-(level - 1) * best.den // best.num)
        # every wf <= floor(level * t*) < need: no tie, no root prefix
        stack = [(0, (), zeros, level, 0)] if level * t // d >= need else []
        while stack:
            k, head, partial, rest, g = stack.pop()
            # the x that keep every <w, m> >= need in reach form [lo, hi]
            lo, hi = 0, 0 if lead else rest
            for p, (a, mt) in zip(partial, coefs[k]):
                c = need - p - rest * mt
                if a > 0:
                    x = -(-c // a)
                    if x > lo:
                        lo = x
                elif a < 0:
                    x = c // a
                    if x < hi:
                        hi = x
                elif c > 0:
                    hi = -1
                    break
            if lo > hi:
                continue
            if k < n - 3:
                for x in range(hi, lo - 1, -1):
                    dots = [p + x * mk for p, mk in zip(partial, cols[k])]
                    stack.append((k + 1, head + (x,), dots, rest - x, math.gcd(g, x)))
                continue
            rows = [(p + rest * mz, e, a) for p, mz, (e, a) in zip(partial, cols[-1], ends)]
            for x in range(lo, hi + 1):
                # the last coordinate takes the rest, so the y interval is exact
                ylo, yhi = 0, rest - x
                for q, e, a in rows:
                    c = need - q - x * e
                    if a > 0:
                        y = -(-c // a)
                        if y > ylo:
                            ylo = y
                    elif a < 0:
                        y = c // a
                        if y < yhi:
                            yhi = y
                    elif c > 0:
                        yhi = -1
                        break
                if ylo > yhi:
                    continue
                pre = head if lead else head + (x,)
                gx = math.gcd(g, x)
                for y in range(ylo, yhi + 1):
                    w = pre + (y, rest - x - y)
                    if math.gcd(gx, y, rest) != 1 or w in skip:
                        continue
                    nodes += 1
                    wf = min([q + x * e + y * a for q, e, a in rows])
                    _sandwich(w, wf, t, d)
                    if wf >= need and best.offer(w, level - 1, wf):
                        need = -(-(level - 1) * best.den // best.num)
                        limit = _search_limit(best, t, d)
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

    sol = diagram.maximin
    t, d = sol.t, sol.d

    best = _Best(diagram.generators)
    ray = _ray_seed(sol.u)
    # the ray seed and (1, ..., 1), each once
    seeds = list(dict.fromkeys(w for w in (ray, (1,) * diagram.dimension) if w is not None))
    for w in seeds:
        wf = _least_degree(diagram.generators, w)
        _sandwich(w, wf, t, d)
        # the primitive vector on the optimal ray sits strictly under r* = d / t
        if w is ray and not (wf > 0 and (sum(w) - 1) * t < d * wf):
            raise AssertionError(f"optimal-ray seed {w} does not beat r* = {Fraction(d, t)}")
        best.offer(w, sum(w) - 1, wf)

    bound, nodes, status = _search(best, diagram.generators, t, d, cap, frozenset(seeds))
    return best.report(Fraction(d, t), bound, len(seeds) + nodes, status)


def lct_diagram(diagram: NewtonDiagram) -> Fraction:
    """Continuous relaxation of the threshold: min(1, 1/t*)."""
    _check_no_unit(diagram)
    sol = diagram.maximin
    return Fraction(min(sol.d, sol.t), sol.t)


def _narrow(lo: int, hi: int, a: int, c: int) -> tuple[int, int]:
    """[lo, hi] cut to the integers x with a * x >= c; empty when lo > hi."""
    if a > 0:
        return max(lo, -(-c // a)), hi
    if a < 0:
        return lo, min(hi, c // a)
    return (lo, hi) if c <= 0 else (lo, lo - 1)


def ct_bruteforce(diagram: NewtonDiagram, cap: int) -> ThresholdReport:
    """Independent oracle: exhaust admissible vectors in the box [0, cap]^n.

    Reports the minimum over the box (no claim beyond it; search_bound is
    cap) and every attaining vector.  w can tie or beat a best value num/den
    only if sum_j w_j e_j >= -den, e_j = num * m_j - den, for each generator
    m.  Exact integer cuts (_narrow), built from best (start: see _Best) when
    their entry is popped, keep the w that can pass; best only decreases, so
    the w kept, tested for admissibility and offered include every final
    tie.  nodes, the admissible vectors of the box, is a Moebius sum.

    One stack walks the heads, the first k <= n-2 coordinates, depth first;
    an entry holds its parent's <head, m> and |head|_1.  A popped head
    shorter than n-2 cuts w_k, since the coordinates after k add at most
    cap * sum_{j>k} max(e_j, 0), and pushes its children.  A full head
    leaves y * a_m + z * b_m >= c_m; pairing each lower bound on z (b_m > 0,
    or z >= 0) with each upper one (b_m <= 0, or z <= cap) eliminates z
    (Fourier-Motzkin) and cuts y to the polygon's projection, until the rows
    left cost no more z-cuts than the pairs left; each row y is then cut to
    exactly the z that pass.  Siblings (heads that differ only in the last
    coordinate) pop in ascending order; a head's later ones are dropped if
    ylo >= yhi + 2 and the last witness has its prefix.  R = {w in [0, cap]^n
    real : num * <w, m> >= den * (|w|_1 - 1) for all m} is convex, so with
    the prefix fixed the last head coordinate ranges over an interval of R.
    Fourier-Motzkin is exact over the reals, and a ceil 2 above a floor (not
    1) leaves no real point, so the head's x0 is outside it; the witness, an
    earlier sibling, lies in it below x0.  Later best values only shrink R.
    Brieskorn triples up to 30 at box 25 take about 51 _narrow cuts each.
    """
    _check_cap(cap, "cap")
    _check_no_unit(diagram)
    n = diagram.dimension
    gens = diagram.generators

    best = _Best(gens)
    stack = [((), [0] * len(gens), 0)]
    while stack:
        head, dots, s = stack.pop()
        k = len(head)
        x = head[-1] if head else 0  # add x to the parent's <head, m> and |head|_1
        dots, s = [p + x * m[k - 1] for p, m in zip(dots, gens)], s + x
        num, den = best.num, best.den
        if k < n - 2:
            lo, hi = 0, cap
            for p, m in zip(dots, gens):
                tail = cap * sum(max(num * mj - den, 0) for mj in m[k + 1:])
                lo, hi = _narrow(lo, hi, num * m[k] - den, den * (s - 1) - num * p - tail)
                if lo > hi:
                    break
            stack += [(head + (x,), dots, s) for x in range(hi, lo - 1, -1)]
            continue
        cuts = [(den * (s - 1) - num * p, num * m[-2] - den, num * m[-1] - den)
                for p, m in zip(dots, gens)]
        # z >= 0 and z <= cap, as cuts c, a, b: y * a + z * b >= c
        lows = [cut for cut in cuts if cut[2] > 0] + [(0, 0, 1)]
        ups = [cut for cut in cuts if cut[2] <= 0] + [(-cap, 0, -1)]
        ylo, yhi, left = 0, cap, len(lows) * len(ups)
        for (cl, al, bl), (cu, au, bu) in product(lows, ups):
            # stop once the rows left (none if empty) cost no more z-cuts than the pairs left
            if (yhi - ylo + 1) * len(gens) <= left:
                break
            left -= 1
            ylo, yhi = _narrow(ylo, yhi, bl * au - bu * al, bl * cu - bu * cl)
        if ylo > yhi + 1 and best.witnesses and best.witnesses[-1][:k - 1] == head[:-1]:
            while stack and len(stack[-1][0]) == k:  # no sibling left can tie: see above
                stack.pop()
        for y in range(ylo, yhi + 1):
            zlo, zhi = 0, cap
            for c, a, b in cuts:
                zlo, zhi = _narrow(zlo, zhi, b, c - y * a)
                if zlo > zhi:
                    break
            for z in range(zlo, zhi + 1):
                w = head + (y, z)
                if sum(w) >= 2 and math.gcd(*w) == 1:
                    best.offer(w, sum(w) - 1, _least_degree(gens, w))
    mu = [0, 1] + [0] * (cap - 1)
    for k in range(1, cap + 1):
        for j in range(2 * k, cap + 1, k):
            mu[j] -= mu[k]
    nodes = sum(mu[k] * ((cap // k + 1) ** n - 1) for k in range(1, cap + 1)) - n
    return best.report(1 / diagram.maximin.value, cap, nodes, STATUS_COMPLETE)


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
