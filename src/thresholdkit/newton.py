"""Extended Newton diagrams: minimal generators, maximin LP and queries.

A diagram is stored by the componentwise-minimal elements of its defining
point set (its Dickson reduction), never by facets; its one constructor
validates the points and reduces them.  Every maximin LP is a diagram's,
solved on first use, certified and kept on it (NewtonDiagram.maximin).
Geometric queries -- membership of a rational point, inclusion of one
diagram in another -- are answered by the same exact LP, which never rounds.
"""

from __future__ import annotations

import functools
import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .lattice import (
    DimensionMismatchError,
    ExponentVector,
    SupportSet,
    _check_dimension,
    _check_vector,
    _solve_maximin,
)

__all__ = [
    "NewtonDiagram",
    "MaximinSolution",
    "maximin_lp",
    "from_support",
    "from_points",
    "weight_of",
    "contains_point",
    "includes",
    "diagram_to_json",
    "diagram_from_json",
]


def _minimal_elements(points: Iterable[ExponentVector]) -> tuple[ExponentVector, ...]:
    """The componentwise-minimal points, sorted, in one pass: a point sorts after
    those it dominates, and a dropped point is dominated by a kept one."""
    keep: list[ExponentVector] = []
    for p in sorted(set(points)):
        if not any(all(map(operator.ge, p, q)) for q in keep):
            keep.append(p)
    return tuple(keep)


@dataclass(frozen=True)
class MaximinSolution:
    """Optimum of: maximize t subject to sum(u) = 1, u >= 0, <u, m> >= t,
    kept as the kernel's integers over one denominator d > 0: u / d, t / d."""

    u: tuple[int, ...]
    t: int
    d: int

    @property
    def value(self) -> Fraction:
        return Fraction(self.t, self.d)


def _certified_maximin(gens: Sequence[ExponentVector], first_vertex: bool = False) -> MaximinSolution:
    """The kernel's vertex on reduced, sorted generators, both certificates
    checked; first_vertex takes the first optimal vertex, without the axis step."""
    u, t, lam, d = _solve_maximin(gens, first_vertex)
    # over d: u is a probability direction whose least weight is t, and the
    # duals lam give p = sum lam_m m in conv(gens) with p <= t, so no u beats t
    if not (sum(u) == d > 0 and min(u) >= 0 and min(sum(map(operator.mul, u, m)) for m in gens) == t):
        raise AssertionError(f"simplex returned an invalid maximin vertex {u} / {d}, t = {t} / {d}")
    if not (min(lam) >= 0 and sum(lam) == d and max(sum(map(operator.mul, lam, c)) for c in zip(*gens)) <= t):
        raise AssertionError(f"simplex returned an invalid dual certificate {lam} / {d}, t = {t} / {d}")
    return MaximinSolution(tuple(u), t, d)


@dataclass(frozen=True)
class NewtonDiagram:
    """Convex hull of the union of shifted positive octants over the generators.

    Takes any nonempty point set and keeps its Dickson reduction: the
    generators are the componentwise-minimal points, pairwise incomparable
    under componentwise <= and stored sorted, so diagrams built from point
    sets with the same reduction compare equal and iterate identically.
    """

    dimension: int
    generators: tuple[ExponentVector, ...]

    def __post_init__(self):
        _check_dimension(self.dimension)
        gens = _minimal_elements(_check_vector(g, self.dimension, "generator") for g in self.generators)
        if not gens:
            raise ValueError("diagram must have at least one generator")
        object.__setattr__(self, "generators", gens)

    @functools.cached_property
    def maximin(self) -> MaximinSolution:
        """The diagram's maximin LP, solved on first use and kept on the object
        (outside its fields, so equality, hash and repr do not see it).  It
        depends on the generators alone, so copies and pickles may carry it;
        sorted generators and Bland's rule fix the vertex it reports."""
        return _certified_maximin(self.generators)


def maximin_lp(generators: Iterable[ExponentVector], n: int) -> MaximinSolution:
    """The exact maximin LP of the diagram that the generators span."""
    return NewtonDiagram(n, generators).maximin


def from_support(support: SupportSet) -> NewtonDiagram:
    """Dickson reduction: keep only the componentwise-minimal support points."""
    return NewtonDiagram(support.dimension, support.points)


def from_points(points: Iterable[Sequence[int]], dimension: int) -> NewtonDiagram:
    return from_support(SupportSet(dimension=dimension, points=points))


def weight_of(diagram: NewtonDiagram, weights: Sequence[int]) -> int:
    """Least weighted degree of the diagram: min over generators of <w, m>.

    Minimality of the generators suffices; dominated points never lower the
    minimum for nonnegative weights.
    """
    return _least_degree(diagram.generators, _check_vector(weights, diagram.dimension, "weight vector"))


def _least_degree(gens: Sequence[ExponentVector], w: Sequence[int]) -> int:
    """min over gens of <w, m>, for a weight vector that is already checked."""
    return min(sum(map(operator.mul, w, m)) for m in gens)


def contains_point(diagram: NewtonDiagram, point: Sequence[Fraction | int]) -> bool:
    """Membership of a rational point in the diagram.

    The point p lies in the diagram iff it dominates a convex combination of
    the generators, that is iff min over the simplex of lambda of
    max_i (sum lambda_m m - p)_i is <= 0.  By minimax duality this is
    maximin(m - p) <= 0; with q the lcm of p's denominators and
    C = max(0, max_i q p_i) the shifted generators q(m - p) + C*1 are
    nonnegative integers, and their maximin is q * maximin(m - p) + C.
    """
    p = tuple(point)
    if len(p) != diagram.dimension:
        raise DimensionMismatchError(f"point {p} has length {len(p)}, expected {diagram.dimension}")
    if not all(type(x) is int or isinstance(x, Fraction) for x in p):
        raise ValueError(f"point {p} has a coordinate that is not an int or Fraction")
    q = math.lcm(*(x.denominator for x in p))
    qp = [int(q * x) for x in p]
    c = max(0, *qp)
    shifted = [tuple(q * mi - x + c for mi, x in zip(m, qp)) for m in diagram.generators]
    # a scaled translate of reduced, sorted generators is reduced and sorted;
    # membership reads only t and d, so the first optimal vertex serves
    sol = _certified_maximin(shifted, first_vertex=True)
    return sol.t <= c * sol.d


def includes(big: NewtonDiagram, small: NewtonDiagram) -> bool:
    """True iff small is a subset of big as diagrams.

    Both diagrams are octant-closed convex sets, so inclusion reduces to
    membership of each generator of the smaller diagram.
    """
    if big.dimension != small.dimension:
        raise DimensionMismatchError(
            f"dimension mismatch: {big.dimension} vs {small.dimension}"
        )
    return all(contains_point(big, g) for g in small.generators)


# ---------------------------------------------------------------------------
# JSON wire format: {"n": 3, "points": [[3,0,0], [0,7,0], [0,0,11]]}
# ---------------------------------------------------------------------------

def diagram_to_json(diagram: NewtonDiagram) -> dict:
    return {"n": diagram.dimension, "points": [list(g) for g in diagram.generators]}


def diagram_from_json(obj: dict | str) -> NewtonDiagram:
    """Load a diagram from its JSON form, given as an object or as text that
    is decoded here, once; points need not be minimal."""
    if isinstance(obj, str):
        try:
            obj = json.loads(obj)
        except RecursionError:
            raise ValueError("diagram JSON is nested too deeply") from None
    if not isinstance(obj, dict) or "n" not in obj or "points" not in obj:
        raise ValueError('diagram JSON must be an object {"n": ..., "points": [...]}')
    n, points = obj["n"], obj["points"]
    if (not isinstance(n, int) or not isinstance(points, list)
            or not all(isinstance(p, list) for p in points)):
        raise ValueError('diagram JSON needs an integer "n" and "points" as a list of integer lists')
    return from_points(points, n)
