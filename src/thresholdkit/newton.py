"""Extended Newton diagrams: minimal generators and polyhedral queries.

A diagram is stored by the componentwise-minimal elements of its defining
point set (its Dickson reduction), never by facets.  Geometric queries --
membership of a rational point, inclusion of one diagram in another -- are
answered by the exact maximin LP, the same one the thresholds use, which
never rounds.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .lattice import (
    DimensionMismatchError,
    ExponentVector,
    SupportSet,
    _check_dimension,
    _check_vector,
    maximin_lp,
)

__all__ = [
    "NewtonDiagram",
    "from_support",
    "from_points",
    "weight_of",
    "contains_point",
    "includes",
    "diagram_to_json",
    "diagram_from_json",
]


def _dominates(a: ExponentVector, b: ExponentVector) -> bool:
    return all(x >= y for x, y in zip(a, b))


def _minimal_elements(points: Iterable[ExponentVector]) -> tuple[ExponentVector, ...]:
    """The componentwise-minimal points, sorted, in one pass: a point sorts after
    those it dominates, and a dropped point is dominated by a kept one."""
    keep: list[ExponentVector] = []
    for p in sorted(set(points)):
        if not any(_dominates(p, q) for q in keep):
            keep.append(p)
    return tuple(keep)


@dataclass(frozen=True)
class NewtonDiagram:
    """Convex hull of the union of shifted positive octants over the generators.

    Generators are pairwise incomparable under componentwise <= and stored
    sorted, so equal diagrams built from equal point sets compare equal and
    iterate identically.
    """

    dimension: int
    generators: tuple[ExponentVector, ...]

    def __post_init__(self):
        _check_dimension(self.dimension)
        gens = tuple(sorted(_check_vector(g, self.dimension, "generator") for g in self.generators))
        if not gens:
            raise ValueError("diagram must have at least one generator")
        if _minimal_elements(gens) != gens:
            raise ValueError(f"generators {gens} repeat or dominate one another; diagram is not reduced")
        object.__setattr__(self, "generators", gens)


def from_support(support: SupportSet) -> NewtonDiagram:
    """Dickson reduction: keep only the componentwise-minimal support points.

    SupportSet has validated every point, and the reduction returns them
    sorted and reduced, so the diagram skips NewtonDiagram's second check.
    """
    diagram = object.__new__(NewtonDiagram)
    object.__setattr__(diagram, "dimension", support.dimension)
    object.__setattr__(diagram, "generators", _minimal_elements(support.points))
    return diagram


def from_points(points: Iterable[Sequence[int]], dimension: int) -> NewtonDiagram:
    pts = frozenset(tuple(p) for p in points)
    return from_support(SupportSet(dimension=dimension, points=pts))


def weight_of(diagram: NewtonDiagram, weights: Sequence[int]) -> int:
    """Least weighted degree of the diagram: min over generators of <w, m>.

    Minimality of the generators suffices; dominated points never lower the
    minimum for nonnegative weights.
    """
    w = _check_vector(weights, diagram.dimension, "weight vector")
    return min(sum(wi * mi for wi, mi in zip(w, m)) for m in diagram.generators)


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
        raise DimensionMismatchError(
            f"point {p} has length {len(p)}, expected {diagram.dimension}"
        )
    if not all(type(x) is int or isinstance(x, Fraction) for x in p):
        raise ValueError(f"point {p} has a coordinate that is not an int or Fraction")
    q = math.lcm(*(x.denominator for x in p))
    qp = [int(q * x) for x in p]
    c = max(0, *qp)
    shifted = [tuple(q * mi - x + c for mi, x in zip(m, qp)) for m in diagram.generators]
    return maximin_lp(shifted, diagram.dimension).value <= c


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
    """Load a diagram from its JSON form; points need not be minimal."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    if not isinstance(obj, dict) or "n" not in obj or "points" not in obj:
        raise ValueError('diagram JSON must be an object {"n": ..., "points": [...]}')
    n, points = obj["n"], obj["points"]
    if (not isinstance(n, int) or not isinstance(points, list)
            or not all(isinstance(p, list) for p in points)):
        raise ValueError('diagram JSON needs an integer "n" and "points" as a list of integer lists')
    return from_points(points, n)
