"""Weighted blow-up bookkeeping on monomial supports.

For a weight vector w the exceptional divisor of the w-blow-up carries the
discrepancy a = w_1 + ... + w_n - 1, and a hypersurface with diagram D has
multiplicity b = wf(D) along it; the excess a - c*b measures how far a
candidate threshold c is from being realized by w (zero excess = realized).

Chart transforms act on full supports, not on reduced diagrams: reducing
first could discard monomials a later transform needs.  In chart i the
monomial with exponent m maps to m' with m'_j = m_j for j != i and
m'_i = <w, m> - wf, the strict transform after extracting the exceptional
factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .lattice import (
    SupportSet,
    WeightVector,
    check_admissible_weight,
)
from .engine import certify, h_value
from .newton import NewtonDiagram, weight_of

__all__ = [
    "BlowupLedger",
    "ledger",
    "chart_transform",
    "chart_label",
    "verify_weight_realizes",
]


@dataclass(frozen=True)
class BlowupLedger:
    """Discrepancy and multiplicity of one weighted blow-up against a diagram."""

    weight: WeightVector
    discrepancy: int
    multiplicity: int

    def excess(self, c: Fraction | int) -> Fraction:
        return self.discrepancy - Fraction(c) * self.multiplicity


def ledger(diagram: NewtonDiagram, weights) -> BlowupLedger:
    w = check_admissible_weight(weights, diagram.dimension)
    return BlowupLedger(
        weight=w,
        discrepancy=sum(w) - 1,
        multiplicity=weight_of(diagram, w),
    )


def chart_transform(support: SupportSet, weights, chart: int) -> SupportSet:
    """Strict transform of a support in one chart of the weighted blow-up.

    ``chart`` is 1-based.  Requires the chart weight to be positive; the
    transform of the full support is returned with duplicates merged, and
    no reduction is applied.
    """
    w = check_admissible_weight(weights, support.dimension)
    if not 1 <= chart <= support.dimension:
        raise ValueError(f"chart index {chart} out of range 1..{support.dimension}")
    i = chart - 1
    if w[i] == 0:
        raise ValueError(f"chart {chart} has weight 0; transform undefined")
    wf = min(sum(wi * mi for wi, mi in zip(w, m)) for m in support.points)
    transformed = set()
    for m in support.points:
        excess_exponent = sum(wi * mi for wi, mi in zip(w, m)) - wf
        new = list(m)
        new[i] = excess_exponent
        transformed.add(tuple(new))
    return SupportSet(dimension=support.dimension, points=frozenset(transformed))


def chart_label(weights, chart: int, dimension: int | None = None) -> str:
    """Quotient-singularity label of a chart: cyclic group order and weights.

    Chart i of the w-blow-up is C^n divided by a cyclic group of order w_i
    acting with weight 1 on coordinate i and -w_j mod w_i on the others;
    order 1 collapses to plain affine space.  Only the label is produced,
    no quotient geometry.
    """
    w = check_admissible_weight(weights, dimension)
    n = len(w)
    if not 1 <= chart <= n:
        raise ValueError(f"chart index {chart} out of range 1..{n}")
    i = chart - 1
    order = w[i]
    if order == 0:
        raise ValueError(f"chart {chart} has weight 0; no chart there")
    if order == 1:
        return f"C^{n}"
    action = tuple(1 if j == i else (-w[j]) % order for j in range(n))
    return f"C^{n}/Z_{order}({','.join(str(x) for x in action)})"


def verify_weight_realizes(diagram: NewtonDiagram, weights,
                           max_bound: int | None = None) -> bool:
    """True iff the weight attains the diagram threshold exactly."""
    h = h_value(diagram, weights)
    return h <= 1 and certify(diagram, h, max_bound).ok
