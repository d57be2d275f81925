"""Closed-form thresholds for Brieskorn singularities x^a + y^b + z^c.

With exponents normalized to 2 <= a <= b <= c, the threshold is

    1/a + 1/b                     if lcm(a, b) <= c,
    min(s1, s2, s3, 1)            otherwise,

where the s-values scan the integer points nearest the ray a*w1 = b*w2 = c
inside the plane w3 = 1:

    s1 = min_{1 <= k <= floor(c/b)}  1/b + ceil(k*b/a) / (k*b)
    s2 = min_{1 <= k <= floor(c/a)}  1/a + ceil(k*a/b) / (k*a)
    s3 = (ceil(c/a) + ceil(c/b)) / c

Each case carries a realizing weight vector of the form (p, q, 1) with
p >= q >= 1.  The log-canonical companion in any number of variables is
min(1, sum 1/a_i).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

from .lattice import WeightVector

__all__ = [
    "BrieskornTriple",
    "SValues",
    "BrieskornResult",
    "s_values",
    "ct_brieskorn3",
    "brieskorn_threshold",
    "lct_brieskorn",
    "CASE_LCM",
    "CASE_S1",
    "CASE_S2",
    "CASE_S3",
    "CASE_CLAMP",
]

CASE_LCM = "lcm-rule"
CASE_S1 = "s1"
CASE_S2 = "s2"
CASE_S3 = "s3"
CASE_CLAMP = "clamp-1"


def _ceildiv(p: int, q: int) -> int:
    return -(-p // q)


@dataclass(frozen=True)
class BrieskornTriple:
    """Exponents of x^a + y^b + z^c, normalized to 2 <= a <= b <= c."""

    a: int
    b: int
    c: int

    def __post_init__(self):
        if not all(isinstance(v, int) for v in (self.a, self.b, self.c)):
            raise ValueError("exponents must be integers")
        if not 2 <= self.a <= self.b <= self.c:
            raise ValueError(
                f"exponents must satisfy 2 <= a <= b <= c, got ({self.a}, {self.b}, {self.c})"
            )


@dataclass(frozen=True)
class SValues:
    s1: Fraction
    s2: Fraction
    s3: Fraction
    k1: int
    k2: int


@dataclass(frozen=True)
class BrieskornResult:
    value: Fraction
    case: str
    weight: WeightVector
    s_values: SValues | None


def _least(p: int, q: int, top: int) -> tuple[Fraction, int]:
    """min over 1 <= k <= top of 1/p + ceil(k*p/q) / (k*p) = (k + ceil(k*p/q)) / (k*p)
    and its k, compared as integer pairs; the smallest k wins a tie."""
    x, k = 1 + _ceildiv(p, q), 1
    for j in range(2, top + 1):
        y = j + _ceildiv(j * p, q)
        if y * k < x * j:
            x, k = y, j
    return Fraction(x, k * p), k


def s_values(triple: BrieskornTriple) -> SValues:
    """The three candidate minima; argmin indices take the smallest k on ties."""
    a, b, c = triple.a, triple.b, triple.c
    if math.lcm(a, b) <= c:
        raise ValueError(
            f"s-values are defined only when lcm(a, b) > c; lcm({a}, {b}) = {math.lcm(a, b)} <= {c}"
        )

    # b <= c and a <= c make both ranges nonempty
    s1, k1 = _least(b, a, c // b)
    s2, k2 = _least(a, b, c // a)
    s3 = Fraction(_ceildiv(c, a) + _ceildiv(c, b), c)
    return SValues(s1=s1, s2=s2, s3=s3, k1=k1, k2=k2)


def ct_brieskorn3(triple: BrieskornTriple) -> BrieskornResult:
    """Threshold of x^a + y^b + z^c with case tag and realizing weight.

    On ties among equal s-values the case tag prefers s2, then s1, then s3;
    the value itself is tie-independent.  When every s-value reaches 1 the
    result is the clamp at 1 (tagged "clamp-1") and the preferred weight
    still realizes the value.
    """
    a, b, c = triple.a, triple.b, triple.c
    m = math.lcm(a, b)
    if m <= c:
        weight = (m // a, m // b, 1)
        value = Fraction(weight[0] + weight[1], m)  # 1/a + 1/b
        return BrieskornResult(value=value, case=CASE_LCM, weight=weight, s_values=None)

    sv = s_values(triple)
    value = min(sv.s1, sv.s2, sv.s3)
    if sv.s2 == value:
        case = CASE_S2
        weight = (sv.k2, _ceildiv(sv.k2 * a, b), 1)
    elif sv.s1 == value:
        case = CASE_S1
        weight = (_ceildiv(sv.k1 * b, a), sv.k1, 1)
    else:
        case = CASE_S3
        weight = (_ceildiv(c, a), _ceildiv(c, b), 1)
    if value >= 1:
        value, case = Fraction(1), CASE_CLAMP
    return BrieskornResult(value=value, case=case, weight=weight, s_values=sv)


def brieskorn_threshold(a: int, b: int, c: int) -> BrieskornResult:
    """Threshold for exponents in any order.

    Exponents are sorted into normalized position and the realizing weight
    is permuted back so that weight coordinate i still multiplies the i-th
    input exponent.
    """
    exponents = (a, b, c)
    order = sorted(range(3), key=lambda i: exponents[i])
    normalized = BrieskornTriple(*(exponents[i] for i in order))
    result = ct_brieskorn3(normalized)
    weight = [0, 0, 0]
    for slot, original_index in enumerate(order):
        weight[original_index] = result.weight[slot]
    return replace(result, weight=tuple(weight))


def lct_brieskorn(exponents: Sequence[int]) -> Fraction:
    """min(1, sum of reciprocal exponents), exactly."""
    exps = list(exponents)
    if not exps:
        raise ValueError("exponent list must be nonempty")
    for e in exps:
        if isinstance(e, bool) or not isinstance(e, int) or e < 1:
            raise ValueError(f"exponents must be integers >= 1, got {e!r}")
    top = math.lcm(*exps)
    return Fraction(min(top, sum(top // e for e in exps)), top)
