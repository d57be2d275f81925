"""Exact-arithmetic primitives, polynomial-support parsing, and a rational
maximin linear-programming kernel.

Everything in this module is pure and exact: values are Python ints and
``fractions.Fraction``; no floats enter at any point.  The one LP is the
maximin of <u, m> over probability directions u, solved by
``_solve_maximin``: a dense single-phase simplex from the slack basis,
which is feasible once u_1 is eliminated through sum(u) = 1.  Its rows are
integers over one common positive denominator, updated by fraction-free
(Bareiss) pivoting.  Bland's rule (entering: lowest index with positive
reduced cost; leaving: lowest basis index among minimal ratios) makes it
terminate on every input and reach the same optimal vertex on every run and
platform.  Problems are tiny (dimension <= 8, a few hundred generators at
most): no sparsity tricks.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

ExponentVector = tuple[int, ...]
WeightVector = tuple[int, ...]

MAX_DIMENSION = 8
MIN_DIMENSION = 2

__all__ = [
    "ExponentVector",
    "WeightVector",
    "MAX_DIMENSION",
    "ParseError",
    "DimensionMismatchError",
    "InadmissibleWeightError",
    "SupportSet",
    "MaximinSolution",
    "parse_polynomial",
    "support_to_text",
    "primitive",
    "check_admissible_weight",
    "maximin_lp",
    "fraction_to_json",
]


class ParseError(ValueError):
    """Raised for malformed polynomial input; carries the 0-based position."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (position {position})"
        super().__init__(message)


class DimensionMismatchError(ValueError):
    """Raised when vector or constraint lengths disagree."""


class InadmissibleWeightError(ValueError):
    """Raised for weight vectors outside the admissible set.

    Admissible weight vectors are nonnegative primitive integer vectors
    other than the zero vector and the standard unit vectors.
    """


# ---------------------------------------------------------------------------
# fraction JSON helpers (shared wire format {"num": p, "den": q})
# ---------------------------------------------------------------------------

def fraction_to_json(q: Fraction | int) -> dict:
    q = Fraction(q)
    return {"num": q.numerator, "den": q.denominator}


# ---------------------------------------------------------------------------
# exponent vectors and supports
# ---------------------------------------------------------------------------

def _check_dimension(n: int) -> None:
    if not isinstance(n, int) or not (MIN_DIMENSION <= n <= MAX_DIMENSION):
        raise DimensionMismatchError(
            f"dimension must be an integer in [{MIN_DIMENSION}, {MAX_DIMENSION}], got {n!r}"
        )


def _check_vector(v: Sequence[int], n: int | None, label: str = "exponent vector",
                  error: type[ValueError] = ValueError) -> tuple[int, ...]:
    """The one validity rule for exponent and weight vectors: a tuple of
    length n (any length when n is None) whose entries are ints >= 0, bools
    excluded.  A wrong length raises DimensionMismatchError, a bad entry
    ``error``; messages name the vector by ``label``."""
    t = tuple(v)
    if n is not None and len(t) != n:
        raise DimensionMismatchError(f"{label} {t} has length {len(t)}, expected {n}")
    if not all(isinstance(x, int) and not isinstance(x, bool) and x >= 0 for x in t):
        raise error(f"{label} {t} has a non-integer or negative entry")
    return t


@dataclass(frozen=True)
class SupportSet:
    """The exponent vectors of the monomials of a polynomial, coefficients dropped."""

    dimension: int
    points: frozenset[ExponentVector]

    def __post_init__(self):
        _check_dimension(self.dimension)
        pts = frozenset(_check_vector(p, self.dimension) for p in self.points)
        if not pts:
            raise ValueError("support set must be nonempty")
        object.__setattr__(self, "points", pts)

    @property
    def sorted_points(self) -> tuple[ExponentVector, ...]:
        return tuple(sorted(self.points))


# ---------------------------------------------------------------------------
# primitive vectors
# ---------------------------------------------------------------------------

def primitive(v: Sequence[int]) -> WeightVector:
    """Divide a nonnegative integer vector by the gcd of its coordinates.

    Rejects with InadmissibleWeightError, as check_admissible_weight does,
    everything that is not a positive multiple of an admissible weight:
    negative, bool or non-integer entries, the zero vector and multiples of
    standard unit vectors.
    """
    t = _check_vector(v, None, "weight vector", InadmissibleWeightError)
    g = math.gcd(*t)
    return check_admissible_weight(tuple(x // g for x in t) if g > 1 else t)


def check_admissible_weight(w: Sequence[int], dimension: int | None = None) -> WeightVector:
    t = _check_vector(w, dimension, "weight vector", InadmissibleWeightError)
    g = math.gcd(*t)
    if g == 0:
        raise InadmissibleWeightError("zero vector is not an admissible weight")
    if g != 1:
        raise InadmissibleWeightError(f"weight vector {t} is not primitive (gcd {g})")
    if sum(t) == 1:
        raise InadmissibleWeightError(f"unit vector {t} is excluded")
    return t


# ---------------------------------------------------------------------------
# polynomial parsing
# ---------------------------------------------------------------------------

DEFAULT_NAMED_VARIABLES = ("x", "y", "z", "w")

_TOKEN_RE = re.compile(r"(?P<num>[0-9]+)|(?P<name>[A-Za-z][A-Za-z0-9]*)|(?P<op>[-+*^/])|(?P<bad>\S)")
_INDEXED_RE = re.compile(r"x([1-9])")


# longest digit run the grammar accepts, whatever the interpreter's own limit
_MAX_DIGITS = 4300


def _integer(digits: str, pos: int) -> int:
    """The digit run at pos as an int; a run of more than _MAX_DIGITS
    digits is a ParseError there."""
    if len(digits) > _MAX_DIGITS:
        raise ParseError(f"integer of {len(digits)} digits is too long", pos)
    return int(digits)


def _parse_terms(text: str) -> tuple[list[tuple[Fraction, dict[str, int]]], dict[str, int]]:
    """Parse the polynomial grammar into (coefficient, exponents) terms and
    the first position of each variable, in order of appearance.

    polynomial := ['+'|'-'] term (('+'|'-') term)*
    term       := coefficient ['*' factor ('*' factor)*] | factor ('*' factor)*
    factor     := variable ['^' positive-integer]
    coefficient:= integer ['/' positive-integer]

    Integers are runs of ASCII digits.  A bare coefficient is a constant
    term (exponent vector 0), so input like "1 + x" parses; downstream
    threshold code rejects it as a unit.  Every character is tokenized
    before any grammar error is raised.
    """
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        if m.lastgroup == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", m.start())
        tokens.append((m.lastgroup, m.group(), m.start()))
    if not tokens:
        raise ParseError("empty polynomial", 0)
    tokens.append((None, None, len(text)))  # end of text

    terms = []
    positions: dict[str, int] = {}
    i = 1 if tokens[0][1] in ("+", "-") else 0
    while True:
        kind, val, pos = tokens[i]
        exponents: dict[str, int] = {}
        if kind == "name":
            coeff, more = Fraction(1), True
        elif kind == "num":
            num, den = _integer(val, pos), 1
            if tokens[i + 1][1] == "/":
                kind, val, pos = tokens[i + 2]
                if kind != "num":
                    raise ParseError("expected denominator after '/'", pos)
                den = _integer(val, pos)
                if den == 0:
                    raise ParseError("zero denominator in coefficient", pos)
                i += 2
            coeff = Fraction(num, den)
            kind, val, pos = tokens[i + 1]
            if kind in ("name", "num"):
                raise ParseError("expected '*' between coefficient and factor", pos)
            more = val == "*"  # otherwise a bare constant term
            i += 1 + more
        else:
            raise ParseError(f"expected a term, found {val!r}" if val else "expected a term", pos)
        while more:
            kind, name, pos = tokens[i]
            if kind != "name":
                raise ParseError(f"expected a variable, found {name!r}" if name else "expected a variable", pos)
            exp = 1
            if tokens[i + 1][1] == "^":
                kind, val, epos = tokens[i + 2]
                if val == "-":
                    raise ParseError("negative exponent", epos)
                if kind != "num":
                    raise ParseError("expected an integer exponent after '^'", epos)
                exp = _integer(val, epos)
                if exp < 1:
                    raise ParseError("exponent must be a positive integer", epos)
                i += 2
            exponents[name] = exponents.get(name, 0) + exp
            positions.setdefault(name, pos)
            more = tokens[i + 1][1] == "*"
            i += 1 + more
        terms.append((coeff, exponents))
        kind, val, pos = tokens[i]
        if kind is None:
            return terms, positions
        if val not in ("+", "-"):
            raise ParseError(f"expected '+' or '-', found {val!r}", pos)
        i += 1


def _resolve_variables(positions: dict[str, int], variables: Sequence[str] | None) -> tuple[str, ...]:
    if variables is not None:
        vars_ = tuple(variables)
        if len(set(vars_)) != len(vars_):
            raise ValueError(f"duplicate variable names in {vars_}")
        _check_dimension(len(vars_))
        for name, pos in positions.items():
            if name not in vars_:
                raise ParseError(f"unknown variable {name!r}", pos)
        return vars_

    if all(name in DEFAULT_NAMED_VARIABLES for name in positions):
        return DEFAULT_NAMED_VARIABLES[:4 if "w" in positions else 3]

    matches = [_INDEXED_RE.fullmatch(name) for name in positions]
    if all(matches):
        top = max(int(m.group(1)) for m in matches)
        n = max(top, MIN_DIMENSION)
        if n > MAX_DIMENSION:
            raise DimensionMismatchError(f"variable x{top} exceeds the supported dimension {MAX_DIMENSION}")
        return tuple(f"x{i}" for i in range(1, n + 1))

    for name, pos in positions.items():
        if name not in DEFAULT_NAMED_VARIABLES and _INDEXED_RE.fullmatch(name) is None:
            raise ParseError(f"unknown variable {name!r}", pos)
    # a mix of named (x,y,z,w) and indexed (x1..x8) styles
    raise ParseError("mixed named and indexed variables; declare the variable list explicitly")


def parse_polynomial(text: str, variables: Sequence[str] | None = None) -> SupportSet:
    """Parse polynomial text into the set of exponent vectors of its terms.

    Coefficients are parsed and then discarded (terms with coefficient 0 are
    dropped); thresholds depend only on the support.  With ``variables=None``
    the ambient variable list is inferred: plain names draw from (x, y, z, w)
    with dimension 3 unless ``w`` occurs, and indexed names x1..x8 declare
    dimension max(index, 2).
    """
    terms, positions = _parse_terms(text)
    vars_ = _resolve_variables(positions, variables)
    index = {name: i for i, name in enumerate(vars_)}

    points = set()
    for coeff, exponents in terms:
        if coeff == 0:
            continue
        vec = [0] * len(vars_)
        for name, exp in exponents.items():
            vec[index[name]] = exp
        points.add(tuple(vec))
    if not points:
        raise ParseError("zero polynomial: no terms with nonzero coefficient")
    return SupportSet(dimension=len(vars_), points=frozenset(points))


def support_to_text(support: SupportSet, variables: Sequence[str] | None = None) -> str:
    """Render a support in the canonical form accepted back by parse_polynomial."""
    if variables is None:
        if support.dimension <= len(DEFAULT_NAMED_VARIABLES):
            variables = DEFAULT_NAMED_VARIABLES[: support.dimension]
        else:
            variables = tuple(f"x{i}" for i in range(1, support.dimension + 1))
    if len(variables) != support.dimension:
        raise DimensionMismatchError(
            f"{len(variables)} variable names for dimension {support.dimension}"
        )
    terms = []
    for point in support.sorted_points:
        factors = [
            name if e == 1 else f"{name}^{e}"
            for name, e in zip(variables, point)
            if e > 0
        ]
        terms.append("*".join(factors) if factors else "1")
    return " + ".join(terms)


# ---------------------------------------------------------------------------
# exact simplex
# ---------------------------------------------------------------------------

def _eliminate(row: list[int], pivot_row: list[int], col: int, p: int, d: int,
               pivot_sum: int | None = None) -> list[int]:
    """Fraction-free update (p*row - row[col]*pivot_row) / d for a pivot p over
    denominator d > 0 (pivot_sum: sum(pivot_row)); exact, as every entry is a
    minor of the first tableau."""
    f = row[col]
    if f == 0 and p == d:
        return row
    new = [(p * x - f * y) // d for x, y in zip(row, pivot_row)]
    # the floor remainders are >= 0, so all of them are 0 iff their sum is
    if p * sum(row) - f * (sum(pivot_row) if pivot_sum is None else pivot_sum) != d * sum(new):
        raise AssertionError(f"inexact fraction-free division by {d}")
    return new


def _pivot(rows: list[list[int]], cost: list[int], basis: list[int],
           d: int, r: int, c: int) -> int:
    """Pivot on (r, c) and return the new denominator |rows[r][c]|; negating a
    negative pivot's row first negates the whole result, so d stays > 0."""
    if rows[r][c] < 0:
        rows[r] = [-x for x in rows[r]]
    prow, p = rows[r], rows[r][c]
    s = sum(prow)
    rows[:] = [row if i == r else _eliminate(row, prow, c, p, d, s) for i, row in enumerate(rows)]
    cost[:] = _eliminate(cost, prow, c, p, d, s)
    basis[r] = c
    return p


def _bland_simplex(rows: list[list[int]], cost: list[int], basis: list[int], d: int,
                   columns: Sequence[int] | None = None) -> int:
    """Maximize in place over the entering columns (default: all) and return
    the final denominator.  cost[j] are reduced costs, cost[-1] is
    -(objective), all over d > 0."""
    if columns is None:
        columns = range(len(cost) - 1)
    while True:
        enter = next((j for j in columns if cost[j] > 0), None)
        if enter is None:
            return d
        # ratio test by cross-multiplying; ties go to the lowest basis index
        leave = None
        for i, row in enumerate(rows):
            if row[enter] > 0 and (leave is None or (row[-1] * rows[leave][enter], basis[i])
                                   < (rows[leave][-1] * row[enter], basis[leave])):
                leave = i
        if leave is None:
            raise AssertionError("unbounded LP; every maximin objective is bounded")
        d = _pivot(rows, cost, basis, d, leave, enter)


def _solve_maximin(gens: Sequence[ExponentVector], n: int) -> tuple[list[int], int, list[int], int]:
    """Maximize t over probability directions u with <u, m> >= t for every m.

    Returns (u, t, lam, d): u and t over the denominator d > 0, and the
    multipliers lam_m over d, the negated reduced costs of the slacks s_m.
    Eliminating u_1 = 1 - sum_{j>=2} u_j turns each generator into the row
    sum_{j>=2} (m_1 - m_j) u_j + t + s_m = m_1, and u_1 >= 0 into the row
    sum_{j>=2} u_j + u_1 = 1.  Every right-hand side is >= 0, so the slack
    basis {u_1, s_m} is feasible and one phase of Bland's rule suffices.
    Columns: u_2..u_n, t, u_1, s_m in generator order; rhs last.

    If the optimum is an axis e_j, a second objective minimizes u_j over the
    optimal face (the columns with zero reduced cost), and the midpoint of
    the two vertices is returned when they differ: it attains t on the same
    face and keeps the multipliers, so its ray is not an axis.
    """
    k = len(gens)
    width = n + 1 + k
    rows = [[1] * (n - 1) + [0, 1] + [0] * k + [1]]
    for i, m in enumerate(gens):
        row = [m[0] - mj for mj in m[1:]] + [1, 0] + [0] * k + [m[0]]
        row[n + 1 + i] = 1
        rows.append(row)
    basis = list(range(n, width))
    cost = [0] * (width + 1)
    cost[n - 1] = 1
    d = _bland_simplex(rows, cost, basis, 1)

    def direction() -> list[int]:
        x = dict(zip(basis, (row[-1] for row in rows)))
        return [x.get(n, 0)] + [x.get(j, 0) for j in range(n - 1)]

    u, t, lam = direction(), -cost[-1], [-c for c in cost[n + 1:width]]
    if u.count(0) == n - 1:
        a = next(i for i, ui in enumerate(u) if ui)
        face = [j for j in range(width) if cost[j] == 0]
        # maximize -u_a from the current basis, entering only face columns
        cost = [0] * (width + 1)
        cost[n if a == 0 else a - 1] = -d
        for i, bi in enumerate(basis):
            cost = _eliminate(cost, rows[i], bi, d, d)
        d2 = _bland_simplex(rows, cost, basis, d, face)
        v = direction()
        if v[a] != d2:
            u = [x * d2 + y * d for x, y in zip(u, v)]
            t, lam, d = 2 * d2 * t, [2 * d2 * q for q in lam], 2 * d * d2
    return u, t, lam, d


@dataclass(frozen=True)
class MaximinSolution:
    """Optimum of: maximize t subject to sum(u) = 1, u >= 0, <u, m> >= t."""

    value: Fraction
    direction: tuple[Fraction, ...]


def maximin_lp(generators: Iterable[ExponentVector], n: int) -> MaximinSolution:
    """Exact maximin of <u, m> over the probability simplex of directions u.

    Deterministic: generators are sorted before the tableau is built and the
    simplex uses Bland's rule, so the reported vertex never varies.
    """
    gens = sorted({_check_vector(m, n, "generator") for m in generators})
    if not gens:
        raise ValueError("empty generator set")
    u, t, lam, d = _solve_maximin(gens, n)

    # over d: u is a probability direction whose least weight is t, and the
    # duals lam give p = sum lam_m m in conv(gens) with p <= t, so no u beats t
    weights = [sum(ui * mi for ui, mi in zip(u, m)) for m in gens]
    if not (sum(u) == d and all(ui >= 0 for ui in u) and min(weights) == t):
        raise AssertionError(f"simplex returned an invalid maximin vertex {u} / {d}, t = {t} / {d}")
    p = [sum(q * m[i] for q, m in zip(lam, gens)) for i in range(n)]
    if not (all(q >= 0 for q in lam) and sum(lam) == d and max(p) <= t):
        raise AssertionError(f"simplex returned an invalid dual certificate {lam} / {d}, t = {t} / {d}")
    return MaximinSolution(value=Fraction(t, d), direction=tuple(Fraction(ui, d) for ui in u))
