"""Exact-arithmetic primitives, polynomial-support parsing, and a rational
maximin linear-programming kernel.

Everything in this module is pure and exact: values are Python ints and
``fractions.Fraction``; no floats enter at any point.  The one LP is the
maximin of <u, m> over probability directions u, solved by
``_solve_maximin`` for NewtonDiagram.maximin, which passes it a diagram's
checked generators and certifies its answer.  It is a single-phase simplex
from the slack basis, feasible once u_1 is eliminated through sum(u) = 1.
Its condensed tableau is kept by columns, one per nonbasic variable and the
right-hand side, each ending in its reduced cost; entries are integers over
one common positive denominator, updated by fraction-free (Bareiss) pivoting
with one exactness check per pivot.  Bland's rule (entering: lowest variable
with positive reduced cost; leaving: lowest basis variable among minimal
ratios) makes it terminate and reach the same optimal vertex on every run;
a pivot back to a basis already left raises, so a faulty rule cannot cycle.
Problems are tiny (dimension <= 8, a few hundred generators): no sparsity.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

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
    "parse_polynomial",
    "support_to_text",
    "primitive",
    "check_admissible_weight",
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

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*")
_TOKEN_RE = re.compile(rf"(?P<num>[0-9]+)|(?P<name>{_NAME_RE.pattern})|(?P<op>[-+*^/])|(?P<bad>\S)")
_INDEXED_RE = re.compile(r"x([1-9])")


# longest digit run the grammar accepts, whatever the interpreter's own limit
_MAX_DIGITS = 4300


def _integer(digits: str, pos: int) -> int:
    """The digit run at pos as an int; a run of more than _MAX_DIGITS
    digits is a ParseError there."""
    if len(digits) > _MAX_DIGITS:
        raise ParseError(f"integer of {len(digits)} digits is too long", pos)
    return int(digits)


def _parse_terms(text: str) -> tuple[list[tuple[int | Fraction, dict[str, int]]], dict[str, int]]:
    """Parse the polynomial grammar into (coefficient, exponents) terms and
    the first position of each variable, in order of appearance.  A
    coefficient carries the sign before its term; it is an int unless the
    term writes a '/'.

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
    sign = -1 if tokens[0][1] == "-" else 1
    i = 1 if tokens[0][1] in ("+", "-") else 0
    while True:
        kind, val, pos = tokens[i]
        exponents: dict[str, int] = {}
        if kind == "name":
            coeff, more = sign, True
        elif kind == "num":
            coeff = sign * _integer(val, pos)
            if tokens[i + 1][1] == "/":
                kind, val, pos = tokens[i + 2]
                if kind != "num":
                    raise ParseError("expected denominator after '/'", pos)
                den = _integer(val, pos)
                if den == 0:
                    raise ParseError("zero denominator in coefficient", pos)
                coeff = Fraction(coeff, den)
                i += 2
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
        sign = -1 if val == "-" else 1
        i += 1


def _resolve_variables(positions: dict[str, int], variables: Sequence[str] | None) -> tuple[str, ...]:
    if variables is not None:
        vars_ = tuple(variables)
        for name in vars_:
            if not isinstance(name, str) or _NAME_RE.fullmatch(name) is None:
                raise ValueError(f"variable name {name!r} is not a letter followed by letters and digits")
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

    Each term's coefficient, with the sign before the term, is added to the
    sum of its exponent vector; the vectors whose sum is nonzero are the
    support, and the sums are then discarded: thresholds depend only on the
    support.  So "x^2 - x^2 + y^3" has support {y^3}.  With ``variables=None``
    the ambient variable list is inferred: plain names draw from (x, y, z, w)
    with dimension 3 unless ``w`` occurs, and indexed names x1..x8 declare
    dimension max(index, 2).
    """
    terms, positions = _parse_terms(text)
    vars_ = _resolve_variables(positions, variables)
    index = {name: i for i, name in enumerate(vars_)}

    sums: dict[ExponentVector, int | Fraction] = {}
    for coeff, exponents in terms:
        vec = [0] * len(vars_)
        for name, exp in exponents.items():
            vec[index[name]] = exp
        point = tuple(vec)
        sums[point] = sums.get(point, 0) + coeff
    points = [point for point, total in sums.items() if total]
    if not points:
        raise ParseError("zero polynomial: no terms with nonzero coefficient")
    return SupportSet(dimension=len(vars_), points=frozenset(points))


def support_to_text(support: SupportSet, variables: Sequence[str] | None = None) -> str:
    """Render a support in canonical form.  parse_polynomial reads it back,
    dimension included, given the same names (distinct, each one token)."""
    if variables is None:
        if support.dimension <= len(DEFAULT_NAMED_VARIABLES):
            variables = DEFAULT_NAMED_VARIABLES[: support.dimension]
        else:
            variables = tuple(f"x{i}" for i in range(1, support.dimension + 1))
    if len(variables) != support.dimension:
        raise DimensionMismatchError(
            f"{len(variables)} variable names for dimension {support.dimension}"
        )
    variables = _resolve_variables({}, variables)  # rejects names that do not read back
    terms = []
    for point in sorted(support.points):
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

def _bland_simplex(cols: list[list[int]], basis: list[int], labels: list[int],
                   d: int, face: set[int] | None = None) -> int:
    """Maximize in place over the nonbasic variables (default: all, else
    those in face) and return the final denominator.  cols[j] holds the
    nonbasic variable labels[j], its entry i the basic variable basis[i] and
    its last entry the reduced cost; the last column is the right-hand side,
    ending in -(objective).  All entries are integers over d > 0, and a pivot
    updates them fraction-free (Bareiss), every division exact and checked.
    Bland's rule never returns to a basis, so one seen again (key: the labels
    that changed sides an odd number of times) raises, and a faulty rule
    fails instead of cycling."""
    seen, key = {0}, 0
    while True:
        enter = None
        for j, col in enumerate(cols[:-1]):
            if col[-1] > 0 and (face is None or labels[j] in face) and (enter is None
                                                                      or labels[j] < labels[enter]):
                enter = j
        if enter is None:
            return d
        # ratio test by cross-multiplying; ties go to the lowest basis index
        ecol, rhs, leave = cols[enter], cols[-1], None
        for i, f in enumerate(ecol[:-1]):
            if f > 0 and (leave is None or rhs[i] * lf < lr * f
                          or rhs[i] * lf == lr * f and basis[i] < basis[leave]):
                leave, lf, lr = i, f, rhs[i]
        if leave is None:
            raise AssertionError("unbounded LP; every maximin objective is bounded")
        # each other column becomes (p*col - pj*ecol) / d, keeping pj in row
        # leave; exact, as every entry is a signed minor of the first tableau
        p, es, rem = ecol[leave], sum(ecol), 0
        for j, col in enumerate(cols):
            pj = col[leave]
            if j != enter and (pj or p != d):
                new = [(p * x - pj * f) // d for x, f in zip(col, ecol)]
                rem += p * sum(col) - pj * es - d * sum(new)
                new[leave] = pj
                cols[j] = new
        # the floor remainders are >= 0, so all of them are 0 iff their sum is
        if rem:
            raise AssertionError(f"inexact fraction-free division by {d}")
        cols[enter] = [-f for f in ecol]  # the leaving variable's column
        cols[enter][leave] = d
        key ^= 1 << labels[enter] | 1 << basis[leave]
        if key in seen:
            raise AssertionError("simplex returned to a basis it left")
        seen.add(key)
        labels[enter], basis[leave] = basis[leave], labels[enter]
        d = p


def _solve_maximin(gens: Sequence[ExponentVector],
                   first_vertex: bool = False) -> tuple[list[int], int, list[int], int]:
    """Maximize t over probability directions u with <u, m> >= t for every m.

    Returns (u, t, lam, d): u, of length n = len(m), and t over d > 0, and
    the multipliers lam_m over d, the negated reduced costs of the slacks s_m.
    Eliminating u_1 = 1 - sum_{j>=2} u_j turns each generator into the row
    sum_{j>=2} (m_1 - m_j) u_j + t + s_m = m_1, and u_1 >= 0 into the row
    sum_{j>=2} u_j + u_1 = 1.  Every right-hand side is >= 0, so the slack
    basis {u_1, s_m} is feasible and one phase of Bland's rule suffices.
    Variables, in Bland's order: u_2..u_n, t, u_1, s_m in generator order.
    Condensed tableau by columns: one per nonbasic variable (labels), the rhs
    last, each with a row per basic one (basis) and its reduced cost last.

    If the optimum is an axis e_j, a second objective minimizes u_j over the
    optimal face (the variables with zero reduced cost), and the midpoint of
    the two vertices is returned when they differ: it attains t on the same
    face and keeps the multipliers, so its ray is not an axis.  first_vertex
    skips that step, for callers that read only t and d.
    """
    n = len(gens[0])
    x1, *xs = zip(*gens)
    cols = [[1, *(a - b for a, b in zip(x1, xj)), 0] for xj in xs]
    cols += [[0, *[1] * len(gens), 1], [1, *x1, 0]]  # t, whose reduced cost 1 maximizes it; rhs
    basis, labels = list(range(n, n + 1 + len(gens))), list(range(n))
    d = _bland_simplex(cols, basis, labels, 1)

    def direction() -> list[int]:
        x = dict(zip(basis, cols[-1]))
        return [x.get(n, 0)] + [x.get(j, 0) for j in range(n - 1)]

    reduced = dict(zip(labels, (col[-1] for col in cols)))
    u, t, lam = direction(), -cols[-1][-1], [-reduced.get(n + 1 + i, 0) for i in range(len(gens))]
    if not first_vertex and u.count(0) == n - 1:
        a = next(i for i, ui in enumerate(u) if ui)
        # maximize -u_a over the face from the current basis: its costs are the row of u_a
        face = {*basis, *(v for v, c in reduced.items() if c == 0)}
        r = basis.index(n if a == 0 else a - 1)
        cols[:] = [[*col[:-1], col[r]] for col in cols]
        d2 = _bland_simplex(cols, basis, labels, d, face)
        v = direction()
        if v[a] != d2:
            u = [x * d2 + y * d for x, y in zip(u, v)]
            t, lam, d = 2 * d2 * t, [2 * d2 * q for q in lam], 2 * d * d2
    return u, t, lam, d
