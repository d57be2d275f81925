"""Exact arithmetic, parsing, and the maximin LP kernel."""

import ast
import importlib
import json
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import thresholdkit
from thresholdkit.engine import _ray_seed
from thresholdkit import (
    DimensionMismatchError,
    InadmissibleWeightError,
    ParseError,
    check_admissible_weight,
    fraction_to_json,
    SupportSet,
    contains_point,
    from_points,
    maximin_lp,
    parse_polynomial,
    primitive,
    support_to_text,
)

F = Fraction


# ---------------------------------------------------------------------------
# rationals
# ---------------------------------------------------------------------------

@given(st.fractions(), st.fractions(), st.fractions())
def test_fraction_addition_associative(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(st.fractions(), st.fractions())
def test_fraction_results_stored_reduced(a, b):
    from math import gcd
    for value in (a + b, a - b, a * b):
        assert value.denominator > 0
        assert gcd(abs(value.numerator), value.denominator) == 1


# ---------------------------------------------------------------------------
# primitive vectors
# ---------------------------------------------------------------------------

def test_primitive_divides_by_gcd():
    assert primitive((4, 2, 2)) == (2, 1, 1)


def test_primitive_fixes_already_primitive():
    assert primitive((3, 2, 1)) == (3, 2, 1)


def test_primitive_rejects_unit_multiple():
    with pytest.raises(InadmissibleWeightError):
        primitive((2, 0, 0))


def test_primitive_rejects_zero():
    with pytest.raises(InadmissibleWeightError):
        primitive((0, 0, 0))


@pytest.mark.parametrize("v", [(-1, 2, 1), (1.0, 2, 1), (0, 0, 0), (3, 0, 0), (True, 1, 0)])
def test_primitive_rejects_like_check_admissible_weight(v):
    for validate in (primitive, check_admissible_weight):
        with pytest.raises(InadmissibleWeightError):
            validate(v)


@given(
    st.lists(st.integers(0, 9), min_size=2, max_size=5),
    st.integers(1, 7),
)
def test_primitive_invariant_under_scaling(v, k):
    scaled = tuple(k * x for x in v)
    try:
        base = primitive(tuple(v))
    except InadmissibleWeightError:
        with pytest.raises(InadmissibleWeightError):
            primitive(scaled)
        return
    assert primitive(scaled) == base


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_brieskorn_support():
    s = parse_polynomial("x^3 + y^7 + z^11")
    assert s.dimension == 3
    assert s.points == {(3, 0, 0), (0, 7, 0), (0, 0, 11)}


def test_parse_single_monomial_defaults_to_three_variables():
    s = parse_polynomial("x")
    assert s.dimension == 3
    assert s.points == {(1, 0, 0)}


def test_parse_discards_coefficients_and_signs():
    s = parse_polynomial("x^2 + 3*x^2*y - z^4")
    assert s.points == {(2, 0, 0), (2, 1, 0), (0, 0, 4)}


def test_parse_fourth_variable_widens_dimension():
    s = parse_polynomial("x^2 + w^3")
    assert s.dimension == 4
    assert s.points == {(2, 0, 0, 0), (0, 0, 0, 3)}


def test_parse_indexed_variables():
    s = parse_polynomial("x1^2*x3 + x2^5")
    assert s.dimension == 3
    assert s.points == {(2, 0, 1), (0, 5, 0)}


def test_parse_explicit_variables():
    s = parse_polynomial("x^2 + y^2", variables=("x", "y"))
    assert s.dimension == 2
    assert s.points == {(2, 0), (0, 2)}


def test_parse_fraction_coefficient():
    s = parse_polynomial("1/2*x + 2*y")
    assert s.points == {(1, 0, 0), (0, 1, 0)}


def test_parse_constant_term_keeps_origin():
    s = parse_polynomial("1 + x")
    assert (0, 0, 0) in s.points and (1, 0, 0) in s.points


def test_parse_zero_coefficient_term_dropped():
    s = parse_polynomial("0*x + y")
    assert s.points == {(0, 1, 0)}


def test_parse_zero_polynomial_rejected():
    with pytest.raises(ParseError):
        parse_polynomial("0*x")


def test_parse_repeated_factor_accumulates():
    s = parse_polynomial("x*x*y")
    assert s.points == {(2, 1, 0)}


def test_parse_duplicate_terms_merge():
    s = parse_polynomial("x + x")
    assert s.points == {(1, 0, 0)}


def test_parse_unknown_variable_reports_position():
    with pytest.raises(ParseError) as err:
        parse_polynomial("x + q^2")
    assert err.value.position == 4


def test_parse_syntax_error_reports_position():
    with pytest.raises(ParseError) as err:
        parse_polynomial("x^2 + + y")
    assert err.value.position is not None


def test_parse_zero_exponent_rejected():
    with pytest.raises(ParseError):
        parse_polynomial("x^0")


def test_parse_negative_exponent_rejected():
    with pytest.raises(ParseError):
        parse_polynomial("x^-2")


def test_parse_missing_star_rejected():
    with pytest.raises(ParseError):
        parse_polynomial("3x")


def test_parse_empty_rejected():
    with pytest.raises(ParseError):
        parse_polynomial("   ")


def test_parse_mixed_variable_styles_rejected():
    with pytest.raises(ParseError):
        parse_polynomial("x + x1")


def test_parse_dimension_cap():
    with pytest.raises(DimensionMismatchError):
        parse_polynomial("x9")


@st.composite
def supports(draw, dimension=None):
    n = dimension if dimension is not None else draw(st.integers(2, 4))
    pts = draw(st.sets(st.tuples(*[st.integers(0, 7)] * n), min_size=1, max_size=6))
    return SupportSet(dimension=n, points=frozenset(pts))


@given(supports())
@settings(max_examples=60)
def test_parse_print_round_trip(support):
    names = tuple(f"x{i}" for i in range(1, support.dimension + 1))
    text = support_to_text(support, names)
    assert parse_polynomial(text, variables=names) == support


# one row per ParseError raise site (both forms where the message names the
# offending token): input, explicit variables, str(exc), exc.position
_PARSE_ERRORS = [
    ("x + #", None, "unexpected character '#' (position 4)", 4),
    ("   ", None, "empty polynomial (position 0)", 0),
    ("x y", None, "expected '+' or '-', found 'y' (position 2)", 2),
    ("3x", None, "expected '*' between coefficient and factor (position 1)", 1),
    ("x^2 + + y", None, "expected a term, found '+' (position 6)", 6),
    ("x +", None, "expected a term (position 3)", 3),
    ("1/x", None, "expected denominator after '/' (position 2)", 2),
    ("1/0*x", None, "zero denominator in coefficient (position 2)", 2),
    ("x*+y", None, "expected a variable, found '+' (position 2)", 2),
    ("x* ", None, "expected a variable (position 3)", 3),
    ("x^-2", None, "negative exponent (position 2)", 2),
    ("x^y", None, "expected an integer exponent after '^' (position 2)", 2),
    ("x^0", None, "exponent must be a positive integer (position 2)", 2),
    ("x + z^2", ("x", "y"), "unknown variable 'z' (position 4)", 4),
    ("x + q^2", None, "unknown variable 'q' (position 4)", 4),
    ("x + x1", None, "mixed named and indexed variables; declare the variable list explicitly", None),
    ("0*x - 0", None, "zero polynomial: no terms with nonzero coefficient", None),
]


# integers are ASCII digit runs that int() can read: a non-ASCII digit is an
# unexpected character, and a run past the int-string limit (4300 digits by
# default) an error at its first digit, as coefficient, denominator or
# exponent.  The reference parser below accepts the first and raises a bare
# ValueError on the second, so the equivalence test leaves these rows out.
_LONG = "9" * 5000
_DIGIT_ERRORS = [
    pytest.param("x^\u0663+y^2+z^2", None, "unexpected character '\u0663' (position 2)", 2,
                 id="arabic-indic-digit"),
    pytest.param("2*x + \u0967*y", None, "unexpected character '\u0967' (position 6)", 6,
                 id="devanagari-digit"),
    pytest.param(f"{_LONG}*x+y^2", None, "integer of 5000 digits is too long (position 0)", 0,
                 id="long-coefficient"),
    pytest.param(f"x + 1/{_LONG}*y", None, "integer of 5000 digits is too long (position 6)", 6,
                 id="long-denominator"),
    pytest.param(f"x^{_LONG}+y^2+z^2", None, "integer of 5000 digits is too long (position 2)", 2,
                 id="long-exponent"),
]


@pytest.mark.parametrize("text,variables,message,position", _PARSE_ERRORS + _DIGIT_ERRORS)
def test_parse_error_message_and_position(text, variables, message, position):
    with pytest.raises(ParseError) as err:
        parse_polynomial(text, variables)
    assert str(err.value) == message
    assert err.value.position == position


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="interpreter has no int-string limit to lift")
def test_digit_limit_does_not_follow_the_interpreter():
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        with pytest.raises(ParseError, match=r"integer of 4301 digits is too long \(position 2\)"):
            parse_polynomial("x^" + "1" * 4301 + "+y^2+z^2")
        assert (int("1" * 4300), 0, 0) in parse_polynomial("x^" + "1" * 4300 + "+y^2").points
    finally:
        sys.set_int_max_str_digits(old)


# The recursive-descent parser that preceded the flat one, kept verbatim as
# the reference for the equivalence test below.
_REFERENCE_TOKEN_RE = re.compile(r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z][A-Za-z0-9]*)|(?P<op>[-+*^/]))")


def _reference_tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _REFERENCE_TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_pos = len(text) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", bad_pos)
        tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    return tokens


class _ReferenceParser:
    def __init__(self, text):
        self.text = text
        self.tokens = _reference_tokenize(text)
        self.idx = 0
        self.positions = {}

    def peek(self):
        return self.tokens[self.idx] if self.idx < len(self.tokens) else (None, None, len(self.text))

    def take(self):
        tok = self.peek()
        self.idx += 1
        return tok

    def parse(self):
        if not self.tokens:
            raise ParseError("empty polynomial", 0)
        terms = []
        kind, val, _ = self.peek()
        if kind == "op" and val in "+-":
            self.take()
        terms.append(self.term())
        while self.idx < len(self.tokens):
            kind, val, pos = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                terms.append(self.term())
            else:
                raise ParseError(f"expected '+' or '-', found {val!r}", pos)
        return terms

    def term(self):
        kind, val, pos = self.peek()
        coeff = Fraction(1)
        exponents = {}
        if kind == "num":
            coeff = self.coefficient()
            kind, val, pos = self.peek()
            if kind == "op" and val == "*":
                self.take()
                self.factor(exponents)
            elif kind in ("name", "num"):
                raise ParseError("expected '*' between coefficient and factor", pos)
            else:
                return coeff, exponents
        elif kind == "name":
            self.factor(exponents)
        else:
            raise ParseError(f"expected a term, found {val!r}" if val else "expected a term", pos)
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val == "*":
                self.take()
                self.factor(exponents)
            else:
                return coeff, exponents

    def coefficient(self):
        kind, val, pos = self.take()
        num = int(val)
        kind, nval, npos = self.peek()
        if kind == "op" and nval == "/":
            self.take()
            dkind, dval, dpos = self.peek()
            if dkind != "num":
                raise ParseError("expected denominator after '/'", dpos)
            self.take()
            den = int(dval)
            if den == 0:
                raise ParseError("zero denominator in coefficient", dpos)
            return Fraction(num, den)
        return Fraction(num)

    def factor(self, exponents):
        kind, name, pos = self.peek()
        if kind != "name":
            raise ParseError(f"expected a variable, found {name!r}" if name else "expected a variable", pos)
        self.take()
        exp = 1
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.take()
            ekind, eval_, epos = self.peek()
            if ekind == "op" and eval_ == "-":
                raise ParseError("negative exponent", epos)
            if ekind != "num":
                raise ParseError("expected an integer exponent after '^'", epos)
            self.take()
            exp = int(eval_)
            if exp < 1:
                raise ParseError("exponent must be a positive integer", epos)
        exponents[name] = exponents.get(name, 0) + exp
        self.positions.setdefault(name, pos)


def _reference_resolve_variables(names_in_order, variables):
    named = ("x", "y", "z", "w")
    if variables is not None:
        vars_ = tuple(variables)
        if len(set(vars_)) != len(vars_):
            raise ValueError(f"duplicate variable names in {vars_}")
        if not 2 <= len(vars_) <= 8:
            raise DimensionMismatchError(f"dimension must be an integer in [2, 8], got {len(vars_)!r}")
        for name, pos in names_in_order:
            if name not in vars_:
                raise ParseError(f"unknown variable {name!r}", pos)
        return vars_

    used = [name for name, _ in names_in_order]
    if all(name in named for name in used):
        n = 4 if "w" in used else 3
        return named[:n]

    indexed = re.compile(r"^x([1-9])$")
    matches = {name: indexed.match(name) for name in used}
    if used and all(m is not None for m in matches.values()):
        top = max(int(m.group(1)) for m in matches.values() if m is not None)
        n = max(top, 2)
        if n > 8:
            raise DimensionMismatchError(f"variable x{top} exceeds the supported dimension 8")
        return tuple(f"x{i}" for i in range(1, n + 1))

    for name, pos in names_in_order:
        if name not in named and indexed.match(name) is None:
            raise ParseError(f"unknown variable {name!r}", pos)
    raise ParseError("mixed named and indexed variables; declare the variable list explicitly")


def _reference_parse(text, variables=None):
    parser = _ReferenceParser(text)
    terms = parser.parse()
    names_in_order = sorted(parser.positions.items(), key=lambda kv: kv[1])
    vars_ = _reference_resolve_variables(names_in_order, variables)
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


_PARSE_ALPHABET = " \t+-*^/0123456789xyzwqab.#(é"
_EXPLICIT_VARIABLES = [
    ("a", "b"), ("x", "y"), ("p", "q", "r"), ("u1", "u2", "u3", "u4"),
    ("a", "a"), ("a",), tuple("abcdefghi"),
]


# message prefixes of the 15 ParseError raise sites; "unknown variable" is
# raised at two, one for explicit variables and one for inferred ones
_RAISE_SITES = (
    "unexpected character", "empty polynomial", "expected '+' or '-'", "expected '*'",
    "expected a term", "expected denominator", "zero denominator", "expected a variable",
    "negative exponent", "expected an integer exponent", "exponent must be",
    "unknown variable", "mixed named", "zero polynomial",
)


def _random_polynomial(rng, names):
    terms = []
    for _ in range(rng.randint(1, 5)):
        factors = [
            name + (f"^{rng.randint(0, 12)}" if rng.random() < 0.6 else "")
            for name in rng.sample(names, rng.randint(0, min(3, len(names))))
        ]
        coeff = rng.choice(["", "", "", "3", "0", "1/2", "12/7", "0/5"])
        parts = ([coeff] if coeff else []) + factors or [rng.choice(["1", "7"])]
        terms.append(rng.choice(["*", " * "]).join(parts))
    text = rng.choice(["", "", "-", "+ "]) + terms[0]
    for term in terms[1:]:
        text += rng.choice([" + ", " - ", "+", "-"]) + term
    return text


def _mutate(rng, text):
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, len(text))
        op = rng.randrange(3)
        if op == 0:
            text = text[:i] + rng.choice(_PARSE_ALPHABET) + text[i:]
        elif op == 1:
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i] + rng.choice(_PARSE_ALPHABET) + text[i + 1:]
    return text


def _parse_outcome(parse, text, variables):
    try:
        return parse(text, variables)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


def test_flat_parser_matches_reference_parser():
    rng = random.Random(20261018)
    cases = []
    for _ in range(3500):
        style = rng.randrange(3)
        if style == 0:
            variables, names = None, ["x", "y", "z", "w"]
        elif style == 1:
            variables, names = None, [f"x{i}" for i in range(1, rng.choice([4, 9, 10]))]
        else:
            variables = rng.choice(_EXPLICIT_VARIABLES)
            names = list(variables) + (["c"] if rng.random() < 0.2 else [])
        text = _random_polynomial(rng, names)
        cases.append((text, variables))
        cases += [(_mutate(rng, text), variables) for _ in range(3)]
    for _ in range(6000):
        text = "".join(rng.choice(_PARSE_ALPHABET) for _ in range(rng.randint(0, 8)))
        cases.append((text, rng.choice([None, None, ("x", "y"), ("a", "b", "q")])))
    cases += [(text, variables) for text, variables, _, _ in _PARSE_ERRORS]
    assert len(cases) >= 20000

    sites, parsed = set(), 0
    for text, variables in cases:
        got = _parse_outcome(parse_polynomial, text, variables)
        assert got == _parse_outcome(_reference_parse, text, variables), (text, variables)
        parsed += isinstance(got, SupportSet)
        if isinstance(got, tuple) and got[0] is ParseError:
            site = next(prefix for prefix in _RAISE_SITES if got[1].startswith(prefix))
            sites.add((site, variables is not None) if site == "unknown variable" else site)
    assert len(sites) == len(_RAISE_SITES) + 1, sorted(map(str, sites))
    assert parsed >= 3000, parsed


# ---------------------------------------------------------------------------
# maximin LP
# ---------------------------------------------------------------------------

def test_maximin_simplex_diagram():
    sol = maximin_lp({(3, 0, 0), (0, 7, 0), (0, 0, 11)}, 3)
    assert sol.value == F(231, 131)
    assert sol.direction == (F(77, 131), F(33, 131), F(21, 131))


def test_maximin_two_dim_symmetric():
    sol = maximin_lp({(1, 0), (0, 1)}, 2)
    assert sol.value == F(1, 2)
    assert sol.direction == (F(1, 2), F(1, 2))


def test_maximin_third_coordinate_free():
    sol = maximin_lp({(2, 0, 0), (0, 3, 0)}, 3)
    assert sol.value == F(6, 5)
    assert sol.direction == (F(3, 5), F(2, 5), 0)


def _solve_square(rows, rhs):
    """Tiny exact Gaussian elimination, independent of the simplex code."""
    n = len(rows)
    m = [list(map(F, row)) + [F(r)] for row, r in zip(rows, rhs)]
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col] != 0), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        m[col] = [x / m[col][col] for x in m[col]]
        for i in range(n):
            if i != col and m[i][col] != 0:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[col])]
    return [m[i][-1] for i in range(n)]


def _basic_feasible_solutions(gens, n):
    """Every basic feasible solution (u, t) of the maximin system.

    Variables (u_1..u_n, t).  Equalities considered: sum(u) = 1 always, plus
    any choice of n constraints among {u_i = 0} and {<u, m> = t}.
    """
    gens = sorted(gens)
    rows_pool = []
    for i in range(n):
        row = [F(0)] * (n + 1)
        row[i] = F(1)
        rows_pool.append((row, F(0)))
    for m in gens:
        row = [F(x) for x in m] + [F(-1)]
        rows_pool.append((row, F(0)))

    base_row = ([F(1)] * n + [F(0)], F(1))
    for chosen in combinations(rows_pool, n):
        rows = [base_row[0]] + [r for r, _ in chosen]
        rhs = [base_row[1]] + [b for _, b in chosen]
        sol = _solve_square(rows, rhs)
        if sol is None:
            continue
        u, t = sol[:n], sol[n]
        if any(x < 0 for x in u):
            continue
        if any(sum(ux * mx for ux, mx in zip(u, m)) < t for m in gens):
            continue
        yield tuple(u), t


def _maximin_by_vertex_enumeration(gens, n):
    """Oracle: the best t over every basic feasible solution."""
    return max(t for _, t in _basic_feasible_solutions(gens, n))


@given(st.sets(st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)),
               min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
def test_maximin_matches_vertex_enumeration(gens):
    sol = maximin_lp(gens, 3)
    assert sol.value == _maximin_by_vertex_enumeration(gens, 3)


@given(
    st.sets(st.tuples(st.integers(0, 9), st.integers(0, 9), st.integers(0, 9)),
            min_size=1, max_size=5),
    st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)),
)
@settings(max_examples=60, deadline=None)
def test_maximin_certificate(gens, direction):
    """Any probability direction scores at most t*; u* itself attains it."""
    sol = maximin_lp(gens, 3)
    total = sum(direction)
    if total > 0:
        u = tuple(F(x, total) for x in direction)
        assert min(sum(ux * mx for ux, mx in zip(u, m)) for m in gens) <= sol.value
    attained = min(
        sum(ux * mx for ux, mx in zip(sol.direction, m)) for m in gens
    )
    assert attained == sol.value


@given(st.sets(st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=1, max_size=5))
@settings(max_examples=40, deadline=None)
def test_maximin_invariant_under_duplication(gens):
    sol = maximin_lp(gens, 2)
    doubled = list(gens) + list(gens)
    assert maximin_lp(doubled, 2).value == sol.value


def test_maximin_invariant_under_generator_order():
    gens = [(3, 0, 0), (0, 7, 0), (0, 0, 11), (1, 2, 3)]
    values = {maximin_lp(perm, 3).value
              for perm in (gens, gens[::-1], gens[2:] + gens[:2])}
    assert len(values) == 1


def test_maximin_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        maximin_lp({(1, 2)}, 3)


def test_maximin_validates_generators_like_every_vector():
    # fractional, bool and negative entries are refused before the LP runs
    for bad in [(1.5, 0, 0), (True, 2, 0), (-1, 2, 0)]:
        with pytest.raises(ValueError, match="non-integer or negative"):
            maximin_lp([bad, (0, 2, 0)], 3)
    with pytest.raises(DimensionMismatchError):
        maximin_lp([(1, 2, 0), (0, 2)], 3)


def _reference_solve_standard(constraints, objective):
    """The general two-phase kernel, with one artificial column per row, that
    solved every LP before the slack-basis maximin kernel: the reference for
    t* and for feasibility.  Takes rows (coeffs, rel, rhs) over x >= 0 and
    returns ((x, value, slack reduced costs, d) or None if infeasible, the
    number of pivots it made)."""
    pivots = 0

    def eliminate(row, pivot_row, col, p, d):
        f = row[col]
        if f == 0 and p == d:
            return row
        new = [(p * x - f * y) // d for x, y in zip(row, pivot_row)]
        assert p * sum(row) - f * sum(pivot_row) == d * sum(new)
        return new

    def pivot(rows, cost, basis, d, r, c):
        nonlocal pivots
        pivots += 1
        if rows[r][c] < 0:
            rows[r] = [-x for x in rows[r]]
        prow, p = rows[r], rows[r][c]
        rows[:] = [row if i == r else eliminate(row, prow, c, p, d) for i, row in enumerate(rows)]
        cost[:] = eliminate(cost, prow, c, p, d)
        basis[r] = c
        return p

    def simplex(rows, cost, basis, d):
        while True:
            enter = next((j for j in range(len(cost) - 1) if cost[j] > 0), None)
            if enter is None:
                return d
            leave = None
            for i, row in enumerate(rows):
                if row[enter] > 0 and (leave is None or (row[-1] * rows[leave][enter], basis[i])
                                       < (rows[leave][-1] * row[enter], basis[leave])):
                    leave = i
            assert leave is not None
            d = pivot(rows, cost, basis, d, leave, enter)

    nvars = len(objective)
    m = len(constraints)
    k = nvars + sum(1 for _, rel, _ in constraints if rel != "=")
    rows = []
    slack = nvars
    for i, (coeffs, rel, rhs) in enumerate(constraints):
        row = [*coeffs, *[0] * (k - nvars + m), rhs]
        if not all(type(x) is int for x in row):
            scale = math.lcm(*[x.denominator for x in row])
            row = [x.numerator * (scale // x.denominator) for x in row]
        if rel != "=":
            row[slack] = 1 if rel == "<=" else -1
            slack += 1
        if row[-1] < 0:
            row = [-x for x in row]
        row[k + i] = 1
        rows.append(row)

    basis = [k + i for i in range(m)]
    cost = [sum(row[j] for row in rows) for j in range(k)] + [0] * m
    cost.append(sum(row[-1] for row in rows))
    d = simplex(rows, cost, basis, 1)
    if cost[-1] != 0:
        return None, pivots

    for i in range(m - 1, -1, -1):
        if basis[i] >= k:
            enter = next((j for j in range(k) if rows[i][j] != 0), None)
            if enter is None:
                del rows[i]
                del basis[i]
            else:
                d = pivot(rows, cost, basis, d, i, enter)

    rows = [row[:k] + [row[-1]] for row in rows]
    cost = [d * x for x in objective] + [0] * (k - nvars + 1)
    for i, bi in enumerate(basis):
        cost = eliminate(cost, rows[i], bi, d, d)
    d = simplex(rows, cost, basis, d)

    x = {bi: row[-1] for bi, row in zip(basis, rows)}
    return ([x.get(j, 0) for j in range(nvars)], -cost[-1], cost[nvars:k], d), pivots


def test_narrow_kernel_matches_wide_tableau_on_maximin_lps():
    # the slack-basis kernel takes another pivot path than the wide tableau
    # and may end at another vertex of the optimal face: t* must agree, and
    # the vertex and the multipliers must certify it, also with the origin
    # included
    rng = random.Random(1010)
    with_origin = 0
    for _ in range(600):
        n = rng.randint(2, 6)
        gens = sorted({tuple(rng.randint(0, 9) for _ in range(n)) for _ in range(rng.randint(1, 12))})
        if rng.random() < 0.15:
            gens = sorted({(0,) * n, *gens})
        with_origin += (0,) * n in gens
        rows = [((1,) * n + (0,), "=", 1)] + [(m + (-1,), ">=", 0) for m in gens]
        (_, value, _, d_ref), _ = _reference_solve_standard(rows, (0,) * n + (1,))
        u, t, lam, d = thresholdkit.lattice._solve_maximin(gens, n)
        assert F(t, d) == F(value, d_ref), gens
        assert sum(u) == d and min(u) >= 0, gens
        assert min(sum(a * b for a, b in zip(u, m)) for m in gens) == t, gens
        assert min(lam) >= 0 and sum(lam) == d, gens
        assert max(sum(q * m[i] for q, m in zip(lam, gens)) for i in range(n)) <= t, gens
    assert with_origin >= 50


def test_narrow_kernel_agrees_with_wide_tableau_on_feasibility():
    # contains_point asks the maximin LP of the shifted generators; the wide
    # tableau asks the membership system sum lam = 1, sum lam_m m <= p
    rng = random.Random(1011)
    seen = {True: 0, False: 0}
    for _ in range(3000):
        n = rng.randint(2, 5)
        pts = {tuple(rng.randint(0, 7) for _ in range(n)) for _ in range(rng.randint(1, 6))}
        diagram = from_points(pts, n)
        gens = diagram.generators
        p = tuple(F(rng.randint(0, 24), rng.randint(1, 4)) for _ in range(n))
        cons = [((1,) * len(gens), "=", 1)] + [([m[i] for m in gens], "<=", x) for i, x in enumerate(p)]
        expected = _reference_solve_standard(cons, (0,) * len(gens))[0] is not None
        assert contains_point(diagram, p) == expected, (gens, p)
        seen[expected] += 1
    assert min(seen.values()) >= 500


def _membership_system_feasible(gens, point):
    """The system sum lam = 1, lam >= 0, sum lam_m m <= point, asked as maximin.

    It is feasible iff maximin(m - point) <= 0; with the integer point
    shifted by C = max(point) the generators m - point + C are nonnegative.
    """
    c = max(0, *point)
    shifted = [tuple(mi - x + c for mi, x in zip(m, point)) for m in gens]
    feasible = maximin_lp(shifted, len(point)).value <= c
    cons = [((1,) * len(gens), "=", 1)] + [([m[i] for m in gens], "<=", x) for i, x in enumerate(point)]
    assert feasible == (_reference_solve_standard(cons, (0,) * len(gens))[0] is not None)
    return feasible


def test_lp_feasible_membership_system_point_outside():
    # (1, 1, 0) sits strictly under the diagram of x^2 + y^3 + z^6;
    # no convex combination of the generators fits under it.
    assert not _membership_system_feasible([(2, 0, 0), (0, 3, 0), (0, 0, 6)], (1, 1, 0))


def test_lp_feasible_membership_system_point_on_facet():
    # (1, 1, 1) = (1/2)(2,0,0) + (1/3)(0,3,0) + (1/6)(0,0,6) lies on the facet.
    assert _membership_system_feasible([(2, 0, 0), (0, 3, 0), (0, 0, 6)], (1, 1, 1))


_VERTICES = Path(__file__).resolve().parent / "data" / "maximin_vertices.json"


def test_maximin_vertex_is_pinned():
    # Brieskorn triples 2 <= a <= b <= c <= 12 and seeded random 2- to
    # 4-variable diagrams, with the (value, direction) the kernel returns on
    # them; a new kernel must reach the same optimal vertex
    entries = json.loads(_VERTICES.read_text(encoding="utf-8"))
    assert len(entries) == 328
    moved = []
    no_seed = 0
    for e in entries:
        gens = [tuple(g) for g in e["points"]]
        sol = maximin_lp(gens, e["n"])
        got = {"value": fraction_to_json(sol.value),
               "direction": [fraction_to_json(u) for u in sol.direction]}
        if got != {"value": e["value"], "direction": e["direction"]}:
            moved.append(f"{e['points']}: {got} != {e['value']}, {e['direction']}")
        # the ray seed is missing only where the whole optimal face is one axis
        if _ray_seed(sol.direction) is None:
            no_seed += 1
            face = {u for u, t in _basic_feasible_solutions(gens, e["n"]) if t == sol.value}
            assert face == {sol.direction}, e["points"]
    assert moved == []
    assert no_seed == 17


_CORRUPT_VERTEX = """
import thresholdkit.lattice as lattice

assert False, "this script must run under python -O"
solve = lattice._solve_maximin

def corrupted(*args):
    u, *rest = solve(*args)
    u[0] += 1  # the direction no longer sums to d
    return (u, *rest)

lattice._solve_maximin = corrupted
try:
    lattice.maximin_lp({(2, 0, 0), (0, 3, 0), (0, 0, 6)}, 3)
except AssertionError:
    print("rejected")
"""


def _run_optimized(script: str) -> str:
    """Stdout of script run under python -O on the package in src/."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_maximin_rejects_corrupt_vertex_under_optimize():
    assert _run_optimized(_CORRUPT_VERTEX) == "rejected"


# For x^2 + y^3 + z^6 the kernel returns d = 36 and lam = (6, 12, 18) for
# the sorted generators (0,0,6), (0,3,0), (2,0,0): the multipliers
# (1/6, 1/3, 1/2) give p = (1, 1, 1) = t.
_CORRUPT_DUALS = """
import thresholdkit.lattice as lattice

assert False, "this script must run under python -O"
solve = lattice._solve_maximin

def shifted(shift):
    def corrupted(*args):
        u, t, lam, d = solve(*args)
        return u, t, [q + s for q, s in zip(lam, shift)], d
    return corrupted

# no shift; one unit more on lam_0 (sum 37/36); one unit moved from lam_2 to
# lam_0 (sum 1 and lam >= 0, but p_2 = 42/36 > t)
for shift in [(0, 0, 0), (1, 0, 0), (1, 0, -1)]:
    lattice._solve_maximin = shifted(shift)
    try:
        lattice.maximin_lp({(2, 0, 0), (0, 3, 0), (0, 0, 6)}, 3)
        print("accepted")
    except AssertionError:
        print("rejected")
"""


def test_maximin_rejects_corrupt_dual_certificate_under_optimize():
    assert _run_optimized(_CORRUPT_DUALS).split() == ["accepted", "rejected", "rejected"]


_INEXACT_DIVISION = """
import thresholdkit.lattice as lattice

assert False, "this script must run under python -O"
# pivot 2 over denominator 3: (2*[1, 1] - 1*[2, 1]) / 3 = [0, 1/3] is not
# integral, so the update must raise rather than round
try:
    lattice._eliminate([1, 1], [2, 1], 0, 2, 3)
except AssertionError:
    print("rejected")
"""


def test_fraction_free_update_rejects_inexact_division_under_optimize():
    assert _run_optimized(_INEXACT_DIVISION) == "rejected"


def test_no_assert_statement_in_package():
    # invariants must be explicit raises, which python -O keeps
    package = Path(__file__).resolve().parents[1] / "src" / "thresholdkit"
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_package_exports_every_module_all():
    for module in ("lattice", "newton", "engine", "brieskorn", "blowup"):
        mod = importlib.import_module(f"thresholdkit.{module}")
        for name in mod.__all__:
            assert getattr(thresholdkit, name) is getattr(mod, name), f"{module}.{name}"
