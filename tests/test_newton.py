"""Diagram construction, weight evaluation, membership, and inclusion."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import thresholdkit.newton as newton_module
from thresholdkit import (
    DimensionMismatchError,
    NewtonDiagram,
    SupportSet,
    contains_point,
    diagram_from_json,
    diagram_to_json,
    from_points,
    from_support,
    includes,
    parse_polynomial,
    weight_of,
)

F = Fraction


def diagram(text):
    return from_support(parse_polynomial(text))


# ---------------------------------------------------------------------------
# from_support
# ---------------------------------------------------------------------------

def test_from_support_drops_dominated_points():
    d = from_points([(2, 0, 0), (2, 1, 0), (0, 3, 0)], 3)
    assert d.generators == ((0, 3, 0), (2, 0, 0))


def test_from_support_keeps_minimal_set():
    d = diagram("x^3+y^7+z^11")
    assert d.generators == ((0, 0, 11), (0, 7, 0), (3, 0, 0))


def test_from_support_singleton():
    d = from_points([(1, 1), (1, 1)], 2)
    assert d.generators == ((1, 1),)


def test_from_support_idempotent():
    d = diagram("x^2+y^3+z^6")
    assert from_points(d.generators, 3) == d


def test_direct_construction_reduces_unreduced():
    gens = ((2, 0, 0), (2, 1, 0))
    assert NewtonDiagram(dimension=3, generators=gens).generators == ((2, 0, 0),)
    assert NewtonDiagram(dimension=3, generators=gens) == from_points(gens, 3)


def _reference_minimal_elements(points):
    """The all-pairs Dickson reduction: the reference for the one-pass one."""
    pts = sorted(set(points))
    return tuple(p for p in pts
                 if not any(q != p and all(x >= y for x, y in zip(p, q)) for q in pts))


def test_direct_construction_validates_like_support_set():
    # the supported range is 2 through 8; in dimension 1 no weight is admissible
    for n, gens in [(1, ((3,),)), (9, ((1,) * 9,))]:
        with pytest.raises(DimensionMismatchError):
            NewtonDiagram(dimension=n, generators=gens)
    with pytest.raises(ValueError, match="diagram must have at least one generator"):
        NewtonDiagram(3, ())
    # entries are checked before the generators are sorted
    for bad in [(True, 0, 0), ("a", 0, 0)]:
        with pytest.raises(ValueError):
            NewtonDiagram(dimension=3, generators=(bad, (0, 2, 0)))
    # a repeated generator is dropped like a dominated one
    for gens in [((2, 0, 0), (2, 0, 0), (0, 3, 0), (0, 0, 5)), ((2, 0, 0), (2, 1, 0))]:
        assert NewtonDiagram(dimension=3, generators=gens).generators == _reference_minimal_elements(gens)
        assert NewtonDiagram(dimension=3, generators=gens) == from_points(gens, 3)


def test_minimal_elements_matches_all_pairs_reference():
    rng = random.Random(1012)
    dropped = 0
    for _ in range(2000):
        n = rng.randint(2, 8)
        pts = [tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(rng.randint(1, 14))]
        # a repeat and a dominating shift of drawn points
        pts.append(rng.choice(pts))
        base = rng.choice(pts)
        pts.append(tuple(x + rng.randint(0, 2) for x in base))
        rng.shuffle(pts)
        got = newton_module._minimal_elements(pts)
        assert got == _reference_minimal_elements(pts), pts
        dropped += len(set(pts)) - len(got)
    assert dropped >= 2000


def test_direct_construction_keeps_the_reduction():
    # NewtonDiagram keeps the one-pass reduction of any generator tuple, the
    # same diagram from_points builds
    rng = random.Random(1013)
    reduced = 0
    for _ in range(300):
        n = rng.randint(2, 5)
        gens = tuple(tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(1, 6)))
        d = NewtonDiagram(dimension=n, generators=gens)
        assert d.generators == _reference_minimal_elements(gens)
        assert d == from_points(gens, n)
        reduced += d.generators != tuple(sorted(gens))
    assert reduced >= 100, reduced


@st.composite
def support_sets(draw, dimension=3):
    pts = draw(st.sets(
        st.tuples(*[st.integers(0, 8)] * dimension), min_size=1, max_size=7,
    ))
    return SupportSet(dimension=dimension, points=frozenset(pts))


@given(support_sets(), st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)))
@settings(max_examples=80)
def test_reduction_preserves_weight(support, w):
    d = from_support(support)
    expected = min(sum(wi * mi for wi, mi in zip(w, m)) for m in support.points)
    assert weight_of(d, w) == expected


# ---------------------------------------------------------------------------
# weight_of
# ---------------------------------------------------------------------------

def test_weight_of_realizing_blowup():
    assert weight_of(diagram("x^3+y^7+z^11"), (2, 1, 1)) == 6


def test_weight_of_comparison_singularity():
    assert weight_of(diagram("x^2+y^3+z^6"), (3, 2, 1)) == 6


def test_weight_of_orthogonal_weight():
    assert weight_of(from_points([(0, 0, 5)], 3), (1, 1, 0)) == 0


def test_weight_of_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        weight_of(diagram("x^2+y^2"), (1, 1, 1, 1))


def test_weight_of_rejects_bad_entry():
    for w in [(-1, 1, 1), (1.0, 1, 1), (True, 1, 1)]:
        with pytest.raises(ValueError):
            weight_of(diagram("x^2+y^3+z^5"), w)


# ---------------------------------------------------------------------------
# contains_point
# ---------------------------------------------------------------------------

def test_contains_point_below_facet():
    d = from_points([(2, 0, 0), (0, 3, 0), (0, 0, 6)], 3)
    assert not contains_point(d, (1, 1, 0))


def test_contains_point_on_facet():
    # (1,1,1) = (1/2)(2,0,0) + (1/3)(0,3,0) + (1/6)(0,0,6): on the boundary,
    # hence inside the closed diagram.
    d = from_points([(2, 0, 0), (0, 3, 0), (0, 0, 6)], 3)
    assert contains_point(d, (1, 1, 1))


def test_contains_point_generators_belong():
    d = diagram("x^2 + x*y^3 + z^4 + y^5")
    for g in d.generators:
        assert contains_point(d, g)


def test_contains_point_domination():
    d = from_points([(2, 0, 0)], 3)
    assert contains_point(d, (5, 5, 5))


def test_contains_point_rational_coordinates():
    d = from_points([(2, 0, 0), (0, 3, 0), (0, 0, 6)], 3)
    assert contains_point(d, (F(1, 2), F(5, 2), F(1, 2)))
    assert not contains_point(d, (F(1, 2), F(3, 2), F(1, 2)))


@given(
    support_sets(),
    st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
)
@settings(max_examples=60, deadline=None)
def test_contains_point_octant_closure(support, delta):
    d = from_support(support)
    for g in d.generators:
        shifted = tuple(x + dx for x, dx in zip(g, delta))
        assert contains_point(d, shifted)


@given(
    st.tuples(st.integers(2, 7), st.integers(2, 7), st.integers(2, 7)),
    st.tuples(st.fractions(0, 8), st.fractions(0, 8), st.fractions(0, 8)),
)
@settings(max_examples=80, deadline=None)
def test_contains_point_matches_halfspace_on_simplex_diagrams(exponents, point):
    """For a diagram with one pure power per axis the region is exactly the
    half-space sum(p_i / a_i) >= 1 inside the octant."""
    a, b, c = exponents
    d = from_points([(a, 0, 0), (0, b, 0), (0, 0, c)], 3)
    p = tuple(abs(x) for x in point)
    expected = F(p[0], a) + F(p[1], b) + F(p[2], c) >= 1
    assert contains_point(d, p) == expected


def test_contains_point_rejects_float_coordinates():
    # 0.1 + 0.2 + 0.7 = 1 puts the point on the diagram, but binary floats
    # say otherwise; only ints and Fractions are exact
    d = from_points([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
    with pytest.raises(ValueError):
        contains_point(d, (0.1, 0.2, 0.7))
    assert contains_point(d, (F(1, 10), F(2, 10), F(7, 10)))


def test_contains_point_accepts_only_int_and_fraction_coordinates():
    # a float, bool or string coordinate would let rounding or coercion
    # decide an exact question
    d = from_points([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
    for bad in [(0.5, 1, 0), (1, 1, 1.0), (True, 1, 0), (1, 1, "2")]:
        with pytest.raises(ValueError, match="not an int or Fraction"):
            contains_point(d, bad)
    assert contains_point(d, (F(1, 10), F(2, 10), F(7, 10)))
    assert not contains_point(d, (F(1, 10), F(2, 10), F(2, 3)))


def test_contains_point_dominates_both_generators():
    d = from_points([(2, 0), (0, 3)], 2)
    assert contains_point(d, (5, 5))
    assert contains_point(d, (1, F(3, 2)))
    assert not contains_point(d, (1, F(7, 5)))


def test_contains_point_skips_the_dominance_pass(monkeypatch):
    # the shifted generators are a scaled translate of reduced, sorted ones,
    # so membership hands them to the LP without _minimal_elements
    rng = random.Random(2020)
    cases = []
    for _ in range(200):
        n = rng.randint(2, 4)
        pts = [tuple(rng.randint(0, 7) for _ in range(n)) for _ in range(rng.randint(1, 6))]
        point = tuple(F(rng.randint(0, 30), rng.randint(1, 6)) for _ in range(n))
        cases.append((from_points(pts + [(1,) * n], n), point,
                      from_points([tuple(rng.randint(0, 7) for _ in range(n))], n)))
    real = newton_module._minimal_elements
    calls = []
    monkeypatch.setattr(newton_module, "_minimal_elements",
                        lambda points: calls.append(1) or real(points))
    for d, point, small in cases:
        contains_point(d, point)
        includes(d, small)
    assert calls == []
    NewtonDiagram(2, [(1, 0)])
    assert calls == [1]


def test_contains_point_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        contains_point(from_points([(2, 0), (0, 2)], 2), (1, 1, 1))


# ---------------------------------------------------------------------------
# includes
# ---------------------------------------------------------------------------

def test_includes_reflexive():
    d = diagram("x^2 + y^3 + x*z^4")
    assert includes(d, d)


def test_includes_incomparable_comparison_diagrams():
    d244 = diagram("x^2+y^4+z^4")
    d236 = diagram("x^2+y^3+z^6")
    assert not includes(d244, d236)
    assert not includes(d236, d244)


def test_includes_two_dim_domination():
    big = from_points([(1, 0), (0, 1)], 2)
    small = from_points([(2, 2)], 2)
    assert includes(big, small)


def test_includes_diagrams_above_plane():
    """Anything above the plane 2a + b + c = 4 lands inside x^2+y^4+z^4."""
    rng = random.Random(7)
    d244 = diagram("x^2+y^4+z^4")
    for _ in range(25):
        pts = []
        while len(pts) < 4:
            p = (rng.randint(0, 6), rng.randint(0, 6), rng.randint(0, 6))
            if 2 * p[0] + p[1] + p[2] >= 4:
                pts.append(p)
        assert includes(d244, from_points(pts, 3))


def test_includes_transitive_on_shift_chains():
    rng = random.Random(11)
    for _ in range(20):
        base = [(rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 4)) for _ in range(4)]
        mid = [tuple(x + rng.randint(0, 2) for x in p) for p in base]
        top = [tuple(x + rng.randint(0, 2) for x in p) for p in mid]
        d0, d1, d2 = (from_points(ps, 3) for ps in (base, mid, top))
        assert includes(d0, d1) and includes(d1, d2)
        assert includes(d0, d2)


def test_includes_mutual_inclusion_is_geometric_equality():
    # Dickson-reduced generator sets can differ while spanning the same
    # region: (1,1) is a redundant midpoint of (2,0) and (0,2).
    d_a = from_points([(2, 0), (0, 2), (1, 1)], 2)
    d_b = from_points([(2, 0), (0, 2)], 2)
    assert includes(d_a, d_b) and includes(d_b, d_a)
    for w in [(1, 1), (2, 1), (1, 3), (5, 2), (0, 1), (1, 0)]:
        assert weight_of(d_a, w) == weight_of(d_b, w)


def test_inclusion_orders_weights():
    rng = random.Random(23)
    for _ in range(20):
        outer_pts = [(rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 5))
                     for _ in range(4)]
        inner_pts = [tuple(x + rng.randint(0, 3) for x in p) for p in outer_pts]
        big = from_points(outer_pts, 3)
        small = from_points(inner_pts, 3)
        assert includes(big, small)
        for _ in range(5):
            w = (rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 4))
            assert weight_of(small, w) >= weight_of(big, w)


def test_includes_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        includes(from_points([(2, 0), (0, 2)], 2), diagram("x^2+y^2+z^2"))


def test_dickson_chain_stabilizes():
    """Adding points from a fixed finite box can strictly enlarge a diagram
    only finitely many times."""
    rng = random.Random(5)
    box = [(i, j, k) for i in range(4) for j in range(4) for k in range(4)
           if (i, j, k) != (0, 0, 0)]
    current = from_points([(3, 3, 3)], 3)
    strict_steps = 0
    order = box[:]
    rng.shuffle(order)
    for p in order:
        enlarged = from_points(set(current.generators) | {p}, 3)
        if not includes(current, enlarged):
            strict_steps += 1
        current = enlarged
    assert strict_steps <= len(box)
    # the diagram of the full box is the stable endpoint
    for p in box:
        again = from_points(set(current.generators) | {p}, 3)
        assert includes(current, again) and includes(again, current)


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------

def test_diagram_json_round_trip():
    d = diagram("x^3+y^7+z^11")
    obj = diagram_to_json(d)
    assert obj == {"n": 3, "points": [[0, 0, 11], [0, 7, 0], [3, 0, 0]]}
    assert diagram_from_json(obj) == d


def test_diagram_json_normalizes_on_load():
    d = diagram_from_json({"n": 3, "points": [[2, 0, 0], [2, 1, 0], [0, 3, 0]]})
    assert d.generators == ((0, 3, 0), (2, 0, 0))


def test_diagram_json_accepts_string():
    d = diagram_from_json('{"n": 2, "points": [[1, 0], [0, 1]]}')
    assert d.generators == ((0, 1), (1, 0))


def test_diagram_json_nested_too_deeply_is_a_value_error():
    # the decoder's RecursionError escaped
    with pytest.raises(ValueError, match="^diagram JSON is nested too deeply$"):
        diagram_from_json("[" * 100000 + "]" * 100000)


def test_diagram_json_rejects_bad_shape():
    for obj in [
        {"points": [[1, 0]]},
        {"n": 3, "points": 5},
        {"n": 3, "points": [1, 2]},
        {"n": None, "points": [[1, 0]]},
        {"n": 3, "points": [[True, 0, 0], [0, 2, 0], [0, 0, 3]]},
        json.dumps(json.dumps({"n": 2, "points": [[1, 0], [0, 1]]})),  # text is decoded once
    ]:
        with pytest.raises(ValueError):
            diagram_from_json(obj)
