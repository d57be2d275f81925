"""Threshold search: worked singularities, oracles, and search invariants."""

import copy
import dataclasses
import gc
import json
import math
import pickle
import random
import time
import tracemalloc
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import thresholdkit.engine as engine_module
import thresholdkit.newton as newton_module
from thresholdkit import (
    INFINITY,
    BrieskornTriple,
    InadmissibleWeightError,
    SearchBoundExceededError,
    UnitAtOriginError,
    certify,
    ct_brieskorn3,
    ct_bruteforce,
    ct_diagram,
    diagram_to_json,
    from_points,
    from_support,
    h_value,
    includes,
    lct_diagram,
    maximin_lp,
    parse_polynomial,
    weight_of,
)

F = Fraction


def diagram(text):
    return from_support(parse_polynomial(text))


def random_convenient_diagram(rng, n=3, max_power=10, extra_points=3):
    """A diagram with one pure power on every axis; the threshold search is
    guaranteed to terminate on these."""
    pts = []
    for i in range(n):
        p = [0] * n
        p[i] = rng.randint(2, max_power)
        pts.append(tuple(p))
    for _ in range(rng.randint(0, extra_points)):
        pts.append(tuple(rng.randint(0, max_power) for _ in range(n)))
    if all(sum(p) == 0 for p in pts):  # pragma: no cover - axis powers prevent this
        pts.append((1,) * n)
    pts = [p for p in pts if sum(p) > 0]
    return from_points(pts, n)


# ---------------------------------------------------------------------------
# h_value
# ---------------------------------------------------------------------------

def test_h_value_realizing_weight():
    assert h_value(diagram("x^3+y^7+z^11"), (2, 1, 1)) == F(1, 2)


def test_h_value_cone_point():
    assert h_value(diagram("x^3+y^3+z^3"), (1, 1, 1)) == F(2, 3)


def test_h_value_infinite_on_orthogonal_weight():
    assert h_value(from_points([(0, 0, 5)], 3), (1, 1, 0)) is INFINITY


def test_h_value_rejects_inadmissible():
    d = diagram("x^2+y^2+z^2")
    for w in [(0, 0, 0), (1, 0, 0), (2, 4, 6), (2, 0, 0)]:
        with pytest.raises(InadmissibleWeightError):
            h_value(d, w)


def test_infinity_ordering():
    assert INFINITY > F(10**9)
    assert not (INFINITY < F(1))
    assert INFINITY == INFINITY
    assert INFINITY != F(1)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(INFINITY, protocol)) is INFINITY
    assert copy.copy(INFINITY) is INFINITY
    assert copy.deepcopy(INFINITY) is INFINITY
    assert INFINITY <= INFINITY
    assert INFINITY >= INFINITY
    assert not (INFINITY > INFINITY)
    assert not (INFINITY <= F(10**9))
    assert INFINITY >= F(10**9)
    assert INFINITY > F(0)
    assert repr(INFINITY) == "+inf"


# ---------------------------------------------------------------------------
# ct_diagram on known singularities
# ---------------------------------------------------------------------------

def test_ct_first_worked_example():
    report = ct_diagram(diagram("x^3+y^7+z^11"))
    assert report.value == F(1, 2)
    assert (2, 1, 1) in report.witnesses
    assert report.relaxation == F(131, 231)
    assert report.search_bound == 9
    assert report.status == "complete"
    assert not report.clamped


def test_ct_second_worked_example():
    report = ct_diagram(diagram("x^5+y^6+z^29"))
    assert report.value == F(3, 8)
    assert (5, 4, 1) in report.witnesses


def test_ct_third_worked_example():
    report = ct_diagram(diagram("x^12+y^18+z^35"))
    assert report.value == F(1, 7)
    assert (3, 2, 1) in report.witnesses


def test_ct_comparison_singularities():
    assert ct_diagram(diagram("x^3+y^3+z^3")).value == F(2, 3)
    assert ct_diagram(diagram("x^2+y^4+z^4")).value == F(3, 4)
    assert ct_diagram(diagram("x^2+y^3+z^6")).value == F(5, 6)


def test_ct_non_isolated_curve_case():
    report = ct_diagram(diagram("x^2+y^3"))
    assert report.value == F(1, 2)
    assert report.witnesses == ((1, 1, 0),)


def test_ct_du_val_clamps_nothing_but_reaches_one():
    report = ct_diagram(diagram("x^2+y^2+z^2"))
    assert report.value == F(1)
    assert not report.clamped
    assert (1, 1, 1) in report.witnesses


def test_ct_smooth_surface_clamped():
    # x + y^2 + z^2 is smooth at the origin: every admissible weight gives
    # a ratio above 1, so the raw minimum is clamped.
    report = ct_diagram(diagram("x + y^2 + z^2"))
    assert report.value == F(1)
    assert report.clamped
    assert report.witnesses == ()


def test_ct_rejects_unit():
    with pytest.raises(UnitAtOriginError):
        ct_diagram(diagram("1 + x"))


def test_ct_two_dimensional_cusp():
    # blowing up the origin of the plane gives discrepancy 1 over
    # multiplicity 2; the relaxation is the familiar 5/6
    d = from_points([(2, 0), (0, 3)], 2)
    report = ct_diagram(d)
    assert report.value == F(1, 2)
    assert report.witnesses == ((1, 1),)
    assert report.relaxation == F(5, 6)


def test_ct_witnesses_sorted_and_unique():
    report = ct_diagram(diagram("x^2+y^3+z^7"))
    assert list(report.witnesses) == sorted(set(report.witnesses))


def test_ct_bound_exceeded_is_partial_but_safe():
    # a fat hyperplane component: the infimum equals the relaxation and is
    # attained at arbitrarily high levels, so the search cannot close
    d = from_points([(5, 0, 0)], 3)
    report = ct_diagram(d, max_bound=8)
    assert report.status == "bound-exceeded"
    assert report.search_bound == 8
    assert report.value == F(1, 5)  # correct upper bound found on the way


def test_ct_max_bound_validation():
    # a float cap is not truncated and a bool is not taken for 0 or 1
    for cap in (1, 2.9, True):
        with pytest.raises(ValueError, match="max_bound must be an integer >= 2"):
            ct_diagram(diagram("x^2+y^2+z^2"), max_bound=cap)
    for cap in (1, 9.0, True):
        with pytest.raises(ValueError, match="cap must be an integer >= 2"):
            ct_bruteforce(diagram("x^2+y^3+z^5"), cap)


def test_ct_permutation_of_coordinates():
    base = ct_diagram(diagram("x^2+y^3+z^7"))
    swapped = ct_diagram(diagram("x^7+y^2+z^3"))
    assert swapped.value == base.value
    expected = sorted(tuple((w[2], w[0], w[1])) for w in base.witnesses)
    assert list(swapped.witnesses) == expected


# ---------------------------------------------------------------------------
# lct_diagram
# ---------------------------------------------------------------------------

def test_lct_worked_example():
    assert lct_diagram(diagram("x^3+y^7+z^11")) == F(131, 231)


def test_lct_boundary_clamp():
    assert lct_diagram(diagram("x^2+y^3+z^6")) == F(1)


def test_lct_two_dimensional():
    assert lct_diagram(from_points([(2, 0), (0, 2)], 2)) == F(1)


def test_lct_rejects_unit():
    with pytest.raises(UnitAtOriginError):
        lct_diagram(from_points([(0, 0, 0), (2, 0, 0)], 3))


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------

def test_bruteforce_x2y4z4():
    report = ct_bruteforce(diagram("x^2+y^4+z^4"), 25)
    assert report.value == F(3, 4)
    assert report.witnesses == ((2, 1, 1),)
    assert report.search_bound == 25


def test_bruteforce_x2y3z6():
    report = ct_bruteforce(diagram("x^2+y^3+z^6"), 25)
    assert report.value == F(5, 6)
    assert report.witnesses == ((3, 2, 1),)


def test_bruteforce_matches_engine_on_brieskorn_sample():
    rng = random.Random(2024)
    for _ in range(8):
        a = rng.randint(2, 9)
        b = rng.randint(a, 11)
        c = rng.randint(b, 13)
        d = from_points([(a, 0, 0), (0, b, 0), (0, 0, c)], 3)
        engine = ct_diagram(d)
        assert engine.search_bound <= 25
        oracle = ct_bruteforce(d, 25)
        assert oracle.value == engine.value
        assert oracle.witnesses == engine.witnesses


def test_bruteforce_matches_engine_on_random_diagrams():
    rng = random.Random(99)
    checked = 0
    while checked < 12:
        d = random_convenient_diagram(rng, max_power=8)
        engine = ct_diagram(d)
        if engine.search_bound > 25:
            continue
        checked += 1
        oracle = ct_bruteforce(d, 25)
        assert oracle.value == engine.value
        assert oracle.witnesses == engine.witnesses


def _reference_bruteforce(d, cap):
    """The box oracle as one plain loop over every vector, with its own
    record of the minimum (not _Best, which the oracle uses): the reference
    that ct_bruteforce's interval cuts must reproduce, nodes included."""
    n = d.dimension
    gens = d.generators
    best_num = best_den = 0  # best_den == 0: no value yet
    witnesses = []
    nodes = 0
    box = range(cap + 1)
    lasts = tuple(m[-1] for m in gens)
    for head in product(box, repeat=n - 1):
        g_head = math.gcd(*head)
        s_head = sum(head)
        partial = tuple(sum(wi * mi for wi, mi in zip(head, m)) for m in gens)
        for last in box:
            if s_head + last < 2 or math.gcd(g_head, last) != 1:
                continue
            nodes += 1
            wf = min(p + t * last for p, t in zip(partial, lasts))
            if wf == 0:
                continue
            num = s_head + last - 1
            if best_den == 0 or num * best_den < best_num * wf:
                best_num, best_den, witnesses = num, wf, [head + (last,)]
            elif num * best_den == best_num * wf:
                witnesses.append(head + (last,))
    raw = F(best_num, best_den)
    clamped = raw > 1
    return engine_module.ThresholdReport(
        value=F(1) if clamped else raw, clamped=clamped,
        witnesses=() if clamped else tuple(sorted(witnesses)),
        relaxation=1 / maximin_lp(gens, n).value, search_bound=cap, nodes=nodes,
        status="complete")


def _sample_diagram(rng, n, k):
    """The diagram of k random points in [0, 6]^n; each point is zero on
    the last two coordinates with probability 1/5."""
    pts = set()
    while len(pts) < k:
        p = tuple(rng.randint(0, 6) for _ in range(n))
        if rng.random() < 0.2:
            p = p[:-2] + (0, 0)
        if any(p):
            pts.add(p)
    return from_points(sorted(pts), n)


@pytest.mark.parametrize("seed", [4096, 20, 808])
def test_bruteforce_matches_reference_loop_on_random_diagrams(seed):
    # independent samples of 120 diagrams each
    rng = random.Random(seed)
    single = flat = non_convenient = 0
    for i in range(120):
        n = 2 + i % 4
        cap = rng.randint(2, {2: 12, 3: 12, 4: 9, 5: 6}[n])
        d = _sample_diagram(rng, n, rng.randint(1, 6))
        single += len(d.generators) == 1
        flat += any(m[-1] == m[-2] == 0 for m in d.generators)
        non_convenient += not _convenient(d)
        assert ct_bruteforce(d, cap) == _reference_bruteforce(d, cap), (d, cap)
    assert single >= 5 and flat >= 20 and non_convenient >= 40


_BIG = 10**40


@pytest.mark.parametrize("pts, caps", [
    # 40-digit exponents, so cut coefficients of well over 100 bits; the
    # small generators decide the value in the first and third, the huge
    # ones alone in the second and fourth
    ([(_BIG, 0), (0, 3), (2, 2)], (30,)),
    ([(_BIG + 7, 1), (3 * _BIG, 2 * _BIG + 1)], (20,)),
    ([(_BIG, 0, 0), (0, 2, 0), (0, 0, _BIG + 3), (1, 1, 1)], (9,)),
    ([(_BIG, _BIG + 1, 0), (0, 3 * _BIG, _BIG), (2 * _BIG, 0, 5 * _BIG)], (8,)),
    # single generators
    ([(5, 0)], (2, 17, 60)),
    ([(0, 4)], (2, 17, 60)),
    ([(2, 3)], (2, 17, 60)),
    ([(5, 0, 0)], (2, 11, 20)),
    ([(0, 0, 4)], (2, 11, 20)),
    ([(2, 3, 1)], (2, 11, 20)),
    ([(0, 1, 0, 2)], (2, 7)),
    # two variables at cap 200: one head, up to 201 values of y
    ([(2, 0), (0, 3)], (200,)),
    ([(7, 0), (1, 2), (0, 9)], (200,)),
    ([(3, 1), (0, 5), (4, 0), (1, 3)], (200,)),
])
def test_bruteforce_matches_reference_loop_on_edge_cases(pts, caps):
    d = from_points(pts, len(pts[0]))
    for cap in caps:
        assert ct_bruteforce(d, cap) == _reference_bruteforce(d, cap), cap


def test_bruteforce_matches_reference_loop_at_large_3_variable_caps():
    # 3 variables at caps 64 to 80: many heads, each cut on a long row of y
    rng = random.Random(1464)
    for cap in (64, 69, 75, 80):
        d = _sample_diagram(rng, 3, rng.randint(2, 5))
        assert ct_bruteforce(d, cap) == _reference_bruteforce(d, cap), (d, cap)


def test_narrow_matches_a_filter_over_the_range():
    # a and c of both signs and zero, exact multiples (c = 3 * a) and near
    # misses, empty ranges and cuts, and bounds near +-10^40
    mags = [0, 1, 2, 3, 5, 6, 7, 12, _BIG, _BIG + 1, 3 * _BIG - 1, 3 * _BIG, 3 * _BIG + 1]
    values = sorted({s * v for v in mags for s in (1, -1)})
    ranges = [(0, 12), (-7, 7), (3, 2), (5, 5), (-12, -3), (_BIG - 4, _BIG + 4),
              (-_BIG - 4, -_BIG + 4)]
    empty = 0
    for (lo, hi), a, c in product(ranges, values, values):
        want = [x for x in range(lo, hi + 1) if a * x >= c]
        got_lo, got_hi = engine_module._narrow(lo, hi, a, c)
        assert list(range(got_lo, got_hi + 1)) == want, (lo, hi, a, c)
        empty += not want
    assert 0 < empty < len(ranges) * len(values) ** 2


def test_bruteforce_matches_reference_loop_on_brieskorn_triples():
    triples = [(a, b, c) for a in range(2, 31) for b in range(a, 31) for c in range(b, 31)]
    for a, b, c in random.Random(25).sample(triples, 100):
        d = from_points([(a, 0, 0), (0, b, 0), (0, 0, c)], 3)
        assert ct_bruteforce(d, 25) == _reference_bruteforce(d, 25), (a, b, c)


def test_bruteforce_memory_does_not_grow_with_the_box():
    # 801^2 vectors; one list of them, with its ints, takes tens of MB
    d = from_points([(2, 0), (0, 3)], 2)
    tracemalloc.start()
    try:
        report = ct_bruteforce(d, 800)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report == _reference_bruteforce(d, 800)
    # the sweep holds one head and its cut bounds, never a set of vectors;
    # the peak, near 14 KB, is mostly the Moebius table of 801 entries
    assert peak < 40 * 801


def test_bruteforce_generic_dimension_path():
    d = from_points([(2, 0, 0, 0), (0, 3, 0, 0), (0, 0, 4, 0), (0, 0, 0, 5)], 4)
    oracle = ct_bruteforce(d, 8)
    engine = ct_diagram(d)
    assert engine.search_bound <= 8
    assert oracle.value == engine.value
    assert oracle.witnesses == engine.witnesses


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def test_certify_comparison_singularity():
    cert = certify(diagram("x^2+y^3+z^6"), F(5, 6))
    assert cert.ok
    assert cert.witness == (3, 2, 1)


def test_certify_accepts_only_int_and_fraction_candidates():
    # Fraction(5/6) as a float is not 5/6, and True is not the threshold 1
    d = diagram("x^2+y^3+z^7")
    assert certify(d, F(5, 6)).ok
    for bad in (5 / 6, True, "5/6"):
        with pytest.raises(ValueError, match="must be an int or Fraction"):
            certify(d, bad)
    assert not certify(d, 1).ok


def test_certify_first_example():
    cert = certify(diagram("x^3+y^7+z^11"), F(1, 2))
    assert cert.ok
    assert cert.witness == (2, 1, 1)


def test_certify_rejects_too_large_candidate():
    cert = certify(diagram("x^3+y^7+z^11"), F(2, 3))
    assert not cert.ok
    assert cert.witness is None
    # the minimizing weight is the violating divisor
    assert (2, 1, 1) in cert.report.witnesses
    assert cert.report.value < F(2, 3)


def test_certify_rejects_clamped_diagram():
    cert = certify(diagram("x + y^2 + z^2"), F(1))
    assert not cert.ok


def test_certify_validates_candidate_range():
    with pytest.raises(ValueError):
        certify(diagram("x^2+y^2+z^2"), F(3, 2))


def test_certify_propagates_bound_exceeded():
    with pytest.raises(SearchBoundExceededError):
        certify(from_points([(5, 0, 0)], 3), F(1, 5), max_bound=8)


# ---------------------------------------------------------------------------
# search invariants
# ---------------------------------------------------------------------------

@given(
    st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)),
    st.integers(2, 5),
)
@settings(max_examples=60)
def test_ray_monotonicity(w, k):
    """Scaling an admissible weight up a ray strictly increases the ratio."""
    d = diagram("x^2+y^3+z^7")
    try:
        h = h_value(d, w)
    except InadmissibleWeightError:
        return
    if h is INFINITY:
        return
    wf = weight_of(d, w)
    scaled = F(k * sum(w) - 1, k * wf)
    assert scaled > h


def test_relaxation_sandwich_on_random_diagrams():
    rng = random.Random(17)
    for _ in range(25):
        d = random_convenient_diagram(rng, max_power=7)
        rstar = 1 / maximin_lp(d.generators, 3).value
        for _ in range(20):
            w = tuple(rng.randint(0, 6) for _ in range(3))
            try:
                h = h_value(d, w)
            except InadmissibleWeightError:
                continue
            level = sum(w)
            assert h >= rstar * (1 - F(1, level))


def test_ct_below_lct_on_random_diagrams():
    rng = random.Random(31)
    for _ in range(25):
        d = random_convenient_diagram(rng, max_power=8)
        assert ct_diagram(d).value <= lct_diagram(d)


def test_monotone_under_inclusion_random_pairs():
    rng = random.Random(41)
    for _ in range(30):
        big = random_convenient_diagram(rng, max_power=7)
        shifted = [tuple(x + rng.randint(0, 2) for x in g) for g in big.generators]
        axis_powers = []
        for i in range(3):
            p = [0] * 3
            p[i] = max(g[i] for g in big.generators) + rng.randint(1, 2)
            axis_powers.append(tuple(p))
        small = from_points(shifted + axis_powers, 3)
        assert includes(big, small)
        assert ct_diagram(small).value <= ct_diagram(big).value


@pytest.mark.parametrize("n, seed", [(4, 43), (5, 53), (6, 63), (7, 73)])
def test_monotone_under_inclusion_in_4_to_7_variables(n, seed):
    # axis powers n+1 to n+3 keep most values below 1 and most level bounds
    # within the cap (axis powers 2 to 7 give ct = 1 on nearly every 6- and
    # 7-variable pair); a pair that ends bound-exceeded is skipped.  Compared
    # pairs: 19, 19, 14 and 10, all strict
    rng = random.Random(seed)
    strict = 0
    for _ in range(20):
        axes = [tuple(rng.randint(n + 1, n + 3) if j == i else 0 for j in range(n))
                for i in range(n)]
        pts = [tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(rng.randint(0, n))]
        big = from_points(axes + [p for p in pts if any(p)], n)
        shifted = [tuple(x + rng.randint(0, 2) for x in g) for g in big.generators]
        grown = [tuple(x + rng.randint(1, 2) if x else 0 for x in a) for a in axes]
        small = from_points(shifted + grown, n)
        assert includes(big, small)
        low, high = (ct_diagram(d, max_bound=40) for d in (small, big))
        if "bound-exceeded" in (low.status, high.status):
            continue
        assert low.value <= high.value, (big, small)
        strict += low.value < high.value
    assert strict >= 8


def test_engine_agrees_with_closed_form_sample():
    rng = random.Random(53)
    for _ in range(15):
        a = rng.randint(2, 14)
        b = rng.randint(a, 16)
        c = rng.randint(b, 20)
        d = from_points([(a, 0, 0), (0, b, 0), (0, 0, c)], 3)
        assert ct_diagram(d).value == ct_brieskorn3(BrieskornTriple(a, b, c)).value


def test_report_json_shape():
    report = ct_diagram(diagram("x^3+y^7+z^11"))
    obj = report.to_json_dict()
    assert list(obj) == ["value", "clamped", "witnesses", "relaxation",
                         "search_bound", "nodes", "status"]
    assert obj["value"] == {"num": 1, "den": 2}
    assert obj["witnesses"] == [[2, 1, 1]]
    assert obj["relaxation"] == {"num": 131, "den": 231}
    assert obj["status"] == "complete"


def test_determinism_across_runs():
    d = diagram("x^4+y^5+x*z^6+y*z^3")
    first = ct_diagram(d)
    second = ct_diagram(d)
    assert first == second


# ---------------------------------------------------------------------------
# the cut inside each level
# ---------------------------------------------------------------------------

def _mixed_diagram(rng, n):
    """Pure powers on some axes (each kept with probability 0.8) and up to
    three mixed monomials, so that many diagrams are not convenient."""
    top = 30 if n == 2 else 7
    pts = [tuple(rng.randint(2, top) if j == i else 0 for j in range(n))
           for i in range(n) if rng.random() < 0.8]
    pts += [tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(rng.randint(0, 3))]
    pts = [p for p in pts if any(p)] or [(1,) * n]
    return from_points(pts, n)


def _convenient(d):
    return all(any(sum(g) == g[i] for g in d.generators) for i in range(d.dimension))


@pytest.mark.parametrize("n, box, seed", [(2, 60, 5), (3, 16, 7), (4, 10, 6)])
def test_bruteforce_matches_engine_on_mixed_diagrams(n, box, seed):
    rng = random.Random(seed)
    checked = non_convenient = tied = 0
    while checked < 80:
        d = _mixed_diagram(rng, n)
        engine = ct_diagram(d, max_bound=box)
        if engine.status != "complete":
            continue
        checked += 1
        non_convenient += not engine.clamped and not _convenient(d)
        tied += len(engine.witnesses) >= 2
        oracle = ct_bruteforce(d, engine.search_bound)
        assert (oracle.value, oracle.witnesses) == (engine.value, engine.witnesses), d
    assert non_convenient >= 10 and tied >= 10


@pytest.mark.parametrize("pts", [
    [(2, 0), (0, 41)],                                      # 20 tied witnesses
    [(2, 0), (1, 5), (0, 40)],
    [(1, 2, 0), (0, 0, 7)],                                 # not convenient
    [(2, 0, 0, 0), (0, 3, 0, 0), (0, 0, 7, 0), (0, 0, 0, 11)],
    [(2, 0, 0, 0), (0, 3, 0, 0), (0, 0, 9, 0), (0, 0, 0, 9)],  # 4 tied witnesses
    # the level search drops a prefix at a generator whose next entry
    # equals its largest later one (d = 0) and that no x can bring to need
    # (c > 0)
    [(1, 5, 2), (4, 4, 4)],
    [(2, 4, 2), (3, 2, 3), (4, 3, 0)],
    [(0, 5, 3, 5), (5, 4, 2, 4)],
    [(2, 4, 4), (2, 5, 3)],
])
def test_bruteforce_matches_engine_at_deeper_bounds(pts):
    d = from_points(pts, len(pts[0]))
    engine = ct_diagram(d)
    assert engine.status == "complete"
    oracle = ct_bruteforce(d, engine.search_bound)
    assert (oracle.value, oracle.witnesses) == (engine.value, engine.witnesses)


def _check_oracle_in_box(rng, n, box, count):
    """Engine = oracle, value and witnesses, on count _mixed_diagrams with
    ct < 1 whose whole search region lies in the box; each is also run with
    its coordinates permuted, through the engine and the oracle.  Returns
    how many have a witness entry >= 2 and how many have tied witnesses."""
    checked = deep = tied = 0
    while checked < count:
        d = _mixed_diagram(rng, n)
        engine = ct_diagram(d, max_bound=box)
        if engine.status != "complete" or engine.value >= 1 or engine.search_bound > box:
            continue
        checked += 1
        deep += max(map(max, engine.witnesses)) >= 2
        tied += len(engine.witnesses) >= 2
        oracle = ct_bruteforce(d, box)
        assert (oracle.value, oracle.witnesses) == (engine.value, engine.witnesses), d
        perm = rng.sample(range(n), n)
        moved = from_points([tuple(m[i] for i in perm) for m in d.generators], n)
        want = tuple(sorted(tuple(w[i] for i in perm) for w in engine.witnesses))
        for report in (ct_diagram(moved, max_bound=box), ct_bruteforce(moved, box)):
            assert (report.value, report.witnesses) == (engine.value, want), (d, perm)
    return deep, tied


@pytest.mark.parametrize("n, box, seed", [(4, 12, 41), (5, 9, 51), (6, 7, 61)])
def test_oracle_matches_engine_in_4_to_6_variables(n, box, seed):
    start = time.time()
    deep, tied = _check_oracle_in_box(random.Random(seed), n, box, 60)
    assert deep >= 20 and tied >= 5
    assert time.time() - start < 120


def test_oracle_matches_engine_in_7_variables():
    # most 7-variable draws are clamped or overrun box 6: these 25 take
    # about 1 150 draws, and 8 have a witness entry >= 2 and 3 tied witnesses
    start = time.time()
    deep, tied = _check_oracle_in_box(random.Random(71), 7, 6, 25)
    assert deep >= 6 and tied >= 2
    assert time.time() - start < 120


def _count_narrow(monkeypatch):
    """Count the oracle's _narrow calls in the returned one-item list."""
    calls = [0]
    narrow = engine_module._narrow

    def counted(*args):
        calls[0] += 1
        return narrow(*args)

    monkeypatch.setattr(engine_module, "_narrow", counted)
    return calls


def test_oracle_cut_keeps_work_small(monkeypatch):
    # _narrow calls are machine-independent; cutting y by each generator
    # alone and walking every head took 202, 30 177 and 3 552 calls on these,
    # and beginning every sibling of a head past an empty polygon took 95 on
    # the first
    calls = _count_narrow(monkeypatch)
    for text, cap, most in [("x^2+y^3+z^7", 25, 60),
                            ("x1^2+x2^3+x3^4+x4^5+x5^6+x6^7", 8, 4000),
                            ("x^3+y^7+z^11+w^13", 26, 1100)]:
        d = diagram(text)
        calls[0] = 0
        report = ct_bruteforce(d, cap)
        assert calls[0] <= most, (text, calls[0])
        engine = ct_diagram(d)
        assert (report.value, report.witnesses) == (engine.value, engine.witnesses)


def test_oracle_drops_the_siblings_past_an_empty_polygon(monkeypatch):
    # the 286 Brieskorn triples with exponents 2-12 at box 25 took 22 410
    # _narrow calls while every sibling of a head was begun, 12 633 without
    calls = _count_narrow(monkeypatch)
    triples = [(a, b, c) for a, b, c in product(range(2, 13), repeat=3) if a <= b <= c]
    assert len(triples) == 286
    for a, b, c in triples:
        ct_bruteforce(diagram(f"x^{a}+y^{b}+z^{c}"), 25)
    assert calls[0] <= 14000, calls[0]


def _axes_and_points(rng, n):
    """Axis powers 1-9 on about 70 % of the axes plus 1 to n+2 points in
    [0, 4]^n, the origin left out."""
    pts = [tuple(rng.randint(1, 9) if j == i else 0 for j in range(n))
           for i in range(n) if rng.random() < 0.7]
    pts += [tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(rng.randint(1, n + 2))]
    return [p for p in pts if any(p)]


def test_2_and_3_variable_thresholds_have_a_witness_with_a_coordinate_1():
    # the paper's Brieskorn weights are (p, q, 1), and a divisorial
    # contraction to a smooth 3-fold point is a weighted blow-up with weights
    # (1, a, b) in suitable coordinates (Kawakita).  Conjecture: in at most 3
    # variables every complete, unclamped report has a witness with a
    # coordinate 1; in 4 it fails (x^4+y^10+z^5+w^3: 17/20, sole witness
    # (5, 2, 4, 7)).  A failure here is an engine bug or a counterexample
    rng = random.Random(2615)
    samples = [from_points(pts, n) for n in (2, 3) for _ in range(600)
               for pts in [_axes_and_points(rng, n)] if pts]
    samples += [from_points([(a, 0, 0), (0, b, 0), (0, 0, c)], 3)
                for a in range(2, 21) for b in range(a, 21) for c in range(b, 21)]
    checked = {2: 0, 3: 0}
    for d in samples:
        report = ct_diagram(d, max_bound=300)
        if report.status == "complete" and not report.clamped:
            assert any(1 in w for w in report.witnesses), (d.generators, report)
            checked[d.dimension] += 1
    assert checked[2] >= 400 and checked[3] >= 1500, checked
    four = ct_diagram(diagram("x^4+y^10+z^5+w^3"))
    assert (four.value, four.witnesses) == (F(17, 20), ((5, 2, 4, 7),))


def test_cut_keeps_search_work_small():
    # node counts are machine-independent; the exhaustive listing of every
    # composition took 80 729 and 24 432 nodes on the first two
    assert ct_diagram(diagram("x^2+y^3+z^97")).nodes <= 100
    assert ct_diagram(diagram("x^3+y^7+z^11+w^13")).nodes <= 50
    deep = ct_diagram(diagram("x^2+y^3+z^500"))
    assert deep.status == "complete"
    assert deep.value == ct_brieskorn3(BrieskornTriple(2, 3, 500)).value
    # a search that cannot close costs work linear in the cap
    stalled = ct_diagram(from_points([(5, 0, 0)], 3), max_bound=2000)
    assert stalled.status == "bound-exceeded" and stalled.value == F(1, 5)
    assert stalled.nodes <= 2 * 2000


_REPORTS = Path(__file__).resolve().parent / "data" / "ct_reports.json"


def test_ct_reports_are_pinned():
    # the whole ct_diagram JSON, nodes included, of 400 seeded diagrams
    # (random.Random(2121)): x^2+y^3+z^c for 2 <= c <= 101 and 80
    # four-variable Brieskorn tuples with exponents 2-12, at cap 200; 212
    # diagrams in 2 to 6 variables, axis powers 1-9 on about 70 % of the axes
    # plus 1 to n+2 points in [0, 4]^n, at cap 300; and 8 diagrams at a small
    # cap.  12 of them end bound-exceeded.  A faster search must evaluate the
    # same vectors; the caps keep a broken one from running for long
    entries = json.loads(_REPORTS.read_text(encoding="utf-8"))
    assert len(entries) == 400
    assert sum(e["report"]["status"] == "bound-exceeded" for e in entries) == 12
    moved = []
    for e in entries:
        report = ct_diagram(from_points(e["points"], e["n"]), max_bound=e["max_bound"])
        if json.dumps(report.to_json_dict()) != json.dumps(e["report"]):
            moved.append(f"{e['points']} at cap {e['max_bound']}: {report.to_json_dict()}")
    assert moved == []


def _two_variable_threshold(points):
    """The 2-variable threshold in closed form, with no search: (value, tops),
    value = min(1, 1/mult) for mult = min_m |m|_1 (>= 1: no point is the
    origin), and tops[i] the largest k (None: every k) for which the vector
    with k at coordinate i and 1 at the other attains it.

    An admissible w has both coordinates >= 1, as (k, 0) is a unit or not
    primitive, so |w|_1 - 1 >= max(w), with equality iff min(w) = 1.  For m0
    with |m0|_1 = mult, wf(w) <= <w, m0> <= max(w) * mult, so h(w) >= 1/mult,
    which (1, 1) attains.  Equality needs min(w) = 1 and, for w = (k, 1),
    k * m_1 + m_2 >= k * mult for every point m: k <= m_2 // (mult - m_1)
    where m_1 < mult, and no bound on k if every m_1 >= mult."""
    mult = min(a + b for a, b in points)
    tops = []
    for i in (0, 1):
        ks = [m[1 - i] // (mult - m[i]) for m in points if m[i] < mult]
        tops.append(min(ks) if ks else None)
    return F(1, mult), tops


def _two_variable_witnesses(tops, level):
    """The closed form's witnesses with |w|_1 <= level, in order."""
    ks = [level - 1 if top is None else min(top, level - 1) for top in tops]
    return sorted({(k, 1) for k in range(1, ks[0] + 1)} | {(1, k) for k in range(1, ks[1] + 1)})


def _assert_two_variable_closed_form(points, report):
    value, tops = _two_variable_threshold(points)
    witnesses = [tuple(w) for w in report.witnesses]
    assert report.value == value, points
    if report.status == "complete":
        assert None not in tops, points
        assert witnesses == _two_variable_witnesses(tops, math.inf), points
    else:
        # a stall: the search finds the value, and the witnesses run on
        assert report.status == "bound-exceeded" and None in tops, points
        assert witnesses == _two_variable_witnesses(tops, report.search_bound), points


def test_two_variable_closed_form_matches_the_pinned_reports():
    entries = [e for e in json.loads(_REPORTS.read_text(encoding="utf-8")) if e["n"] == 2]
    assert len(entries) == 50
    statuses = []
    for e in entries:
        report = ct_diagram(from_points(e["points"], 2), max_bound=e["max_bound"])
        _assert_two_variable_closed_form([tuple(p) for p in e["points"]], report)
        statuses.append(report.status)
    assert statuses.count("bound-exceeded") == 6


def test_two_variable_closed_form_matches_the_search():
    # seeded 2-variable diagrams: axis powers up to 12 on about 70 % of the
    # axes, plus up to 4 points in [0, 8]^2, at cap 300
    rng = random.Random(1717)
    statuses = []
    for _ in range(400):
        points = {tuple(rng.randint(1, 12) if j == i else 0 for j in range(2))
                  for i in range(2) if rng.random() < 0.7}
        points |= {(rng.randint(0, 8), rng.randint(0, 8)) for _ in range(rng.randint(0, 4))}
        points.discard((0, 0))
        if not points:
            continue
        report = ct_diagram(from_points(points, 2), max_bound=300)
        _assert_two_variable_closed_form(points, report)
        statuses.append(report.status)
    assert statuses.count("complete") >= 250 and statuses.count("bound-exceeded") >= 50


def _stack_search(best, gens, t, d, cap, skip):
    """The level search with a stack entry for every prefix down to n-2
    coordinates, each leaf's wf from scratch: the reference for _search,
    which walks the last two coordinates in place."""
    n = len(gens[0])
    cols = tuple(zip(*gens))
    coefs = [[(m[k] - max(m[k + 1:]), max(m[k + 1:])) for m in gens] for k in range(n - 1)]
    nodes = 0
    limit = engine_module._search_limit(best, t, d)
    level = 2
    while limit is None or level <= limit:
        if level > cap:
            return cap, nodes, "bound-exceeded"
        need = -(-(level - 1) * best.den // best.num)
        stack = [(0, (), [0] * len(gens), level, 0)] if level * t // d >= need else []
        while stack:
            k, head, partial, rest, g = stack.pop()
            lo, hi = 0, rest
            for p, (a, mt) in zip(partial, coefs[k]):
                c = need - p - rest * mt
                if a > 0:
                    lo = max(lo, -(-c // a))
                elif a < 0:
                    hi = min(hi, c // a)
                elif c > 0:
                    hi = -1
            if k < n - 2:
                stack += [(k + 1, head + (x,), [p + x * mk for p, mk in zip(partial, cols[k])],
                           rest - x, math.gcd(g, x)) for x in range(hi, lo - 1, -1)]
                continue
            for x in range(lo, hi + 1):
                w = head + (x, rest - x)
                if math.gcd(*w) != 1 or w in skip:
                    continue
                nodes += 1
                wf = engine_module._least_degree(gens, w)
                if wf >= need and best.offer(w, level - 1, wf):
                    need = -(-(level - 1) * best.den // best.num)
                    limit = engine_module._search_limit(best, t, d)
        level += 1
    return limit, nodes, "complete"


def test_inline_walk_evaluates_what_a_full_stack_does(monkeypatch):
    # the whole report, nodes included, against a stack that pushes every
    # prefix.  In the first diagrams the best value improves in the middle
    # of a prefix's x walk, so a y interval built from a stale need would
    # evaluate one vector more
    rng = random.Random(2626)
    samples = [from_points([(0, 1, 2), (2, 0, 5)], 3), from_points([(0, 0, 7), (2, 4, 2)], 3),
               from_points([(0, 0, 0, 9), (0, 0, 4, 0), (0, 5, 3, 0), (10, 0, 0, 0)], 4)]
    samples += [from_points(pts, n) for n in (2, 3, 3, 4, 5) for _ in range(200)
                for pts in [_axes_and_points(rng, n)] if pts]
    inline = [ct_diagram(d, max_bound=100).to_json_dict() for d in samples]
    assert [r["nodes"] for r in inline[:3]] == [2, 3, 4]
    monkeypatch.setattr(engine_module, "_search", _stack_search)
    assert [ct_diagram(d, max_bound=100).to_json_dict() for d in samples] == inline


def test_seed_sandwich_catches_suboptimal_lp(monkeypatch):
    # NewtonDiagram.maximin checks that its vertex is feasible and tight, not
    # that it is optimal; wf <= |w|_1 * t* on the seeds rejects a t* that is
    # too small
    from thresholdkit.newton import NewtonDiagram

    real = NewtonDiagram.maximin.func

    def halved(diagram):
        sol = real(diagram)
        return dataclasses.replace(sol, d=2 * sol.d)  # t* halved

    monkeypatch.setattr(NewtonDiagram, "maximin", property(halved))
    with pytest.raises(AssertionError, match="exceeds"):
        ct_diagram(diagram("x^3+y^7+z^11"))


def test_ray_seed_check_catches_a_direction_off_the_optimum(monkeypatch):
    # the optimal t* with a direction that is not optimal: its ray seed
    # (1, 1, 1) has h = 2/3, not below r* = 131/231, and the check must
    # refuse it, also under python -O
    real = newton_module.NewtonDiagram.maximin.func
    monkeypatch.setattr(newton_module.NewtonDiagram, "maximin",
                        property(lambda diagram: dataclasses.replace(real(diagram), u=(1, 1, 1))))
    with pytest.raises(AssertionError,
                       match=r"optimal-ray seed \(1, 1, 1\) does not beat r\* = 131/231"):
        ct_diagram(diagram("x^3+y^7+z^11"))


def test_search_sandwich_catches_suboptimal_lp(monkeypatch):
    # x^5 has t* = 5 on the axis ray, so there is no ray seed, and (1,1,1)
    # gives wf = 5 <= 3 * 2: only the check inside the level search can see
    # that t* = 2 is too small, at the first vector it evaluates
    real = newton_module.NewtonDiagram.maximin.func
    monkeypatch.setattr(newton_module.NewtonDiagram, "maximin",
                        property(lambda diagram: dataclasses.replace(real(diagram), t=2, d=1)))
    with pytest.raises(AssertionError, match=r"wf\(\(1, 0, 1\)\) = 5 exceeds"):
        ct_diagram(from_points([(5, 0, 0)], 3))


def _search_limit_by_fractions(num, den, t, d):
    """The level bound as Fraction arithmetic, the reference for the
    integer cross-multiplication."""
    rstar = F(d, t)
    tau = min(F(num, den), 1)
    if tau >= rstar:
        return None
    return max(2, math.ceil(rstar / (rstar - tau)))


def test_search_limit_matches_the_fraction_formula():
    rng = random.Random(2020)
    kinds = [0, 0, 0, 0]
    for i in range(8000):
        t, d = rng.randint(1, 10**4), rng.randint(1, 10**4)
        kind = i % 4
        if kind == 0:  # best > 1
            den = rng.randint(1, 500)
            num = den + rng.randint(1, 500)
        elif kind == 1:  # best == r*, unreduced
            g = rng.randint(1, 7)
            num, den = g * d, g * t
        elif kind == 2:  # best just under r*
            g = rng.randint(1, 10**6)
            num, den = g * d - 1, g * t
        else:
            num, den = rng.randint(1, 10**4), rng.randint(1, 10**4)
        best = engine_module._Best([(2, 0), (0, 3)])
        best.num, best.den = num, den
        got = engine_module._search_limit(best, t, d)
        assert got == _search_limit_by_fractions(num, den, t, d), (num, den, t, d)
        kinds[kind] += got is None
    # best == r* stops the bound exactly when r* <= 1; just under r* never does
    assert kinds[1] > 0 and kinds[2] == 0
    # r* = 131/231 and best = 392/693, 1/693 under it: L = 131 * 693 / 231
    best = engine_module._Best([(2, 0), (0, 3)])
    best.num, best.den = 3 * 131 - 1, 3 * 231
    assert engine_module._search_limit(best, 231, 131) == 393


def test_best_starts_at_h_of_ones_and_never_records_wf_zero():
    # den > 0 from the start, so for num >= 1 both num * den < best.num * 0
    # and num * den == best.num * 0 fail: a vector with wf == 0 (h =
    # +infinity) neither beats nor ties, before or after the record moves
    rng = random.Random(2024)
    for n in range(2, 9):
        ones, flat, two = (1,) * n, (1,) * (n - 1) + (0,), (2,) + (1,) * (n - 1)
        # a convenient diagram, and one on the last axis, where wf(flat) == 0
        axis = from_points([(0,) * (n - 1) + (rng.randint(1, 9),)], n)
        assert engine_module._least_degree(axis.generators, flat) == 0
        for d in (random_convenient_diagram(rng, n=n, max_power=6), axis):
            best = engine_module._Best(d.generators)
            assert (best.num, best.den, best.witnesses) == (n - 1, min(map(sum, d.generators)), [])
            assert h_value(d, ones) == F(best.num, best.den)
            start = best.den
            for w, num, wf, beats, witnesses in [
                    (flat, n - 1, 0, False, []),
                    (ones, n - 1, start, False, [ones]),  # the start value ties
                    (flat, 1, 0, False, [ones]),
                    (two, n, 3 * start, True, [two]),  # n / 3 < n - 1
                    (flat, 10**40, 0, False, [two])]:
                assert best.offer(w, num, wf) is beats
                assert best.witnesses == witnesses


def _code_names(func):
    """The global and attribute names that func's code uses, nested code
    objects (comprehensions, before Python 3.12) included."""
    codes, names = [func.__code__], set()
    while codes:
        code = codes.pop()
        names |= set(code.co_names)
        codes += [c for c in code.co_consts if hasattr(c, "co_names")]
    return names


def test_oracle_stays_independent_of_the_search():
    # the box oracle checks the level search, so it must not run its code;
    # the search, in turn, does not use the oracle's interval cut
    search = {"_search", "_search_limit", "_sandwich", "_ray_seed", "ct_diagram"}
    assert not _code_names(ct_bruteforce) & search
    assert "_narrow" not in _code_names(engine_module._search)
    assert "_narrow" not in _code_names(ct_diagram)
    # the 2-variable closed form uses nothing of the engine
    engine_names = {name for name, value in vars(engine_module).items()
                    if getattr(value, "__module__", None) == engine_module.__name__}
    assert len(engine_names) >= 10
    for oracle in (_two_variable_threshold, _two_variable_witnesses):
        assert not _code_names(oracle) & (engine_names | search)


def test_search_leaves_no_cyclic_garbage():
    # the level search keeps its state in local variables, so a call leaves
    # nothing that only the cyclic collector could free
    inputs = [diagram("x^2+y^3+z^7"), diagram("x^3+y^7+z^11+w^13"),
              diagram("x^4+y^4+z^4+x^2*y*z+x*y^2*z+x*y*z^2+x^2*y^2+y^2*z^2+x^2*z^2")]
    gc.collect()
    gc.disable()
    try:
        for d in inputs:
            ct_diagram(d)
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# one LP solve per diagram object
# ---------------------------------------------------------------------------

def _counting_lp(monkeypatch):
    real = newton_module._solve_maximin
    calls = []

    def counted(gens, *rest):
        calls.append(gens)
        return real(gens, *rest)

    monkeypatch.setattr(newton_module, "_solve_maximin", counted)
    return calls


def test_one_lp_solve_per_diagram(monkeypatch):
    calls = _counting_lp(monkeypatch)
    d = diagram("x^3+y^7+z^11+x*y*z^2")
    report = ct_diagram(d)
    assert lct_diagram(d) == min(F(1), report.relaxation)
    assert ct_bruteforce(d, 12).relaxation == report.relaxation
    assert ct_diagram(d) == report
    assert len(calls) == 1


def test_lp_memo_never_crosses_diagram_objects(monkeypatch):
    calls = _counting_lp(monkeypatch)
    a, b = diagram("x^2+y^3+z^7"), from_points([(2, 0, 0), (0, 3, 0), (0, 0, 7)], 3)
    assert a == b and a is not b
    assert ct_diagram(a) == ct_diagram(b)
    assert lct_diagram(a) == lct_diagram(b) == F(41, 42)
    assert len(calls) == 2


def test_solved_diagram_is_indistinguishable_from_a_fresh_one():
    solved, fresh = diagram("x^3+y^7+z^11"), diagram("x^3+y^7+z^11")
    report = ct_diagram(solved)
    assert solved == fresh and hash(solved) == hash(fresh)
    assert repr(solved) == repr(fresh)
    assert diagram_to_json(solved) == diagram_to_json(fresh)
    for copied in (pickle.loads(pickle.dumps(solved)), copy.deepcopy(solved)):
        assert copied == fresh and hash(copied) == hash(fresh)
        assert ct_diagram(copied) == report
        assert lct_diagram(copied) == F(131, 231)
