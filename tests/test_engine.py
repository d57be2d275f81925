"""Threshold search: worked singularities, oracles, and search invariants."""

import copy
import dataclasses
import gc
import math
import pickle
import random
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import thresholdkit.engine as engine_module
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
    """The box oracle as one plain loop over every vector: the reference
    that ct_bruteforce's block sweep must reproduce, nodes included."""
    n = d.dimension
    gens = d.generators
    best = engine_module._Best()
    best_num = best_den = 0
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
            num = s_head + last - 1
            if num * best_den <= best_num * wf:
                best.offer(head + (last,), num, wf)
                best_num, best_den = best.num, best.den
    return best.report(1 / maximin_lp(gens, n).value, cap, nodes, "complete")


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


@pytest.mark.parametrize("block", [4096, 20])
def test_bruteforce_matches_reference_loop_on_random_diagrams(block, monkeypatch):
    # blocks of 20 cut each plane into several, the last one often short
    monkeypatch.setattr(engine_module, "_BLOCK", block)
    rng = random.Random(808)
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
    # 40-digit exponents, so fields of well over 100 bits; the small
    # generators decide the value in the first and third, the huge ones
    # alone in the second and fourth
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
    # two variables at cap 200: blocks of 20 rows, the last one short
    ([(2, 0), (0, 3)], (200,)),
    ([(7, 0), (1, 2), (0, 9)], (200,)),
    ([(3, 1), (0, 5), (4, 0), (1, 3)], (200,)),
])
def test_bruteforce_matches_reference_loop_on_edge_cases(pts, caps):
    d = from_points(pts, len(pts[0]))
    for cap in caps:
        assert ct_bruteforce(d, cap) == _reference_bruteforce(d, cap), cap


def test_bruteforce_matches_reference_loop_with_short_last_blocks():
    # under the default _BLOCK a plane of side 65 to 81 is one block of
    # whole rows and one short one
    rng = random.Random(1464)
    for cap in (64, 69, 75, 80):
        side = cap + 1
        assert side % (engine_module._BLOCK // side) != 0
        d = _sample_diagram(rng, 3, rng.randint(2, 5))
        assert ct_bruteforce(d, cap) == _reference_bruteforce(d, cap), (d, cap)


def _pack(values, width):
    return sum(v << (i * width) for i, v in enumerate(values))


@pytest.mark.parametrize("width", [2, 3, 8, 23, 64, 150])
def test_packed_ge_matches_fieldwise_comparison(width):
    top = (1 << (width - 1)) - 1
    edge = sorted({0, 1, top - 1, top})
    guard_bit = 1 << (width - 1)
    # uniform lanes: every field the same pair, so borrows would chain
    for a, b in product(edge, repeat=2):
        guard = _pack([guard_bit] * 50, width)
        got = engine_module._packed_ge(_pack([a] * 50, width), _pack([b] * 50, width), guard)
        assert got == (guard if a >= b else 0), (a, b)
    # mixed lanes: the extremes next to each other and random fields
    rng = random.Random(width)
    pairs = list(product(edge, repeat=2)) * 3
    pairs += [(v, v) for v in (rng.randint(0, top) for _ in range(50))]
    pairs += [(rng.randint(0, top), rng.randint(0, top)) for _ in range(200)]
    rng.shuffle(pairs)
    lhs = _pack([a for a, _ in pairs], width)
    rhs = _pack([b for _, b in pairs], width)
    got = engine_module._packed_ge(lhs, rhs, _pack([guard_bit] * len(pairs), width))
    assert got == _pack([guard_bit if a >= b else 0 for a, b in pairs], width)


@pytest.mark.parametrize("scale", ["num", "wf"])
def test_bruteforce_width_guard_is_a_real_check(scale, monkeypatch):
    # a best value outside the bounds the field width was sized from must
    # stop the sweep, also under python -O
    class Corrupt(engine_module._Best):
        def offer(self, w, num, wf):
            if scale == "num":
                return super().offer(w, num * 10**9, wf)
            return super().offer(w, num, wf * 10**9)

    monkeypatch.setattr(engine_module, "_Best", Corrupt)
    # cap 70 in two variables: two blocks, the second checks the first's offers
    with pytest.raises(AssertionError, match="overflows"):
        ct_bruteforce(from_points([(2, 0), (0, 3)], 2), 70)


def test_bruteforce_matches_reference_loop_on_brieskorn_triples():
    triples = [(a, b, c) for a in range(2, 31) for b in range(a, 31) for c in range(b, 31)]
    for a, b, c in random.Random(25).sample(triples, 100):
        d = from_points([(a, 0, 0), (0, b, 0), (0, 0, c)], 3)
        assert ct_bruteforce(d, 25) == _reference_bruteforce(d, 25), (a, b, c)


def test_bruteforce_memory_is_bounded_by_the_block():
    # 801^2 vectors; one list of them, with its ints, takes tens of MB
    d = from_points([(2, 0), (0, 3)], 2)
    tracemalloc.start()
    try:
        report = ct_bruteforce(d, 800)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report == _reference_bruteforce(d, 800)
    # one block of at most 4096 vectors is a few ints of one 23-bit field a
    # vector; two of them are parsed from strings of one character a bit,
    # which the peak, near 50 bytes a vector, is mostly made of
    assert engine_module._BLOCK <= 4096
    assert peak < 100 * 4096


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
    from thresholdkit import includes
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
])
def test_bruteforce_matches_engine_at_deeper_bounds(pts):
    d = from_points(pts, len(pts[0]))
    engine = ct_diagram(d)
    assert engine.status == "complete"
    oracle = ct_bruteforce(d, engine.search_bound)
    assert (oracle.value, oracle.witnesses) == (engine.value, engine.witnesses)


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


def test_seed_sandwich_catches_suboptimal_lp(monkeypatch):
    # maximin_lp checks that its vertex is feasible and tight, not that it
    # is optimal; wf <= |w|_1 * t* on the seeds rejects a t* that is too small
    import thresholdkit.engine as engine

    real = engine.maximin_lp

    def halved(gens, n):
        sol = real(gens, n)
        return dataclasses.replace(sol, value=sol.value / 2)

    monkeypatch.setattr(engine, "maximin_lp", halved)
    with pytest.raises(AssertionError, match="exceeds"):
        ct_diagram(diagram("x^3+y^7+z^11"))


def test_search_sandwich_catches_suboptimal_lp(monkeypatch):
    # x^5 has t* = 5 on the axis ray, so there is no ray seed, and (1,1,1)
    # gives wf = 5 <= 3 * 2: only the check inside the level search can see
    # that t* = 2 is too small, at the first vector it evaluates
    real = engine_module.maximin_lp
    monkeypatch.setattr(engine_module, "maximin_lp",
                        lambda gens, n: dataclasses.replace(real(gens, n), value=F(2)))
    with pytest.raises(AssertionError, match=r"wf\(\(1, 0, 1\)\) = 5 exceeds"):
        ct_diagram(from_points([(5, 0, 0)], 3))


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
    real = engine_module.maximin_lp
    calls = []

    def counted(gens, n):
        calls.append(gens)
        return real(gens, n)

    monkeypatch.setattr(engine_module, "maximin_lp", counted)
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
