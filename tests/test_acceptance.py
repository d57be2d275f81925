"""Acceptance suite: every exit criterion, each at exact (zero) tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line per
criterion.  The two long criteria (oracle equivalence over all triples up to
30, and the sweep to 40) each finish well inside their stated budgets of
5 and 10 minutes on stock CPython.
"""

import math
import random
import time
from fractions import Fraction

from thresholdkit import (
    BrieskornTriple,
    certify,
    chart_transform,
    ct_brieskorn3,
    ct_bruteforce,
    ct_diagram,
    from_points,
    from_support,
    includes,
    lct_brieskorn,
    lct_diagram,
    ledger,
    parse_polynomial,
    s_values,
)
from thresholdkit.cli import check_sweep, sweep_records

F = Fraction


def diagram(text):
    return from_support(parse_polynomial(text))


def brieskorn_diagram(a, b, c):
    return from_points([(a, 0, 0), (0, b, 0), (0, 0, c)], 3)


def _report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS - {detail}")


def test_criterion_01_first_example():
    start = time.time()
    closed = ct_brieskorn3(BrieskornTriple(3, 7, 11))
    engine = ct_diagram(diagram("x^3+y^7+z^11"))
    sv = s_values(BrieskornTriple(3, 7, 11))
    assert closed.value == F(1, 2) == engine.value
    assert closed.weight == (2, 1, 1)
    assert (2, 1, 1) in engine.witnesses
    assert (sv.s1, sv.s2, sv.s3) == (F(4, 7), F(1, 2), F(6, 11))
    elapsed = time.time() - start
    assert elapsed < 1.0
    _report(1, f"ct(x^3+y^7+z^11) = 1/2 at (2,1,1), s = (4/7, 1/2, 6/11), {elapsed:.3f}s")


def test_criterion_02_second_example():
    start = time.time()
    closed = ct_brieskorn3(BrieskornTriple(5, 6, 29))
    engine = ct_diagram(diagram("x^5+y^6+z^29"))
    sv = s_values(BrieskornTriple(5, 6, 29))
    assert closed.value == F(3, 8) == engine.value
    assert closed.weight == (5, 4, 1)
    assert (5, 4, 1) in engine.witnesses
    assert (sv.s1, sv.s2, sv.s3) == (F(3, 8), F(2, 5), F(11, 29))
    elapsed = time.time() - start
    assert elapsed < 1.0
    _report(2, f"ct(x^5+y^6+z^29) = 3/8 at (5,4,1), s = (3/8, 2/5, 11/29), {elapsed:.3f}s")


def test_criterion_03_third_example():
    start = time.time()
    closed = ct_brieskorn3(BrieskornTriple(12, 18, 35))
    engine = ct_diagram(diagram("x^12+y^18+z^35"))
    sv = s_values(BrieskornTriple(12, 18, 35))
    assert closed.value == F(1, 7) == engine.value
    assert closed.weight == (3, 2, 1)
    assert (3, 2, 1) in engine.witnesses
    assert (sv.s1, sv.s2, sv.s3) == (F(1, 6), F(1, 6), F(1, 7))
    elapsed = time.time() - start
    assert elapsed < 1.0
    _report(3, f"ct(x^12+y^18+z^35) = 1/7 at (3,2,1), s = (1/6, 1/6, 1/7), {elapsed:.3f}s")


def test_criterion_04_comparison_values():
    assert ct_diagram(diagram("x^3+y^3+z^3")).value == F(2, 3)
    assert ct_diagram(diagram("x^2+y^4+z^4")).value == F(3, 4)
    assert ct_diagram(diagram("x^2+y^3+z^6")).value == F(5, 6)
    cert = certify(diagram("x^2+y^3+z^6"), F(5, 6))
    assert cert.ok and cert.witness == (3, 2, 1)
    assert ledger(diagram("x^2+y^3+z^6"), (3, 2, 1)).excess(F(5, 6)) == 0
    _report(4, "ct = 2/3, 3/4, 5/6 for the comparison cones; excess(5/6) = 0 at (3,2,1)")


def test_criterion_05_oracle_equivalence():
    start = time.time()
    mismatches = 0
    brute_runs = 0
    total = 0
    for a in range(2, 31):
        for b in range(a, 31):
            for c in range(b, 31):
                total += 1
                closed = ct_brieskorn3(BrieskornTriple(a, b, c))
                d = brieskorn_diagram(a, b, c)
                engine = ct_diagram(d)
                if engine.value != closed.value:
                    mismatches += 1
                    continue
                if engine.search_bound <= 25:
                    brute_runs += 1
                    oracle = ct_bruteforce(d, 25)
                    if oracle.value != engine.value or oracle.witnesses != engine.witnesses:
                        mismatches += 1
    elapsed = time.time() - start
    assert mismatches == 0
    assert elapsed < 300
    _report(5, f"{total} triples <= 30, {brute_runs} brute-force checks, "
               f"0 mismatches, {elapsed:.1f}s")


def test_criterion_06_lcm_rule():
    rng = random.Random(20260810)
    start = time.time()
    checked = 0
    while checked < 200:
        a = rng.randint(2, 10)
        b = rng.randint(a, 12)
        m = math.lcm(a, b)
        if m > 200:
            continue
        c = rng.randint(m, 200)
        expected = F(1, a) + F(1, b)
        assert ct_brieskorn3(BrieskornTriple(a, b, c)).value == expected
        report = ct_diagram(brieskorn_diagram(a, b, c))
        assert report.value == expected
        checked += 1
    elapsed = time.time() - start
    _report(6, f"200 sampled triples with lcm(a,b) <= c <= 200 all give "
               f"ct = 1/a + 1/b, {elapsed:.1f}s")


def test_criterion_07_lct_cross_validation():
    for a in range(2, 31):
        for b in range(a, 31):
            for c in range(b, 31):
                formula = lct_brieskorn([a, b, c])
                lp = lct_diagram(brieskorn_diagram(a, b, c))
                assert formula == lp
    assert lct_brieskorn([2, 3, 6]) == F(1)
    _report(7, "lct formula = LP relaxation on all 4495 triples <= 30, incl. (2,3,6) -> 1")


def test_criterion_08_gap_sweep():
    start = time.time()
    records = sweep_records(40)
    violations, capped, upper = check_sweep(records)
    elapsed = time.time() - start
    # with no capped search, no violation also means engine == closed form
    assert violations == []
    assert capped == []
    allowed = {F(4, 5), F(5, 6), F(1)}
    assert upper <= allowed
    lower, mid = F(4, 5), F(5, 6)
    for rec in records:
        assert not (lower < rec.closed.value < mid or mid < rec.closed.value < 1)
    assert elapsed < 600
    observed = sorted(upper)
    _report(8, f"sweep 40: {len(records)} triples, no value in (4/5,5/6) or (5/6,1); "
               f"observed in [4/5,1]: {observed}, {elapsed:.1f}s")


def test_criterion_09_monotonicity():
    rng = random.Random(424242)
    pairs = 0
    while pairs < 200:
        axis_powers = []
        for i in range(3):
            p = [0, 0, 0]
            p[i] = rng.randint(2, 9)
            axis_powers.append(tuple(p))
        extras = [tuple(rng.randint(0, 9) for _ in range(3))
                  for _ in range(rng.randint(0, 3))]
        big = from_points(axis_powers + [e for e in extras if sum(e) > 0], 3)

        shifted = [tuple(x + rng.randint(0, 2) for x in g) for g in big.generators]
        inner_axes = []
        for i in range(3):
            p = [0, 0, 0]
            p[i] = max(g[i] for g in big.generators) + rng.randint(1, 3)
            inner_axes.append(tuple(p))
        small = from_points(shifted + inner_axes, 3)

        assert includes(big, small)
        assert ct_diagram(small).value <= ct_diagram(big).value
        pairs += 1
    _report(9, f"{pairs} verified inclusion pairs, ct monotone on all of them")


def test_criterion_10_weight_shape():
    checked = 0
    for a in range(2, 31):
        for b in range(a, 31):
            for c in range(b, 31):
                report = ct_diagram(brieskorn_diagram(a, b, c))
                if report.value >= 1:
                    continue
                checked += 1
                shaped = [w for w in report.witnesses
                          if w[2] == 1 and w[0] >= w[1] >= 1]
                assert shaped, (a, b, c, report.witnesses)
    _report(10, f"{checked} nontrivial triples <= 30 all have a (p,q,1) witness "
                f"with p >= q >= 1")


def test_criterion_11_chart_recursion():
    w = (3, 2, 1)
    for n in range(8, 21):
        support = parse_polynomial(f"x^2 + y^3 + y*z^{n}")
        current = n
        while current >= 8:
            led = ledger(from_support(support), w)
            assert led.multiplicity == 6
            assert led.excess(F(5, 6)) == 0
            support = chart_transform(support, w, 3)
            current -= 4
            assert support.points == {(2, 0, 0), (0, 3, 0), (0, 1, current)}
        led = ledger(from_support(support), w)
        assert led.excess(F(5, 6)) == 0
    _report(11, "chart recursion n -> n-4 for n in 8..20 with excess(5/6) = 0 throughout")


def test_criterion_12_non_isolated_case():
    report = ct_diagram(diagram("x^2+y^3"))
    assert report.value == F(1, 2)
    assert report.witnesses == ((1, 1, 0),)
    oracle = ct_bruteforce(diagram("x^2+y^3"), 25)
    assert oracle.value == F(1, 2)
    assert (1, 1, 0) in oracle.witnesses
    _report(12, "ct(x^2+y^3 in three variables) = 1/2 with witness (1,1,0)")
