"""Blow-up ledgers, chart transforms, and realization checks."""

import random
import re
from fractions import Fraction

import pytest
import sympy

from thresholdkit import (
    InadmissibleWeightError,
    SupportSet,
    chart_label,
    chart_transform,
    from_points,
    from_support,
    ledger,
    parse_polynomial,
    verify_weight_realizes,
)

F = Fraction


def diagram(text):
    return from_support(parse_polynomial(text))


def support(points, n=3):
    return SupportSet(dimension=n, points=frozenset(points))


# ---------------------------------------------------------------------------
# ledger
# ---------------------------------------------------------------------------

def test_ledger_zero_excess_at_five_sixths():
    led = ledger(diagram("x^2+y^3+z^6"), (3, 2, 1))
    assert led.discrepancy == 5
    assert led.multiplicity == 6
    assert led.excess(F(5, 6)) == 0


def test_ledger_first_worked_example():
    led = ledger(diagram("x^3+y^7+z^11"), (2, 1, 1))
    assert led.discrepancy == 3
    assert led.multiplicity == 6
    assert led.excess(F(1, 2)) == 0


def test_ledger_discrepancy_is_weight_sum_minus_one():
    led = ledger(diagram("x^4+y^4+z^4"), (1, 1, 1))
    assert led.discrepancy == 2


def test_ledger_excess_sign():
    led = ledger(diagram("x^3+y^7+z^11"), (2, 1, 1))
    assert led.excess(F(2, 3)) < 0  # candidate above the threshold: violated
    assert led.excess(F(1, 3)) > 0


def test_ledger_rejects_inadmissible():
    with pytest.raises(InadmissibleWeightError):
        ledger(diagram("x^2+y^2+z^2"), (2, 2, 2))


# ---------------------------------------------------------------------------
# chart transforms
# ---------------------------------------------------------------------------

def test_chart_transform_shrinks_tail_exponent():
    s = support({(2, 0, 0), (0, 3, 0), (0, 1, 7)})
    out = chart_transform(s, (3, 2, 1), 3)
    assert out.points == {(2, 0, 0), (0, 3, 0), (0, 1, 3)}


def test_chart_transform_first_chart():
    s = support({(3, 0, 0), (0, 7, 0), (0, 0, 11)})
    out = chart_transform(s, (2, 1, 1), 1)
    assert out.points == {(0, 0, 0), (1, 7, 0), (5, 0, 11)}


def test_chart_transform_identity_when_no_excess():
    # all points share the minimal weight and avoid the chart coordinate
    s = support({(0, 2, 0), (0, 0, 3)})
    out = chart_transform(s, (1, 3, 2), 1)
    assert out.points == s.points


def test_chart_transform_validates_chart_index():
    s = support({(1, 1, 1)})
    with pytest.raises(ValueError):
        chart_transform(s, (3, 2, 1), 0)
    with pytest.raises(ValueError):
        chart_transform(s, (3, 2, 1), 4)


def test_chart_transform_rejects_zero_weight_chart():
    s = support({(2, 0, 0), (0, 3, 0)})
    with pytest.raises(ValueError):
        chart_transform(s, (1, 1, 0), 3)


def test_chart_transform_exponents_nonnegative():
    rng = random.Random(13)
    for _ in range(30):
        pts = {tuple(rng.randint(0, 6) for _ in range(3)) for _ in range(rng.randint(1, 5))}
        s = support(pts)
        w = (rng.randint(1, 4), rng.randint(0, 4), rng.randint(0, 4))
        try:
            from thresholdkit import check_admissible_weight
            check_admissible_weight(w)
        except InadmissibleWeightError:
            continue
        out = chart_transform(s, w, 1)
        assert all(all(x >= 0 for x in p) for p in out.points)


def test_chart_transform_matches_symbolic_substitution():
    """Oracle: substitute x_i -> y_i^{w_i}, x_j -> y_j y_i^{w_j}, divide by the
    exceptional power, and read off the support of the result."""
    rng = random.Random(29)
    y1, y2, y3 = sympy.symbols("y1 y2 y3")
    for _ in range(12):
        pts = sorted({tuple(rng.randint(0, 5) for _ in range(3))
                      for _ in range(rng.randint(2, 5))})
        w = (rng.randint(1, 4), rng.randint(1, 4), 1)
        try:
            from thresholdkit import check_admissible_weight
            check_admissible_weight(w)
        except InadmissibleWeightError:
            continue
        chart = rng.randint(1, 3)
        i = chart - 1
        subs = []
        for j in range(3):
            if j == i:
                subs.append(sympy.Symbol(f"y{i + 1}") ** w[i])
            else:
                subs.append(sympy.Symbol(f"y{j + 1}") * sympy.Symbol(f"y{i + 1}") ** w[j])
        poly = sum(subs[0] ** p[0] * subs[1] ** p[1] * subs[2] ** p[2] for p in pts)
        wf = min(sum(wi * mi for wi, mi in zip(w, m)) for m in pts)
        strict = sympy.expand(sympy.cancel(poly / sympy.Symbol(f"y{i + 1}") ** wf))
        expected = set()
        for mono in sympy.Poly(strict, y1, y2, y3).monoms():
            expected.add(tuple(int(e) for e in mono))
        out = chart_transform(support(set(pts)), w, chart)
        assert out.points == expected


def test_chart_recursion_descends_by_four():
    """The strict transform of x^2 + y^3 + y z^n under (3,2,1) in the last
    chart is the same family with n replaced by n - 4, at zero excess."""
    w = (3, 2, 1)
    for n in range(8, 21):
        s = support({(2, 0, 0), (0, 3, 0), (0, 1, n)})
        steps = 0
        current = n
        while current >= 8:
            led = ledger(from_support(s), w)
            assert led.multiplicity == 6
            assert led.excess(F(5, 6)) == 0
            s = chart_transform(s, w, 3)
            current -= 4
            steps += 1
            assert s.points == {(2, 0, 0), (0, 3, 0), (0, 1, current)}
        assert steps == (n - 4) // 4


# ---------------------------------------------------------------------------
# chart labels
# ---------------------------------------------------------------------------

def test_chart_labels_of_3_2_1():
    assert chart_label((3, 2, 1), 1) == "C^3/Z_3(1,1,2)"
    assert chart_label((3, 2, 1), 2) == "C^3/Z_2(1,1,1)"
    assert chart_label((3, 2, 1), 3) == "C^3"


def test_chart_label_rejects_zero_weight():
    with pytest.raises(ValueError):
        chart_label((1, 1, 0), 3)


@pytest.mark.parametrize("chart", [True, False, 1.0, 2.5, "1", None])
def test_chart_index_must_be_a_non_bool_int(chart):
    s = support({(2, 0, 0), (0, 3, 0), (0, 0, 5)})
    for call in (lambda: chart_transform(s, (3, 2, 1), chart), lambda: chart_label((3, 2, 1), chart)):
        with pytest.raises(ValueError, match=f"chart index must be an integer, got {re.escape(repr(chart))}"):
            call()


def test_chart_label_validates_chart_index():
    for chart in (0, 4, -1):
        with pytest.raises(ValueError, match=f"chart index {chart} out of range 1..3"):
            chart_label((3, 2, 1), chart)


# ---------------------------------------------------------------------------
# verify_weight_realizes
# ---------------------------------------------------------------------------

def test_verify_weight_realizes_examples():
    assert verify_weight_realizes(diagram("x^5+y^6+z^29"), (5, 4, 1))
    assert verify_weight_realizes(diagram("x^12+y^18+z^35"), (3, 2, 1))
    assert not verify_weight_realizes(diagram("x^3+y^7+z^11"), (1, 1, 1))


def test_verify_weight_realizes_matches_certify():
    from thresholdkit import certify, h_value
    d = diagram("x^2+y^3+z^7")
    for w in [(3, 2, 1), (1, 1, 1), (2, 1, 1)]:
        realized = verify_weight_realizes(d, w)
        h = h_value(d, w)
        if realized:
            cert = certify(d, h)
            assert cert.ok and w in cert.report.witnesses
