"""Closed-form thresholds: s-values, case tags, realizing weights."""

import math
from fractions import Fraction

import pytest

from thresholdkit import (
    BrieskornTriple,
    brieskorn_threshold,
    ct_brieskorn3,
    ct_diagram,
    from_points,
    h_value,
    lct_brieskorn,
    lct_diagram,
    s_values,
)

F = Fraction


def brieskorn_diagram(a, b, c):
    return from_points([(a, 0, 0), (0, b, 0), (0, 0, c)], 3)


# ---------------------------------------------------------------------------
# s-values
# ---------------------------------------------------------------------------

def test_s_values_3_7_11():
    sv = s_values(BrieskornTriple(3, 7, 11))
    assert (sv.s1, sv.s2, sv.s3) == (F(4, 7), F(1, 2), F(6, 11))
    assert sv.k2 == 2


def test_s_values_5_6_29():
    sv = s_values(BrieskornTriple(5, 6, 29))
    assert (sv.s1, sv.s2, sv.s3) == (F(3, 8), F(2, 5), F(11, 29))
    assert sv.k1 == 4


def test_s_values_12_18_35():
    sv = s_values(BrieskornTriple(12, 18, 35))
    assert (sv.s1, sv.s2, sv.s3) == (F(1, 6), F(1, 6), F(1, 7))


def test_s_values_ties_take_smallest_k():
    # every k from 1 to 5 realizes s2 = 2/5 here
    sv = s_values(BrieskornTriple(5, 6, 29))
    assert sv.k2 == 1


def test_s_values_require_lcm_branch():
    with pytest.raises(ValueError):
        s_values(BrieskornTriple(2, 3, 6))


# ---------------------------------------------------------------------------
# ct closed form
# ---------------------------------------------------------------------------

def test_ct_3_7_11():
    res = ct_brieskorn3(BrieskornTriple(3, 7, 11))
    assert res.value == F(1, 2)
    assert res.case == "s2"
    assert res.weight == (2, 1, 1)


def test_ct_5_6_29():
    res = ct_brieskorn3(BrieskornTriple(5, 6, 29))
    assert res.value == F(3, 8)
    assert res.case == "s1"
    assert res.weight == (5, 4, 1)


def test_ct_12_18_35():
    res = ct_brieskorn3(BrieskornTriple(12, 18, 35))
    assert res.value == F(1, 7)
    assert res.case == "s3"
    assert res.weight == (3, 2, 1)


def test_ct_lcm_rule_2_3_6():
    res = ct_brieskorn3(BrieskornTriple(2, 3, 6))
    assert res.value == F(5, 6)
    assert res.case == "lcm-rule"
    assert res.weight == (3, 2, 1)
    assert res.s_values is None


def test_ct_du_val_2_3_5_clamps():
    res = ct_brieskorn3(BrieskornTriple(2, 3, 5))
    assert res.value == F(1)
    assert res.case == "clamp-1"
    sv = res.s_values
    assert (sv.s1, sv.s2, sv.s3) == (F(1), F(1), F(1))
    # clamp value is still realized by the reported weight
    assert h_value(brieskorn_diagram(2, 3, 5), res.weight) == F(1)


def test_ct_ordinary_double_point():
    res = ct_brieskorn3(BrieskornTriple(2, 2, 2))
    assert res.value == F(1)
    assert res.case == "lcm-rule"
    assert res.weight == (1, 1, 1)


def test_ct_tie_prefers_s2():
    # (4, 6, 7): s1 = s2 = 1/2 < s3 = 4/7
    res = ct_brieskorn3(BrieskornTriple(4, 6, 7))
    sv = res.s_values
    assert sv.s1 == sv.s2 == F(1, 2) < sv.s3
    assert res.case == "s2"
    assert res.value == F(1, 2)


def test_triple_validation():
    with pytest.raises(ValueError):
        BrieskornTriple(1, 2, 3)
    with pytest.raises(ValueError):
        BrieskornTriple(3, 2, 5)


def test_unordered_wrapper_permutes_weight():
    res = brieskorn_threshold(6, 5, 29)
    assert res.value == F(3, 8)
    assert res.weight == (4, 5, 1)
    # the permuted weight realizes the value on the permuted diagram
    assert h_value(from_points([(6, 0, 0), (0, 5, 0), (0, 0, 29)], 3), res.weight) == F(3, 8)


def test_weight_realizes_value_on_all_small_triples():
    for a in range(2, 13):
        for b in range(a, 13):
            for c in range(b, 13):
                res = ct_brieskorn3(BrieskornTriple(a, b, c))
                assert h_value(brieskorn_diagram(a, b, c), res.weight) == res.value
                p, q, r = res.weight
                assert p >= q >= r == 1


def test_value_bounded_below_by_two_term_sum():
    for a in range(2, 16):
        for b in range(a, 16):
            for c in range(b, 16):
                res = ct_brieskorn3(BrieskornTriple(a, b, c))
                assert res.value >= F(1, a) + F(1, b)


def test_value_constant_beyond_lcm():
    for a, b in [(2, 3), (3, 4), (4, 6), (5, 7)]:
        m = math.lcm(a, b)
        expected = F(1, a) + F(1, b)
        for c in range(m, m + 11):
            res = ct_brieskorn3(BrieskornTriple(a, b, c))
            assert res.value == expected
            assert res.case == "lcm-rule"


def test_closed_form_equals_engine_spot_checks():
    for a, b, c in [(2, 5, 5), (3, 4, 5), (4, 6, 7), (2, 7, 9), (6, 7, 8)]:
        assert ct_brieskorn3(BrieskornTriple(a, b, c)).value == \
            ct_diagram(brieskorn_diagram(a, b, c)).value


# ---------------------------------------------------------------------------
# lct
# ---------------------------------------------------------------------------

def test_lct_boundary():
    assert lct_brieskorn([2, 3, 6]) == F(1)


def test_lct_generic():
    assert lct_brieskorn([3, 7, 11]) == F(131, 231)


def test_lct_two_exponents():
    assert lct_brieskorn([2, 2]) == F(1)


def test_lct_accepts_exponent_one():
    assert lct_brieskorn([1, 5]) == F(1)


def test_lct_rejects_empty():
    with pytest.raises(ValueError):
        lct_brieskorn([])


def test_lct_rejects_nonpositive():
    for exponents in ([2, 0, 3], [True, 2]):
        with pytest.raises(ValueError, match="exponents must be integers >= 1"):
            lct_brieskorn(exponents)


def test_lct_matches_lp_on_small_triples():
    for a in range(2, 9):
        for b in range(a, 9):
            for c in range(b, 9):
                assert lct_brieskorn([a, b, c]) == lct_diagram(brieskorn_diagram(a, b, c))


def test_lct_dominates_ct_on_small_triples():
    for a in range(2, 11):
        for b in range(a, 11):
            for c in range(b, 11):
                assert lct_brieskorn([a, b, c]) >= ct_brieskorn3(BrieskornTriple(a, b, c)).value
