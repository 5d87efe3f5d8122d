"""Numeric bound evaluators: known values, monotonicity, rounding."""

import math
from fractions import Fraction

import pytest

from drinfeld import (
    dd_corollary_bound,
    lemma54_window,
    lemma64_resolve,
    lemma64_threshold,
    thm1_part1_bound,
    thm1_part2_bound,
)
from drinfeld.bounds import thm1_part1_report, thm1_part2_report


def test_part1_bound_values():
    assert thm1_part1_bound(1, 2, 2) == Fraction(5, 3)
    assert thm1_part1_bound(1, 3, 2) == Fraction(11, 8)
    # large rank limit of the constant term at fixed q
    const = thm1_part1_bound(0, 2, 40)
    assert abs(const - (Fraction(2, 1) - 1)) < Fraction(1, 10**9)


def test_part1_bound_guards():
    with pytest.raises(ValueError):
        thm1_part1_bound(-1, 2, 2)
    with pytest.raises(ValueError):
        thm1_part1_bound(1, 2, 1)


def test_part1_report():
    rep = thm1_part1_report(Fraction(3, 2), 1, 2, 2)
    assert rep.satisfied
    rep = thm1_part1_report(Fraction(-3, 2), 1, 2, 2)  # absolute value
    assert rep.satisfied
    rep = thm1_part1_report(Fraction(17, 10), 1, 2, 2)
    assert not rep.satisfied
    # boundary case is exact, no float fuzz
    rep = thm1_part1_report(Fraction(5, 3), 1, 2, 2)
    assert rep.satisfied


def test_part2_bound_values():
    assert thm1_part2_bound(1, 0, 2) == 3.5
    v = thm1_part2_bound(1, 3, 2)
    expect = 1.5 + 1.5 * math.log2(2.5) + 2
    assert abs(v - expect) < 1e-6
    assert v >= expect  # rounded up


def test_part2_bound_monotone_in_hjprime():
    prev = None
    for h in range(0, 10):
        v = thm1_part2_bound(1, h, 2)
        if prev is not None:
            assert v >= prev
        prev = v


def test_part2_report_doubled_precision_same_verdict():
    for h_j, h_jp in [(0, 3), (2, 5), (10, 1)]:
        a = thm1_part2_report(h_j, h_jp, 1, 2, dps=30)
        b = thm1_part2_report(h_j, h_jp, 1, 2, dps=60)
        assert a.satisfied == b.satisfied


def test_lemma54_window():
    assert lemma54_window(2, 2) == (Fraction(4, 3), Fraction(2))
    assert lemma54_window(2, 3) == (Fraction(8, 7), Fraction(2))
    lo, hi = lemma54_window(2, 2)
    assert hi - lo == thm1_part1_bound(0, 2, 2)


def test_dd_corollary_value():
    v = dd_corollary_bound(1, 1, 2, 2, c2=1.0)
    expect = 10 * 3**7 * math.log2(3) + 2 / 3
    assert abs(v - expect) < 1e-3
    # monotone in h_G and in r
    assert dd_corollary_bound(1, 2, 2, 2) > v
    assert dd_corollary_bound(1, 1, 2, 3) > v


def test_lemma64_threshold():
    assert lemma64_threshold(2) == 8
    assert lemma64_threshold(3) == 27


def test_lemma64_resolve_value():
    v = lemma64_resolve(4.2925, 2)
    assert abs(v - 8.051) < 5e-3
    assert v > 4.2925


@pytest.mark.parametrize("q", [2, 3, 4])
def test_lemma64_resolves_the_fixed_point(q):
    """Any x with x <= a + ((q^2-1)/2) log_q(1 + x/q) is at most the
    resolved value; equivalently the largest fixed point of the
    increasing concave map g lies below lemma64_resolve(a, q)."""
    half = (q * q - 1) / 2
    for a in (1, 2, 5, 17, 50, 100):
        x_star = lemma64_resolve(a, q)
        g = lambda x: a + half * math.log(1 + x / q, q)
        x_fix = 10.0 * a + 100
        for _ in range(500):
            x_fix = g(x_fix)
        if x_fix >= lemma64_threshold(q):
            assert x_fix <= x_star + 1e-9


def test_report_payload_shape():
    rep = thm1_part1_report(Fraction(1), 1, 2, 2, extra={"trial": 0})
    payload = rep.to_payload()
    assert payload["rounded"] == "up"
    assert payload["satisfied"] is True
    assert payload["inputs"]["trial"] == 0
    assert isinstance(payload["lhs"], str)


@pytest.mark.parametrize("deg_N,q,r", [(1, 3, 3), (1, 4, 2), (2, 2, 2)])
def test_part1_payload_rhs_rounds_up(deg_N, q, r):
    """The exact rational bound is sent as the least float >= it; the
    nearest float lies below the bound in each of these cases."""
    bound = thm1_part1_bound(deg_N, q, r)
    assert Fraction(float(bound)) < bound
    rhs = thm1_part1_report(Fraction(0), deg_N, q, r).to_payload()["rhs"]
    assert Fraction(rhs) >= bound
    assert Fraction(math.nextafter(rhs, -math.inf)) < bound
