"""Numeric bound evaluators: known values, monotonicity, rounding."""

import itertools
import math
from fractions import Fraction

import mpmath
import pytest
from mpmath.ctx_iv import MPIntervalContext

from drinfeld import (
    DrinfeldModule,
    dd_corollary_bound,
    dual,
    lemma54_window,
    lemma64_resolve,
    lemma64_threshold,
    parse_skew,
    poly_ring_A,
    prop65_bound,
    psi,
    pushforward,
    thm1_part1_bound,
    thm1_part2_bound,
)
from drinfeld.bounds import thm1_part1_report
from drinfeld.factor import monic_polys_of_degree
from drinfeld.modpoly import asymptotic_bound


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


@pytest.mark.parametrize(
    "module, f, bound",
    [
        ({"q": 2, "r": 2, "g": ["1", "t^4+t^2"]}, "(t+1)*T^0 + (t^2+t)*T^1", Fraction(5, 3)),
        (
            {"q": 3, "r": 2, "g": ["2*t+1", "2*t^5+2*t^3+2*t^2+2"]},
            "2*T^0 + (t+1)*T^1",
            Fraction(11, 8),
        ),
        # row 6 of `drinfeld harness --q 4 --r 2 --trials 100 --seed 0`
        (
            {"q": 4, "r": 2, "g": ["(u+1)*t^4+(u+1)*t+u", "u*t^4+1"]},
            "((u+1)*t)*T^0 + (u*t+1)*T^1",
            Fraction(19, 15),
        ),
    ],
)
def test_part1_attained_with_zero_slack(module, f, bound):
    """Theorem 1 part 1 holds with equality at r = 2, deg N = 1: the
    exact comparison and the upward-rounded payload rhs must both pass."""
    phi = DrinfeldModule.from_literal(module)
    f = parse_skew(f, phi.skew)
    phi2 = pushforward(phi, f)
    N = dual(phi, phi2, f).N
    assert N == poly_ring_A(phi.q).gen()
    assert thm1_part1_bound(1, phi.q, 2) == bound
    payload = thm1_part1_report(phi2.height_G() - phi.height_G(), 1, phi.q, 2).to_payload()
    lhs = Fraction(payload["lhs"])
    assert lhs == bound
    assert payload["satisfied"] is True
    assert Fraction(payload["rhs"]) >= lhs


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


# -- rounding direction: an independent evaluation at 80 digits -----------

_REF = MPIntervalContext()
_REF.dps = 80


def _ref(x):
    x = Fraction(x)
    return _REF.mpf(x.numerator) / x.denominator


def _ref_log(x, q):
    return _REF.log(x) / _REF.log(q)


def _ref_resolved(a, q):
    half = _ref(Fraction(q * q - 1, 2))
    return a + half * _ref_log(1 + (a / q) / (1 - half / (q * q * _REF.log(q))), q)


def _ref_prop65(q, m):
    psi_m = psi(q, m)
    a = _ref(Fraction(q * q - 1, 2) * int(m.degree) + q) + _ref_log(psi_m, q) / 2
    x = _ref_resolved(a, q)
    top = _REF.mpf([max(x.a, q**3), max(x.b, q**3)])
    return psi_m * top + 2 * psi_m * _ref_log(psi_m, q)


def _moduli(q, max_degree):
    A = poly_ring_A(q)
    return [m for d in range(1, max_degree + 1) for m in monic_polys_of_degree(A, d)]


def _evaluations():
    """(label, float returned, 80-digit reference interval) over a grid."""
    for q in (2, 3, 4, 5, 7, 9):
        for deg_f in (1, 2, 3):
            for h in (0, Fraction(1, 3), 3, Fraction(7, 2), 100):
                ref = _ref(Fraction(q * q - 1, 2)) * (deg_f + _ref_log(1 + _ref(h) / q, q)) + q
                yield ("part2", q, deg_f, h), thm1_part2_bound(deg_f, h, q), ref
        for a in (1, Fraction(5, 3), 4.2925, 17, 100):
            yield ("lemma64", q, a), lemma64_resolve(a, q), _ref_resolved(_ref(a), q)
        for m in _moduli(q, 3 if q == 2 else 2):
            yield ("prop65", q, m), prop65_bound(q, m), _ref_prop65(q, m)
            ref = (_ref(Fraction(q * q + 4, 2)) + _ref(0.01)) * psi(q, m) * int(m.degree)
            yield ("asymptotic", q, m), asymptotic_bound(q, m, 0.01), ref
    for q, r, K, h, c2 in itertools.product((2, 3, 5), (2, 3), (1, 2), (Fraction(1, 3), 1, 5), (1.0, 0.5)):
        const = Fraction(q, q - 1) - Fraction(q**r, q**r - 1)
        ref = _ref_log(_ref(c2), q) + 10 * (r + 1) ** 7 * _ref_log(K * (q**r - 1) * _ref(h), q)
        yield ("dd", q, r, K, h, c2), dd_corollary_bound(K, h, q, r, c2=c2), ref + _ref(const)


def test_every_evaluator_rounds_up():
    """Each returned float is at or above the upper endpoint of an
    independent 80-digit interval evaluation of the same expression."""
    low = [label for label, value, ref in _evaluations() if not _REF.mpf(value) >= ref.b]
    assert not low, low


def test_evaluators_ignore_the_global_interval_context():
    """The evaluators keep their own precision: lowering the global
    mpmath.iv precision changes no value, and no evaluator resets it."""
    before = [value for _, value, _ in _evaluations()]
    old = mpmath.iv.dps
    mpmath.iv.dps = 5
    try:
        after = [value for _, value, _ in _evaluations()]
        assert mpmath.iv.dps == 5
    finally:
        mpmath.iv.dps = old
    assert after == before


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
