"""Numeric bound evaluators: known values, monotonicity, rounding, and
the exact verdicts of the reports."""

import inspect
import itertools
import json
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
from drinfeld import bounds
from drinfeld.bounds import (
    BoundReport,
    asymptotic_bound,
    hsia_main_term,
    kappa,
    prop65_report,
    thm1_part1_report,
    thm1_part2_report,
)
from drinfeld.cli import main
from drinfeld.errors import InvariantViolation
from drinfeld.factor import factor, monic_polys_of_degree


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
    # the rhs 13/2, as the harness-q2-r2 golden prints it
    assert thm1_part2_bound(1, 6, 2) == 6.500000000000001
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
    psi_m = psi(m)
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
            yield ("prop65", q, m), prop65_bound(m), _ref_prop65(q, m)
            ref = (_ref(Fraction(q * q + 4, 2)) + _ref(0.01)) * psi(m) * int(m.degree)
            yield ("asymptotic", q, m), asymptotic_bound(m, 0.01), ref
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


# -- two-sided verdicts: lhs at and around the true rhs ---------------------


def _endpoints(x):
    return tuple(Fraction(*mpmath.libmp.to_rational(end)) for end in x._mpi_)


def _part2_ref(deg_f, h, q, ctx=_REF):
    half = ctx.mpf(q * q - 1) / 2
    return half * (deg_f + ctx.log(1 + ctx.mpf(h) / q) / ctx.log(q)) + q


def _verdict_cases(lo, hi, exact):
    """(lhs, the oracle's verdict) at the rhs, and 10^-20 and 10^-30 either
    side of it.  An irrational rhs lies strictly inside the oracle's
    interval [lo, hi], so lhs = lo holds and lhs = hi does not."""
    if exact is not None:
        assert lo <= exact <= hi
        lo = hi = exact
    yield lo, True
    yield hi, exact is not None
    for d in (Fraction(1, 10**20), Fraction(1, 10**30)):
        yield lo - d, True
        yield hi + d, False


@pytest.mark.parametrize("h, exact", [(1, None), (2, Fraction(5)), (6, Fraction(13, 2))])
def test_part2_verdict_is_exact(h, exact):
    """q = 2, log deg f = 1: the rhs is (3/2)(1 + log_2(1 + h/2)) + 2, which
    is rational when 1 + h/2 is a power of 2."""
    lo, hi = _endpoints(_part2_ref(1, h, 2))
    for lhs, verdict in _verdict_cases(lo, hi, exact):
        rep = thm1_part2_report(h - lhs, h, 1, 2)
        assert rep.satisfied is verdict, (h, lhs)
        assert rep.to_payload()["rhs"] == thm1_part2_bound(1, h, 2)
        assert bounds._IV.dps == 30


@pytest.mark.parametrize("q", [2, 3])
def test_prop65_verdict_is_exact(q):
    t = poly_ring_A(q).gen()
    lo, hi = _endpoints(_ref_prop65(q, t))
    for lhs, verdict in _verdict_cases(lo, hi, None):
        rep = prop65_report(t, lhs)
        assert rep.satisfied is verdict, (q, lhs)
        assert rep.to_payload()["rhs"] == prop65_bound(t)


def test_undecided_past_the_cap_raises():
    """A lhs within 10^-390 of an irrational rhs is still inside the
    240-digit interval: the report raises and names its inputs, and both
    interval contexts keep their precision."""
    ctx = MPIntervalContext()
    ctx.dps = 400
    lo, _ = _endpoints(_part2_ref(1, 1, 2, ctx))
    old = mpmath.iv.dps
    with pytest.raises(InvariantViolation, match="240 digits.*'h_jprime': '1'"):
        thm1_part2_report(1 - lo, 1, 1, 2)
    assert bounds._IV.dps == 30 and mpmath.iv.dps == old


def test_decided_report_evaluates_once():
    """An lhs outside the 30-digit interval is decided by its endpoints,
    with no second evaluation."""
    calls = []

    def rhs():
        calls.append(bounds._IV.dps)
        return bounds._IV.log(3)

    assert BoundReport(1, rhs, {}).satisfied and not BoundReport(2, rhs, {}).satisfied
    assert calls == [30, 30]


# -- psi and kappa against the product over the primes dividing m ----------


def _psi_ref(q, m):
    value = Fraction(q ** int(m.degree))
    for p, _ in factor(m)[1]:
        value *= 1 + Fraction(1, q ** int(p.degree))
    return value


def _kappa_ref(q, m):
    return sum((Fraction(int(p.degree), q ** int(p.degree)) for p, _ in factor(m)[1]), Fraction(0))


@pytest.mark.parametrize("q, max_degree", [(2, 3), (3, 3), (4, 3), (8, 2), (9, 2)])
def test_psi_kappa_match_the_product_over_primes(q, max_degree):
    for m in _moduli(q, max_degree):
        assert type(psi(m)) is int and psi(m) == _psi_ref(q, m), m
        assert kappa(m) == _kappa_ref(q, m), m


def test_psi_at_prime_powers():
    t = poly_ring_A(2).gen()
    assert [psi(m) for m in (t**2, t**3, t**2 * (t + 1))] == [6, 12, 18]
    assert [kappa(m) for m in (t**2, t**3, t**2 * (t + 1))] == [Fraction(1, 2)] * 2 + [1]


@pytest.mark.parametrize("q", [2, 4])
def test_each_table_row_factors_m_once(monkeypatch, capsys, q):
    """A `modpoly table` row reads psi, kappa, Hsia's main term and the two
    bounds off one factorization of its m: one factor call per row, in
    row order."""
    calls = []

    def counted(m):
        calls.append(repr(m))
        return factor(m)

    monkeypatch.setattr(bounds, "factor", counted)
    assert main(["modpoly", "table", "--q", str(q)]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert len(rows) == q + q * q and calls == [row["m"] for row in rows]


def test_bounds_on_phi_m_read_q_off_m():
    """psi(3, t) with t in F_2[t] was 4: no bound takes a q beside m."""
    t = poly_ring_A(2).gen()
    for f in (psi, kappa, hsia_main_term, prop65_bound):
        with pytest.raises(TypeError):
            f(3, t)
    takes_m = [
        name
        for name, f in inspect.getmembers(bounds, inspect.isfunction)
        if "m" in inspect.signature(f).parameters
    ]
    assert {"psi", "kappa", "prop65_bound", "bounds_row"} <= set(takes_m)
    assert not [n for n in takes_m if "q" in inspect.signature(getattr(bounds, n)).parameters]
