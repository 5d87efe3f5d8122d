"""Round-trips between the text syntax and elements of each ring."""

import random
import time

import pytest

from drinfeld import GF, QuotientField, parse_element, parse_skew, skew_ring
from drinfeld.base import poly_ring_A, rational_function_field
from drinfeld.poly import PolyRing
from drinfeld.parsing import MAX_DEGREE, ParseError


def test_parse_poly():
    A = poly_ring_A(3)
    t = A.gen()
    assert parse_element("t^3+2*t+1", A) == t**3 + 2 * t + A.one
    assert parse_element("0", A).is_zero
    assert parse_element("-t", A) == -t
    assert parse_element("t ", A) == t  # trailing blanks end the input


def test_parse_ratfunc():
    F = rational_function_field(2)
    t = F.t
    assert parse_element("(t+1)/(t^2+t+1)", F) == (t + 1) / (t**2 + t + 1)


def test_parse_gf4():
    k = GF(4)
    u = k.generator_u()
    assert parse_element("u^2+1", k) == u * u + k.one


def test_parse_errors():
    A = poly_ring_A(2)
    with pytest.raises(ParseError):
        parse_element("t +", A)
    with pytest.raises(ParseError):
        parse_element("y", A)
    with pytest.raises(ParseError):
        parse_element("t^(2)", A)


@pytest.mark.parametrize(
    "ring", [GF(2), GF(4), poly_ring_A(2), rational_function_field(3)]
)
@pytest.mark.parametrize(
    "text",
    [
        "1/0", "1/(1-1)", 1, None, ["1"], "t $", "t+1)", "(t+1",
        "t^3000000+1", "t^3000*t^3000",
        pytest.param("(" * 2000 + "t" + ")" * 2000, id="2000-parentheses"),
        pytest.param("-" * 5000 + "t", id="5000-minus-signs"),
    ],
)
def test_unparseable_literal_is_parse_error(ring, text):
    # a zero divisor, a non-string, a bad token, an unbalanced parenthesis,
    # a degree past MAX_DEGREE or nesting past the recursion limit is bad
    # input, not an arithmetic error
    with pytest.raises(ParseError):
        parse_element(text, ring)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_inexact_quotient_in_A_is_parse_error(q):
    # A is a ring: a quotient that leaves A is bad input, an exact one parses
    A = poly_ring_A(q)
    for text in ("1/t", "t/(t+1)", "(t^2+1)/t"):
        with pytest.raises(ParseError, match="not divisible"):
            parse_element(text, A)
    assert parse_element("(t^2+t)/t", A) == A.gen() + A.one


def test_degree_bound_admits_up_to_max_degree():
    # in F a sum has up to the sum of its terms' degrees
    F = rational_function_field(3)
    assert parse_element("1/t^2500+1/(t+1)^2500", F).den.degree == MAX_DEGREE
    assert parse_element("(t+1)^5000", F).num.degree == MAX_DEGREE
    for text in ("1/t^2500+1/(t+1)^2501", "(t+1)^5001", "t^2500*t^2501"):
        with pytest.raises(ParseError, match="MAX_DEGREE"):
            parse_element(text, F)


def test_skew_T_degree_bound_refuses_at_once():
    """f phi_t carries t^(q^d) for d = tau-deg f, so a skew operation whose
    T-degree bound passes log_q MAX_DEGREE (3 at q = 9) is refused before
    it runs: (T+1/(t+1))^2400, within the degree bound, ran for minutes."""
    S = skew_ring(rational_function_field(9), 9)
    start = time.perf_counter()
    with pytest.raises(ParseError, match="MAX_DEGREE"):
        parse_skew("(T+1/(t+1))^2400", S)
    assert time.perf_counter() - start < 0.5
    assert parse_skew("T^3+t*T^2+T", S).tau_degree == 3
    assert parse_skew("(T^3+T)/T", S).tau_degree == 2
    for text in ("T^4", "T^2*T^2", "(T^2)^2", "T^3*T+1"):
        with pytest.raises(ParseError, match="MAX_DEGREE"):
            parse_skew(text, S)


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_ratfunc_roundtrip(q):
    F = rational_function_field(q)
    rng = random.Random(41)
    for _ in range(50):
        x = F.random_element(rng, 3)
        assert parse_element(repr(x), F) == x


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_skew_roundtrip(q):
    F = rational_function_field(q)
    S = skew_ring(F, q)
    rng = random.Random(42)
    for _ in range(40):
        coeffs = [F.random_element(rng, 2) for _ in range(rng.randrange(1, 4))]
        f = S(coeffs)
        assert parse_skew(repr(f), S) == f


def test_quotient_field_roundtrip():
    F = rational_function_field(2)
    Fx = PolyRing(rational_function_field(2), "x")
    mod = Fx.gen() ** 2 + Fx.gen() + Fx.constant(F.t)
    # F[x]/(m), and A/l at l = t^4 + t + 1, t^2 + t + u and t + u over F_q
    fields = [QuotientField(F, mod)] + [
        QuotientField(GF(q), poly_ring_A(q).from_codes(codes))
        for q, codes in ((2, [1, 1, 0, 0, 1]), (4, [2, 1, 1]), (9, [3, 1]))
    ]
    rng = random.Random(43)
    for L in fields:
        draws = [L.random_element(rng, 2) for _ in range(20)]
        assert len(set(draws)) > 1
        for x in draws:
            assert parse_element(repr(x), L) == x
    assert parse_element("t^2", fields[1]) == fields[1].t ** 2
