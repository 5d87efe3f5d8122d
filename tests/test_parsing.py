"""Round-trips between the text syntax and elements of each ring."""

import random
import re
import time

import pytest

from drinfeld import GF, DrinfeldError, QuotientField, parse_element, parse_skew, skew_ring
from drinfeld.base import poly_ring_A, rational_function_field
from drinfeld.extfield import ExtElem
from drinfeld.factor import is_irreducible, monic_polys_of_degree
from drinfeld.ff import FFElem
from drinfeld.parsing import MAX_DEGREE, ParseError, tokenize
from drinfeld.poly import PolyRing
from drinfeld.ratfunc import RatFunc
from drinfeld.skew import SkewPoly


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


# -- the printers against the ones they replaced -----------------------------
# One function per kind of element, each with its own term loop, recursing
# into itself for coefficients: the reference every repr must equal byte for
# byte.


def _ref(x):
    if isinstance(x, FFElem):
        return _ref_ff(x)
    if isinstance(x, RatFunc):
        return _ref_ratfunc(x)
    if isinstance(x, ExtElem):
        return _ref_poly(x.poly)
    if isinstance(x, SkewPoly):
        return _ref_skew(x)
    return _ref_poly(x)


def _ref_ff(elem):
    field = elem.field
    if field.e == 1:
        return str(elem.code)
    coords = elem.coords()
    terms = []
    for k in range(field.e - 1, -1, -1):
        c = coords[k]
        if c == 0:
            continue
        if k == 0:
            terms.append(str(c))
        else:
            head = "" if c == 1 else f"{c}*"
            terms.append(f"{head}u" + (f"^{k}" if k > 1 else ""))
    return "+".join(terms) if terms else "0"


def _ref_needs_parens(s):
    return any(op in s for op in "+-/") or "*" in s


def _ref_poly(poly):
    if poly.is_zero:
        return "0"
    var = poly.ring.var
    one = poly.ring.base.one
    terms = []
    for k in range(int(poly.degree), -1, -1):
        c = poly.coeff(k)
        if c.is_zero:
            continue
        cs = _ref(c)
        if k == 0:
            terms.append(f"({cs})" if _ref_needs_parens(cs) else cs)
            continue
        mono = var if k == 1 else f"{var}^{k}"
        if c == one:
            terms.append(mono)
        elif _ref_needs_parens(cs):
            terms.append(f"({cs})*{mono}")
        else:
            terms.append(f"{cs}*{mono}")
    return "+".join(terms)


def _ref_ratfunc(x):
    if x.is_zero:
        return "0"
    num = _ref_poly(x.num)
    if x.den.degree == 0:
        return num
    den = _ref_poly(x.den)
    return f"({num})/({den})"


def _ref_skew(f):
    if f.is_zero:
        return "0"
    one = f.ring.base.one
    terms = []
    for k, c in enumerate(f.coeffs):
        if c.is_zero:
            continue
        mono = f"T^{k}"
        if c == one:
            terms.append(mono)
        else:
            cs = _ref(c)
            head = f"({cs})" if _ref_needs_parens(cs) else cs
            terms.append(f"{head}*{mono}")
    return " + ".join(terms)


def _draws(ring, rng, n, max_degree):
    """zero, one, every constant of F_q, then n drawn elements."""
    consts = [ring(c) for c in GF(ring.q).elements()]
    return consts + [ring.random_element(rng, max_degree) for _ in range(n)]


@pytest.mark.parametrize("q", [4, 8, 9, 27])
def test_repr_of_Fq_matches_reference(q):
    for x in GF(q).elements():
        assert repr(x) == _ref(x)


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_repr_matches_reference(q):
    rng = random.Random(44)
    A, F = poly_ring_A(q), rational_function_field(q)
    S = skew_ring(F, q)
    elements = _draws(A, rng, 30, 4) + _draws(F, rng, 30, 3)
    for R in (PolyRing(A, "x"), PolyRing(F, "x")):
        elements += [R.zero, R.one, R.gen(), R.constant(R.base.gen() if R.base is A else F.t)]
        elements += [R.random_element(rng, 2) for _ in range(15)]
    elements += [S.zero, S.one, S.tau(), S([F.zero, F.t])]
    elements += [
        S([F.random_element(rng, 2) for _ in range(rng.randrange(1, 4))]) for _ in range(15)
    ]
    # A/l at the first prime of degree 3, and L = F[x]/(m) at m = x^2 + t x + t
    l = next(f for f in monic_polys_of_degree(A, 3) if is_irreducible(f))
    x = PolyRing(F, "x").gen()
    for L in (QuotientField(GF(q), l), QuotientField(F, x * x + F.t * x + F.t)):
        elements += [L.zero, L.one, L.gen()] + [L.random_element(rng, 2) for _ in range(15)]
    for v in elements:
        assert repr(v) == _ref(v)


# -- the tokenizer -----------------------------------------------------------


@pytest.mark.parametrize(
    "text, char",
    [("$t+1", "$"), ("t+ $1", "$"), ("t+1.  ", "."), ("t\t+\n#", "#"), ("é", "é")],
)
def test_bad_character_is_named(text, char):
    with pytest.raises(ParseError, match=re.escape(f"bad character {char!r}")):
        tokenize(text)


def test_tokenizer_blanks():
    assert tokenize(" t^2\t+\n2*t \r\n") == ["t", "^", "2", "+", "2", "*", "t"]
    assert tokenize("(t1+x)/3") == ["(", "t1", "+", "x", ")", "/", "3"]
    assert tokenize(" \t\n") == []


def test_parse_error_is_a_drinfeld_error():
    # the CLI maps a DrinfeldError, like a ValueError, to exit code 1
    assert issubclass(ParseError, DrinfeldError) and issubclass(ParseError, ValueError)
