"""Text syntax for field elements, polynomials and skew polynomials.

The grammar is the usual one: `t^3+2*t+1`, `(t+1)/(t^2+t+1)`,
`u^2+1` for F_{p^e} elements, `x`-polynomials for elements of F[x]/(m),
`t`-polynomials for elements of A/l and `T` for the twist in skew
polynomials.  Printing and parsing round-trip: parse(print(v)) == v.
A literal nested past the recursion limit, or one operation whose degree
bound (the sum of its operands', or deg x n for x^n) passes MAX_DEGREE,
is a ParseError; so is a skew operation whose T-degree bound d passes
log_q MAX_DEGREE, since f phi_t carries t^(q^d) for d = tau-deg f.
"""

import re

from .extfield import ExtElem, QuotientField
from .ff import GaloisField
from .poly import Poly, PolyRing
from .ratfunc import FractionField, RatFunc

TOKEN = re.compile(r"\s*(\d+|[A-Za-z_]\w*|\^|\+|\-|\*|/|\(|\))")

MAX_DEGREE = 5000  # its slowest operation, 1/P^a + 1/Q^b at q = 9, takes ~1 s


class ParseError(ValueError):
    pass


def _degree(v):
    """v's degree over F_q, summed over the variables of its tower."""
    if isinstance(v, RatFunc):
        return max(_degree(v.num), _degree(v.den))
    if isinstance(v, ExtElem):
        return _degree(v.poly)
    if isinstance(v, Poly):
        return max(v.degree, 0) + max(map(_degree, v.coeffs), default=0)
    return 0


def _top(v):
    """v's degree in the variable of its own polynomial ring, else 0."""
    return max(v.degree, 0) if isinstance(v, Poly) else 0


def tokenize(text):
    if not isinstance(text, str):
        raise ParseError(f"expected a string, got {text!r}")
    pos, out = 0, []
    while pos < len(text):
        m = TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"bad token at {text[pos:]!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, tokens, ring, variables, max_top=None):
        self.tokens = tokens
        self.i = 0
        self.ring = ring
        self.vars = variables
        self.max_top = max_top

    def bound(self, degree, top):
        """Refuse an operation before it runs, by its degree bound and the
        bound top on its degree in the ring's own variable."""
        if degree > MAX_DEGREE:
            raise ParseError(f"literal may reach degree {degree}, past MAX_DEGREE = {MAX_DEGREE}")
        if self.max_top is not None and top > self.max_top:
            raise ParseError(f"literal may reach T-degree {top}: q^{top} passes MAX_DEGREE = {MAX_DEGREE}")

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def parse(self):
        value = self.expr()
        if self.peek() is not None:
            raise ParseError(f"trailing input at {self.peek()!r}")
        return value

    def expr(self):
        value = self.term()
        while self.peek() in ("+", "-"):
            op = self.next()
            rhs = self.term()
            self.bound(_degree(value) + _degree(rhs), max(_top(value), _top(rhs)))
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self):
        value = self.factor()
        while self.peek() in ("*", "/"):
            op = self.next()
            rhs = self.factor()
            self.bound(_degree(value) + _degree(rhs), _top(value) + (_top(rhs) if op == "*" else 0))
            if op == "*":
                value = value * rhs
            elif rhs.is_zero:
                raise ParseError("division by zero")
            else:
                try:
                    value = value / rhs
                except ValueError:  # an inexact quotient in a ring, such as 1/t in A
                    raise ParseError(f"{value!r} is not divisible by {rhs!r}") from None
        return value

    def factor(self):
        if self.peek() == "-":
            self.next()
            return -self.factor()
        value = self.atom()
        if self.peek() == "^":
            self.next()
            tok = self.next()
            if tok is None or not tok.isdigit():
                raise ParseError("exponent must be a nonnegative integer")
            self.bound(_degree(value) * int(tok), _top(value) * int(tok))
            value = value ** int(tok)
        return value

    def atom(self):
        tok = self.next()
        if tok is None:
            raise ParseError("unexpected end of input")
        if tok.isdigit():
            return self.ring(int(tok))
        if tok == "(":
            value = self.expr()
            if self.next() != ")":
                raise ParseError("missing closing parenthesis")
            return value
        if tok in self.vars:
            return self.vars[tok]
        raise ParseError(f"unknown symbol {tok!r}")


def parse_in_ring(text, ring, variables, max_top=None):
    try:
        return _Parser(tokenize(text), ring, variables, max_top).parse()
    except RecursionError:
        raise ParseError("literal nests too deeply") from None


def standard_vars(ring):
    """Variable bindings for the standard tower rings."""
    out = {}
    if isinstance(ring, GaloisField):
        if ring.e > 1:
            out["u"] = ring.generator_u()
        return out
    if isinstance(ring, PolyRing):
        out.update({k: ring(v) for k, v in standard_vars(ring.base).items()})
        out[ring.var] = ring.gen()
        return out
    if isinstance(ring, FractionField):
        out.update({k: ring(v) for k, v in standard_vars(ring.ring).items()})
        return out
    if isinstance(ring, QuotientField):
        out.update({k: ring(v) for k, v in standard_vars(ring.F).items()})
        out[ring.xring.var] = ring.gen()
        return out
    raise TypeError(f"no standard variables for {ring!r}")


def parse_element(text, ring):
    """Parse an element of F_q, A, F, or a quotient field F[x]/(m) or A/l."""
    return parse_in_ring(text, ring, standard_vars(ring))


def parse_skew(text, skew_ring):
    """Parse `c0*T^0 + c1*T^1 + ...` into a SkewPoly.

    The text is evaluated in the commutative ring R[T] and the
    coefficient list is reinterpreted; this is faithful because the
    printed form keeps all coefficients to the left of T-powers.
    """
    R = skew_ring.base
    commutative = PolyRing(R, "T")
    variables = standard_vars(R)
    variables = {k: commutative(v) for k, v in variables.items()}
    variables["T"] = commutative.gen()
    q = skew_ring.q
    max_top = max(d for d in range(MAX_DEGREE.bit_length()) if q**d <= MAX_DEGREE)
    value = parse_in_ring(text, commutative, variables, max_top)
    return skew_ring(list(value.coeffs))


# ---------------------------------------------------------------------------
# Formatting


def format_ff(elem):
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


def _needs_parens(s):
    return any(op in s for op in "+-/") or "*" in s


def format_poly(poly):
    if poly.is_zero:
        return "0"
    var = poly.ring.var
    one = poly.ring.base.one
    terms = []
    for k in range(int(poly.degree), -1, -1):
        c = poly.coeff(k)
        if c.is_zero:
            continue
        cs = repr(c)
        if k == 0:
            terms.append(f"({cs})" if _needs_parens(cs) else cs)
            continue
        mono = var if k == 1 else f"{var}^{k}"
        if c == one:
            terms.append(mono)
        elif _needs_parens(cs):
            terms.append(f"({cs})*{mono}")
        else:
            terms.append(f"{cs}*{mono}")
    return "+".join(terms)


def format_ratfunc(x):
    if x.is_zero:
        return "0"
    num = format_poly(x.num)
    if x.den.degree == 0:
        return num
    den = format_poly(x.den)
    return f"({num})/({den})"


def format_skew(f):
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
            cs = repr(c)
            head = f"({cs})" if _needs_parens(cs) else cs
            terms.append(f"{head}*{mono}")
    return " + ".join(terms)
