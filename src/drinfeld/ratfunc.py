"""Rational function fields F = Frac(k[t]) in canonical form.

Every element is stored with coprime numerator and denominator and a
monic denominator, so structural equality is mathematical equality.
``RatFunc`` is an ``ff.FieldElem`` that defines ``+``, negation, ``*`` and
``inverse``.
"""

from .ff import FieldElem
from .poly import Poly, poly_gcd


class RatFunc(FieldElem):
    __slots__ = ("field", "num", "den")

    def __init__(self, field, num, den):
        # internal: assumes canonical form; use field() to construct
        self.field = field
        self.num = num
        self.den = den

    @property
    def is_zero(self):
        return self.num.is_zero

    def __eq__(self, other):
        return (
            isinstance(other, RatFunc)
            and self.field is other.field
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((id(self.field), self.num, self.den))

    def __add__(self, other):
        other = self.field(other)
        a, b = self.num, self.den
        c, d = other.num, other.den
        # a constant (monic, so 1) denominator needs no gcd: (a d + c)/d is
        # reduced, as gcd(a d + c, d) = gcd(c, d) = 1, and d is monic
        if b.degree == 0:
            return RatFunc(self.field, a * d + c, d)
        if d.degree == 0:
            return RatFunc(self.field, a + c * b, b)
        return self.field.make(a * d + c * b, b * d)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(self.field, -self.num, self.den)

    def __mul__(self, other):
        other = self.field(other)
        if self.is_zero or other.is_zero:
            return self.field.zero
        # cross-cancel first: both fractions are already reduced, so only
        # num/den pairs across the factors can share divisors
        a, b = self.num, self.den
        c, d = other.num, other.den
        # a constant numerator or denominator is a unit and shares nothing:
        # skip its gcd
        if a.degree > 0 and d.degree > 0 and (g1 := poly_gcd(a, d)).degree > 0:
            a, d = a.exact_div(g1), d.exact_div(g1)
        if c.degree > 0 and b.degree > 0 and (g2 := poly_gcd(c, b)).degree > 0:
            c, b = c.exact_div(g2), b.exact_div(g2)
        # b, d and the gcds cancelled from them are monic, so b*d is monic
        return RatFunc(self.field, a * c, b * d)

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero:
            raise ZeroDivisionError("division by zero rational function")
        num, den = self.den, self.num
        if not den.is_monic:
            lead = den.lead
            num = num.scale(self.field.base_field.one / lead)
            den = den.monic()
        return RatFunc(self.field, num, den)

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return self.field.one
        if self.is_zero:
            return self
        # num and den are coprime, so their powers are too: no gcd needed
        return RatFunc(self.field, self.num**n, self.den**n)

    def deg_infinity(self):
        """deg(x) = deg num - deg den; the valuation data at infinity."""
        if self.is_zero:
            raise ValueError("zero has no degree at infinity")
        return int(self.num.degree) - int(self.den.degree)

    def __repr__(self):
        from .parsing import format_ratfunc

        return format_ratfunc(self)


class FractionField:
    """Fraction field of a univariate polynomial ring over a field."""

    def __init__(self, polyring):
        self.ring = polyring
        self.base_field = polyring.base
        self.q, self.characteristic = polyring.q, polyring.characteristic
        self.zero = RatFunc(self, polyring.zero, polyring.one)
        self.one = RatFunc(self, polyring.one, polyring.one)
        self.var = polyring.var

    def gen(self):
        return RatFunc(self, self.ring.gen(), self.ring.one)

    @property
    def t(self):
        return self.gen()

    def make(self, num, den):
        """Canonicalize num/den: reduce and make the denominator monic."""
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if num.is_zero:
            return self.zero
        g = poly_gcd(num, den)
        if g.degree > 0:
            num = num.exact_div(g)
            den = den.exact_div(g)
        if not den.is_monic:
            lead = den.lead
            num = num.scale(self.base_field.one / lead)
            den = den.monic()
        return RatFunc(self, num, den)

    def clear_denominators(self, xs):
        """(polys, den): den the monic lcm of the denominators of xs and
        polys[i] = xs[i] * den, exactly, as elements of the ring.  Only
        monic denominators are needed: xs may be unreduced fractions."""
        den = self.ring.one
        for x in xs:
            # a repeated denominator leaves the lcm as it is
            if x.den.degree > 0 and x.den != den:
                den = den * x.den.exact_div(poly_gcd(den, x.den))
        polys = [x.num if x.den == den else x.num * den.exact_div(x.den) for x in xs]
        return polys, den

    def __call__(self, value):
        if isinstance(value, RatFunc) and value.field is self:
            return value
        if isinstance(value, Poly) and value.ring is self.ring:
            return RatFunc(self, value, self.ring.one)
        # an integer or a base-field element
        return RatFunc(self, self.ring(value), self.ring.one)

    def from_poly(self, p):
        return RatFunc(self, p, self.ring.one)

    def random_element(self, rng, max_degree, nonzero=False):
        while True:
            num = self.ring.random_element(rng, max_degree)
            den = self.ring.random_element(rng, max_degree, nonzero=True)
            x = self.make(num, den)
            if not (nonzero and x.is_zero):
                return x

    def __repr__(self):
        return f"Frac({self.ring!r})"
