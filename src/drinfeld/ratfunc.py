"""Rational function fields F = Frac(F_q[t]) in canonical form.

Every element is stored with coprime numerator and denominator and a
monic denominator, so structural equality is mathematical equality.
``RatFunc`` is an ``ff.FieldElem`` that defines ``+``, negation, ``*`` and
``inverse``, and whose ``+`` and ``*`` take any operand from outside F
through ``FieldElem._coerce``.  Its ``num`` and ``den`` are
``poly.FqPoly``s, and F's arithmetic runs on their code lists through
the kernels of ``ff`` and ``poly._mul_codes``, the way A's does: an
operation builds one ``FqPoly`` per numerator and denominator it returns.
"""

from .ff import FieldElem, _poly_add, _poly_exact_div, _poly_gcd
from .poly import FqPoly, FqPolyRing, Poly, _mul_codes, poly_gcd


class RatFunc(FieldElem):
    __slots__ = ("field", "num", "den")

    def __init__(self, field, num, den):
        # internal: assumes canonical form; use field() to construct
        self.field = field
        self.num = num
        self.den = den

    @property
    def is_zero(self):
        return not self.num.codes

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
        field = self.field
        if other.__class__ is not RatFunc or other.field is not field:
            if (other := self._coerce(other)) is NotImplemented:
                return other
        F, ring = field.base_field, field.ring
        a, b = self.num.codes, self.den.codes
        c, d = other.num.codes, other.den.codes
        # a constant (monic, so 1) denominator needs no gcd: (a d + c)/d is
        # reduced, as gcd(a d + c, d) = gcd(c, d) = 1, and d is monic
        if len(b) == 1:
            ad = _mul_codes(a, d, F) if len(d) > 1 else a
            return RatFunc(field, FqPoly(ring, tuple(_poly_add(ad, c, F))), other.den)
        if len(d) == 1:
            return RatFunc(field, FqPoly(ring, tuple(_poly_add(a, _mul_codes(c, b, F), F))), self.den)
        return field._reduced(_poly_add(_mul_codes(a, d, F), _mul_codes(c, b, F), F), _mul_codes(b, d, F))

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(self.field, -self.num, self.den)

    def __mul__(self, other):
        field = self.field
        if other.__class__ is not RatFunc or other.field is not field:
            if (other := self._coerce(other)) is NotImplemented:
                return other
        a, b = self.num.codes, self.den.codes
        c, d = other.num.codes, other.den.codes
        if not a or not c:
            return field.zero
        F = field.base_field
        # cross-cancel first: both fractions are already reduced, so only
        # num/den pairs across the factors can share divisors; a constant
        # numerator or denominator is a unit and shares nothing
        if len(a) > 1 and len(d) > 1 and len(g := _poly_gcd(a, d, F)) > 1:
            a, d = _poly_exact_div(a, g, F), _poly_exact_div(d, g, F)
        if len(c) > 1 and len(b) > 1 and len(g := _poly_gcd(c, b, F)) > 1:
            c, b = _poly_exact_div(c, g, F), _poly_exact_div(b, g, F)
        # b, d and the gcds cancelled from them are monic, so b*d is monic
        ring = field.ring
        den = FqPoly(ring, tuple(_mul_codes(b, d, F))) if len(b) > 1 or len(d) > 1 else ring.one
        return RatFunc(field, FqPoly(ring, tuple(_mul_codes(a, c, F))), den)

    __rmul__ = __mul__

    def inverse(self):
        if not self.num.codes:
            raise ZeroDivisionError("division by zero rational function")
        return self.field._monic_den(self.den.codes, self.num.codes)

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return self.field.one
        if self.is_zero:
            return self
        # num and den are coprime, so their powers are too: no gcd needed;
        # FqPoly's ** at a power of p is Frobenius on the codes
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
    """Fraction field of A = F_q[var], an ``FqPolyRing``, on whose codes it runs."""

    def __init__(self, polyring):
        if not isinstance(polyring, FqPolyRing):
            raise ValueError(f"fraction fields are of F_q[t], not of {polyring!r}")
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
        for p in (num, den):
            if p.ring is not self.ring:
                raise ValueError(f"element of {p.ring!r}, not of {self.ring!r}")
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        return self._reduced(num.codes, den.codes)

    def _reduced(self, num, den):
        """num/den in canonical form, from code lists with den nonzero."""
        if not num:
            return self.zero
        F = self.base_field
        if len(den) > 1 and len(g := _poly_gcd(num, den, F)) > 1:
            num, den = _poly_exact_div(num, g, F), _poly_exact_div(den, g, F)
        return self._monic_den(num, den)

    def _monic_den(self, num, den):
        """num/den from coprime code lists, scaled to a monic denominator."""
        if den[-1] != 1:
            row = self.base_field.mul_table[self.base_field.inv_table[den[-1]]]
            num, den = [row[c] for c in num], [row[c] for c in den]
        return RatFunc(self, FqPoly(self.ring, tuple(num)), FqPoly(self.ring, tuple(den)))

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
        return self.make(p, self.ring.one)

    def random_element(self, rng, max_degree, nonzero=False):
        while True:
            num = self.ring.random_element(rng, max_degree)
            den = self.ring.random_element(rng, max_degree, nonzero=True)
            x = self.make(num, den)
            if not (nonzero and x.is_zero):
                return x

    def __repr__(self):
        return f"Frac({self.ring!r})"
