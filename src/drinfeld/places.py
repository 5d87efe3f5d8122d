"""Places of F = F_q(t), exact log-absolute-values and Weil heights.

All values are log base q of the absolute value, stored as exact
Fractions.  At the infinite place |x| = q^deg(x); at the finite place
attached to a monic irreducible P, |x| = q^(-deg(P) v_P(x)).

`valuations` reads every v_P(x) of a list off one factorization of each
numerator and denominator, multiplicities included; `valuation` and
`log_abs` divide by one given P and serve as the reference.

Only places of F itself occur, so every local degree n_v is 1 and the
e_v/f_v bookkeeping of finite extensions never enters.
"""

from fractions import Fraction
from functools import reduce

from .factor import factor, is_irreducible
from .poly import poly_gcd


class Place:
    """A place of F: Finite(P) for monic irreducible P, or Infinity."""

    __slots__ = ("prime",)

    def __init__(self, prime=None):
        """Unchecked; `finite` certifies a prime that `factor` did not emit."""
        self.prime = prime

    @classmethod
    def infinity(cls):
        return cls(None)

    @classmethod
    def finite(cls, prime):
        if not (prime.is_monic and is_irreducible(prime)):
            raise ValueError("finite places are keyed by monic irreducibles")
        return cls(prime)

    @property
    def is_infinite(self):
        return self.prime is None

    @property
    def degree(self):
        return 1 if self.prime is None else int(self.prime.degree)

    def __eq__(self, other):
        return isinstance(other, Place) and self.prime == other.prime

    def __hash__(self):
        return hash(("Place", self.prime))

    def __repr__(self):
        return "infinity" if self.is_infinite else f"Finite({self.prime!r})"


def valuation(x, prime):
    """v_P(x) for nonzero x in F."""
    if x.is_zero:
        raise ValueError("zero has no valuation")

    def poly_val(f):
        v = 0
        while True:
            q, r = divmod(f, prime)
            if not r.is_zero:
                return v
            f = q
            v += 1

    return poly_val(x.num) - poly_val(x.den)


def log_abs(x, place):
    """log_q |x|_v as an exact Fraction; x nonzero in F."""
    if x.is_zero:
        raise ValueError("log of |0| is undefined")
    if place.is_infinite:
        return Fraction(x.deg_infinity())
    return Fraction(-place.degree * valuation(x, place.prime))


def valuations(xs):
    """{Place(P): [v_P(x) for x in xs]} over the primes P of every
    numerator and denominator, for nonzero xs: one `factor` call per
    nonconstant num or den, v_P = mult in num - mult in den."""
    xs = list(xs)
    table = {}
    for i, x in enumerate(xs):
        if x.is_zero:
            raise ValueError("zero has no valuation")
        for f, sign in ((x.num, 1), (x.den, -1)):
            if f.degree < 1:
                continue
            for p, mult in factor(f)[1]:
                table.setdefault(p, [0] * len(xs))[i] += sign * mult
    return {Place(p): vals for p, vals in table.items()}


def weil_height(coords):
    """Logarithmic Weil height of a projective tuple over F.

    Invariant under scaling by the product formula, so scale to the
    primitive tuple a_i / g over A, a_i = D x_i with D the lcm of the
    denominators and g = gcd(a_i): no finite place contributes, and the
    height is max deg a_i - deg g."""
    coords = list(coords)
    nonzero = [x for x in coords if not x.is_zero]
    if not nonzero:
        raise ValueError("height of the zero tuple is undefined")
    polys, _ = nonzero[0].field.clear_denominators(nonzero)
    g = reduce(poly_gcd, polys)
    return Fraction(max(int(a.degree) for a in polys) - int(g.degree))
