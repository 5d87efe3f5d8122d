"""Places of F = F_q(t), exact log-absolute-values and Weil heights.

All values are log base q of the absolute value, stored as exact
Fractions.  At the infinite place |x| = q^deg(x); at the finite place
attached to a monic irreducible P, |x| = q^(-deg(P) v_P(x)).

Over F itself all local degrees n_v are 1; the e_v/f_v bookkeeping of
general extensions never enters because heights of algebraic elements
are computed through minimal polynomials instead.
"""

from fractions import Fraction
from functools import reduce

from .extfield import irreducible_over_F
from .factor import factor, is_irreducible
from .poly import content, poly_gcd


class Place:
    """A place of F: Finite(P) for monic irreducible P, or Infinity."""

    __slots__ = ("prime",)

    def __init__(self, prime=None):
        if prime is not None and not (prime.is_monic and is_irreducible(prime)):
            raise ValueError("finite places are keyed by monic irreducibles")
        self.prime = prime

    @classmethod
    def infinity(cls):
        return cls(None)

    @classmethod
    def finite(cls, prime):
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


def support(xs):
    """All finite places where some nonzero coordinate has nonzero
    valuation, i.e. the primes dividing any numerator or denominator."""
    primes = {}
    for x in xs:
        if x.is_zero:
            continue
        for f in (x.num, x.den):
            if f.degree < 1:
                continue
            _, facs = factor(f)
            for p, _ in facs:
                primes[p] = True
    return [Place.finite(p) for p in primes]


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


def algebraic_height(minpoly_in_Ax):
    """Weil height of any root of a primitive irreducible polynomial over
    A: equals max_i deg_t(a_i) / deg, since all places of F are
    ultrametric and the Gauss norm is multiplicative."""
    f = minpoly_in_Ax
    if f.degree < 1:
        raise ValueError("minimal polynomial must be nonconstant")
    if content(f).degree != 0:
        raise ValueError("minimal polynomial must be primitive (content 1)")
    if not irreducible_over_F(f):
        raise ValueError("minimal polynomial must be irreducible over F")
    top = max(int(c.degree) for c in f.coeffs if not c.is_zero)
    return Fraction(top, int(f.degree))
