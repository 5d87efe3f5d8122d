"""Places of F = F_q(t), exact log-absolute-values and Weil heights.

All values are log base q of the absolute value, stored as exact
Fractions.  At the infinite place |x| = q^deg(x); at the finite place
attached to a monic irreducible P, |x| = q^(-deg(P) v_P(x)).

`coprime_base` splits numerators and denominators into pairwise coprime
b by gcds and exact divisions, never testing a pair it has proved
coprime; a module's heights read b with weight deg b, and its per-place
view factors each b once.  `valuation` and `log_abs` divide by one
given P.  `newton_slopes` reads the sizes of the roots of f in A[x] at
one place off the upper hull of the points (i, log_q |c_i|_v).

Only places of F itself occur, so every local degree n_v is 1 and the
e_v/f_v bookkeeping of finite extensions never enters.
"""

from fractions import Fraction
from functools import reduce

from .factor import is_irreducible
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


def _order(f, prime):
    """v_P(f) for nonzero f in A."""
    v, (q, r) = 0, divmod(f, prime)
    while r.is_zero:
        v, (q, r) = v + 1, divmod(q, prime)
    return v


def valuation(x, prime):
    """v_P(x) for nonzero x in F."""
    if x.is_zero:
        raise ValueError("zero has no valuation")
    return _order(x.num, prime) - _order(x.den, prime)


def log_abs(x, place):
    """log_q |x|_v as an exact Fraction; x nonzero in F."""
    if x.is_zero:
        raise ValueError("log of |0| is undefined")
    if place.is_infinite:
        return Fraction(x.deg_infinity())
    return Fraction(-place.degree * valuation(x, place.prime))


def newton_slopes(f, place):
    """[(s, m)] for nonzero f in A[x]: f has m roots x != 0, with
    multiplicity, in an algebraic closure of the completion at place with
    log_abs(x, place) = s, and s runs up (Neukirch II 6.3).  The points
    (i, log_q |c_i|) of f's nonzero coefficients have an upper hull; a
    segment of slope -s and length m gives (s, m)."""
    hull = []
    for i, c in enumerate(f.coeffs):
        if c.is_zero:
            continue
        y = c.degree if place.is_infinite else -place.degree * _order(c, place.prime)
        # drop the last vertex while it lies on or below the chord to (i, y)
        while len(hull) > 1 and (
            (hull[-1][0] - hull[-2][0]) * (y - hull[-2][1])
            >= (hull[-1][1] - hull[-2][1]) * (i - hull[-2][0])
        ):
            hull.pop()
        hull.append((i, y))
    return [(Fraction(y0 - y1, i1 - i0), i1 - i0) for (i0, y0), (i1, y1) in zip(hull, hull[1:])]


def coprime_base(pieces):
    """Pairwise coprime, monic, nonconstant b with vectors v such that
    prod b^v = prod f^e up to a unit, for pairs (f, e) of nonzero f in A
    and integer vectors e, by factor refinement (Bach, Driscoll and
    Shallit 1993): a pair sharing g = gcd(a, b) becomes (a/g, e_a),
    (g, e_a + e_b), (b/g, e_b) until none does.  That is the natural coprime
    base in any input order; b with a zero vector are dropped only last.

    Each pending piece carries a k such that it is coprime to base[:k],
    and is tested against base[k:] only.  A split at base[k] leaves b/g
    there (or deletes it, a unit) and pushes a/g and g with that same k.
    The stack holds the pieces in nondecreasing k, so a deletion at k
    never reaches the proved prefix of a piece still waiting."""
    work = [(f.monic(), list(e), 0) for f, e in pieces if f.degree > 0]
    base = []
    while work:
        a, ea, start = work.pop()
        for k in range(start, len(base)):
            b, eb = base[k]
            g = poly_gcd(a, b)
            if g.degree > 0:
                b = b.exact_div(g)
                if b.degree > 0:
                    base[k] = (b, eb)
                else:
                    del base[k]
                split = ((a.exact_div(g), ea), (g, [x + y for x, y in zip(ea, eb)]))
                work += [(h, e, k) for h, e in split if h.degree > 0]
                break
        else:
            base.append((a, ea))
    return sorted(((b, e) for b, e in base if any(e)), key=lambda be: (be[0].degree, be[0].codes))


def valuation_base(xs):
    """[(b, [v_b(x) for x in xs])] over the coprime base of the numerators
    and denominators of nonzero xs: v_P(x) = v_P(b) v_b(x) at P | b."""
    xs = list(xs)
    pieces = []
    for i, x in enumerate(xs):
        if x.is_zero:
            raise ValueError("zero has no valuation")
        unit = [int(k == i) for k in range(len(xs))]
        pieces += [(x.num, unit), (x.den, [-n for n in unit])]
    return coprime_base(pieces)


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
