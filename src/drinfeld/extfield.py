"""Quotient fields R/(m), m monic irreducible over a field K, and
irreducibility certificates for polynomials over F = F_q(t).

``QuotientField`` is the one quotient core and ``ExtElem``, an
``ff.FieldElem`` that defines ``+`` and ``*`` (through
``FieldElem._coerce``), negation and ``inverse``, its one element class.
R = F[x] gives L = F[x]/(m); K = F_q and R = A give the residue field
A/l, generated by t, which reduces a/b in F to a * b^-1 and raises
``BadReduction`` when l divides b.

Polynomials over A = F_q[t] in the variable x are represented in the
nested ring A[x] = PolyRing(PolyRing(F_q, 't'), 'x').
"""

from itertools import product
from math import prod

from .base import rational_function_field
from .errors import BadReduction, InvariantViolation, IrreducibilityUncertain
from .factor import factor, is_irreducible
from .ff import FieldElem, GaloisField, power
from .places import Place, newton_slopes
from .poly import Poly, PolyRing, content, poly_gcd, poly_xgcd, primitive_part
from .ratfunc import RatFunc


class ExtElem(FieldElem):
    """Element of R/(m), stored as the reduced representative."""

    __slots__ = ("field", "poly")

    def __init__(self, field, poly):
        self.field = field
        self.poly = poly

    @property
    def is_zero(self):
        return self.poly.is_zero

    def __eq__(self, other):
        return (
            isinstance(other, ExtElem)
            and self.field is other.field
            and self.poly == other.poly
        )

    def __hash__(self):
        return hash((id(self.field), self.poly))

    def __add__(self, other):
        if (other := self._coerce(other)) is NotImplemented:
            return other
        return ExtElem(self.field, self.poly + other.poly)

    __radd__ = __add__

    def __neg__(self):
        return ExtElem(self.field, -self.poly)

    def __mul__(self, other):
        if (other := self._coerce(other)) is NotImplemented:
            return other
        return ExtElem(self.field, (self.poly * other.poly) % self.field.modulus)

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero:
            raise ZeroDivisionError("zero has no inverse")
        g, u, _ = poly_xgcd(self.poly, self.field.modulus)
        if g.degree != 0:
            raise InvariantViolation("modulus is not irreducible")
        return ExtElem(self.field, u % self.field.modulus)

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        return power(self, n, self.field.one)

    def __repr__(self):
        return repr(self.poly)


class QuotientField:
    """F[x]/(m) for monic irreducible m over F, or A/l for F = F_q, m = l."""

    def __init__(self, F, modulus):
        if modulus.ring.base is not F or not modulus.is_monic or modulus.degree < 1:
            raise ValueError(f"modulus must be monic nonconstant over {F!r}")
        self.F = F
        self.xring = modulus.ring
        self.modulus = modulus
        self.degree = int(modulus.degree)
        self.q, self.characteristic = F.q, F.characteristic
        self.residue = isinstance(F, GaloisField)
        if not (is_irreducible(modulus) if self.residue else irreducible_over_F(to_A_x(modulus))):
            raise ValueError(f"modulus is reducible over {F!r}")
        self.zero = ExtElem(self, self.xring.zero)
        self.one = ExtElem(self, self.xring.one)

    def gen(self):
        return ExtElem(self, self.xring.gen() % self.modulus)

    @property
    def t(self):
        return self.gen() if self.residue else self(self.F.t)

    def __call__(self, value):
        if isinstance(value, ExtElem) and value.field is self:
            return value
        if isinstance(value, Poly) and value.ring is self.xring:
            return ExtElem(self, value % self.modulus)
        if isinstance(value, RatFunc) and value.field.ring is self.xring:
            den = self(value.den)
            if den.is_zero:
                raise BadReduction(f"{self.modulus!r} divides the denominator of {value!r}")
            return self(value.num) / den
        # an int, or an element of F or of F_q
        return ExtElem(self, self.xring(self.F(value)))

    def random_element(self, rng, max_degree, nonzero=False):
        while True:
            coeffs = [
                self.F.random_element(rng, max_degree) for _ in range(self.degree)
            ]
            x = ExtElem(self, self.xring.from_coeffs(coeffs))
            if not (nonzero and x.is_zero):
                return x

    def __repr__(self):
        return f"{self.xring!r}/({self.modulus!r})"


# ---------------------------------------------------------------------------
# Irreducibility over F for polynomials with A-coefficients


def to_A_x(fx_over_F):
    """Clear denominators of a polynomial in F[x], returning a primitive
    polynomial in A[x] with the same roots."""
    F = fx_over_F.ring.base
    coeffs, _ = F.clear_denominators(fx_over_F.coeffs)
    return primitive_part(PolyRing(F.ring, "x").from_coeffs(coeffs))


def rational_roots(f_in_Ax, F):
    """All roots in F of a nonzero polynomial in A[x] by the rational root
    test on Newton polygons.  A root u a / b in lowest terms (a | f(0) and
    b | lead(f) monic, u a unit) has deg a - deg b among f's slopes at
    infinity and, at each prime P of f(0) lead(f), an integer v_P-slope
    that is v_P(a) or -v_P(b).  Each such pair is decided in A: f(u a / b)
    = 0 iff sum_i u^i c_i a^i b^(d-i) = 0 for f = sum_i c_i x^i of degree
    d.  Roots come by the exponent vectors of a and b over factor's primes,
    then by u.  The test needs no primitive f, so the content is kept."""
    f = f_in_Ax
    roots = []
    if f.constant.is_zero:
        roots.append(F.zero)
        while f.constant.is_zero:
            f = f.ring.from_coeffs(f.coeffs[1:])
        if f.degree == 0:
            return roots
    A, d = f.ring.base, int(f.degree)
    units = [u for u in F.base_field.elements() if not u.is_zero]
    # u^(q-1) = 1, so the sum folds by i mod (q-1) before u is chosen
    period = len(units)
    const, lead = factor(f.constant)[1], factor(f.lead)[1]
    primes = list(dict.fromkeys(P for P, _ in const + lead))
    # v_P(u a / b) = -s / deg P for a slope s at P
    slopes = [[-s / P.degree for s, _ in newton_slopes(f, Place(P))] for P in primes]
    at_infinity = {s for s, _ in newton_slopes(f, Place.infinity())}
    pairs = []
    for vs in product(*[[int(v) for v in vP if v.denominator == 1] for vP in slopes]):
        v = dict(zip(primes, vs))
        ea, eb = [max(v[P], 0) for P, _ in const], [max(-v[P], 0) for P, _ in lead]
        a = prod([P**e for (P, _), e in zip(const, ea)], start=A.one)
        b = prod([P**e for (P, _), e in zip(lead, eb)], start=A.one)
        if a.degree - b.degree in at_infinity:
            pairs.append((ea, eb, a, b))
    for _, _, a, b in sorted(pairs, key=lambda p: p[:2]):
        a_pows, b_pows = _powers(a, d), _powers(b, d)
        folded = [A.zero] * period
        for i, c in enumerate(f.coeffs):
            folded[i % period] += c * a_pows[i] * b_pows[d - i]
        for u in units:
            if not sum([s.scale(u**r) for r, s in enumerate(folded)], A.zero):
                # b is monic and coprime to a: already canonical
                roots.append(RatFunc(F, a.scale(u), b))
    return roots


def _powers(x, d):
    """[1, x, ..., x^d]."""
    out = [x.ring.one]
    for _ in range(d):
        out.append(out[-1] * x)
    return out


def irreducible_over_F(f_in_Ax):
    """Certified irreducibility of a primitive polynomial in A[x] over F.

    Certificates, in order: linear in x; degree <= 3 with no rational
    root; f = g + t h with g, h coprime in F_q[x] (Gauss); Dumas at
    infinity or at a prime of f(0): one Newton segment, of length
    d = deg f and v-slope of denominator d, leaves f irreducible over the
    completion, which includes every Eisenstein case.  Raises
    IrreducibilityUncertain when none applies.
    """
    f = f_in_Ax
    if f.degree < 1 or content(f).degree != 0:
        return False
    if f.degree == 1:
        return True
    A, d = f.ring.base, int(f.degree)
    if d <= 3:
        return not rational_roots(f, rational_function_field(A.base.q))
    if max(c.degree for c in f.coeffs) == 1:
        Fqx = PolyRing(A.base, "x")
        g, h = [Fqx.from_coeffs([c.coeff(k) for c in f.coeffs]) for k in (0, 1)]
        if poly_gcd(g, h).degree == 0:
            return True
    primes = [] if f.constant.is_zero else factor(f.constant)[1]
    for place in [Place.infinity()] + [Place(P) for P, _ in primes]:
        # a slope of denominator d needs a segment of length d: all of f
        if any((s / place.degree).denominator == d for s, _ in newton_slopes(f, place)):
            return True
    raise IrreducibilityUncertain("no applicable irreducibility certificate for this polynomial")
