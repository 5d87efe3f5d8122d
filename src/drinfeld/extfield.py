"""Quotient fields R/(m), m monic irreducible over a field K, and
irreducibility certificates for polynomials over F = F_q(t).

``QuotientField`` is the one quotient core and ``ExtElem``, an
``ff.FieldElem`` that defines ``+``, negation, ``*`` and ``inverse``, its
one element class.  R = F[x] gives L = F[x]/(m); K = F_q and R = A give
the residue field A/l, generated by t, which reduces a/b in F to a * b^-1
and raises ``BadReduction`` when l divides b.

Polynomials over A = F_q[t] in the variable x are represented in the
nested ring A[x] = PolyRing(PolyRing(F_q, 't'), 'x').
"""

from .base import rational_function_field
from .errors import BadReduction, InvariantViolation, IrreducibilityUncertain
from .factor import factor, is_irreducible
from .ff import FieldElem, GaloisField, power
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
        other = self.field(other)
        return ExtElem(self.field, self.poly + other.poly)

    __radd__ = __add__

    def __neg__(self):
        return ExtElem(self.field, -self.poly)

    def __mul__(self, other):
        other = self.field(other)
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
        from .parsing import format_poly

        return format_poly(self.poly)


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


def _swap_to_t_outer(f):
    """View f in A[x] as a polynomial in t with F_q[x]-coefficients."""
    A = f.ring.base
    Fq = A.base
    xring = PolyRing(Fq, "x")
    tring = PolyRing(xring, "t")
    max_t = max((len(c.coeffs) for c in f.coeffs if not c.is_zero), default=0)
    rows = []
    for k in range(max_t):
        rows.append(xring.from_coeffs([c.coeff(k) for c in f.coeffs]))
    return tring.from_coeffs(rows)

def _monic_divisors(a):
    """All monic divisors of nonzero a in A."""
    _, facs = factor(a)
    divisors = [a.ring.one]
    for p, mult in facs:
        new = []
        for d in divisors:
            cur = d
            for _ in range(mult + 1):
                new.append(cur)
                cur = cur * p
        divisors = new
    return divisors


def rational_roots(f_in_Ax, F):
    """All roots in F of a nonzero polynomial in A[x], found by the
    rational root test: a root u a / b in lowest terms, with a and b monic
    and u a unit, has a | f(0) and b | lead(f).  Each candidate is decided
    in A: f(u a / b) = 0 iff sum_i u^i c_i a^i b^(d-i) = 0 for
    f = sum_i c_i x^i of degree d.  The test holds for any nonzero f in
    A[x], primitive or not, so the content is not taken here: to_A_x
    already returns a primitive f."""
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
    b_pows = [(b, _powers(b, d)) for b in _monic_divisors(f.lead)]
    for a in _monic_divisors(f.constant):
        a_pows = _powers(a, d)
        for b, bp in b_pows:
            # a pair with a common factor g gives the values of
            # (a/g, b/g), which _monic_divisors lists first
            if a.degree > 0 and b.degree > 0 and poly_gcd(a, b).degree > 0:
                continue
            folded = [A.zero] * period
            for i, c in enumerate(f.coeffs):
                folded[i % period] += c * a_pows[i] * bp[d - i]
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
    root; linear in t with coprime t-coefficients (Gauss); Eisenstein at
    a prime of A.  Raises IrreducibilityUncertain when none applies.
    """
    f = f_in_Ax
    if f.degree < 1:
        return False
    if content(f).degree != 0:
        return False
    if f.degree == 1:
        return True
    A = f.ring.base
    F_roots_decidable = f.degree <= 3
    if F_roots_decidable:
        F = rational_function_field(A.base.q)
        return not rational_roots(f, F)
    swapped = _swap_to_t_outer(f)
    if swapped.degree == 1:
        c0, c1 = swapped.coeff(0), swapped.coeff(1)
        if poly_gcd(c0, c1).degree == 0:
            return True
    if _eisenstein(f):
        return True
    raise IrreducibilityUncertain(
        "no applicable irreducibility certificate for this polynomial"
    )


def _eisenstein(f):
    const = f.constant
    if const.is_zero:
        return False
    _, facs = factor(const)
    for P, mult in facs:
        if mult >= 2:
            continue
        if divmod(f.lead, P)[1].is_zero:
            continue
        if all(divmod(f.coeff(i), P)[1].is_zero for i in range(int(f.degree))):
            return True
    return False
