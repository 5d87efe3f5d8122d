"""Dense univariate polynomials over an arbitrary coefficient ring.

``PolyRing(base, var)`` is the one constructor.  Over a ``GaloisField``
(A = F_q[t]) its elements are ``FqPoly``s: each holds the tuple of its
coefficient codes, every operation runs on them through the code-list
kernels of ``ff``, and ``coeffs`` is a read-only view as field elements.
Over any other base (A[x], F[Y], A[s][y], ...) the elements are generic
``Poly``s over a base whose elements implement the arithmetic dunders
plus ``exact_div`` and ``is_zero``: nesting PolyRings gives multivariate
rings in recursive (dense) representation.

``Dense`` is the core of every Ore ring R[x; sigma]: the ring and
coefficient tuple with equality, hashing and negation, and the one sum,
product and division loop, with sigma^k from the ring's ``_twist``.  It
is the identity here and c -> c^(q^k) for ``skew.SkewPoly``; ``FqPoly``
overrides all of it on codes.  Their rings share ``DenseRing``: one
registry, the base's q, and the constructors.

Division helpers:

* ``divmod`` is long division, the loop of ``ff._poly_divmod`` on
  elements: each step pops the top coefficient, divides it by the
  divisor's lead with ``exact_div`` (not at all for a monic divisor) and
  subtracts that multiple of the divisor's nonzero terms.  Over a domain
  it raises ``ValueError`` when a step is not exact, and ``/`` is
  ``exact_div``, by a constant too.
* ``resultant`` runs the subresultant polynomial remainder sequence on
  coefficient lists, taking fraction-free pseudo-remainders only, so
  resultants over nested polynomial rings never leave the ring.
"""

import array
import sys
from functools import reduce

from .ff import GaloisField, _poly_add, _poly_divmod, _poly_gcd, _poly_monic, power
from .ff import _poly_exact_div, _poly_mul, _poly_rem, _poly_sub

NEG_INF = float("-inf")

# over a prime field a product packs into big integers (Kronecker
# substitution) once the code loop's len(a) * len(b) table steps exceed this
# many per coefficient of the factors; packing costs a fixed overhead plus
# len(a) + len(b) digit steps (crossover measured in CHANGES.md)
_KRONECKER_PAIRS_PER_COEFF = 2.5


def _ARRAY_TYPECODE(bits):
    """Fixed-width typecode for packed Kronecker digits.  Wider than 64
    bits would take operands of about 2^63 / (p-1)^2 coefficients."""
    return "H" if bits <= 16 else "I" if bits <= 32 else "Q"


def _mul_kronecker(a, b, p):
    """Product of code lists over F_p by packing each operand into one big
    integer; the digit width is chosen so column sums cannot overflow into
    the next digit."""
    bits = (min(len(a), len(b)) * (p - 1) * (p - 1)).bit_length() + 1
    typecode = _ARRAY_TYPECODE(bits)
    # native byte order: on a big-endian host both operands pack
    # reversed, and so does their exact-length product, so one path
    # is correct on either byte order
    order = sys.byteorder
    arr = array.array(typecode, a)
    packed_a = int.from_bytes(arr.tobytes(), order)
    packed_b = int.from_bytes(array.array(typecode, b).tobytes(), order)
    n = len(a) + len(b) - 1
    prod = (packed_a * packed_b).to_bytes(n * arr.itemsize, order)
    return [d % p for d in array.array(typecode, prod)]


def _is_power_of(n, p):
    while n % p == 0:
        n //= p
    return n == 1


class Dense:
    """Element of an Ore ring R[x; sigma]: ring and coefficient tuple,
    lowest degree first and trimmed by the ring.  A ring builds elements
    of one class, so equality compares ring identity and coefficients."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        self.ring = ring
        self.coeffs = coeffs

    @property
    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    @property
    def lead(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def constant(self):
        return self.coeff(0)

    def coeff(self, i):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.ring.base.zero

    def __eq__(self, other):
        return (
            isinstance(other, Dense)
            and self.ring is other.ring
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((id(self.ring), self.coeffs))

    def __neg__(self):
        # from a list: tuple() of a generator or map resizes and swells free lists
        return self.__class__(self.ring, tuple([-c for c in self.coeffs]))

    def _lift(self, other):
        """This element in the ring of other, when other is a polynomial
        from a higher level of the tower whose ring coerces it; else None."""
        ring = getattr(other, "ring", None)
        if isinstance(ring, PolyRing):
            try:
                return ring(self)
            except TypeError:
                pass
        return None

    # an operand that neither this ring coerces nor whose polynomial ring
    # coerces this one (a rational function, say) is from a higher level
    # of the tower: NotImplemented hands it its reflected op
    def __add__(self, other):
        try:
            other = self.ring(other)
        except TypeError:
            lifted = self._lift(other)
            return NotImplemented if lifted is None else lifted + other
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return self.ring.from_coeffs(out)

    __radd__ = __add__

    def __sub__(self, other):
        try:
            other = self.ring(other)
        except TypeError:
            lifted = self._lift(other)
            return NotImplemented if lifted is None else lifted - other
        a, b = self.coeffs, other.coeffs
        out = list(a) + [-c for c in b[len(a):]]
        for i, c in enumerate(b[: len(a)]):
            out[i] = out[i] - c
        return self.ring.from_coeffs(out)

    def __mul__(self, other):
        """(ab)_k = sum_{i+j=k} a_i sigma^i(b_j), over the nonzero a_i and
        b_j; a slot still holding its initial zero takes its first term
        as it is."""
        try:
            other = self.ring(other)
        except TypeError:
            lifted = self._lift(other)
            return NotImplemented if lifted is None else lifted * other
        ring = self.ring
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return ring.zero
        zero = ring.base.zero
        out = [zero] * (len(a) + len(b) - 1)
        js = [j for j, bj in enumerate(b) if not bj.is_zero]
        row = [b[j] for j in js]
        for i, ai in enumerate(a):
            if not ai.is_zero:
                for j, bj in zip(js, ring._twist(row, i) if i else row):
                    term = ai * bj
                    out[i + j] = term if out[i + j] is zero else out[i + j] + term
        return ring.from_coeffs(out)

    def _divmod(self, other):
        """(quot, rem) with self = quot * other + rem, deg rem < deg other:
        Ore's left Euclidean division.  The step at shift k pops the top
        coefficient, divides it by sigma^k(lead) with ``exact_div`` (not
        at all for a monic divisor) and subtracts that multiple of x^k
        times sigma^k of the divisor's nonzero lower terms."""
        other = self.ring(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        ring = self.ring
        b = other.coeffs
        dv = len(b) - 1
        monic = b[-1] == ring.base.one
        js = [j for j in range(dv) if not b[j].is_zero]
        # the nonzero lower terms, then the lead unless it is one
        row = [b[j] for j in js] + ([] if monic else [b[-1]])
        rem = list(self.coeffs)
        quot = [ring.base.zero] * max(len(rem) - dv, 0)
        while len(rem) > dv:
            k = len(rem) - 1 - dv
            twisted = ring._twist(row, k) if k else row
            c = quot[k] = rem.pop() if monic else rem.pop().exact_div(twisted[-1])
            for j, bj in zip(js, twisted):
                rem[k + j] = rem[k + j] - c * bj
            while rem and rem[-1].is_zero:
                rem.pop()
        return ring.from_coeffs(quot), ring.from_coeffs(rem)


class Poly(Dense):
    __slots__ = ()

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_monic(self):
        return bool(self.coeffs) and self.lead == self.ring.base.one

    def __rsub__(self, other):
        return self.ring(other) - self

    # R[x] is commutative
    __rmul__ = Dense.__mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        if n == 1:
            return self
        if n > 1 and self and _is_power_of(n, self.ring.characteristic):
            return self._frobenius(n)
        return power(self, n, self.ring.one)

    def _frobenius(self, n):
        # n > 1 is a power of p, and the n-th power map is additive in
        # characteristic p: (sum c_i x^i)^n = sum c_i^n x^(i n)
        out = [self.ring.base.zero] * ((len(self.coeffs) - 1) * n + 1)
        for i, c in enumerate(self.coeffs):
            if not c.is_zero:
                out[i * n] = c**n
        return self.ring.from_coeffs(out)

    __divmod__ = Dense._divmod

    def __truediv__(self, other):
        """Exact division by an element of the same ring; raises when the
        quotient would leave the ring."""
        if isinstance(other, Poly) and other.ring is self.ring:
            return self.exact_div(other)
        return NotImplemented

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_div(self, other):
        q, r = divmod(self, other)
        if not r.is_zero:
            raise ValueError("exact_div: division is not exact")
        return q

    def scale(self, c):
        """Multiply by a base-ring element."""
        if c.is_zero:
            return self.ring.zero
        # from a list: tuple() of a generator or map resizes and swells free lists
        return Poly(self.ring, tuple([a * c for a in self.coeffs]))

    def __call__(self, x):
        """Evaluate; x may live in any ring containing the coefficients
        (coefficients must be coercible via x's arithmetic)."""
        if not self.coeffs:
            return x - x  # zero of x's ring
        result = None
        for c in reversed(self.coeffs):
            result = c if result is None else result * x + c
        return result

    def map_coeffs(self, func, ring):
        return ring.from_coeffs([func(c) for c in self.coeffs])

    def __repr__(self):
        from .parsing import format_poly

        return format_poly(self)


def _mul_codes(a, b, F):
    """Product of code lists over F, packed into big integers when that pays."""
    if F.e == 1 and len(a) * len(b) > _KRONECKER_PAIRS_PER_COEFF * (len(a) + len(b)):
        return _mul_kronecker(a, b, F.p)
    return _poly_mul(a, b, F)


def _on_codes(kernel):
    """The FqPoly operation kernel(a, b, F) on the codes of both operands.
    An operand the ring cannot coerce is from a higher level of the tower:
    NotImplemented hands it its reflected op."""

    def op(self, other):
        ring = self.ring
        if other.__class__ is not FqPoly or other.ring is not ring:
            try:
                other = ring(other)
            except TypeError:
                return NotImplemented
        return FqPoly(ring, tuple(kernel(self.codes, other.codes, ring.base)))

    return op


class FqPoly(Poly):
    """Element of F_q[var]: the tuple ``codes`` of its coefficient codes in
    F_q = ring.base, lowest degree first, with no trailing zero.  Every
    operation runs on the codes through the field tables; ``coeffs`` is
    a read-only view as field elements."""

    __slots__ = ("codes",)

    def __init__(self, ring, codes):
        self.ring = ring
        self.codes = codes

    @property
    def coeffs(self):
        elems = self.ring.base._elems
        return tuple([elems[c] for c in self.codes])

    @property
    def degree(self):
        return len(self.codes) - 1 if self.codes else NEG_INF

    @property
    def is_zero(self):
        return not self.codes

    def __bool__(self):
        return bool(self.codes)

    @property
    def lead(self):
        if not self.codes:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.ring.base._elems[self.codes[-1]]

    def coeff(self, i):
        codes = self.codes
        return self.ring.base._elems[codes[i] if 0 <= i < len(codes) else 0]

    @property
    def is_monic(self):
        return bool(self.codes) and self.codes[-1] == 1

    def __eq__(self, other):
        return other.__class__ is FqPoly and self.ring is other.ring and self.codes == other.codes

    def __hash__(self):
        return hash((id(self.ring), self.codes))

    __add__ = __radd__ = _on_codes(_poly_add)
    __sub__ = _on_codes(_poly_sub)
    __rsub__ = _on_codes(lambda a, b, F: _poly_sub(b, a, F))
    __mul__ = __rmul__ = _on_codes(_mul_codes)

    def __neg__(self):
        neg = self.ring.base.neg_table
        return FqPoly(self.ring, tuple([neg[c] for c in self.codes]))

    def _frobenius(self, n):
        F, codes = self.ring.base, self.codes
        # n is a power of p, so c^n = c on F_p: only e > 1 maps the codes
        if F.e > 1:
            codes = [(F._elems[c] ** n).code for c in codes]
        out = [0] * ((len(codes) - 1) * n + 1)
        out[::n] = codes
        return FqPoly(self.ring, tuple(out))

    __mod__ = _on_codes(_poly_rem)

    def __divmod__(self, other):
        ring = self.ring
        quot, rem = _poly_divmod(self.codes, ring(other).codes, ring.base)
        return FqPoly(ring, tuple(quot)), FqPoly(ring, tuple(rem))

    # not an operator, so no reflected op: NotImplemented would be a value
    def exact_div(self, other):
        ring = self.ring
        return FqPoly(ring, tuple(_poly_exact_div(self.codes, ring(other).codes, ring.base)))

    def scale(self, c):
        """Multiply by a field element."""
        if not c.code:
            return self.ring.zero
        row = self.ring.base.mul_table[c.code]
        return FqPoly(self.ring, tuple([row[a] for a in self.codes]))

    def monic(self):
        if not self.codes:
            raise ValueError("zero polynomial cannot be made monic")
        if self.codes[-1] == 1:
            return self
        return FqPoly(self.ring, tuple(_poly_monic(self.codes, self.ring.base)))

    def derivative(self):
        # i * c = (i mod p) * c in characteristic p, and i mod p has code i % p
        mul, p = self.ring.base.mul_table, self.ring.characteristic
        return self.ring.from_codes([mul[i % p][c] for i, c in enumerate(self.codes[1:], 1)])

    def pth_root(self):
        """Return g with g^p == self, p the characteristic: the p-th root of
        every p-th coefficient.  Raise ValueError if self is not a p-th
        power, that is, if a coefficient off the exponents p*i is nonzero."""
        codes, p = self.codes, self.ring.characteristic
        if any(c for i, c in enumerate(codes) if i % p):
            raise ValueError("not a p-th power")
        elems = self.ring.base._elems
        return FqPoly(self.ring, tuple([elems[c].pth_root().code for c in codes[::p]]))


class DenseRing:
    """Ring of dense polynomials, of class ``element``, over ``base`` in
    ``var``, with the q and characteristic of the base.

    There is one ring per (class, base, var), so rings, like every other
    parent, compare by identity, and R[T] and R{tau} are two rings.  The
    registry keys on ``id(base)``; it keeps each ring, and so its base,
    alive, so an id is never reused while its entry stands.
    """

    _registry = {}

    @classmethod
    def _unique(cls, base, var):
        key = (cls, id(base), var)
        ring = DenseRing._registry.get(key)
        if ring is None:
            ring = DenseRing._registry[key] = object.__new__(cls)
            ring.base, ring.var = base, var
            ring.q, ring.characteristic = base.q, base.characteristic
            ring.zero = ring.from_coeffs([])
            ring.one = ring.from_coeffs([base.one])
        return ring

    def from_coeffs(self, coeffs):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1].is_zero:
            coeffs.pop()
        return self.element(self, tuple(coeffs))

    def gen(self):
        return self.from_coeffs([self.base.zero, self.base.one])

    def monomial(self, c, k):
        return self.from_coeffs([self.base.zero] * k + [c])

    def constant(self, c):
        return self.from_coeffs([c])


class PolyRing(DenseRing):
    """Univariate polynomials over ``base`` in the variable ``var``; an
    ``FqPolyRing`` over a ``GaloisField``."""

    element = Poly

    def __new__(cls, base, var):
        return (FqPolyRing if isinstance(base, GaloisField) else PolyRing)._unique(base, var)

    def _twist(self, coeffs, k):
        """sigma^k on coefficients: the identity, since R[x] is commutative."""
        return coeffs

    def __call__(self, value):
        if isinstance(value, Poly) and value.ring is self:
            return value
        # an integer or a base-ring element; TypeError for anything else
        return self.constant(self.base(value))

    def random_element(self, rng, max_degree, nonzero=False, monic=False):
        while True:
            d = rng.randint(0, max_degree)
            coeffs = [self.base.random_element(rng, max_degree) for _ in range(d + 1)]
            if monic:
                coeffs[-1] = self.base.one
            p = self.from_coeffs(coeffs)
            if not (nonzero and p.is_zero):
                return p

    def __repr__(self):
        return f"{self.base!r}[{self.var}]"


class FqPolyRing(PolyRing):
    """F_q[var] for F_q = base, a GaloisField: its elements are FqPolys."""

    def from_codes(self, codes):
        """The polynomial with coefficient codes codes, lowest degree first."""
        codes = list(codes)
        while codes and not codes[-1]:
            codes.pop()
        return FqPoly(self, tuple(codes))

    def from_coeffs(self, coeffs):
        return self.from_codes([c.code for c in coeffs])


def poly_gcd(a, b):
    """Monic gcd of a and b in F_q[var], on their codes."""
    return FqPoly(a.ring, tuple(_poly_gcd(a.codes, b.codes, a.ring.base)))


def poly_xgcd(a, b):
    """Extended gcd over a field base: returns (g, u, v) with u*a + v*b = g."""
    ring = a.ring
    r0, r1 = a, b
    s0, s1 = ring.one, ring.zero
    t0, t1 = ring.zero, ring.one
    while not r1.is_zero:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero:
        return r0, s0, t0
    inv = ring.base.one.exact_div(r0.lead)
    return r0.scale(inv), s0.scale(inv), t0.scale(inv)


def content(f):
    """Gcd of the coefficients (for Poly whose base is itself a PolyRing
    over a field); returns a monic base element, or base zero for f = 0."""
    return reduce(poly_gcd, f.coeffs, f.ring.base.zero)


def primitive_part(f):
    """f divided by its content; f itself when the content is 0 or 1."""
    c = content(f)
    if c.degree < 1:
        return f
    return f.map_coeffs(lambda a: a.exact_div(c), f.ring)


def _pseudo_rem(a, b):
    """lc(b)^(len(a) - len(b) + 1) * a mod b on coefficient lists, lowest
    degree first, len(a) >= len(b) > 1: each step pops the top coefficient
    c and sets rem = d*rem - c*b for d = lc(b); one d^k at the end stands
    for the k steps skipped over a zero top coefficient."""
    d, low = b[-1], b[:-1]
    n = len(low)
    rem = list(a)
    k = len(a) - n
    while len(rem) > n:
        c = rem.pop()
        shift = len(rem) - n
        rem = [x * d for x in rem[:shift]] + [x * d - c * y for x, y in zip(rem[shift:], low)]
        k -= 1
        while rem and rem[-1].is_zero:
            rem.pop()
    if k and rem:
        dk = d**k
        rem = [c * dk for c in rem]
    return rem


def resultant(f, g):
    """Resultant via the subresultant PRS; valid over any integral domain
    whose elements support exact_div.

    Sign convention: res(f, g) = lc(f)^deg(g) * prod g(alpha) over the
    roots alpha of f (in a splitting extension), so that
    res(f, g) = (-1)^(deg f * deg g) res(g, f).
    """
    if f.is_zero and g.is_zero:
        raise ValueError("resultant of two zero polynomials")
    base = f.ring.base
    f, g = f.coeffs, g.coeffs
    # m = deg f >= n = deg g from here on, n = -1 for g = 0
    m, n = len(f) - 1, len(g) - 1
    negate = m < n and m * n % 2 == 1
    if m < n:
        f, g, m, n = g, f, n, m
    h = s = base.one
    while n > 0:
        delta = m - n
        negate ^= m * n % 2 == 1
        divisor = s * h**delta
        r = [c.exact_div(divisor) for c in _pseudo_rem(f, g)]
        f, g, m, n = g, r, n, len(r) - 1
        s = f[-1]
        if delta:
            h = (s**delta).exact_div(h ** (delta - 1))
    # deg g <= 0: res = g^m / h^(m-1), which is h for m = 0 and zero for g = 0
    if not m:
        return h
    if not g:
        return base.zero
    res = (g[0] ** m).exact_div(h ** (m - 1))
    return -res if negate else res
