"""Finite fields F_q with q = p^e.

Elements are encoded as integers in [0, q): the base-p digits of the code
are the coordinates with respect to the power basis 1, u, ..., u^(e-1),
where u is a root of a fixed monic irreducible modulus of degree e over
F_p.  The modulus is the one whose non-leading coefficient vector, read as
a base-p integer, is smallest; this makes field construction deterministic.
``factor.is_irreducible``, the one irreducibility test, decides it.

Multiplication and inversion tables are precomputed, so q is capped at
``MAX_Q`` (desk scale).  Each field builds its q elements once and
every operation returns one of them, so elements compare by identity.
Every field element of the tower is a ``FieldElem``.

A polynomial over F_q is a list of codes, lowest degree first, with no
trailing zero.  The kernels below add, subtract, multiply, divide and take
gcds of such lists through the tables: ``poly.FqPoly``, the elements of
A = F_q[t], runs every operation on them, so does ``ratfunc.RatFunc`` on
its num and den, and so do the tables of F_q with e > 1, over F_p.
"""

from functools import lru_cache

from .errors import InvariantViolation

MAX_Q = 256


def factor_prime_power(q):
    """Return (p, e) with q = p^e, or raise ValueError.  The least divisor
    p > 1 of q is prime, so q is a prime power iff it is a power of p."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    p = next(k for k in range(2, q + 1) if q % k == 0)
    e, m = 0, q
    while m % p == 0:
        m //= p
        e += 1
    if m != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, e


def digits(n, base, width):
    """The width lowest digits of n >= 0 in base, least significant first."""
    out = []
    for _ in range(width):
        n, d = divmod(n, base)
        out.append(d)
    return out


def power(x, n, one):
    """x^n for an integer n >= 0 by square-and-multiply, one being the
    identity of x's ring; squares only while bits of n remain."""
    result = one
    while n:
        if n & 1:
            result = result * x
        n >>= 1
        if n:
            x = x * x
    return result


def _smallest_irreducible(p, e):
    """Monic irreducible of degree e over F_p with the smallest
    non-leading coefficient vector (as a base-p integer): the first of
    ``factor.monic_polys_of_degree`` that ``factor.is_irreducible``
    accepts.  Degree 1 needs no test, and GF(p) none of its own tables."""
    if e == 1:
        return [0, 1]
    # poly and factor import this module
    from .factor import is_irreducible, monic_polys_of_degree
    from .poly import PolyRing

    for m in monic_polys_of_degree(PolyRing(GF(p), "x"), e):
        if is_irreducible(m):
            return list(m.codes)
    raise InvariantViolation(f"no monic irreducible of degree {e} over F_{p}")


def _poly_add(a, b, F):
    """Sum of code lists a and b over the field F."""
    add = F.add_table
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = add[out[i]][c]
    while out and not out[-1]:
        out.pop()
    return out


def _poly_sub(a, b, F):
    """Difference a - b of code lists over the field F."""
    sub = F.sub_table
    out = list(a)
    if len(b) > len(a):
        out += [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = sub[out[i]][c]
    while out and not out[-1]:
        out.pop()
    return out


def _poly_mul(a, b, F):
    """Product of trimmed code lists a and b over the field F, lowest
    degree first; either may be empty (the zero polynomial).  The product
    of the leading codes is nonzero, so the result is trimmed too."""
    add, mul = F.add_table, F.mul_table
    if len(a) > len(b):
        a, b = b, a
    if not a:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            row = mul[ai]
            for k, c in enumerate(b, i):
                out[k] = add[out[k]][row[c]]
    return out


def _poly_divmod(a, b, F):
    """(quotient, remainder) code lists of a by b over the field F, both
    lowest degree first; b need not be monic."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    add, mul = F.add_table, F.mul_table
    rem = list(a)
    dv = len(b) - 1
    inv = F.inv_table[b[-1]]
    neg_b = [F.neg_table[c] for c in b[:-1]]
    quot = [0] * max(len(rem) - dv, 0)
    while len(rem) > dv:
        # the leading term cancels: pop it and subtract c x^shift b
        # from the rest
        c = mul[rem.pop()][inv]
        shift = len(rem) - dv
        quot[shift] = c
        row = mul[c]
        for k, nc in enumerate(neg_b, shift):
            rem[k] = add[rem[k]][row[nc]]
        while rem and not rem[-1]:
            rem.pop()
    return quot, rem


def _poly_exact_div(a, b, F):
    """Quotient code list of a by b over the field F; raises ValueError
    when b does not divide a."""
    quot, rem = _poly_divmod(a, b, F)
    if rem:
        raise ValueError("exact_div: division is not exact")
    return quot


def _poly_rem(a, b, F):
    """Remainder code list of a by b over the field F: the loop of
    ``_poly_divmod`` without the quotient.  On ``_poly_divmod(...)[1]``
    instead, ``poly_gcd`` of degree-8 pairs slowed from 3.6 to 4.6 us at
    q = 2 and from 3.9 to 4.9 us at q = 3 (Python 3.11, 2-core Linux VM)."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    add, mul = F.add_table, F.mul_table
    rem = list(a)
    dv = len(b) - 1
    inv = F.inv_table[b[-1]]
    neg_b = [F.neg_table[c] for c in b[:-1]]
    while len(rem) > dv:
        row = mul[mul[rem.pop()][inv]]
        for k, nc in enumerate(neg_b, len(rem) - dv):
            rem[k] = add[rem[k]][row[nc]]
        while rem and not rem[-1]:
            rem.pop()
    return rem


def _poly_monic(a, F):
    """The code list a scaled to leading code 1; a must be nonzero."""
    row = F.mul_table[F.inv_table[a[-1]]]
    return [row[c] for c in a]


def _poly_gcd(a, b, F):
    """Monic gcd of code lists a and b over the field F; empty when both
    are."""
    while b:
        a, b = b, _poly_rem(a, b, F)
    return _poly_monic(a, F) if a else []


class FieldElem:
    """Field-element arithmetic derived from the parent ``field``'s
    coercion and the element's ``is_zero``, ``+``, negation, ``*`` and
    ``inverse``: truth, ``-`` and ``/`` in either order, and ``exact_div``,
    which in a field is ``/``.

    ``_coerce`` is the one operand rule of every field of the tower: a
    binary op takes its operand through the field, and an operand the
    field cannot coerce is from a higher level (A, F and A/l over F_q;
    F[x], L = F[x]/(m) and A/l over F; L[y] over L): NotImplemented
    hands it its reflected op.  An element of another field still
    raises."""

    __slots__ = ()

    def _coerce(self, other):
        """other as an element of this field, or NotImplemented."""
        try:
            return self.field(other)
        except TypeError:
            return NotImplemented

    def __bool__(self):
        return not self.is_zero

    def __sub__(self, other):
        other = self._coerce(other)
        return other if other is NotImplemented else self + (-other)

    def __rsub__(self, other):
        return self.field(other) + (-self)

    def __truediv__(self, other):
        other = self._coerce(other)
        return other if other is NotImplemented else self * other.inverse()

    def __rtruediv__(self, other):
        return self.field(other) / self

    def exact_div(self, other):
        return self / other


class FFElem(FieldElem):
    """Element of a small finite field; immutable, one object per element."""

    __slots__ = ("field", "code")

    def __init__(self, field, code):
        self.field = field
        self.code = code

    @property
    def is_zero(self):
        return self.code == 0

    def __hash__(self):
        return hash((self.field.q, self.code))

    # the field coerces an integer operand and raises on an element of
    # another F_q; any other operand (a polynomial or rational function) is
    # from a higher level of the tower: NotImplemented hands it its reflected op
    def __add__(self, other):
        f = self.field
        try:
            return f._elems[f.add_table[self.code][(other if other.field is f else f(other)).code]]
        except (AttributeError, TypeError):
            return self + f(other) if isinstance(other, int) else NotImplemented

    __radd__ = __add__

    def __neg__(self):
        f = self.field
        return f._elems[f.neg_table[self.code]]

    def __mul__(self, other):
        f = self.field
        try:
            return f._elems[f.mul_table[self.code][(other if other.field is f else f(other)).code]]
        except (AttributeError, TypeError):
            return self * f(other) if isinstance(other, int) else NotImplemented

    __rmul__ = __mul__

    def inverse(self):
        f = self.field
        if self.code == 0:
            raise ZeroDivisionError("zero has no inverse")
        return f._elems[f.inv_table[self.code]]

    def __pow__(self, n):
        f = self.field
        if n < 0:
            return self.inverse() ** (-n)
        if self.code == 0:
            return f.one if n == 0 else f.zero
        # the multiplicative group has order q - 1
        return power(self, n % (f.q - 1), f.one)

    def pth_root(self):
        """Unique p-th root (Frobenius is bijective on F_q)."""
        return self ** (self.field.p ** (self.field.e - 1))

    def coords(self):
        """Coordinates over the prime field, low degree first."""
        return digits(self.code, self.field.p, self.field.e)

    def __repr__(self):
        from .parsing import format_ff

        return format_ff(self)


class GaloisField:
    """The field F_q, q = p^e, with precomputed operation tables."""

    def __init__(self, q):
        if q > MAX_Q:
            raise ValueError(f"q = {q} exceeds MAX_Q = {MAX_Q} (tables have q^2 entries)")
        self.q = q
        self.p, self.e = factor_prime_power(q)
        self.modulus = _smallest_irreducible(self.p, self.e)
        self.characteristic = self.p
        self._build_tables()
        self._elems = [FFElem(self, c) for c in range(q)]
        self.zero, self.one = self._elems[0], self._elems[1]

    def _decode(self, code):
        out = digits(code, self.p, self.e)
        while out and out[-1] == 0:
            out.pop()
        return out

    def _encode(self, coeffs):
        code = 0
        for c in reversed(coeffs):
            code = code * self.p + (c % self.p)
        return code

    def _build_tables(self):
        p, q = self.p, self.q
        # F_q = F_p[u]/(modulus) adds coordinatewise: the table for the k
        # lowest digits extends to k + 1 by a new lowest digit, code
        # p * (higher digits) + (lowest digit)
        add = [[0]]
        for _ in range(self.e):
            add = [
                [(a0 + b0) % p + p * s for s in row for b0 in range(p)]
                for row in add
                for a0 in range(p)
            ]
        self.add_table = add
        self.neg_table = [row.index(0) for row in add]
        self.sub_table = [[row[n] for n in self.neg_table] for row in self.add_table]
        if self.e == 1:
            self.mul_table = [[a * b % p for b in range(q)] for a in range(q)]
        else:
            # a*b = g^(log a + log b) for a primitive element g: the first
            # code whose powers, multiplied and reduced on the code-list
            # kernels of the prime field, run through all q - 1 units
            Fp = GF(p)
            for g in map(self._decode, range(2, q)):
                exp, x = [1], g
                while x != [1]:
                    exp.append(self._encode(x))
                    x = _poly_rem(_poly_mul(x, g, Fp), self.modulus, Fp)
                if len(exp) == q - 1:
                    break
            log = [0] * q
            for k, c in enumerate(exp):
                log[c] = k
            exp += exp
            self.mul_table = [[0] * q] + [
                [0] + [exp[la + lb] for lb in log[1:]] for la in log[1:]
            ]
        self.inv_table = [0] + [self.mul_table[a].index(1) for a in range(1, q)]

    def __call__(self, value):
        """Coerce an integer (reduced mod p) or an element of this field;
        anything else is a TypeError."""
        if isinstance(value, FFElem):
            if value.field is not self:
                raise ValueError("element of a different field")
            return value
        if not isinstance(value, int):
            raise TypeError(f"cannot coerce {type(value).__name__} into {self!r}")
        return self._elems[value % self.p]

    def element_from_code(self, code):
        if not 0 <= code < self.q:
            raise ValueError(f"code {code} out of range for F_{self.q}")
        return self._elems[code]

    def elements(self):
        return list(self._elems)

    def random_element(self, rng, max_degree=None, nonzero=False):
        """A uniform element; max_degree, for the rings above, is unused."""
        lo = 1 if nonzero else 0
        return self._elems[rng.randrange(lo, self.q)]

    def generator_u(self):
        """The class of u (power-basis generator); only for e > 1."""
        if self.e == 1:
            raise ValueError("prime field has no extension generator")
        return self._elems[self.p]

    def __repr__(self):
        return f"GF({self.q})"


@lru_cache(maxsize=None)
def GF(q):
    """Shared F_q instance (tables are built once per q)."""
    return GaloisField(q)
