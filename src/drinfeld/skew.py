"""Twisted polynomial rings R{tau} with tau c = c^q tau.

R{tau} has the elements of R[x], so a ``SkewPoly`` is the container
``poly.Dense`` and its ring a ``poly.DenseRing`` in T, which reads q off
R: a field of the tower, or a polynomial ring such as A[s][y].  A skew
polynomial sum a_i tau^i acts as the additive polynomial sum
a_i X^(q^i); multiplication is composition.  Right division (Ore's left
Euclidean division) works over any coefficient field, and over a ring
for a monic divisor: each step pops the leading coefficient it cancels
and needs only an exact division and Frobenius powers of coefficients.
"""

from .ff import power
from .poly import Dense, DenseRing


class SkewPoly(Dense):
    """Not a ``Poly``: its commutative division, evaluation and Frobenius
    ``**`` are wrong in R{tau}."""

    __slots__ = ()

    @property
    def tau_degree(self):
        return len(self.coeffs) - 1 if self.coeffs else float("-inf")

    def __add__(self, other):
        a, b = self.coeffs, self.ring(other).coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return self.ring.from_coeffs(out)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """Composition: (ab)_k = sum_{i+j=k} a_i * b_j^(q^i)."""
        other = self.ring(other)
        if self.is_zero or other.is_zero:
            return self.ring.zero
        ring = self.ring
        zero = self.ring.base.zero
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ai in enumerate(self.coeffs):
            if ai.is_zero:
                continue
            qi = ring.q**i
            for k, bj in enumerate(other.coeffs, i):
                if not bj.is_zero:
                    term = ai * bj**qi if i else ai * bj
                    # a slot still holding its initial zero takes the term as it is
                    out[k] = term if out[k] is zero else out[k] + term
        return ring.from_coeffs(out)

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a skew polynomial")
        return power(self, n, self.ring.one)

    def right_divmod(self, b):
        """(quot, rem) with self = quot * b + rem, tau-deg rem < tau-deg b.

        Ore's left Euclidean division: each step pops the leading
        coefficient a of the remainder, takes c = a / lc(b)^(q^k) for the
        shift k and subtracts c b_j^(q^k) tau^(k+j) for the nonzero lower
        coefficients b_j of b only.  Over a field it always succeeds: it
        divides only by a Frobenius power of lc(b), never extracts a root.
        """
        b = self.ring(b)
        if b.is_zero:
            raise ZeroDivisionError("skew division by zero")
        ring = self.ring
        rem = list(self.coeffs)
        db, lead = len(b.coeffs) - 1, b.lead
        low = [(j, bj) for j, bj in enumerate(b.coeffs[:-1]) if not bj.is_zero]
        quot = [self.ring.base.zero] * max(len(rem) - db, 0)
        while len(rem) > db:
            k = len(rem) - 1 - db
            qk = ring.q**k
            c = quot[k] = rem.pop().exact_div(lead**qk)
            for j, bj in low:
                rem[k + j] = rem[k + j] - c * bj**qk
            while rem and rem[-1].is_zero:
                rem.pop()
        return ring.from_coeffs(quot), ring.from_coeffs(rem)

    def evaluate(self, x):
        """Value of the additive polynomial sum a_i x^(q^i)."""
        total = None
        q = self.ring.q
        for i, c in enumerate(self.coeffs):
            term = c * x ** (q**i)
            total = term if total is None else total + term
        if total is None:
            return x - x
        return total

    def __repr__(self):
        from .parsing import format_skew

        return format_skew(self)


def skew_ring(base, q):
    """The one R{tau} over the coefficient ring base."""
    return SkewPolyRing(base, q)


class SkewPolyRing(DenseRing):
    """R{tau} over a coefficient ring R of the same q, so that tau c = c^q tau
    is additive: the ``DenseRing`` of ``SkewPoly``s over R in the variable T."""

    element = SkewPoly

    def __new__(cls, base, q):
        if q != base.q:
            raise ValueError(f"q = {q} is not the q = {base.q} of the coefficient field")
        return cls._unique(base, "T")

    tau = DenseRing.gen

    def __call__(self, coeffs):
        if isinstance(coeffs, SkewPoly):
            if coeffs.ring is not self:
                raise ValueError(f"element of {coeffs.ring!r}, not of {self!r}")
            return coeffs
        return self.from_coeffs(coeffs)

    def __repr__(self):
        return f"{self.base!r}{{tau}}"
