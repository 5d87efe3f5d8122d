"""Twisted polynomial rings R{tau} with tau c = c^q tau.

R{tau} is the Ore ring R[T; sigma], sigma(c) = c^q, so a ``SkewPoly``
is a ``poly.Dense``, with the sum, product and right division loops of
R[x], and its ring is a ``poly.DenseRing`` in T whose ``_twist`` is
sigma^k.  The ring reads q off R: a field of the tower, or a polynomial
ring such as A[s][y].  A skew polynomial sum a_i tau^i acts as the
additive polynomial sum a_i X^(q^i); multiplication is composition.
Right division (Ore's left Euclidean division) works over any field,
and over a ring for a monic divisor: it needs no root.
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

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a skew polynomial")
        return power(self, n, self.ring.one)

    # (quot, rem) with self = quot * b + rem, tau-deg rem < tau-deg b
    right_divmod = Dense._divmod

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

    def _twist(self, coeffs, k):
        """sigma^k on coefficients: c -> c^(q^k)."""
        qk = self.q**k
        return [c**qk for c in coeffs]

    def __call__(self, coeffs):
        if isinstance(coeffs, SkewPoly):
            if coeffs.ring is not self:
                raise ValueError(f"element of {coeffs.ring!r}, not of {self!r}")
            return coeffs
        return self.from_coeffs(coeffs)

    def __repr__(self):
        return f"{self.base!r}{{tau}}"
