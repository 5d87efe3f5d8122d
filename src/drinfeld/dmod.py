"""Drinfeld F_q[t]-modules of rank r in generic characteristic.

A module is determined by phi_t = t + g_1 tau + ... + g_r tau^r with
g_r != 0; the constant term is structurally t (generic characteristic is
not a runtime option).  Heights are exact rationals; h_J is evaluated
place by place from valuations of the coefficients, so the J-invariant
tuple never has to be expanded for large lcm exponents.
"""

from fractions import Fraction
from math import lcm

from .errors import StableReductionRequired
from .places import Place, log_abs, support, weil_height
from .ratfunc import FractionField
from .skew import skew_ring

MAX_RANK = 6


class DrinfeldModule:
    def __init__(self, field, q, r, coeffs):
        if r < 2:
            raise ValueError("rank must be >= 2")
        if r > MAX_RANK:
            raise ValueError(f"rank bound is {MAX_RANK} (lcm exponents explode)")
        coeffs = [field(c) for c in coeffs]
        if len(coeffs) != r:
            raise ValueError("need exactly r coefficients g_1..g_r")
        if coeffs[-1].is_zero:
            raise ValueError("g_r must be nonzero")
        self.field = field
        self.q = q
        self.r = r
        self.coeffs = tuple(coeffs)
        self.skew = skew_ring(field, q)

    @classmethod
    def from_literal(cls, literal):
        """Build from {"q": 2, "r": 2, "g": ["t+1", "1"]}."""
        from .base import rational_function_field
        from .parsing import parse_element

        q = int(literal["q"])
        r = int(literal["r"])
        F = rational_function_field(q)
        g = [parse_element(s, F) for s in literal["g"]]
        return cls(F, q, r, g)

    def to_literal(self):
        return {
            "q": self.q,
            "r": self.r,
            "g": [repr(g) for g in self.coeffs],
        }

    @property
    def phi_t(self):
        return self.skew([self.field.t] + list(self.coeffs))

    def phi_of(self, a):
        """phi_a for a in A, via the F_q-algebra homomorphism a -> phi_a,
        by Horner's rule in phi_t: deg a skew products."""
        phit = self.phi_t
        result = self.skew.zero
        for c in reversed(a.coeffs):
            result = result * phit
            if not c.is_zero:
                result = result + self.skew.constant(self.field(c))
        return result

    def __eq__(self, other):
        return (
            isinstance(other, DrinfeldModule)
            and self.field is other.field
            and (self.q, self.r, self.coeffs) == (other.q, other.r, other.coeffs)
        )

    def __hash__(self):
        return hash((id(self.field), self.q, self.r, self.coeffs))

    def __repr__(self):
        return f"DrinfeldModule(q={self.q}, r={self.r}, g={list(self.coeffs)})"

    # -- invariants ---------------------------------------------------------

    @property
    def d(self):
        """lcm(q-1, q^2-1, ..., q^r-1), the common J-denominator weight."""
        return lcm(*(self.q**k - 1 for k in range(1, self.r + 1)))

    def j_invariants(self):
        """The tuple (j_1, ..., j_r); j_r = 1.  Expands the powers, so
        use only when the exponents are desk-sized."""
        d = self.d
        gr = self.coeffs[-1]
        denom = gr ** (d // (self.q**self.r - 1))
        out = []
        for k in range(1, self.r + 1):
            gk = self.coeffs[k - 1]
            if gk.is_zero:
                out.append(self.field.zero)
            else:
                out.append(gk ** (d // (self.q**k - 1)) / denom)
        return out

    # -- heights ------------------------------------------------------------

    def _require_over_F(self):
        if not isinstance(self.field, FractionField):
            raise ValueError("heights with local parts need coefficients in F")

    def _places(self):
        return [Place.infinity()] + support([g for g in self.coeffs if not g.is_zero])

    def local_height_G(self, place):
        """h_G^v = log max_i |g_i|_v^(1/(q^i - 1))."""
        self._require_over_F()
        return max(
            Fraction(log_abs(g, place), self.q**i - 1)
            for i, g in enumerate(self.coeffs, start=1)
            if not g.is_zero
        )

    def height_G(self):
        self._require_over_F()
        return sum((self.local_height_G(v) for v in self._places()), Fraction(0))

    def height_G_split(self):
        """(finite part, infinite part, per-place table)."""
        self._require_over_F()
        table = {}
        fin = Fraction(0)
        inf = Fraction(0)
        for v in self._places():
            h = self.local_height_G(v)
            table[v] = h
            if v.is_infinite:
                inf += h
            else:
                fin += h
        return fin, inf, table

    def height_J(self):
        """h_J = d * h_G, evaluated directly as the Weil height of the
        J-tuple from coefficient valuations (no power expansion)."""
        self._require_over_F()
        d = self.d
        wr = d // (self.q**self.r - 1)
        gr = self.coeffs[-1]
        total = Fraction(0)
        for v in self._places():
            base = wr * log_abs(gr, v)
            total += max(
                (d // (self.q**k - 1)) * log_abs(g, v) - base
                for k, g in enumerate(self.coeffs, start=1)
                if not g.is_zero
            )
        return total

    def naive_height(self):
        """h(phi) = max_i h(g_i), the coefficient height used by the
        isogeny-degree bound of David-Denis type."""
        self._require_over_F()
        out = Fraction(0)
        for g in self.coeffs:
            if not g.is_zero:
                out = max(out, weil_height([self.field.one, g]))
        return out

    # -- twisting and reduction ---------------------------------------------

    def twist(self, c):
        """The isomorphic module c^-1 phi c, with g_i -> c^(q^i - 1) g_i."""
        c = self.field(c)
        if c.is_zero:
            raise ValueError("twist by zero is not an isomorphism")
        new = [
            c ** (self.q**i - 1) * g for i, g in enumerate(self.coeffs, start=1)
        ]
        return DrinfeldModule(self.field, self.q, self.r, new)

    def stable_at(self, place):
        """Stable reduction at a finite place: the local graded height is
        an integer."""
        if place.is_infinite:
            raise ValueError("stable reduction is a finite-place predicate")
        return self.local_height_G(place).denominator == 1

    def taguchi_finite(self):
        """Finite part of the Taguchi height (= finite part of h_G),
        defined only under everywhere stable reduction."""
        self._require_over_F()
        total = Fraction(0)
        for v in self._places():
            if v.is_infinite:
                continue
            h = self.local_height_G(v)
            if h.denominator != 1:
                raise StableReductionRequired(
                    f"local height {h} at {v!r} is not an integer; twist first"
                )
            total += h
        return total


def random_module(F, q, r, rng, max_degree=2):
    """Random module over F with polynomial coefficients."""
    A = F.ring
    coeffs = [F.from_poly(A.random_element(rng, max_degree)) for _ in range(r - 1)]
    coeffs.append(F.from_poly(A.random_element(rng, max_degree, nonzero=True)))
    return DrinfeldModule(F, q, r, coeffs)
