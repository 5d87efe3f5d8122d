"""Drinfeld F_q[t]-modules of rank r in generic characteristic.

A module is determined by phi_t = t + g_1 tau + ... + g_r tau^r with
g_r != 0; the constant term is structurally t (generic characteristic is
not a runtime option).  Heights are exact rationals.  h_G and h_J read
one per-module table over the coprime base of the numerators and
denominators of the g_i (`places.valuation_base`, gcds only), with
weight 1 at infinity and deg b at a base element b, so they factor
nothing and never expand the J-invariant tuple.  The per-place view
factors each element of that same base once (`places.valuations`), so
a module refines its coefficients once for all of its heights.
"""

from fractions import Fraction
from functools import cached_property
from math import lcm

from .base import rational_function_field
from .parsing import parse_element
from .places import Place, valuation_base, valuations, weil_height
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
        """Build from {"q": 2, "r": 2, "g": ["t+1", "1"]}; a literal of
        any other shape is a ValueError that names the problem."""
        if not isinstance(literal, dict):
            raise ValueError('module literal must be a JSON object {"q": .., "r": .., "g": [..]}')
        missing = [key for key in ("q", "r", "g") if key not in literal]
        if missing:
            raise ValueError(f"module literal lacks {', '.join(missing)}")
        q, r, g = literal["q"], literal["r"], literal["g"]
        if not all(isinstance(n, int) and not isinstance(n, bool) for n in (q, r)):
            raise ValueError("module literal's q and r must be integers")
        # the parser rejects an entry of g that is not a string
        if not isinstance(g, list):
            raise ValueError("module literal's g must be a list of strings")
        F = rational_function_field(q)
        return cls(F, q, r, [parse_element(s, F) for s in g])

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
        by Horner's rule in phi_t from the leading coefficient: deg a - 1
        skew products for monic a (none for deg a <= 1), one more
        otherwise."""
        if a.degree < 1:
            return self.skew([self.field(c) for c in a.coeffs])
        phit, const = self.phi_t, self.skew.constant
        c0, *mid, lead = [self.field(c) for c in a.coeffs]
        result = phit if lead == self.field.one else const(lead) * phit
        for c in reversed(mid):
            result = (result + const(c)) * phit
        return result + const(c0)

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

    @cached_property
    def _base(self):
        """The nonzero (i, g_i) and `valuation_base` of those g_i: one
        refinement serves h_G, h_J and the per-place view."""
        self._require_over_F()
        nonzero = [(i, g) for i, g in enumerate(self.coeffs, start=1) if not g.is_zero]
        return nonzero, valuation_base([g for _, g in nonzero])

    @cached_property
    def _weighted_logs(self):
        """[(weight, [(i, a_i) for the nonzero g_i])], h_G being the sum of
        weight * max_i a_i / (q^i - 1): infinity with weight 1 and a_i =
        log_q |g_i|_inf, then each coprime-base element b with weight deg b
        and a_i = -v_b(g_i), as log_q |g_i|_P = deg P v_P(b) a_i at P | b."""
        nonzero, base = self._base
        rows = [(1, [(i, g.deg_infinity()) for i, g in nonzero])]
        for b, vals in base:
            rows.append((b.degree, [(i, -n) for (i, _), n in zip(nonzero, vals)]))
        return rows

    @cached_property
    def _local_logs(self):
        """{place: [(i, log_q |g_i|_v) for the nonzero g_i]} at infinity
        and at every prime of a numerator or denominator of the g_i."""
        nonzero, base = self._base
        table = {Place.infinity(): [(i, g.deg_infinity()) for i, g in nonzero]}
        for v, vals in valuations(base).items():
            table[v] = [(i, -v.degree * n) for (i, _), n in zip(nonzero, vals)]
        return table

    def local_height_G(self, place):
        """h_G^v = log max_i |g_i|_v^(1/(q^i - 1)); 0 where every g_i is a unit."""
        logs = self._local_logs.get(place)
        if logs is None:
            return Fraction(0)
        return max(Fraction(a, self.q**i - 1) for i, a in logs)

    def height_G(self):
        total = Fraction(0)
        for w, logs in self._weighted_logs:
            total += w * max(Fraction(a, self.q**i - 1) for i, a in logs)
        return total

    def height_G_split(self):
        """(finite part, infinite part, per-place table)."""
        table = {v: self.local_height_G(v) for v in self._local_logs}
        inf = table[Place.infinity()]
        return sum(table.values(), Fraction(0)) - inf, inf, table

    def height_J(self):
        """h_J = d * h_G, evaluated directly as the Weil height of the
        J-tuple from coefficient valuations (no power expansion)."""
        d = self.d
        total = Fraction(0)
        for w, logs in self._weighted_logs:
            base = (d // (self.q**self.r - 1)) * logs[-1][1]  # g_r != 0 comes last
            total += w * max((d // (self.q**i - 1)) * a - base for i, a in logs)
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
        """Stable reduction at a finite place P: min_i v_P(g_i)/(q^i - 1)
        is an integer, i.e. h_G^P / deg P is, since a twist by c shifts
        v_P(g_i) by (q^i - 1) v_P(c)."""
        if place.is_infinite:
            raise ValueError("stable reduction is a finite-place predicate")
        return (self.local_height_G(place) / place.degree).denominator == 1


def random_module(F, q, r, rng, max_degree=2):
    """Random module over F with polynomial coefficients."""
    A = F.ring
    coeffs = [F.from_poly(A.random_element(rng, max_degree)) for _ in range(r - 1)]
    coeffs.append(F.from_poly(A.random_element(rng, max_degree, nonzero=True)))
    return DrinfeldModule(F, q, r, coeffs)
