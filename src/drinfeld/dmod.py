"""Drinfeld F_q[t]-modules of rank r in generic characteristic.

A module is determined by phi_t = t + g_1 tau + ... + g_r tau^r with
g_r != 0; the constant term is structurally t (generic characteristic is
not a runtime option).  Heights are exact rationals, all read off one
per-module table: a row at infinity and one per element b of the coprime
base of the numerators and denominators of the g_i (`places.valuation_base`,
gcds only), with weight 1 at infinity and deg b at b.  h_G, h_J and the
naive height factor nothing and never expand the J-invariant tuple.
Every local height h_G^v, and `height_G_split`, reads one cached
per-place table, which factors each b once.
"""

from fractions import Fraction
from functools import cached_property
from math import lcm

from .base import rational_function_field
from .factor import factor
from .parsing import parse_element
from .places import Place, valuation_base
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
        q, d = self.q, self.d
        denom = self.coeffs[-1] ** (d // (q**self.r - 1))
        return [g ** (d // (q**k - 1)) / denom for k, g in enumerate(self.coeffs, start=1)]

    # -- heights ------------------------------------------------------------

    @cached_property
    def _rows(self):
        """[(weight, b, [(i, a_i) for the nonzero g_i])], the module's one
        table of local data.  Infinity comes first, with b = None, weight 1
        and a_i = log_q |g_i|_inf; then each element b of the coprime base
        of the numerators and denominators of the g_i, with weight deg b
        and a_i = -v_b(g_i), as log_q |g_i|_P = deg P v_P(b) a_i at P | b."""
        if not isinstance(self.field, FractionField):
            raise ValueError("heights with local parts need coefficients in F")
        nonzero = [(i, g) for i, g in enumerate(self.coeffs, start=1) if not g.is_zero]
        rows = [(1, None, [(i, g.deg_infinity()) for i, g in nonzero])]
        for b, vals in valuation_base([g for _, g in nonzero]):
            rows.append((b.degree, b, [(i, -n) for (i, _), n in zip(nonzero, vals)]))
        return rows

    def _row_max(self, logs):
        return max(Fraction(a, self.q**i - 1) for i, a in logs)

    @cached_property
    def _local_heights(self):
        """{place: h_G^v} at infinity and at every prime P of a row's b, from
        one `factor(b)` per row: h_G^P = v_P(b) deg P times the row's max."""
        (_, _, logs), *finite = self._rows
        table = {Place.infinity(): self._row_max(logs)}
        for _, b, logs in finite:
            h = self._row_max(logs)
            table.update((Place(p), m * p.degree * h) for p, m in factor(b)[1])
        return table

    def local_height_G(self, place):
        """h_G^v = log max_i |g_i|_v^(1/(q^i - 1)); 0 where every g_i is a
        unit, which is every place off the table."""
        return self._local_heights.get(place, Fraction(0))

    def height_G(self):
        return sum((w * self._row_max(logs) for w, _, logs in self._rows), Fraction(0))

    def height_G_split(self):
        """(finite part, infinite part, per-place table)."""
        table = dict(self._local_heights)
        inf = table[Place.infinity()]
        return sum(table.values(), Fraction(0)) - inf, inf, table

    def height_J(self):
        """h_J = d * h_G, evaluated directly as the Weil height of the
        J-tuple from coefficient valuations (no power expansion)."""
        d = self.d
        total = Fraction(0)
        for w, _, logs in self._rows:
            base = (d // (self.q**self.r - 1)) * logs[-1][1]  # g_r != 0 comes last
            total += w * max((d // (self.q**i - 1)) * a - base for i, a in logs)
        return total

    def naive_height(self):
        """h(phi) = max_i h(g_i), the coefficient height used by the
        isogeny-degree bound of David-Denis type: h(g_i) sums weight *
        max(a_i, 0) over the rows, which is max(deg num g_i, deg den g_i)."""
        parts = [[w * max(a, 0) for _, a in logs] for w, _, logs in self._rows]
        return Fraction(max(map(sum, zip(*parts))))

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
