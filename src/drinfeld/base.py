"""Shared constructors for the standard tower F_q -> A = F_q[t] -> F.

Every parent is a single object: ``GF(q)`` and ``rational_function_field(q)``
are cached, and ``PolyRing(base, var)`` returns its one ring, so elements,
which compare their parents by identity, built through any route agree.
"""

from functools import lru_cache

from .ff import GF
from .poly import PolyRing
from .ratfunc import FractionField


def poly_ring_A(q):
    """A = F_q[t]."""
    return PolyRing(GF(q), "t")


@lru_cache(maxsize=None)
def rational_function_field(q):
    """F = F_q(t)."""
    return FractionField(poly_ring_A(q))

