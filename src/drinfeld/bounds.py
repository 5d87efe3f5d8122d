"""Evaluators for the explicit inequality constants.

Height differences are exact rationals.  Bound right-hand sides that
involve a logarithm of a non-power are evaluated with interval
arithmetic and rounded outward (up), so a verdict of "violated" can
only occur when the inequality fails even at the conservative rounding.
All logarithms are base q.
"""

import math
from contextlib import contextmanager
from fractions import Fraction

from mpmath import iv, mpf


DEFAULT_DPS = 30


@contextmanager
def working_dps(dps):
    """Temporarily set the interval-arithmetic decimal precision."""
    old = iv.dps
    iv.dps = dps
    try:
        yield
    finally:
        iv.dps = old


class BoundReport:
    """One checked inequality: exact lhs against an exact or upward-rounded
    rhs; an exact rhs is rounded up only in the payload."""

    def __init__(self, lhs, rhs, inputs):
        self.lhs = Fraction(lhs)
        self.rhs = rhs
        self.inputs = dict(inputs)
        self.satisfied = self.lhs <= Fraction(rhs)

    def to_payload(self):
        rhs = float(self.rhs)
        if Fraction(rhs) < self.rhs:
            rhs = math.nextafter(rhs, math.inf)
        return {
            "lhs": str(self.lhs),
            "rhs": rhs,
            "rounded": "up",
            "satisfied": self.satisfied,
            "inputs": self.inputs,
        }

    def __repr__(self):
        mark = "<=" if self.satisfied else ">"
        return f"BoundReport({self.lhs} {mark} {self.rhs})"


def _upper_float(x):
    """Upper interval endpoint as a float, nudged up if conversion lost."""
    hi = x.b if hasattr(x, "b") else x
    f = float(hi)
    if mpf(f) < hi:
        f = math.nextafter(f, math.inf)
    return f


def _logq(value, q):
    return iv.log(value) / iv.log(q)


def _frac_iv(x):
    x = Fraction(x)
    return iv.mpf(x.numerator) / iv.mpf(x.denominator)


def thm1_part1_bound(deg_N, q, r):
    """deg N + q/(q-1) - q^r/(q^r-1), exact."""
    if deg_N < 0 or r < 2:
        raise ValueError("need deg N >= 0 and r >= 2")
    return deg_N + Fraction(q, q - 1) - Fraction(q**r, q**r - 1)


def lemma54_window(q, r):
    """Window (q^r/(q^r-1), q/(q-1)) for the infinite local graded height
    of a reduced module; its width is the rank-r constant above."""
    if r < 2:
        raise ValueError("rank must be >= 2")
    return Fraction(q**r, q**r - 1), Fraction(q, q - 1)


def thm1_part2_bound(deg_f_log, h_jprime, q, dps=DEFAULT_DPS):
    """((q^2-1)/2) (log deg f + log(1 + h(j')/q)) + q, rounded up."""
    h_jprime = Fraction(h_jprime)
    if h_jprime < 0:
        raise ValueError("h(j') must be nonnegative")
    with working_dps(dps):
        half = _frac_iv(Fraction(q * q - 1, 2))
        inner = 1 + _frac_iv(h_jprime) / q
        value = half * (deg_f_log + _logq(inner, q)) + q
        return _upper_float(value)


def dd_corollary_bound(K_degree, h_G, q, r, c2=1.0, dps=DEFAULT_DPS):
    """log c2 + 10 (r+1)^7 log(K_degree (q^r - 1) h_G) plus the rank-r
    constant, rounded up."""
    h_G = Fraction(h_G)
    if h_G <= 0 or K_degree < 1 or c2 <= 0:
        raise ValueError("need h_G > 0, K_degree >= 1, c2 > 0")
    const = Fraction(q, q - 1) - Fraction(q**r, q**r - 1)
    with working_dps(dps):
        arg = iv.mpf(K_degree) * (q**r - 1) * _frac_iv(h_G)
        value = _logq(iv.mpf(c2), q) + 10 * (r + 1) ** 7 * _logq(arg, q) + _frac_iv(
            const
        )
        return _upper_float(value)


def lemma64_threshold(q):
    """The fixed-point resolution applies only when x >= q^3."""
    return q**3


def lemma64_resolve(a, q, dps=DEFAULT_DPS):
    """Resolved bound a + ((q^2-1)/2) log(1 + (a/q)(1 - (q^2-1)/(2 q^2 ln q))^-1)
    for any x >= q^3 with x <= a + ((q^2-1)/2) log(1 + x/q); rounded up."""
    if a <= 0:
        raise ValueError("a must be positive")
    with working_dps(dps):
        a_iv = _frac_iv(a) if isinstance(a, (int, Fraction)) else iv.mpf(a)
        return _upper_float(_resolved_iv(a_iv, q))


def _resolved_iv(a, q):
    """Interval a + ((q^2-1)/2) log(1 + (a/q) / damp), where damp is
    1 - (q^2-1)/(2 q^2 ln q); call inside working_dps."""
    half = _frac_iv(Fraction(q * q - 1, 2))
    damp = 1 - half / (q * q * iv.log(q))
    return a + half * _logq(1 + (a / q) / damp, q)


def thm1_part1_report(h_diff, deg_N, q, r, extra=None):
    bound = thm1_part1_bound(deg_N, q, r)
    inputs = {"deg_N": deg_N, "q": q, "r": r}
    if extra:
        inputs.update(extra)
    return BoundReport(abs(Fraction(h_diff)), bound, inputs)


def thm1_part2_report(h_j, h_jprime, deg_f_log, q, extra=None, dps=DEFAULT_DPS):
    rhs = thm1_part2_bound(deg_f_log, h_jprime, q, dps=dps)
    inputs = {"deg_f_log": deg_f_log, "h_jprime": str(Fraction(h_jprime)), "q": q}
    if extra:
        inputs.update(extra)
    return BoundReport(Fraction(h_jprime) - Fraction(h_j), rhs, inputs)
