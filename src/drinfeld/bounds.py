"""Evaluators for the explicit inequality constants.

Height differences are exact rationals.  Every right-hand side that
involves a logarithm of a non-power is one interval expression,
evaluated in a private `mpmath` interval context held at 30 digits, and
rounded up once, at the end, to the least float at or above its upper
endpoint; so a verdict of "violated" can only occur when the inequality
fails even at the conservative rounding.  No evaluator reads or changes
the global `mpmath.iv`, and no other module of the package evaluates
intervals: `modpoly` passes psi(m) and deg m to `prop65_from_psi` and
`asymptotic_from_psi`.  All logarithms are base q.
"""

import math
from fractions import Fraction

from mpmath.ctx_iv import MPIntervalContext

_IV = MPIntervalContext()
_IV.dps = 30


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
    """The least float at or above the upper endpoint of the interval x."""
    hi = x.b
    f = float(hi)
    if _IV.mpf(f) < hi:
        f = math.nextafter(f, math.inf)
    return f


def _logq(value, q):
    return _IV.log(value) / _IV.log(q)


def _frac_iv(x):
    """Interval of a rational or float x; exact for a float."""
    x = Fraction(x)
    return _IV.mpf(x.numerator) / x.denominator


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


def thm1_part2_bound(deg_f_log, h_jprime, q):
    """((q^2-1)/2) (log deg f + log(1 + h(j')/q)) + q, rounded up."""
    h_jprime = Fraction(h_jprime)
    if h_jprime < 0:
        raise ValueError("h(j') must be nonnegative")
    half = _frac_iv(Fraction(q * q - 1, 2))
    inner = 1 + _frac_iv(h_jprime) / q
    return _upper_float(half * (deg_f_log + _logq(inner, q)) + q)


def dd_corollary_bound(K_degree, h_G, q, r, c2=1.0):
    """log c2 + 10 (r+1)^7 log(K_degree (q^r - 1) h_G) plus the rank-r
    constant, rounded up."""
    h_G = Fraction(h_G)
    if h_G <= 0 or K_degree < 1 or c2 <= 0:
        raise ValueError("need h_G > 0, K_degree >= 1, c2 > 0")
    const = Fraction(q, q - 1) - Fraction(q**r, q**r - 1)
    arg = _IV.mpf(K_degree) * (q**r - 1) * _frac_iv(h_G)
    value = _logq(_frac_iv(c2), q) + 10 * (r + 1) ** 7 * _logq(arg, q) + _frac_iv(const)
    return _upper_float(value)


def lemma64_threshold(q):
    """The fixed-point resolution applies only when x >= q^3."""
    return q**3


def lemma64_resolve(a, q):
    """Resolved bound a + ((q^2-1)/2) log(1 + (a/q)(1 - (q^2-1)/(2 q^2 ln q))^-1)
    for any x >= q^3 with x <= a + ((q^2-1)/2) log(1 + x/q); rounded up."""
    if a <= 0:
        raise ValueError("a must be positive")
    return _upper_float(_resolved_iv(_frac_iv(a), q))


def _resolved_iv(a, q):
    """Interval a + ((q^2-1)/2) log(1 + (a/q) / damp), where damp is
    1 - (q^2-1)/(2 q^2 ln q)."""
    half = _frac_iv(Fraction(q * q - 1, 2))
    damp = 1 - half / (q * q * _IV.log(q))
    return a + half * _logq(1 + (a / q) / damp, q)


def prop65_from_psi(q, deg_m, psi_m):
    """Prop. 6.5 for a modulus of degree deg_m: psi max(q^3, x) + 2 psi log psi,
    x the Lemma 6.4 resolution of a = ((q^2-1)/2) deg_m + q + (1/2) log psi;
    rounded up."""
    log_psi = _logq(_IV.mpf(psi_m), q)
    x = _resolved_iv(_frac_iv(Fraction(q * q - 1, 2) * deg_m + q) + log_psi / 2, q)
    top = _IV.mpf([max(x.a, q**3), max(x.b, q**3)])
    return _upper_float(psi_m * top + 2 * psi_m * log_psi)


def asymptotic_from_psi(q, deg_m, psi_m, eps):
    """((q^2+4)/2 + eps) psi deg_m, rounded up."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    return _upper_float((_frac_iv(Fraction(q * q + 4, 2)) + _frac_iv(eps)) * psi_m * deg_m)


def thm1_part1_report(h_diff, deg_N, q, r, extra=None):
    bound = thm1_part1_bound(deg_N, q, r)
    inputs = {"deg_N": deg_N, "q": q, "r": r}
    if extra:
        inputs.update(extra)
    return BoundReport(abs(Fraction(h_diff)), bound, inputs)


def thm1_part2_report(h_j, h_jprime, deg_f_log, q, extra=None):
    rhs = thm1_part2_bound(deg_f_log, h_jprime, q)
    inputs = {"deg_f_log": deg_f_log, "h_jprime": str(Fraction(h_jprime)), "q": q}
    if extra:
        inputs.update(extra)
    return BoundReport(Fraction(h_jprime) - Fraction(h_j), rhs, inputs)
