"""Factorization of univariate polynomials over F_q.

One path for every degree: squarefree decomposition, distinct-degree
splitting, then Cantor-Zassenhaus equal-degree splitting.  The
equal-degree stage draws random elements from a fixed seed; the
factorization is unique and returned sorted, so the seed never shows in
a result.  The irreducibility test, which also picks the moduli of the
fields F_(p^e), is distinct-degree splitting that finds one block.
"""

import random

from .ff import digits
from .poly import poly_gcd


def _powmod(a, n, m):
    """a^n mod m for n >= 1; squares only while bits of n remain."""
    a = a % m
    result = None
    while True:
        if n & 1:
            result = a if result is None else (result * a) % m
        n >>= 1
        if not n:
            return result
        a = (a * a) % m


def squarefree_decomposition(f):
    """List of (squarefree monic factor, multiplicity) with product f.

    Standard characteristic-p routine: strips gcd(f, f') and takes p-th
    roots when the derivative vanishes, in a loop over one (g, mult) pair.
    """
    p = f.ring.characteristic
    out = {}
    g, mult = f.monic(), 1
    while g.degree > 0:
        d = g.derivative()
        if d.is_zero:
            g, mult = g.pth_root(), mult * p  # g is a polynomial in t^p
            continue
        w = poly_gcd(g, d)
        sqf = g.exact_div(w)
        m = 1
        while sqf.degree > 0:
            y = poly_gcd(sqf, w)
            piece = sqf.exact_div(y)
            if piece.degree > 0:
                out[piece] = out.get(piece, 0) + m * mult
            sqf = y
            w = w.exact_div(y)
            m += 1
        # leftover factors have multiplicity divisible by p, so w is a
        # p-th power (or 1); the next pass takes the root and scales by p
        g = w
    return sorted(out.items(), key=lambda kv: (int(kv[0].degree), kv[0].codes))


def distinct_degree_split(f):
    """For squarefree monic f, list of (product of irreducible factors of
    degree d, d).  Any other monic f still returns blocks of increasing d,
    which `is_irreducible` reads."""
    ring = f.ring
    q = ring.base.q
    x = ring.gen()
    out = []
    h = x
    g = f
    d = 0
    while g.degree > 0:
        d += 1
        if 2 * d > g.degree:
            out.append((g, int(g.degree)))
            break
        h = _powmod(h, q, g)
        factor_d = poly_gcd(h - x, g)
        if factor_d.degree > 0:
            out.append((factor_d, d))
            g = g.exact_div(factor_d)
            h = h % g
    return out


def equal_degree_split(f, d, rng):
    """Cantor-Zassenhaus split of a squarefree monic f whose irreducible
    factors all have degree d."""
    ring = f.ring
    q = ring.base.q
    n = int(f.degree)
    if n == d:
        return [f]
    while True:
        a = ring.random_element(rng, n - 1)
        if a.is_zero:
            continue
        g = poly_gcd(a, f)
        if 0 < g.degree < n:
            pieces = [g, f.exact_div(g)]
        else:
            if q % 2 == 1:
                b = _powmod(a, (q**d - 1) // 2, f)
                g = poly_gcd(b - ring.one, f)
            else:
                # characteristic 2: use the trace map sum a^(2^i)
                e = ring.base.e
                b = ring.zero
                c = a
                for _ in range(d * e):
                    b = (b + c) % f
                    c = (c * c) % f
                g = poly_gcd(b, f)
            if not (0 < g.degree < n):
                continue
            pieces = [g, f.exact_div(g)]
        out = []
        for piece in pieces:
            out.extend(equal_degree_split(piece.monic(), d, rng))
        return out


def factor(f):
    """Factor nonzero f over F_q into monic irreducibles.

    Returns (unit, [(irreducible, multiplicity), ...]) with the factors
    sorted by degree then lexicographically; unit * prod == f.
    """
    if f.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    unit = f.lead
    if f.degree == 0:
        return unit, []
    rng = random.Random(0)
    out = {}
    for sqf, mult in squarefree_decomposition(f):
        for block, d in distinct_degree_split(sqf):
            for irr in equal_degree_split(block, d, rng):
                out[irr] = out.get(irr, 0) + mult
    return unit, sorted(out.items(), key=lambda kv: (int(kv[0].degree), kv[0].codes))


def monic_polys_of_degree(ring, d):
    """Yield every monic degree-d polynomial, in a fixed lexicographic
    order (low-degree coefficient codes vary fastest), built only when
    the caller asks for it."""
    q = ring.q
    for code in range(q**d):
        yield ring.from_codes(digits(code, q, d) + [1])


def is_irreducible(f):
    """f of degree n >= 1 is irreducible over F_q iff distinct-degree
    splitting of g = f.monic() returns the one block (g, n): a reducible f
    has an irreducible factor of degree at most n / 2, which splits off
    as a block of its own (a repeated factor leaves a second block)."""
    if f.degree < 1:
        return False
    g = f.monic()
    return distinct_degree_split(g) == [(g, int(g.degree))]
