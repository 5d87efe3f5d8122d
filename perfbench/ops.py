"""Fixed-size single operations timed as ns/op.

``ff`` arithmetic is too hot to trace call by call, so it and a few
operations of the layers above it are timed directly, with the tracer
off, on fixed operands that do not depend on the run seed.
"""

import random
import statistics
import time

from clock import RefClock

BLOCK_S = 0.02
BLOCKS = 5


def _ns_per_op(fn):
    """Median over BLOCKS blocks of ns per call at reference speed, each
    block >= BLOCK_S of wall time."""
    n = 1
    while True:
        start = time.perf_counter()
        for _ in range(n):
            fn()
        if time.perf_counter() - start >= BLOCK_S:
            break
        n *= 2
    samples = []
    clock = RefClock()
    for _ in range(BLOCKS):
        clock.start()
        for _ in range(n):
            fn()
        samples.append(clock.stop()[0] / n * 1e9)
    return statistics.median(samples)


def _operations():
    from drinfeld import dmod
    from drinfeld.base import poly_ring_A, rational_function_field
    from drinfeld.ff import GF
    from drinfeld.poly import poly_gcd
    from drinfeld.skew import skew_ring

    rng = random.Random("perfbench/ops")
    g4, g9 = GF(4), GF(9)
    a4, b4 = g4.element_from_code(2), g4.element_from_code(3)
    a9, b9 = g9.element_from_code(5), g9.element_from_code(7)
    A3 = poly_ring_A(3)
    p, p2 = (A3.random_element(rng, 16, monic=True) for _ in range(2))
    while p.degree < 16 or p2.degree < 16:
        p, p2 = (A3.random_element(rng, 16, monic=True) for _ in range(2))
    F3, F2 = rational_function_field(3), rational_function_field(2)
    x3, y3 = (F3.random_element(rng, 4, nonzero=True) for _ in range(2))
    x2 = F2.random_element(rng, 4, nonzero=True)
    S = skew_ring(F2, 2)

    def skew(deg):
        coeffs = [F2.random_element(rng, 2) for _ in range(deg)]
        return S(coeffs + [F2.random_element(rng, 2, nonzero=True)])

    s1, s2, s4 = skew(2), skew(2), skew(4)
    phi = dmod.random_module(F2, 2, 2, rng)
    t = F2.ring.gen()
    a = t**3 + t + F2.ring.one
    return {
        "ff.mul.q4.ns": lambda: a4 * b4,
        "ff.mul.q9.ns": lambda: a9 * b9,
        "poly.mul.ns": lambda: p * p2,
        "poly.gcd.ns": lambda: poly_gcd(p, p2),
        "ratfunc.mul.ns": lambda: x3 * y3,
        "ratfunc.frobenius.ns": lambda: x2**8,
        "skew.mul.ns": lambda: s1 * s2,
        "skew.right_divmod.ns": lambda: s4.right_divmod(s1),
        "dmod.phi_of.ns": lambda: phi.phi_of(a),
    }


def measure():
    """{metric name: ns per operation at reference speed}."""
    return {name: _ns_per_op(fn) for name, fn in _operations().items()}
