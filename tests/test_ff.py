"""Exhaustive field-axiom checks for the small coefficient fields."""

import hashlib
import importlib
import json

import pytest

from drinfeld import GF, ff
from drinfeld.errors import InvariantViolation


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_field_axioms_exhaustive(q):
    k = GF(q)
    elems = list(k.elements())
    assert len(elems) == q
    for a in elems:
        assert a + k.zero == a
        assert a * k.one == a
        assert a - a == k.zero
        if not a.is_zero:
            assert a * a.inverse() == k.one
        for b in elems:
            assert a + b == b + a
            assert a * b == b * a
            for c in elems:
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_frobenius_is_additive(q):
    k = GF(q)
    p = k.p
    for a in k.elements():
        for b in k.elements():
            assert (a + b) ** p == a**p + b**p


@pytest.mark.parametrize("q,q2", [(4, 2), (9, 3), (3, 2), (16, 4)])
def test_operands_of_two_fields_raise(q, q2):
    """+, -, * and / of elements of two different fields raise the
    ValueError of coercion in either order, as GF(q)(b) does, where the
    tables once read one field's entry at the other's code (or indexed
    past a smaller table)."""
    for a in GF(q).elements():
        for b in GF(q2).elements():
            for x, y in ((a, b), (b, a)):
                for op in (lambda: x + y, lambda: x - y, lambda: x * y, lambda: x / y):
                    with pytest.raises(ValueError, match="element of a different field"):
                        op()


def test_characteristic():
    assert GF(4).p == 2
    assert GF(4).e == 2
    assert GF(9).p == 3
    total = GF(3).zero
    for _ in range(3):
        total = total + GF(3).one
    assert total.is_zero


def test_generator_u_spans():
    k = GF(4)
    u = k.generator_u()
    seen = {k.zero, k.one, u, u * u}
    assert len(seen) == 4
    # u satisfies its defining quadratic: u^2 + u + 1 = 0 over F_2
    assert (u * u + u + k.one).is_zero


def test_element_codes_roundtrip():
    for q in (2, 3, 4):
        k = GF(q)
        for a in k.elements():
            assert k.element_from_code(a.code) == a


def test_bad_order_rejected():
    # 0 and 1 have no divisor > 1; 6, 12, 100 and 250 = 2 * 5^3 are not
    # powers of their least divisor
    for q in (0, 1, 6, 12, 100, 250):
        with pytest.raises(ValueError, match=f"{q} is not a prime power"):
            GF(q)


@pytest.mark.parametrize(
    "q, p, e", [(4, 2, 2), (8, 2, 3), (9, 3, 2), (27, 3, 3), (243, 3, 5), (256, 2, 8)]
)
def test_prime_power_orders_factor(q, p, e):
    assert ff.factor_prime_power(q) == (p, e)
    assert (GF(q).p, GF(q).e) == (p, e)


@pytest.mark.parametrize("q", [2**16, 1000003])
def test_order_above_cap_rejected_before_any_table(q):
    # the cap is checked first: neither the q x q tables nor the trial
    # division of factor_prime_power run
    with pytest.raises(ValueError, match=f"MAX_Q = {ff.MAX_Q}"):
        GF(q)


def test_cap_is_inclusive(monkeypatch):
    monkeypatch.setattr(ff, "MAX_Q", 9)
    assert ff.GaloisField(9).q == 9
    with pytest.raises(ValueError, match="MAX_Q = 9"):
        ff.GaloisField(11)


def test_no_irreducible_raises_domain_error(monkeypatch):
    """The "cannot happen" branch of the modulus search raises a
    DrinfeldError, which python -O keeps, not an AssertionError."""
    # the module: the package attribute drinfeld.factor is the function
    monkeypatch.setattr(importlib.import_module("drinfeld.factor"), "is_irreducible",
                        lambda f: False)
    with pytest.raises(InvariantViolation):
        ff._smallest_irreducible(2, 3)


# sha256 of json.dumps([modulus, add, neg, mul, inv]) for GF(q), recorded
# before the tables were built on the code-list kernels (q <= 27) and
# before the multiplication table was built from log tables (q >= 64)
TABLE_DIGESTS = {
    4: "7a3d1d79b497c0ea78febb73e496c92d6e283da190409a3744566a180513381a",
    8: "e41648a5851ddbbdbc231fdb47619707f49b6c61400875945e5c883e301e0086",
    9: "aef9dbc513895353ba15aff2b41d17734a15bcc0409ed37dd61dbe9b1a4dae5a",
    16: "70810df1ab3f51b9d03c08e56388e1c2b8616a5b4e6dcfc0afae89ed271f37e0",
    25: "5412b0e256424a4d7c31dcf3b31b1e74609ef1a6a3bb992d6972fba0559cfc55",
    27: "919239bf1441510000426b6e900e874bad5ce4f253f4fbdbf248864860cec47d",
    64: "f18ae240c06cba5c3933d01759861dba127e16af4c0bf2e9339178aa2f2736e3",
    81: "6f0ef8b37a14edf55d63512e387eb73e3146480484f1adbfde19f5b2f1c631bf",
    128: "6e3113a7d37d642b1d0bb5a7b2ad0484c5b82ce7059360598bd61976cfaedf88",
    243: "5b8ce3a44b51bbc308a05107f2252658be281eae2c6618f776a04f1cb7ae76a2",
    256: "452286bc8358afa2a64af4392c8044a99127535c7a4cb6bbb11682ce64225160",
}


@pytest.mark.parametrize("q", sorted(TABLE_DIGESTS))
def test_tables_pinned(q):
    k = GF(q)
    blob = json.dumps([k.modulus, k.add_table, k.neg_table, k.mul_table, k.inv_table])
    assert hashlib.sha256(blob.encode()).hexdigest() == TABLE_DIGESTS[q]
    # the subtraction table is not in the digest: a - b = a + (-b)
    assert all(
        k.sub_table[a][b] == k.add_table[a][k.neg_table[b]] for a in range(q) for b in range(q)
    )
