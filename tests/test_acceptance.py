"""Acceptance harness: every headline inequality checked at desk scale.

Each test covers one acceptance criterion, enforces its runtime budget,
and prints a single pass/fail summary line.
"""

import itertools
import json
import random
import time
from fractions import Fraction

from drinfeld import (
    Place,
    QuotientField,
    build_Sn,
    compute_phi_t,
    compute_phi_t_interpolated,
    dual,
    gekeler_j_log,
    lagrange_reconstruct,
    log_abs,
    log_index,
    prop65_bound,
    random_isogenous_pair,
    random_module,
    rank2_t_isogenies,
    remark_rank3_check,
    tk_bounds,
    weil_height,
)
from drinfeld.base import poly_ring_A, rational_function_field
from drinfeld.bounds import thm1_part1_report, thm1_part2_report
from drinfeld.cli import main as cli_main
from drinfeld.factor import factor
from drinfeld.lattice import (
    LatticeBasis,
    analytic_isogeny_check,
    det,
    random_containment_instance,
    random_lattice,
    reduce as lattice_reduce,
)
from drinfeld.modpoly import BivarPoly
from drinfeld.poly import PolyRing

from conftest import record_criterion_line


def _report(num, name, ok, elapsed, budget):
    verdict = "PASS" if ok else "FAIL"
    line = f"criterion {num:2d} [{name}]: {verdict} ({elapsed:.2f}s / budget {budget}s)"
    print(line)
    record_criterion_line(line)
    assert ok, f"criterion {num} ({name}) failed"
    assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.2f}s)"


def test_criterion_01_product_formula():
    start = time.time()
    ok = True
    for q in (2, 3, 4):
        F = rational_function_field(q)
        rng = random.Random(1000 + q)
        for _ in range(500):
            x = F.random_element(rng, 4, nonzero=True)
            primes = [p for f in (x.num, x.den) for p, _ in factor(f)[1]]
            places = [Place.infinity()] + [Place(p) for p in primes]
            if sum(log_abs(x, v) for v in places) != 0:
                ok = False
    _report(1, "product formula", ok, time.time() - start, 5)


def test_criterion_02_lcm_height_identity():
    start = time.time()
    ok = True
    combos = list(itertools.product((2, 3), (2, 3, 4)))
    rng = random.Random(2000)
    count = 0
    modules = []
    while count < 200:
        q, r = combos[count % len(combos)]
        F = rational_function_field(q)
        phi = random_module(F, q, r, rng)
        if phi.d * phi.height_G() != phi.height_J():
            ok = False
        modules.append(phi)
        count += 1
    for i in range(50):
        phi = modules[i * 4 % len(modules)]
        c = phi.field.random_element(rng, 2, nonzero=True)
        tw = phi.twist(c)
        if tw.height_G() != phi.height_G() or tw.height_J() != phi.height_J():
            ok = False
    _report(2, "d*h_G = h_J and twist invariance", ok, time.time() - start, 30)


# generated isogenies are shared between criteria 3 and 5
_PAIR_CACHE = []


def _generate_pairs():
    if _PAIR_CACHE:
        return _PAIR_CACHE
    combos = list(itertools.product((2, 3), (2, 3, 4)))
    rng = random.Random(3000)
    for i in range(500):
        q, r = combos[i % len(combos)]
        phi, phi2, f, P = random_isogenous_pair(q, r, rng)
        data = dual(phi, phi2, f)
        _PAIR_CACHE.append((q, r, phi, phi2, f, data))
    return _PAIR_CACHE


def test_criterion_03_theorem1_part1():
    start = time.time()
    ok = True
    for q, r, phi, phi2, f, data in _generate_pairs():
        rep = thm1_part1_report(
            phi2.height_G() - phi.height_G(), int(data.N.degree), q, r
        )
        if not rep.satisfied:
            ok = False
    _report(3, "thm1_part1 bound, 500 pairs", ok, time.time() - start, 120)


def test_criterion_04_theorem1_part2():
    start = time.time()
    ok = True
    checked = 0
    for q in (2, 3):
        F = rational_function_field(q)
        rng = random.Random(4000 + q)
        for _ in range(100):
            phi = random_module(F, q, 2, rng)
            j = phi.j_invariants()[0]
            hj = Fraction(0) if j.is_zero else weil_height([F.one, j])
            for iso in rank2_t_isogenies(phi):
                jp = iso.target.j_invariants()[0]
                hjp = Fraction(0) if jp.is_zero else weil_height([F.one, jp])
                rep = thm1_part2_report(hj, hjp, 1, q)
                checked += 1
                if not rep.satisfied:
                    ok = False
    ok = ok and checked > 0
    _report(4, "thm1_part2 bound, rank 2 t-isogenies", ok, time.time() - start, 60)


def test_criterion_05_dual_identities():
    start = time.time()
    ok = True
    for q, r, phi, phi2, f, data in _generate_pairs():
        if data.fhat * f != phi.phi_of(data.N):
            ok = False
        if f * data.fhat != phi2.phi_of(data.N):
            ok = False
        if int(f.tau_degree + data.fhat.tau_degree) != r * int(data.N.degree):
            ok = False
        if q ** int(data.fhat.tau_degree) > (q ** int(f.tau_degree)) ** (r - 1):
            ok = False
    _report(5, "dual isogeny identities", ok, time.time() - start, 120)


def test_criterion_06_rank3_remark():
    start = time.time()
    ok = True
    F = rational_function_field(2)
    rng = random.Random(6000)
    seen = 0
    while seen < 20:
        f0 = F.random_element(rng, 2, nonzero=True)
        if not remark_rank3_check(2, f0)["ok"]:
            ok = False
        seen += 1
    # quotient-field root case: L = F[x]/(x^7 + x - t), g_1 = 1
    Fx = PolyRing(rational_function_field(2), "x")
    x = Fx.gen()
    L = QuotientField(F, x**7 + x - Fx.constant(F.t))
    if not remark_rank3_check(2, L.gen(), g1=L.one)["ok"]:
        ok = False
    _report(6, "rank 3 closed forms", ok, time.time() - start, 120)


def test_criterion_07_lattice_calculus():
    start = time.time()
    ok = True
    rng = random.Random(7000)
    ranks = [2, 3, 4]
    for i in range(500):
        r = ranks[i % 3]
        q = 2 if i % 2 == 0 else 3
        F = rational_function_field(q)
        L = random_lattice(F, r, rng, max_degree=1)
        red = lattice_reduce(L)
        base = red.log_covolume
        if base != Fraction(det(F, L.columns).deg_infinity()):
            ok = False
        c = F.random_element(rng, 1, nonzero=True)
        if lattice_reduce(L.scaled(c)).log_covolume != base + r * c.deg_infinity():
            ok = False
        # GL_r action: transform by a second random basis
        G = random_lattice(F, r, rng, max_degree=1)
        cols = []
        for gcol in G.columns:
            vec = [F.zero] * r
            for j, coeff in enumerate(gcol):
                for k in range(r):
                    vec[k] = vec[k] + L.columns[j][k] * coeff
            cols.append(vec)
        moved = LatticeBasis(F, cols)
        if lattice_reduce(moved).log_covolume != base + Fraction(
            det(F, G.columns).deg_infinity()
        ):
            ok = False
        # index = covolume ratio, cross-checked against the Smith form
        if i % 10 == 0:
            A = F.ring
            while True:
                C = [[A.random_element(rng, 1) for _ in range(r)] for _ in range(r)]
                if not det(
                    F, [[F.from_poly(p) for p in col] for col in C]
                ).is_zero:
                    break
            subcols = []
            for ccol in C:
                vec = [F.zero] * r
                for j, coeff in enumerate(ccol):
                    for k in range(r):
                        vec[k] = vec[k] + L.columns[j][k] * F.from_poly(coeff)
                subcols.append(vec)
            sub = LatticeBasis(F, subcols)
            idx = log_index(sub, L)
            if idx != lattice_reduce(sub).log_covolume - base:
                ok = False
    _report(7, "covolume calculus, 500 lattices", ok, time.time() - start, 300)


def test_criterion_08_analytic_sandwich():
    start = time.time()
    ok = True
    rng = random.Random(8000)
    for i in range(200):
        q = 2 if i % 2 == 0 else 3
        r = 2 if i % 3 else 3
        F = rational_function_field(q)
        lam, lam2, alpha = random_containment_instance(F, r, rng, max_degree=1)
        rep = analytic_isogeny_check(lam, lam2, alpha)
        if not (rep["ok"] and rep["alpha_norm_ge_1"]):
            ok = False
    _report(8, "analytic isogeny sandwich, 200 instances", ok, time.time() - start, 300)


def test_criterion_09_gekeler_model():
    start = time.time()
    ok = True
    for q in (2, 3):
        grid = [Fraction(k, 6) for k in range(0, 31)]
        vals = [gekeler_j_log(q, d) for d in grid]
        for d, v in zip(grid, vals):
            m = max(Fraction(v, q), Fraction(1))
            # q^d <= m checked exactly: q^a <= m^b for d = a/b
            if Fraction(q) ** d.numerator > m**d.denominator:
                ok = False
        if any(b < a for a, b in zip(vals, vals[1:])):
            ok = False
        if any(c - b < b - a for a, b, c in zip(vals, vals[1:], vals[2:])):
            ok = False
    _report(9, "rank 2 j-size model", ok, time.time() - start, 60)


def test_criterion_10_modular_polynomial():
    start = time.time()
    ok = True
    for q in (2, 3):
        A = poly_ring_A(q)
        F = rational_function_field(q)
        phi_t = compute_phi_t(q)
        if phi_t.deg_x != q + 1 or phi_t.deg_y != q + 1:
            ok = False
        if not (phi_t.is_monic_in_x() and phi_t.is_monic_in_y()):
            ok = False
        if not phi_t.is_symmetric():
            ok = False
        if compute_phi_t_interpolated(q) != phi_t:
            ok = False
        if float(phi_t.height()) > prop65_bound(A.gen()):
            ok = False
        if q == 2 and abs(prop65_bound(A.gen()) - 33.66) > 0.05:
            ok = False
        rng = random.Random(10000 + q)
        seen = 0
        while seen < 20:
            phi = random_module(F, q, 2, rng)
            for iso in rank2_t_isogenies(phi):
                j = phi.j_invariants()[0]
                jp = iso.target.j_invariants()[0]
                if not phi_t.evaluate(F, jp, j).is_zero:
                    ok = False
                if not phi_t.evaluate(F, j, jp).is_zero:
                    ok = False
                seen += 1
    _report(10, "modular polynomial Phi_t", ok, time.time() - start, 300)


def test_criterion_11_interpolation_bounds():
    start = time.time()
    ok = True
    q = 2
    # exhaustive: deterministic first d+1 points of S_n for every feasible d
    for n in (0, 1, 2):
        points = list(build_Sn(q, n))
        for d in range(0, q ** (2 * n + 1)):
            rep = tk_bounds(q, n, points[: d + 1])
            if not (rep["coeff_ok"] and rep["spacing_ok"]):
                ok = False
    # 100 reconstruction round-trips with the height bound asserted inside
    F = rational_function_field(q)
    A = F.ring
    FX = PolyRing(F, "X")
    rng = random.Random(11000)
    s1 = list(build_Sn(q, 1))
    for _ in range(100):
        target = BivarPoly(
            A,
            {
                (i, j): A.random_element(rng, 3)
                for i in range(4)
                for j in range(4)
            },
        )
        if target.is_zero:
            continue
        d = target.deg_y
        pairs = [(y, target.eval_y(FX, y)) for y in s1[: d + 1]]
        if lagrange_reconstruct(pairs, d, n=1) != target:
            ok = False
    _report(11, "interpolation coefficient/spacing bounds", ok, time.time() - start, 300)


def test_criterion_12_determinism(capsys):
    start = time.time()
    argv = ["harness", "--q", "2", "--r", "3", "--trials", "25", "--seed", "42"]
    code1 = cli_main(argv)
    out1 = capsys.readouterr().out
    code2 = cli_main(argv)
    out2 = capsys.readouterr().out
    ok = code1 == 0 and code2 == 0 and out1 == out2 and len(out1) > 0
    json.loads(out1)  # well-formed report
    _report(12, "harness determinism", ok, time.time() - start, 120)
