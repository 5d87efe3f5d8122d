"""The three seeded workloads of the verdict-throughput benchmark.

Every workload is a fixed cycle of item *kinds*.  One round runs one item
of each kind.  A seeded item is variant ``v`` of its kind,
``0 <= v < VARIANTS[workload]``; its inputs come from
``random.Random("<workload>/<kind>/<v>")``, so the golden digests recorded
in ``golden.json`` cover every input a run can draw.  In one *epoch*
every kind deals out its whole pool once, in an order drawn from the run
seed.  Runs are made of whole epochs, so the work in a run does not
depend on the seed; the seed sets the order.

An item returns a canonical result: a list of named verdict booleans and
a dict of exact values (Fractions and polynomials as strings).  It fails
when it raises, when a verdict is false, or when the digest of its result
differs from the golden one.
"""

import hashlib
import json
import random
from fractions import Fraction

# Pool size per seeded kind.  An epoch of isogeny or lattice_heights is
# 12 rounds (7-10 s on a 2-core desk VM); the 8 Lagrange targets of
# interpolation fill one round, so its epoch is one round (about 5 s).
VARIANTS = {"isogeny": 12, "interpolation": 8, "lattice_heights": 12}
LAGRANGE_PER_ROUND = 8

ISOGENY_QR = [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (4, 2)]
LATTICE_QR = [(q, r) for q in (2, 3, 4, 9) for r in (2, 3, 4)]
TK_SIZES = [(1, d) for d in range(8)] + [(2, d) for d in range(16)]


def _kinds(workload):
    """[(kind name, seeded?)] in round order."""
    if workload == "isogeny":
        return [(f"q{q}r{r}", True) for q, r in ISOGENY_QR]
    if workload == "interpolation":
        kinds = [(f"tk_n{n}_d{d}", False) for n, d in TK_SIZES]
        kinds += [("lagrange", True)] * LAGRANGE_PER_ROUND
        kinds += [("phi_q2", False), ("phi_q3", False)]
        return kinds
    if workload == "lattice_heights":
        return [(f"q{q}r{r}", True) for q, r in LATTICE_QR]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("isogeny", "interpolation", "lattice_heights")


class Item:
    """One unit of work: ``run(inputs)`` returns its canonical result."""

    __slots__ = ("key", "kind", "variant", "run", "inputs")

    def __init__(self, kind, variant, run, inputs):
        self.key = f"{kind}/{variant}"
        self.kind = kind
        self.variant = variant
        self.run = run
        self.inputs = inputs


def build_tables(workload):
    """Build the F_q tables and rings the workload uses, before timing."""
    from drinfeld.base import poly_ring_A, rational_function_field
    from drinfeld.skew import skew_ring

    qs = {"isogeny": (2, 3, 4), "interpolation": (2, 3), "lattice_heights": (2, 3, 4, 9)}
    for q in qs[workload]:
        F = rational_function_field(q)
        poly_ring_A(q)
        skew_ring(F, q)


def pool_items(workload):
    """Generate, one at a time, the item of every (kind, variant) a run
    can draw."""
    done = set()
    for kind, seeded in _kinds(workload):
        if kind not in done:
            done.add(kind)
            for v in range(VARIANTS[workload] if seeded else 1):
                yield make_item(workload, kind, v)


def epochs(pool, workload, seed):
    """Endless epochs, each a list of rounds; a round is a list with one
    item per kind, in cycle order."""
    rng = random.Random(seed)
    kinds = [kind for kind, _ in _kinds(workload)]
    per_round = {kind: kinds.count(kind) for kind in pool}
    n_rounds = max(len(pool[k]) // per_round[k] for k in pool)
    while True:
        decks = {}
        for kind, items in pool.items():
            copies, rest = divmod(n_rounds * per_round[kind], len(items))
            if rest:
                raise ValueError(f"{kind}: pool of {len(items)} does not fill an epoch")
            decks[kind] = items * copies
            rng.shuffle(decks[kind])
        yield [[decks[kind].pop() for kind in kinds] for _ in range(n_rounds)]


def make_item(workload, kind, v):
    rng = random.Random(f"{workload}/{kind}/{v}")
    if workload == "isogeny":
        return Item(kind, v, _isogeny_item, _isogeny_inputs(kind, rng))
    if workload == "interpolation":
        if kind.startswith("tk_"):
            return Item(kind, v, _tk_item, _tk_inputs(kind))
        if kind == "lagrange":
            return Item(kind, v, _lagrange_item, _lagrange_inputs(rng))
        return Item(kind, v, _phi_item, int(kind[len("phi_q"):]))
    return Item(kind, v, _lattice_item, _lattice_inputs(kind, rng))


def _qr(kind):
    q, r = kind[1:].split("r")
    return int(q), int(r)


# -- canonical results and digests ---------------------------------------


def _canon(x):
    if isinstance(x, bool) or x is None or isinstance(x, (int, str)):
        return x
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (list, tuple)):
        return [_canon(y) for y in x]
    if isinstance(x, dict):
        return {str(k): _canon(v) for k, v in x.items()}
    return repr(x)


def result(verdicts, values):
    """Canonical result: ``verdicts`` maps names to bools, ``values`` holds
    the exact outputs the digest covers."""
    return {"verdicts": {k: bool(v) for k, v in verdicts.items()}, "values": _canon(values)}


def digest(res):
    text = json.dumps(res, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def check(res, golden_digest):
    """True iff every verdict holds and the digest matches the golden one."""
    return all(res["verdicts"].values()) and digest(res) == golden_digest


# -- isogeny: criteria 3 and 5, plus thm1 part 2 for rank 2 ---------------


def _isogeny_inputs(kind, rng):
    q, r = _qr(kind)
    return q, r, rng.getrandbits(64), rng.getrandbits(64)


def _isogeny_item(inputs):
    from drinfeld import bounds, dmod, isogeny, places
    from drinfeld.base import rational_function_field

    q, r, pair_seed, module_seed = inputs
    phi, phi2, f, _ = isogeny.random_isogenous_pair(q, r, random.Random(pair_seed))
    data = isogeny.dual(phi, phi2, f)
    N, fhat = data.N, data.fhat
    hG, hG2 = phi.height_G(), phi2.height_G()
    rep = bounds.thm1_part1_report(hG2 - hG, int(N.degree), q, r)
    verdicts = {
        "thm1_part1": rep.satisfied,
        "fhat_f": fhat * f == phi.phi_of(N),
        "f_fhat": f * fhat == phi2.phi_of(N),
        "degree_sum": int(f.tau_degree + fhat.tau_degree) == r * int(N.degree),
        "fhat_degree": q ** int(fhat.tau_degree) <= (q ** int(f.tau_degree)) ** (r - 1),
    }
    values = {"f": f, "N": N, "fhat": fhat, "h_G": hG, "h_G2": hG2}
    if r == 2:
        F = rational_function_field(q)
        psi = dmod.random_module(F, q, 2, random.Random(module_seed))
        j = psi.j_invariants()[0]
        hj = Fraction(0) if j.is_zero else places.weil_height([F.one, j])
        part2 = []
        for iso in isogeny.rank2_t_isogenies(psi):
            jp = iso.target.j_invariants()[0]
            hjp = Fraction(0) if jp.is_zero else places.weil_height([F.one, jp])
            rep2 = bounds.thm1_part2_report(hj, hjp, 1, q)
            verdicts[f"thm1_part2_{len(part2)}"] = rep2.satisfied
            part2.append([iso.f, hjp])
        values.update(module=psi, h_j=hj, part2=part2)
    return result(verdicts, values)


# -- interpolation: criteria 10 and 11 ------------------------------------


def _tk_inputs(kind):
    from drinfeld import modpoly

    n, d = (int(x[1:]) for x in kind.split("_")[1:])
    return 2, n, list(modpoly.build_Sn(2, n))[: d + 1]


def _tk_item(inputs):
    from drinfeld import modpoly

    q, n, points = inputs
    rep = modpoly.tk_bounds(q, n, points)
    verdicts = {"coeff_ok": rep["coeff_ok"], "spacing_ok": rep["spacing_ok"]}
    return result(verdicts, rep)


def _lagrange_inputs(rng):
    from drinfeld import modpoly
    from drinfeld.base import poly_ring_A

    A = poly_ring_A(2)
    while True:
        target = modpoly.BivarPoly(
            A, {(i, j): A.random_element(rng, 3) for i in range(4) for j in range(4)}
        )
        if not target.is_zero:
            return target.coeffs, list(modpoly.build_Sn(2, 1))


def _lagrange_item(inputs):
    from drinfeld import modpoly
    from drinfeld.base import poly_ring_A, rational_function_field
    from drinfeld.poly import PolyRing

    coeffs, s1 = inputs
    target = modpoly.BivarPoly(poly_ring_A(2), coeffs)
    FX = PolyRing(rational_function_field(2), "X")
    d = target.deg_y
    pairs = [(y, target.eval_y(FX, y)) for y in s1[: d + 1]]
    back = modpoly.lagrange_reconstruct(pairs, d, n=1)
    return result({"round_trip": back == target}, {"d": d, "P": back.to_sparse_list()})


def _phi_item(q):
    from drinfeld import modpoly

    phi = modpoly.compute_phi_t(q)
    verdicts = {
        "routes_agree": modpoly.compute_phi_t_interpolated(q) == phi,
        "symmetric": phi.is_symmetric(),
        "monic": phi.is_monic_in_x() and phi.is_monic_in_y(),
        "degrees": phi.deg_x == q + 1 and phi.deg_y == q + 1,
    }
    return result(verdicts, {"phi_t": phi.to_sparse_list(), "height": phi.height()})


# -- lattice_heights: criteria 2, 7 and 8, and Weil heights ----------------


def _lattice_inputs(kind, rng):
    from drinfeld import dmod, lattice
    from drinfeld.base import rational_function_field

    q, r = _qr(kind)
    F = rational_function_field(q)
    A = F.ring
    L = lattice.random_lattice(F, r, rng, max_degree=2)
    while True:
        C = [[A.random_element(rng, 1) for _ in range(r)] for _ in range(r)]
        if not lattice.det(F, [[F.from_poly(p) for p in col] for col in C]).is_zero:
            break
    subcols = []
    for ccol in C:
        vec = [F.zero] * r
        for j, coeff in enumerate(ccol):
            for k in range(r):
                vec[k] = vec[k] + L.columns[j][k] * F.from_poly(coeff)
        subcols.append(vec)
    sandwich = None
    if r <= 3:
        lam, lam2, alpha = lattice.random_containment_instance(F, r, rng, max_degree=1)
        sandwich = lam.columns, lam2.columns, alpha
    phi = dmod.random_module(F, q, r, rng, max_degree=3)
    # plain values only: each item builds its own library objects, so a
    # repeated item shares no object (and no state cached on one) with
    # an earlier run of it
    return q, r, L.columns, subcols, C, sandwich, phi.coeffs


def _lattice_item(inputs):
    from drinfeld import dmod, lattice, places
    from drinfeld.base import rational_function_field

    q, r, cols, subcols, C, sandwich, coeffs = inputs
    F = rational_function_field(q)
    L = lattice.LatticeBasis(F, cols)
    sub = lattice.LatticeBasis(F, subcols)
    phi = dmod.DrinfeldModule(F, q, r, coeffs)
    red = lattice.reduce(L)
    red_sub = lattice.reduce(sub)
    idx = lattice.log_index(sub, L)
    smith = [int(p.degree) for p in lattice.smith_invariant_factors(C)]
    hG, hJ = phi.height_G(), phi.height_J()
    verdicts = {
        "covolume_is_deg_det": red.log_covolume == lattice.det(F, L.columns).deg_infinity(),
        "index_is_covolume_difference": idx == red_sub.log_covolume - red.log_covolume,
        "index_is_smith_degree": idx == sum(smith),
        "d_hG_is_hJ": phi.d * hG == hJ,
    }
    values = {
        "minima": red.minima_logs,
        "sub_minima": red_sub.minima_logs,
        "log_index": idx,
        "smith_degrees": smith,
        "h_G": hG,
        "h_J": hJ,
    }
    if sandwich is not None:
        lam_cols, lam2_cols, alpha = sandwich
        rep = lattice.analytic_isogeny_check(
            lattice.LatticeBasis(F, lam_cols), lattice.LatticeBasis(F, lam2_cols), alpha
        )
        verdicts["sandwich"] = rep["ok"]
        values["sandwich"] = rep
    if r == 2:
        j = phi.j_invariants()[0]
        hj = Fraction(0) if j.is_zero else places.weil_height([F.one, j])
        verdicts["weil_height_j_is_hJ"] = hj == hJ
        values["h_j"] = hj
    return result(verdicts, values)
