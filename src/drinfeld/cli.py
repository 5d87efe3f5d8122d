"""Command line surface: batch reports over the library.

Every report is a single JSON document (or its CSV projection) that is
byte-identical across runs with the same seed and configuration.  Exit
codes: 0 when every checked inequality or identity (a boolean under one
of the ``VERDICT_KEYS``) holds, 2 when any is violated, 1 on usage
errors.  Other booleans describe the input, e.g. ``is_reduced``, and do
not affect the exit code.

Each action takes only the options it reads, written after the action
(``drinfeld lattice index --sub ... --sup ...``); ``_ACTIONS`` is the one
record of them, and any other option is a usage error.
"""

import argparse
import csv
import io
import json
import random
import sys
from fractions import Fraction

from .base import poly_ring_A, rational_function_field
from . import bounds as bounds_mod
from . import lattice as lattice_mod
from . import modpoly as modpoly_mod
from .dmod import DrinfeldModule, random_module
from .errors import DrinfeldError
from .factor import monic_polys_of_degree
from .isogeny import (
    dual,
    minimal_N,
    pushforward,
    random_isogenous_pair,
    rank2_t_isogenies,
    remark_rank3_check,
    verify,
)
from .parsing import parse_element, parse_skew

SCHEMA_VERSION = 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _module_from_json(text):
    return DrinfeldModule.from_literal(json.loads(text))


def _basis_from_json(q, text):
    F = rational_function_field(q)
    rows = json.loads(text)
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValueError("matrix must be a JSON list of rows")
    parsed = [[parse_element(entry, F) for entry in row] for row in rows]
    return lattice_mod.LatticeBasis.from_rows(F, parsed)


VERDICT_KEYS = frozenset(
    (
        "satisfied",
        "ok",
        "verified",
        "sandwich_ok",
        "alpha_norm_ge_1",
        "identity_ok",
        "degree_identity_ok",
        "routes_agree",
        "height_within_prop65",
    )
)


def _collect_verdicts(node, out):
    if isinstance(node, dict):
        for key, value in node.items():
            if key in VERDICT_KEYS and isinstance(value, bool):
                out.append(value)
            else:
                _collect_verdicts(value, out)
    elif isinstance(node, list):
        for item in node:
            _collect_verdicts(item, out)


def _emit(report, args):
    report["schema_version"] = SCHEMA_VERSION
    if args.format == "csv":
        text = _to_csv(report)
    else:
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    (args.out or sys.stdout).write(text)
    verdicts = []
    _collect_verdicts(report, verdicts)
    return 0 if all(verdicts) else 2


def _to_csv(report):
    rows = report.get("rows")
    buf = io.StringIO()
    if isinstance(rows, list) and rows and isinstance(rows[0], dict):
        fields = sorted({k for row in rows for k in row})
        writer = csv.DictWriter(buf, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _csv_cell(row.get(k)) for k in fields})
    else:
        writer = csv.writer(buf)
        writer.writerow(["key", "value"])
        for key in sorted(report):
            writer.writerow([key, _csv_cell(report[key])])
    return buf.getvalue()


def _csv_cell(value):
    if isinstance(value, (dict, list)):
        return json.dumps(value, sort_keys=True)
    return value


# -- subcommands --------------------------------------------------------------


def cmd_heights(args):
    phi = _module_from_json(args.module)
    fin, inf, table = phi.height_G_split()
    report = {
        "command": "heights",
        "module": phi.to_literal(),
        "d": phi.d,
        "h_G": str(phi.height_G()),
        "h_J": str(phi.height_J()),
        "h_G_finite": str(fin),
        "h_G_infinite": str(inf),
        "local": [
            {"place": repr(v), "h_G_v": str(h)} for v, h in sorted(
                table.items(), key=lambda kv: repr(kv[0])
            )
        ],
        "naive_height": str(phi.naive_height()),
    }
    return _emit(report, args)


def cmd_isogeny(args):
    phi = _module_from_json(args.module)
    report = {"command": f"isogeny-{args.action}", "module": phi.to_literal()}
    if args.action == "remark3":
        f0 = parse_element(args.f0, phi.field)
        report["remark3"] = remark_rank3_check(phi.q, f0)
        return _emit(report, args)
    f = parse_skew(args.f, phi.skew)
    if args.action == "verify":
        target = _module_from_json(args.target)
        report["verified"] = verify(f, phi, target)
    elif args.action == "pushforward":
        report["target"] = pushforward(phi, f).to_literal()
    elif args.action == "minimal-N":
        pushforward(phi, f)  # a non-isogeny raises KernelNotStable at once
        report["N"] = repr(minimal_N(phi, f)[0])
    else:  # dual
        phi2 = pushforward(phi, f)
        data = dual(phi, phi2, f)
        report["target"] = phi2.to_literal()
        report["N"] = repr(data.N)
        report["fhat"] = repr(data.fhat)
        report["degree_identity_ok"] = (
            int(f.tau_degree + data.fhat.tau_degree)
            == phi.r * int(data.N.degree)
        )
    return _emit(report, args)


def cmd_harness(args):
    q, r = args.q, args.r
    rng = random.Random(args.seed)
    F = rational_function_field(q)
    part1 = []
    for i in range(args.trials):
        phi, phi2, f, _ = random_isogenous_pair(q, r, rng)
        data = dual(phi, phi2, f)
        rep = bounds_mod.thm1_part1_report(
            phi2.height_G() - phi.height_G(),
            int(data.N.degree),
            q,
            r,
            extra={"trial": i, "f": repr(f), "module": phi.to_literal()},
        )
        part1.append(rep.to_payload())
    part2 = []
    if r == 2:
        for i in range(args.trials):
            phi = random_module(F, q, 2, rng)
            hj = phi.height_J()  # h(j) for j = g_1^(q+1)/g_2, unexpanded
            for iso in rank2_t_isogenies(phi):
                rep = bounds_mod.thm1_part2_report(
                    hj, iso.target.height_J(), 1, q, extra={"trial": i, "f": repr(iso.f)}
                )
                part2.append(rep.to_payload())
    report = {
        "command": "harness",
        "config": {"q": q, "r": r, "seed": args.seed, "trials": args.trials},
        "rows": part1,
        "part2": part2,
    }
    return _emit(report, args)


def cmd_lattice(args):
    q = args.q
    report = {"command": f"lattice-{args.action}", "config": {"q": q}}
    if args.action in ("reduce", "covolume"):
        L = _basis_from_json(q, args.matrix)
        red = lattice_mod.reduce(L)
        report["minima_logs"] = [str(m) for m in red.minima_logs]
        report["log_covolume"] = str(red.log_covolume)
        report["is_reduced"] = red.is_reduced
        if args.action == "reduce":
            cols, make = red.integral, L.field.make
            report["basis"] = [
                [repr(make(cols[j][i], red.den)) for j in range(len(cols))]
                for i in range(len(cols))
            ]
    elif args.action == "index":
        sub = _basis_from_json(q, args.sub)
        sup = _basis_from_json(q, args.sup)
        report["log_index"] = str(lattice_mod.log_index(sub, sup))
    else:  # analytic-check
        sub = _basis_from_json(q, args.sub)
        sup = _basis_from_json(q, args.sup)
        F = rational_function_field(q)
        alpha = parse_element(args.alpha, F)
        result = lattice_mod.analytic_isogeny_check(sub, sup, alpha)
        report["check"] = {
            k: (str(v) if isinstance(v, Fraction) else v)
            for k, v in result.items()
        }
    return _emit(report, args)


def cmd_modpoly(args):
    q = args.q
    A = poly_ring_A(q)
    report = {"command": f"modpoly-{args.action}", "config": {"q": q}}
    if args.action == "compute":
        phi_t = modpoly_mod.compute_phi_t(q)
        report["phi_t"] = {
            "sparse": phi_t.to_sparse_list(),
            "pretty": repr(phi_t),
            "height": str(phi_t.height()),
        }
        t, h = A.gen(), phi_t.height()
        report["rows"] = [bounds_mod.bounds_row(t, phi_height=h)]
        report["height_within_prop65"] = bounds_mod.prop65_report(t, h).satisfied
    elif args.action == "cross-check":
        a = modpoly_mod.compute_phi_t(q)
        b = modpoly_mod.compute_phi_t_interpolated(q)
        report["routes_agree"] = a == b
    else:  # table
        if args.m:
            ms = [parse_element(args.m, A)]
        else:
            ms = [m for d in (1, 2) for m in monic_polys_of_degree(A, d)]
        t = A.gen()
        h = modpoly_mod.compute_phi_t(q).height() if q in (2, 3) and t in ms else None
        report["rows"] = [bounds_mod.bounds_row(m, phi_height=h if m == t else None) for m in ms]
    return _emit(report, args)


def _positive_int(text):
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return int(text)


# argparse settings of each option; one without a default is required
_OPTIONS = {
    "module": {"help": "module literal JSON"},
    "f": {"help": "skew polynomial in tau, e.g. 't + T'"},
    "target": {"help": "target module literal JSON"},
    "f0": {"help": "rank 3 remark: f0 in F"},
    "q": {"type": int, "default": 2},
    "r": {"type": int, "default": 2},
    "trials": {"type": _positive_int, "default": 100},
    "seed": {"type": int, "default": 0},
    "matrix": {"help": "row-major JSON of entries"},
    "sub": {},
    "sup": {},
    "alpha": {"default": "1"},
    "m": {"default": None},
    "out": {"default": None},
    "format": {"choices": ("json", "csv"), "default": "json"},
}

# the handler of each (command, action) and the options it reads, besides
# --out and --format; a command without actions has action None
_ACTIONS = {
    ("heights", None): (cmd_heights, ("module",)),
    ("isogeny", "verify"): (cmd_isogeny, ("module", "f", "target")),
    ("isogeny", "pushforward"): (cmd_isogeny, ("module", "f")),
    ("isogeny", "dual"): (cmd_isogeny, ("module", "f")),
    ("isogeny", "minimal-N"): (cmd_isogeny, ("module", "f")),
    ("isogeny", "remark3"): (cmd_isogeny, ("module", "f0")),
    ("harness", None): (cmd_harness, ("q", "r", "trials", "seed")),
    ("lattice", "reduce"): (cmd_lattice, ("q", "matrix")),
    ("lattice", "covolume"): (cmd_lattice, ("q", "matrix")),
    ("lattice", "index"): (cmd_lattice, ("q", "sub", "sup")),
    ("lattice", "analytic-check"): (cmd_lattice, ("q", "sub", "sup", "alpha")),
    ("modpoly", "compute"): (cmd_modpoly, ("q",)),
    ("modpoly", "table"): (cmd_modpoly, ("q", "m")),
    ("modpoly", "cross-check"): (cmd_modpoly, ("q",)),
}


def build_parser():
    parser = _Parser(prog="drinfeld")
    commands = parser.add_subparsers(dest="command", required=True)
    actions = {}
    for (command, action), (func, names) in _ACTIONS.items():
        if action is None:
            p = commands.add_parser(command)
        else:
            if command not in actions:
                actions[command] = commands.add_parser(command).add_subparsers(
                    dest="action", required=True
                )
            p = actions[command].add_parser(action)
        for name in names + ("out", "format"):
            settings = _OPTIONS[name]
            p.add_argument(
                f"--{name}", required="default" not in settings, **settings
            )
        p.set_defaults(func=func)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.out is None:
            return args.func(args)
        # opened before the report is computed: a bad path fails at once
        with open(args.out, "w") as args.out:
            return args.func(args)
    except (DrinfeldError, ValueError, KeyError, OSError) as exc:
        sys.stderr.write(f"drinfeld: error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
