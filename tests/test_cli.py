"""Command line surface: JSON shape, exit codes, determinism, CSV."""

import csv
import io
import json
import time
from fractions import Fraction

import pytest

from drinfeld.cli import main


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_heights_command(capsys):
    code, out = _run(
        capsys, ["heights", "--module", '{"q":2,"r":2,"g":["t","1"]}']
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["h_G"] == "1"
    assert doc["h_J"] == "3"
    assert doc["d"] == 3
    assert doc["schema_version"] == 1


def test_isogeny_verify(capsys):
    module = '{"q":2,"r":2,"g":["t+1","1"]}'
    code, out = _run(
        capsys,
        [
            "isogeny",
            "pushforward",
            "--module",
            module,
            "--f",
            "1*T^0 + T^1",
        ],
    )
    assert code == 0
    target = json.dumps(json.loads(out)["target"])
    code, out = _run(
        capsys,
        [
            "isogeny",
            "verify",
            "--module",
            module,
            "--f",
            "1*T^0 + T^1",
            "--target",
            target,
        ],
    )
    assert code == 0
    assert json.loads(out)["verified"] is True


def test_isogeny_verify_target_of_another_rank(capsys):
    # same field, other rank: a verdict, not an error
    code, out = _run(
        capsys,
        [
            "isogeny", "verify", "--module", '{"q":2,"r":2,"g":["t","1"]}',
            "--f", "T^1", "--target", '{"q":2,"r":3,"g":["t","1","1"]}',
        ],
    )
    assert code == 2
    assert json.loads(out)["verified"] is False


def test_isogeny_dual(capsys):
    module = '{"q":2,"r":2,"g":["t+1","1"]}'
    code, out = _run(
        capsys,
        ["isogeny", "dual", "--module", module, "--f", "1*T^0 + T^1"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["N"] == "t"
    assert doc["degree_identity_ok"] is True


def test_isogeny_remark3(capsys):
    module = '{"q":2,"r":3,"g":["t+1","0","1"]}'
    code, out = _run(
        capsys, ["isogeny", "remark3", "--module", module, "--f0", "1"]
    )
    assert code == 0
    assert json.loads(out)["remark3"]["ok"] is True


def test_harness_exit_zero_and_satisfied(capsys):
    code, out = _run(
        capsys, ["harness", "--q", "2", "--r", "2", "--trials", "20", "--seed", "7"]
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["rows"]) == 20
    assert all(row["satisfied"] for row in doc["rows"])


def test_harness_deterministic(capsys):
    argv = ["harness", "--q", "2", "--r", "2", "--trials", "10", "--seed", "3"]
    _, out1 = _run(capsys, argv)
    _, out2 = _run(capsys, argv)
    assert out1 == out2


def test_lattice_commands(capsys):
    code, out = _run(
        capsys, ["lattice", "reduce", "--q", "2", "--matrix", '[["t","0"],["0","1"]]']
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["minima_logs"] == ["1", "0"]
    assert doc["log_covolume"] == "1"
    assert doc["is_reduced"] is True

    code, out = _run(
        capsys,
        [
            "lattice",
            "index",
            "--q",
            "2",
            "--sub",
            '[["t","0"],["0","t"]]',
            "--sup",
            '[["1","0"],["0","1"]]',
        ],
    )
    assert code == 0
    assert json.loads(out)["log_index"] == "2"

    code, out = _run(
        capsys,
        [
            "lattice",
            "analytic-check",
            "--q",
            "2",
            "--sub",
            '[["1","0"],["0","1"]]',
            "--sup",
            '[["1","0"],["0","1"]]',
            "--alpha",
            "t",
        ],
    )
    assert code == 0
    assert json.loads(out)["check"]["ok"] is True


def test_modpoly_compute(capsys):
    code, out = _run(capsys, ["modpoly", "compute", "--q", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["height_within_prop65"] is True
    assert abs(doc["rows"][0]["prop65_bound"] - 33.66) < 0.05
    degrees = {(e["i"], e["j"]) for e in doc["phi_t"]["sparse"]}
    assert (3, 0) in degrees and (0, 3) in degrees


def test_modpoly_table_one_m(capsys):
    """--m gives the one row of that m, with h(Phi_m) only for m = t."""
    code, out = _run(capsys, ["modpoly", "table", "--q", "2", "--m", "t^2+t+1"])
    assert code == 0
    (row,) = json.loads(out)["rows"]
    assert (row["m"], row["psi"], row["h_phi"]) == ("t^2+t+1", 5, None)
    assert row["prop65_bound"] == 76.12661091241608
    code, out = _run(capsys, ["modpoly", "table", "--q", "2", "--m", "t"])
    assert code == 0
    (row,) = json.loads(out)["rows"]
    assert (row["m"], row["h_phi"]) == ("t", "12")


def test_modpoly_cross_check(capsys):
    code, out = _run(capsys, ["modpoly", "cross-check", "--q", "2"])
    assert code == 0
    assert json.loads(out)["routes_agree"] is True


def _force_routes_disagree(monkeypatch):
    from drinfeld import modpoly

    monkeypatch.setattr(modpoly, "compute_phi_t", lambda q: "a")
    monkeypatch.setattr(modpoly, "compute_phi_t_interpolated", lambda q: "b")
    return ["modpoly", "cross-check", "--q", "2"], "routes_agree"


def _force_prop65_violated(monkeypatch):
    from drinfeld import bounds

    monkeypatch.setattr(bounds, "_prop65_iv", lambda q, deg_m, psi_m: bounds._IV.mpf(-1))
    return ["modpoly", "compute", "--q", "2"], "height_within_prop65"


def _force_prop65_violated_past_float(monkeypatch):
    """h = 2^53 + 1 exceeds the bound 2^53, but float(h) rounds to 2^53:
    only an exact comparison sees the violation."""
    from drinfeld import bounds, modpoly

    monkeypatch.setattr(
        modpoly.BivarPoly, "height", lambda self: Fraction(2**53 + 1)
    )
    monkeypatch.setattr(bounds, "_prop65_iv", lambda q, deg_m, psi_m: bounds._IV.mpf(2**53))
    return ["modpoly", "compute", "--q", "2"], "height_within_prop65"


def _force_degree_identity_broken(monkeypatch):
    from drinfeld import cli
    from drinfeld.isogeny import DualData, dual

    def skewed_dual(phi, phi2, f):
        data = dual(phi, phi2, f)
        return DualData(data.fhat, data.N * data.N.ring.gen())

    monkeypatch.setattr(cli, "dual", skewed_dual)
    argv = [
        "isogeny",
        "dual",
        "--module",
        '{"q":2,"r":2,"g":["t+1","1"]}',
        "--f",
        "1*T^0 + T^1",
    ]
    return argv, "degree_identity_ok"


@pytest.mark.parametrize(
    "force",
    [
        _force_routes_disagree,
        _force_prop65_violated,
        _force_prop65_violated_past_float,
        _force_degree_identity_broken,
    ],
)
def test_false_verdict_exits_two(capsys, monkeypatch, force):
    argv, key = force(monkeypatch)
    code, out = _run(capsys, argv)
    assert json.loads(out)[key] is False
    assert code == 2


def test_unreduced_lattice_is_not_a_violation(capsys):
    # is_reduced describes the input basis, it is not a verdict
    code, out = _run(
        capsys, ["lattice", "reduce", "--q", "2", "--matrix", '[["t","0"],["0","t"]]']
    )
    assert json.loads(out)["is_reduced"] is False
    assert code == 0


def test_csv_output(capsys):
    code, out = _run(
        capsys,
        [
            "harness",
            "--q",
            "2",
            "--r",
            "2",
            "--trials",
            "5",
            "--seed",
            "1",
            "--format",
            "csv",
        ],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6  # header + five rows
    assert "satisfied" in lines[0]


def test_csv_without_rows_is_the_key_value_projection(capsys):
    """A report without a list of row objects prints as key,value lines,
    one per top-level key in sorted order; a nested value is its JSON."""
    argv = ["heights", "--module", '{"q":2,"r":2,"g":["t","1"]}']
    doc = json.loads(_run(capsys, argv)[1])
    code, out = _run(capsys, argv + ["--format", "csv"])
    assert code == 0
    header, *rows = csv.reader(io.StringIO(out))
    assert header == ["key", "value"]
    assert [key for key, _ in rows] == sorted(doc)
    for key, cell in rows:
        value = doc[key]
        if isinstance(value, (dict, list)):
            assert cell == json.dumps(value, sort_keys=True)
        else:
            assert cell == str(value)


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["harness", "--bogus"])
    assert exc.value.code == 1


@pytest.mark.parametrize(
    "argv, missing",
    [
        (["isogeny", "dual"], "--f"),
        (["isogeny", "pushforward"], "--f"),
        (["isogeny", "verify"], "--f and --target"),
        (["isogeny", "minimal-N"], "--f"),
        (["isogeny", "remark3"], "--f0"),
        (["lattice", "covolume"], "--matrix"),
        (["lattice", "index"], "--sub and --sup"),
    ],
)
def test_missing_action_option_is_usage_error(capsys, argv, missing):
    if argv[0] == "isogeny":
        argv = argv + ["--module", '{"q":2,"r":2,"g":["t+1","1"]}']
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    missing = missing.replace(" and ", ", ")  # argparse's list
    assert capsys.readouterr().err.endswith(
        f"the following arguments are required: {missing}\n"
    )


_MODULE = '{"q":2,"r":2,"g":["t+1","1"]}'
_IDENTITY = '[["1","0"],["0","1"]]'
_VALID = {
    "verify": [
        "isogeny", "verify", "--module", _MODULE, "--f", "1*T^0", "--target", _MODULE,
    ],
    "pushforward": ["isogeny", "pushforward", "--module", _MODULE, "--f", "1*T^0 + T^1"],
    "dual": ["isogeny", "dual", "--module", _MODULE, "--f", "1*T^0 + T^1"],
    "minimal-N": ["isogeny", "minimal-N", "--module", _MODULE, "--f", "1*T^0 + T^1"],
    "remark3": [
        "isogeny", "remark3", "--module", '{"q":2,"r":3,"g":["t+1","0","1"]}', "--f0", "1",
    ],
    "reduce": ["lattice", "reduce", "--matrix", _IDENTITY],
    "covolume": ["lattice", "covolume", "--matrix", _IDENTITY],
    "index": ["lattice", "index", "--sub", _IDENTITY, "--sup", _IDENTITY],
    "analytic-check": [
        "lattice", "analytic-check", "--sub", _IDENTITY, "--sup", _IDENTITY,
        "--alpha", "t",
    ],
    "compute": ["modpoly", "compute"],
    "cross-check": ["modpoly", "cross-check"],
}


# one option per (action, option) pair that the action does not read
_UNREAD = [
    ("verify", "--f0", "1"),
    ("pushforward", "--f0", "1"),
    ("dual", "--f0", "1"),
    ("minimal-N", "--f0", "1"),
    ("pushforward", "--target", _MODULE),
    ("dual", "--target", _MODULE),
    ("minimal-N", "--target", _MODULE),
    ("remark3", "--target", _MODULE),
    ("remark3", "--f", "T^1"),
    ("index", "--matrix", _IDENTITY),
    ("analytic-check", "--matrix", _IDENTITY),
    ("reduce", "--sub", _IDENTITY),
    ("covolume", "--sub", _IDENTITY),
    ("reduce", "--sup", _IDENTITY),
    ("covolume", "--sup", _IDENTITY),
    ("reduce", "--alpha", "t"),
    ("covolume", "--alpha", "t"),
    ("index", "--alpha", "t"),
    ("compute", "--m", "t+1"),
    ("cross-check", "--m", "t+1"),
]


@pytest.mark.parametrize(
    "action, option, value", _UNREAD, ids=[f"{a} {o}" for a, o, _ in _UNREAD]
)
def test_option_the_action_does_not_read_is_usage_error(capsys, action, option, value):
    # each action takes only the options it reads; e.g. modpoly compute
    # --m t+1 would otherwise report on m = t
    assert _run(capsys, _VALID[action])[0] == 0
    with pytest.raises(SystemExit) as exc:
        main(_VALID[action] + [option, value])
    assert exc.value.code == 1
    assert option in capsys.readouterr().err


def test_isogeny_minimal_N(capsys):
    code, out = _run(capsys, _VALID["minimal-N"])
    assert code == 0
    assert json.loads(out)["N"] == "t"


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_harness_trials_below_one_is_usage_error(capsys, trials):
    with pytest.raises(SystemExit) as exc:
        main(["harness", "--trials", trials])
    assert exc.value.code == 1
    assert "--trials" in capsys.readouterr().err


@pytest.mark.parametrize("action", ["pushforward", "verify", "dual", "minimal-N"])
def test_f_past_max_degree_exits_one_at_once(capsys, action):
    """f phi_t carries t^(q^d) for d = tau-deg f: at q = 2, T^13 + 1 gives
    t^8192, past MAX_DEGREE, and is refused before any product; T^12 + 1
    (t^4096) is admitted and fails only as not stable."""
    module = '{"q":2,"r":2,"g":["t","1"]}'
    extra = ["--target", module] if action == "verify" else []
    start = time.perf_counter()
    argv = ["isogeny", action, "--module", module, "--f", "T^13+1"] + extra
    assert main(argv) == 1
    assert time.perf_counter() - start < 0.5
    assert "MAX_DEGREE" in capsys.readouterr().err
    if action == "pushforward":
        assert main(["isogeny", action, "--module", module, "--f", "T^12+1"]) == 1
        assert "not stable" in capsys.readouterr().err


def test_unwritable_out_exits_one(capsys, tmp_path):
    path = tmp_path / "missing" / "x.json"
    argv = ["heights", "--module", '{"q":2,"r":2,"g":["t","1"]}', "--out", str(path)]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("drinfeld: error: ")
    assert not path.exists()


def test_unwritable_out_fails_before_the_report(capsys, tmp_path):
    """--out is opened before the handler runs: the q = 9 cross-check,
    which computes Phi_t twice in tens of seconds, exits 1 at once."""
    path = tmp_path / "missing" / "x.json"
    start = time.perf_counter()
    assert main(["modpoly", "cross-check", "--q", "9", "--out", str(path)]) == 1
    assert time.perf_counter() - start < 5
    assert "No such file or directory" in capsys.readouterr().err


def test_out_holds_the_stdout_report(capsys, tmp_path):
    path = tmp_path / "x.json"
    argv = ["modpoly", "compute", "--q", "2"]
    assert _run(capsys, argv) == (main(argv + ["--out", str(path)]), path.read_text())
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command", ["heights", "isogeny", "lattice", "modpoly"])
def test_seed_is_harness_only(capsys, command):
    # only the harness draws random modules; elsewhere --seed is a usage error
    argv = {
        "heights": ["heights", "--module", '{"q":2,"r":2,"g":["t","1"]}'],
        "isogeny": [
            "isogeny", "dual", "--module", '{"q":2,"r":2,"g":["t+1","1"]}',
            "--f", "1*T^0 + T^1",
        ],
        "lattice": ["lattice", "covolume", "--matrix", '[["t","0"],["0","1"]]'],
        "modpoly": ["modpoly", "table"],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", "1"])
    assert exc.value.code == 1
    assert "--seed" in capsys.readouterr().err


def test_bad_input_exit_code(capsys):
    code = main(["heights", "--module", "{not json"])
    assert code == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["lattice", "reduce", "--matrix", "[]"], "empty"),
        (["lattice", "reduce", "--matrix", '[["1","0"],["0"]]'], "square"),
        (["lattice", "reduce", "--matrix", '[["1"],["0","1"]]'], "square"),
        (["lattice", "covolume", "--matrix", '["1"]'], "list of rows"),
        (["lattice", "reduce", "--matrix", '[["1/0"]]'], "division by zero"),
        (["lattice", "reduce", "--matrix", "[[1]]"], "expected a string"),
        (
            ["lattice", "index", "--sub", '[["t"]]', "--sup", '[["1","0"],["0","1"]]'],
            "same rank",
        ),
        (
            [
                "lattice", "analytic-check", "--sub", '[["1"]]',
                "--sup", '[["1","0"],["0","1"]]', "--alpha", "t",
            ],
            "same rank",
        ),
        (["heights", "--module", '{"q":2,"r":2,"g":["1/0","1"]}'], "division by zero"),
        (["heights", "--module", '{"q":2,"r":2,"g":[1,1]}'], "expected a string"),
        (["heights", "--module", "[1]"], "JSON object"),
        (["heights", "--module", '{"q":2,"r":2}'], "lacks g"),
        (["heights", "--module", '{"g":["t","1"]}'], "lacks q, r"),
        (["heights", "--module", '{"q":2,"r":2,"g":"t1"}'], "list of strings"),
        (["heights", "--module", '{"q":[2],"r":2,"g":["t","1"]}'], "integers"),
        (["isogeny", "minimal-N", "--module", '"t"', "--f", "1*T^0 + T^1"], "JSON object"),
        (
            [
                "isogeny", "verify", "--module", '{"q":2,"r":2,"g":["t+1","1"]}',
                "--f", "1*T^0 + T^1", "--target", '{"q":2,"g":["t","1"]}',
            ],
            "lacks r",
        ),
        (["heights", "--module", '{"q":65536,"r":2,"g":["t","1"]}'], "MAX_Q = 256"),
        (["modpoly", "compute", "--q", "65536"], "MAX_Q = 256"),
        (
            [
                "isogeny", "verify", "--module", '{"q":2,"r":2,"g":["t","1"]}',
                "--f", "T^1", "--target", '{"q":3,"r":2,"g":["t","1"]}',
            ],
            "different fields",
        ),
        (["heights", "--module", '{"q":3,"r":2,"g":["t^5001","1"]}'], "MAX_DEGREE"),
        (["heights", "--module", '{"q":2,"r":2,"g":["' + "-" * 5000 + 't","1"]}'], "nests"),
        (
            [
                "isogeny", "minimal-N", "--module", '{"q":2,"r":2,"g":["t","1"]}',
                "--f", "T^6+1",
            ],
            "not stable",
        ),
        (["modpoly", "table", "--q", "2", "--m", "1/t"], "not divisible"),
    ],
)
def test_bad_literal_or_matrix_exits_one(capsys, argv, message):
    # bad input is reported on stderr with exit 1, not raised as a traceback
    if argv[0] == "lattice":
        argv = argv + ["--q", "2"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("drinfeld: error: ") and message in err
