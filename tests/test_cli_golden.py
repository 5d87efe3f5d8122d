"""Golden digests of CLI reports: sha256 of stdout and the exit code for
a fixed list of small invocations.

A change that alters any report byte for these inputs fails here; if the
change is intended, record the new digest and say which reports moved.
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from drinfeld.cli import main

GOLDEN = [
    (
        'harness-q2-r2',
        ['harness', '--q', '2', '--r', '2', '--trials', '8', '--seed', '1'],
        0,
        '39e06ae2dded74e1fcf524dc3ccefd741d6e0238589152db318b87b05dc14cac',
    ),
    (
        'harness-q3-r2',
        ['harness', '--q', '3', '--r', '2', '--trials', '4', '--seed', '1'],
        0,
        'f4577f442167881953cb3b7cd2efeffc5e99e48cdab6a9b248d16b60292bf62e',
    ),
    (
        'harness-q3-r3',
        ['harness', '--q', '3', '--r', '3', '--trials', '4', '--seed', '1'],
        0,
        '0345b1d9422b1d697fafe3a68689e402907782ceea6a532d0380e7bec162c844',
    ),
    (
        'harness-q2-r4',
        ['harness', '--q', '2', '--r', '4', '--trials', '4', '--seed', '1'],
        0,
        'dca51df8d12a4e63b507f112a223d2047a03525e63ec8747bd9dec966ff75755',
    ),
    (
        'harness-q4-r2',
        ['harness', '--q', '4', '--r', '2', '--trials', '4', '--seed', '1'],
        0,
        'da89a0fa57ff939bee5cfe0e60e208db420255513bf08a1853b1821c63f2af66',
    ),
    (
        'harness-csv',
        ['harness', '--q', '2', '--r', '2', '--trials', '8', '--seed', '1', '--format', 'csv'],
        0,
        '9aaba04a7ef39c4399b87277453bf4df8bc437bf8830a2b88f5ecea6ee3b0e5a',
    ),
    (
        'modpoly-compute',
        ['modpoly', 'compute', '--q', '2'],
        0,
        'e914949fc00301960ded5589ac34ed25dcfd90f0c5936d68b143282318ad3005',
    ),
    (
        'modpoly-table',
        ['modpoly', 'table', '--q', '2'],
        0,
        'a38dde77599b5636b93bb42406a004f274f85a69849e28c6d1546ddef2fbc172',
    ),
    (
        'modpoly-table-q4',
        ['modpoly', 'table', '--q', '4'],
        0,
        '7420103918755f3fcef00d14652087f580df1a6117f5d9da09b7a5bca4d94d77',
    ),
    (
        'modpoly-table-q9',
        ['modpoly', 'table', '--q', '9'],
        0,
        'f3fcece40175c5e398b068fc5a7b963e93e69d225e356edeecf2215e5cd9e486',
    ),
    (
        'modpoly-cross-check',
        ['modpoly', 'cross-check', '--q', '2'],
        0,
        '19769cf791984814a553b1fe8925f0d4626f6724c6ffda7bfaa6cc87170ce96a',
    ),
    (
        'lattice-reduce',
        ['lattice', 'reduce', '--q', '3', '--matrix', '[["t^2+1","t"],["1/t","t+2"]]'],
        0,
        'f1eccbb0a4ad92412aacd115bbcfc427d1d33edbc5a8f675c5d91e51a242cd53',
    ),
    (
        'lattice-covolume',
        ['lattice', 'covolume', '--q', '2', '--matrix', '[["t","1/(t+1)"],["0","t^2"]]'],
        0,
        '4d1cdf437d9382bb2e38462e85a5867c0bc4f4b7d2ca2d87f43e9a600ff4ad31',
    ),
    (
        'lattice-index',
        ['lattice', 'index', '--q', '2', '--sub', '[["t^2","t"],["0","t+1"]]',
         '--sup', '[["1","0"],["0","1"]]'],
        0,
        '78ce55e1cf4f215cfab0c056ca1cdb2ace8c78dbede75af61186464311e54987',
    ),
    (
        'lattice-analytic-check',
        ['lattice', 'analytic-check', '--q', '2', '--sub', '[["1","0"],["0","1"]]',
         '--sup', '[["1","1/t"],["0","1"]]', '--alpha', 't'],
        0,
        '23d45d03c741779ff5ad4dd42a5701f914f7c23f3a3bf2cdaed76e96ea7ada0f',
    ),
    (
        'isogeny-dual',
        ['isogeny', 'dual', '--module', '{"q":2,"r":2,"g":["t+1","1"]}', '--f', '1*T^0 + T^1'],
        0,
        '77460111f25d6a30c529b287b18854a68e2bb391f2d421730ab42d5711d9aca3',
    ),
    (
        # the target is the pushforward report's own
        'isogeny-verify',
        ['isogeny', 'verify', '--module', '{"q":2,"r":2,"g":["t+1","1"]}', '--f', '1*T^0 + T^1',
         '--target', '{"g":["t^2+1","1"],"q":2,"r":2}'],
        0,
        'a097e2a718be9abf4cff42a3b37c0cd946511e985577a77c09d0fd3ff6d8ab2c',
    ),
    (
        # 1 + tau maps phi to its pushforward, not to phi itself
        'isogeny-verify-wrong-target',
        ['isogeny', 'verify', '--module', '{"q":2,"r":2,"g":["t+1","1"]}', '--f', '1*T^0 + T^1',
         '--target', '{"q":2,"r":2,"g":["t+1","1"]}'],
        2,
        '69670e8884f9cf3d10168e065275f5dfa93a6c593700d2dce06daeba2f55f3a9',
    ),
    (
        'isogeny-pushforward',
        ['isogeny', 'pushforward', '--module', '{"q":2,"r":2,"g":["t+1","1"]}', '--f', '1*T^0 + T^1'],
        0,
        '26875288d10cd25064b04aaf8093164e23300388cfe68afa3957a82dc33f4ca2',
    ),
    (
        'isogeny-minimal-N',
        ['isogeny', 'minimal-N', '--module', '{"q":2,"r":2,"g":["t+1","1"]}', '--f', '1*T^0 + T^1'],
        0,
        '339bfbdec43a7c91713d50e836341658d9418edc0994fe6c8bdfc46adbbd1349',
    ),
    (
        'isogeny-remark3',
        ['isogeny', 'remark3', '--module', '{"q":2,"r":3,"g":["t+1","0","1"]}', '--f0', '1'],
        0,
        '472a068bf627748a5be38aa553aaef97fa83808b992f6db793dfa20cd8b750f7',
    ),
    (
        'heights',
        ['heights', '--module', '{"q":3,"r":2,"g":["t^2+1","t"]}'],
        0,
        'e37058222747d14cda2a5ff7306237e717ff255a03065ceeb3fdf587c9fb72dd',
    ),
    (
        'heights-q4',
        ['heights', '--module',
         '{"q":4,"r":2,"g":["(t^2+u)/(t^3+t+1)","(t^5+u*t+1)/(t^4+u)"]}'],
        0,
        '40b102920c52a4af288499fd5222d937604d33c23d1e728fd7575929cd2125e6',
    ),
    (
        'heights-q9',
        ['heights', '--module',
         '{"q":9,"r":2,"g":["(u*t^3+1)/(t^2+u)","(t^4+t+u)/(t^5+u*t^2+2)"]}'],
        0,
        '309888fe68e96cdf110e54d3bb8df51ad7a0a045bd4175907baf3a43b5728ee3',
    ),
    (
        # rank 3: a zero coefficient, multiplicities above 1, a degree-2 place
        'heights-r3',
        ['heights', '--module',
         '{"q":2,"r":3,"g":["(t^2+t+1)^2/t","0","(t+1)^3/(t^2+t+1)"]}'],
        0,
        'cb8e0289d6dd645e84c1eeb8d8104e77fde805bc89c142ba434dd4c882c338c2',
    ),
]


@pytest.mark.parametrize(
    "argv,code,sha256", [g[1:] for g in GOLDEN], ids=[g[0] for g in GOLDEN]
)
def test_cli_report_digest(capsys, argv, code, sha256):
    assert main(argv) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


# runs every invocation of GOLDEN (argv lists as JSON on stdin) and prints
# sys.flags.optimize, then one [exit code, stdout sha256] per invocation
_RUN_ALL = """
import contextlib, hashlib, io, json, sys
from drinfeld.cli import main
print(sys.flags.optimize)
for argv in json.load(sys.stdin):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    print(json.dumps([code, hashlib.sha256(buf.getvalue().encode()).hexdigest()]))
"""


def test_cli_report_digests_under_python_O():
    """The same digests from one ``python -O`` subprocess, which strips
    assert statements: no report depends on an assert."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run(
        [sys.executable, "-O", "-c", _RUN_ALL],
        input=json.dumps([g[1] for g in GOLDEN]),
        env=env, capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    assert out[0] == "1"
    assert [json.loads(line) for line in out[1:]] == [[g[2], g[3]] for g in GOLDEN]
