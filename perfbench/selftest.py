#!/usr/bin/env python3
"""Self-tests of the benchmark itself (about two minutes):

    python3 perfbench/selftest.py

- a wrong, raising or mis-digested item is counted as failed;
- the traced pass yields the same per-item digests as the untraced one,
  wraps names re-exported by ``from .x import f``, and restores the
  library when uninstalled;
- two traced runs with one seed report identical ``*.calls`` counts.
"""

import json
import os
import subprocess
import sys

import run
import workloads
from clock import RefClock
from tracer import Tracer

sys.path.insert(0, os.path.join(run.ROOT, "src"))


def _first_round(workload, limit=None):
    pool, _ = run._setup(workload)
    items = next(workloads.epochs(pool, workload, 0))[0]
    return items[:limit] if limit else items


def test_wrong_results_count_as_failed():
    import drinfeld.isogeny as isogeny

    golden = run._load_golden("isogeny")
    item = _first_round("isogeny")[0]
    want = golden[item.kind][item.variant]
    res = item.run(item.inputs)
    assert workloads.check(res, want)

    wrong_value = json.loads(json.dumps(res))
    wrong_value["values"]["h_G"] = "12345/7"
    assert not workloads.check(wrong_value, want), "a changed exact value passed"
    wrong_verdict = json.loads(json.dumps(res))
    wrong_verdict["verdicts"]["thm1_part1"] = False
    assert not workloads.check(wrong_verdict, want), "a false verdict passed"

    real_dual = isogeny.dual

    def off_by_one(phi, phi2, f):
        data = real_dual(phi, phi2, f)
        return isogeny.DualData(data.fhat + f.ring.one, data.N)

    def raising(phi, phi2, f):
        raise ArithmeticError("injected")

    for fake in (off_by_one, raising):
        isogeny.dual = fake
        try:
            ok, _, _ = run._run_item(item, golden, RefClock(), reported={item.key})
        finally:
            isogeny.dual = real_dual
        assert not ok, f"{fake.__name__}: a wrong result was counted as passed"
    ok, _, _ = run._run_item(item, golden, RefClock(), reported=set())
    assert ok


def test_traced_digests_match_untraced():
    import drinfeld
    import drinfeld.extfield as extfield
    import drinfeld.isogeny as isogeny

    originals = (isogeny.dual, isogeny.rational_roots, drinfeld.dual)
    for workload, limit in (("isogeny", None), ("interpolation", 12), ("lattice_heights", 6)):
        golden = run._load_golden(workload)
        items = _first_round(workload, limit)
        plain = [workloads.digest(item.run(item.inputs)) for item in items]
        tracer = Tracer()
        tracer.install()
        try:
            assert isogeny.rational_roots is extfield.rational_roots
            assert drinfeld.dual is isogeny.dual
            traced = [workloads.digest(item.run(item.inputs)) for item in items]
        finally:
            tracer.uninstall()
        assert traced == plain, f"{workload}: traced digests differ"
        assert plain == [golden[i.kind][i.variant] for i in items], workload
        if workload == "isogeny":
            # reached only through the binding `from .extfield import rational_roots`
            assert tracer.calls("extfield.rational_roots") > 0
            assert tracer.calls("isogeny.minimal_N") == len(items)
    assert (isogeny.dual, isogeny.rational_roots, drinfeld.dual) == originals


def test_traced_calls_repeat():
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
               "--seed", "7", "--seconds", "5", "--trace", "1"]
        procs = [subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                  text=True) for _ in range(2)]
        outs = [p.communicate(timeout=300)[0] for p in procs]
        results = [json.loads(out.splitlines()[-1]) for out in outs]
        for res in results:
            assert res["correct"] and res["failed"] == 0, workload
        calls = [{k: m["value"] for k, m in res["metrics"].items() if k.endswith(".calls")}
                 for res in results]
        assert calls[0] == calls[1], f"{workload}: call counts differ"
        assert sum(calls[0].values()) > 0


def main():
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    failed = 0
    for test in tests:
        try:
            test()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {test.__name__}: {exc}")
        else:
            print(f"ok   {test.__name__}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
