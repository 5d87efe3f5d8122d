#!/usr/bin/env python3
"""Verdict-throughput benchmark of the ``drinfeld`` library.

    python3 perfbench/run.py --workload isogeny --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1 --seconds 30      # every workload

Run from the repository root; the library is imported from ``src/``.
One process, one thread, one caller: a closed loop that issues each item
only after the previous one returned.  Every item's result is checked
against the golden digests in ``golden.json``.

``--trace 0`` times whole epochs (see ``workloads``) for about
``--seconds`` seconds and reports the end-to-end metrics.  ``--trace 1``
runs one epoch untraced, then again under the outside-in tracer, and
reports the per-layer metrics.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

import workloads
from clock import RefClock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(HERE, "golden.json")

# set-up is measured this many times per run (here and in fresh
# interpreters) and reported as the median
SETUP_SAMPLES = 3


def _setup(workload):
    """Import the library, build the F_q tables and generate the pool of
    inputs; returns (pool, set-up time in reference seconds)."""
    clock = RefClock()
    clock.start()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import drinfeld  # noqa: F401  (the import is part of set-up)

    workloads.build_tables(workload)
    clock.stop()
    pool = {}
    items = workloads.pool_items(workload)
    while True:
        clock.start()
        item = next(items, None)
        clock.stop()
        if item is None:
            return pool, clock.scaled
        pool.setdefault(item.kind, []).append(item)


def _run_item(item, golden, clock, reported):
    """(ok, digest or None, scaled seconds) of one item; reports each
    failing item key once on stderr."""
    res = None
    clock.start()
    try:
        res = item.run(item.inputs)
    except Exception:
        if item.key not in reported:
            reported.add(item.key)
            print(f"item {item.key} raised:\n{traceback.format_exc()}", file=sys.stderr)
    elapsed, _ = clock.stop()
    if res is None:
        return False, None, elapsed
    want = golden[item.kind][item.variant]
    ok = workloads.check(res, want)
    if not ok and item.key not in reported:
        reported.add(item.key)
        false = [k for k, v in res["verdicts"].items() if not v]
        print(f"item {item.key} failed: false verdicts {false}, digest "
              f"{workloads.digest(res)} vs golden {want}", file=sys.stderr)
    return ok, workloads.digest(res), elapsed


def _load_golden(workload):
    with open(GOLDEN) as fh:
        return json.load(fh)[workload]


def timed_batch(workload, seed, seconds, pool, golden):
    """Whole epochs until about ``seconds`` of wall time have passed: stops
    at the epoch boundary nearest to ``seconds``.  Returns (per-item
    scaled latencies, failures, clock)."""
    latencies, failed, reported = [], 0, set()
    source = workloads.epochs(pool, workload, seed)
    clock = RefClock()
    n_epochs = 0
    start = time.perf_counter()
    while True:
        for item in (item for rnd in next(source) for item in rnd):
            ok, _, elapsed = _run_item(item, golden, clock, reported)
            latencies.append(elapsed)
            failed += not ok
        n_epochs += 1
        wall = time.perf_counter() - start
        if wall * (1 + 0.5 / n_epochs) >= seconds:
            return latencies, failed, clock


def _setup_samples(workload, seed, first):
    samples = [first]
    for _ in range(SETUP_SAMPLES - 1):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            check=True, capture_output=True, text=True, timeout=150,
        ).stdout
        samples.append(json.loads(out.splitlines()[-1])["setup_s"])
    return samples


def end_to_end(args, pool, setup_s, golden):
    latencies, failed, clock = timed_batch(args.workload, args.seed, args.seconds, pool, golden)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup = statistics.median(_setup_samples(args.workload, args.seed, setup_s))
    n = len(latencies)
    repeats = n - sum(map(len, pool.values()))
    ms = [x * 1000 for x in latencies]
    metrics = {
        "items_per_s": (n / clock.scaled, "1/s"),
        "item_p50_ms": (statistics.median(ms), "ms"),
        "item_p90_ms": (statistics.quantiles(ms, n=10)[8], "ms"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    print(f"{args.workload}: {n} items, failed_frac {failed / n} ({failed}/{n}); "
          f"latency sample count {n}; repeated inputs {repeats / n:.0%}; "
          f"items took {clock.wall:.2f} s wall, {clock.scaled:.2f} s at reference speed "
          f"(host speed x{clock.scaled / clock.wall:.3f})")
    return n, failed, metrics


def per_layer(args, pool, golden):
    import ops
    from tracer import Tracer

    # one epoch: a fixed set of items, so the call counts repeat exactly
    items = [item for rnd in next(workloads.epochs(pool, args.workload, args.seed))
             for item in rnd]
    reported = set()

    def one_pass():
        digests, failed, clock = [], 0, RefClock()
        for item in items:
            ok, dig, _ = _run_item(item, golden, clock, reported)
            digests.append(dig)
            failed += not ok
        return digests, failed, clock

    plain, failed_plain, plain_clock = one_pass()
    minimal_n = ("skew.SkewPoly.right_divmod", "isogeny.minimal_N")
    phi_of = ("dmod.DrinfeldModule.phi_of", "isogeny.dual")
    tracer = Tracer(nested_pairs=(minimal_n, phi_of))
    tracer.install()
    try:
        traced, failed_traced, traced_clock = one_pass()
    finally:
        tracer.uninstall()
    mismatched = sum(a != b for a, b in zip(plain, traced))
    if mismatched:
        print(f"{mismatched} items differ between the untraced and traced passes",
              file=sys.stderr)

    def ratio(a, b):
        return a / b if b else 0.0

    # span times are wall times; bring them to reference speed with the
    # traced pass's mean host-speed factor
    speed = traced_clock.scaled / traced_clock.wall

    metrics = {}
    for layer, (calls, self_s) in tracer.layer_totals().items():
        metrics[f"{layer}.calls"] = (calls, "count")
        metrics[f"{layer}.self_s"] = (self_s * speed, "s")
    metrics.update({
        "poly.mul.calls": (tracer.calls("poly.Poly.__mul__"), "count"),
        "poly.divmod.calls": (tracer.calls("poly.Poly.__divmod__"), "count"),
        "poly.gcd.calls": (tracer.calls("poly.poly_gcd"), "count"),
        "ratfunc.pow.calls": (tracer.calls("ratfunc.RatFunc.__pow__"), "count"),
        "ratfunc.pow.self_s": (tracer.self_s("ratfunc.RatFunc.__pow__") * speed, "s"),
        "isogeny.minimal_N.divisions_per_call": (
            ratio(tracer.nested[minimal_n], tracer.calls("isogeny.minimal_N")), "ratio"),
        "dmod.phi_of.calls_per_dual": (
            ratio(tracer.nested[phi_of], tracer.calls("isogeny.dual")), "ratio"),
        "modpoly.tk_bounds.self_s": (tracer.self_s("modpoly.tk_bounds") * speed, "s"),
        "lattice.smith.self_s": (tracer.self_s("lattice.smith_invariant_factors") * speed, "s"),
        "trace_overhead_frac": (traced_clock.scaled / plain_clock.scaled - 1, "ratio"),
    })
    for name, ns in ops.measure().items():
        metrics[name] = (ns, "ns")

    top = sorted(tracer.stats.items(), key=lambda kv: -kv[1][1])[:15]
    print(f"{args.workload}: {len(items)} items per pass, untraced {plain_clock.scaled:.2f} s, "
          f"traced {traced_clock.scaled:.2f} s at reference speed; busiest spans by self time:")
    for op, (calls, self_s) in top:
        print(f"  {op:45s} {calls:9d} calls {self_s * speed:9.3f} s")
    return 2 * len(items), failed_plain + failed_traced + mismatched, metrics


def run_all(args):
    """Every workload in its own process; prints one table."""
    results = {}
    for workload in workloads.WORKLOADS:
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(out.stderr)
        if out.returncode != 0:
            print(f"{workload}: exit code {out.returncode}", file=sys.stderr)
            return 1
        lines = out.stdout.splitlines()
        print("\n".join(lines[:-1]))
        results[workload] = json.loads(lines[-1])
    for workload, res in results.items():
        print(f"\n{workload}: attempted {res['attempted']}, failed {res['failed']}, "
              f"failed_frac {res['failed'] / res['attempted']}")
        for name, m in res["metrics"].items():
            print(f"  {name:40s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        help="default: every workload, each in its own process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)

    pool, setup_s = _setup(args.workload)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    golden = _load_golden(args.workload)
    if args.trace:
        attempted, failed, metrics = per_layer(args, pool, golden)
    else:
        attempted, failed, metrics = end_to_end(args, pool, setup_s, golden)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
