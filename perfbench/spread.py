#!/usr/bin/env python3
"""Run one workload with several seeds and report, per end-to-end metric,
the median, the quartiles and their distance as a share of the median.

    python3 perfbench/spread.py --workload isogeny --seeds 1-10 --seconds 30

Runs are sequential, each in its own process.  ``--out FILE`` also
writes every run's metrics as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    runs = []
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            check=True, capture_output=True, text=True, timeout=600,
        ).stdout
        res = json.loads(out.splitlines()[-1])
        values = {k: m["value"] for k, m in res["metrics"].items()}
        runs.append({"seed": seed, "correct": res["correct"], "metrics": values})
        print(f"seed {seed}: correct {res['correct']} "
              + " ".join(f"{k}={v:.6g}" for k, v in values.items()), flush=True)

    summary = {}
    for name in runs[0]["metrics"]:
        vals = [r["metrics"][name] for r in runs]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}
        print(f"{name:14s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
              f"spread {(q3 - q1) / med:.4f}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"workload": args.workload, "seconds": args.seconds,
                       "runs": runs, "summary": summary}, fh, indent=1)
            fh.write("\n")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
