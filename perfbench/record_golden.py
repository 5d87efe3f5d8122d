#!/usr/bin/env python3
"""Record the golden digest of every item a run can draw.

    python3 perfbench/record_golden.py [workload ...]

Writes ``perfbench/golden.json``: ``{workload: {kind: [digest per
variant]}}``.  Record only from a commit whose verdicts are trusted; a
later change must reproduce these digests exactly.
"""

import json
import os
import sys
import time

import run
import workloads


def record(workload):
    out = {}
    for kind, items in run._setup(workload)[0].items():
        digests = []
        for item in items:
            res = item.run(item.inputs)
            false = [k for k, v in res["verdicts"].items() if not v]
            if false:
                raise SystemExit(f"{workload} {item.key}: false verdicts {false}")
            digests.append(workloads.digest(res))
        out[kind] = digests
    return out


def main(argv):
    names = argv or list(workloads.WORKLOADS)
    golden = {}
    if os.path.exists(run.GOLDEN):
        with open(run.GOLDEN) as fh:
            golden = json.load(fh)
    for workload in names:
        start = time.perf_counter()
        golden[workload] = record(workload)
        print(f"{workload}: {sum(map(len, golden[workload].values()))} digests "
              f"in {time.perf_counter() - start:.1f} s")
    with open(run.GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
