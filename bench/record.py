"""Record the reference output digest of every op in a workload's universe.

    python3 bench/record.py lattice      # writes bench/refs/lattice.json

The references in ``bench/refs`` were recorded at the commit that added
the benchmark.  Re-record only when an output is meant to change, and
say so; the benchmark's output check is only as good as these files.
An op that raises anything but BudgetExceeded, or a suite report with
status ``fail``, stops the recording.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import worker  # noqa: E402
import workloads  # noqa: E402


def record(workload: str) -> dict:
    c = worker.import_cideals()
    refs = {}
    for op in workloads.build(c, workload, 0, universe=True):
        _, _, canon, error = worker.execute(c, op)
        if error:
            raise SystemExit(f"{op.key}: {error}")
        if op.suite is not None and any(r["status"] == "fail" for r in canon):
            raise SystemExit(f"{op.key}: a claim suite failed")
        refs[op.key] = workloads.digest(canon)
    return refs


def main(argv):
    for workload in argv[1:] or workloads.WORKLOADS:
        refs = record(workload)
        os.makedirs(os.path.join(HERE, "refs"), exist_ok=True)
        with open(os.path.join(HERE, "refs", f"{workload}.json"), "w") as f:
            json.dump(refs, f, indent=0, sort_keys=True)
            f.write("\n")
        print(f"{workload}: {len(refs)} references")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
