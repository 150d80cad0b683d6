#!/usr/bin/env python3
"""Print the answer digests of every workload's fixed core.

    python3 perfbench/record_expected.py > /tmp/digests.json

Compare the output with the ``digests`` block of ``expected.json`` before
replacing it: a digest may only change when the answer it covers is meant
to change.  The per-suite check counts in ``expected.json`` are kept by
hand.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402


def main() -> int:
    digests = {}
    for name in workloads.WORKLOADS:
        for op in workloads.fixed_core(name):
            if op.kind != "cli":
                continue
            rc, out, err = workloads.run_cli(op.argv)
            if rc != 0:
                print(f"{op.label}: exit code {rc}\n{err}", file=sys.stderr)
                return 1
            digests[op.label] = workloads.digest(workloads.answer(json.loads(out)))
    print(json.dumps({"digests": digests}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
