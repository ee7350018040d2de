"""Rewrite perfbench/digests.json: the sha256 of every canary output.

The canary of a workload is its requests at the default seed and tiny sizes.
Run this only when walkvis's output is meant to change, from the root of the
repository:

    python3 perfbench/update_digests.py

It refuses to write while any canary request fails its checks.
"""

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import walkvis  # noqa: E402
import walkvis.cli  # noqa: E402,F401
import workloads as wl  # noqa: E402


def main() -> int:
    threads = len(os.sched_getaffinity(0))
    out = {}
    for workload in wl.WORKLOADS:
        canary = wl.Runner(walkvis).run_pass(
            wl.make_pass(workload, wl.DEFAULT_SEED, 0, threads, walkvis, tiny=True))
        wl.check_pass(walkvis, workload, wl.DEFAULT_SEED, canary, threads)
        failed = [f"{op.req.label}: {op.error}" for op in canary.ops if op.failed]
        if failed:
            print("\n".join(failed), file=sys.stderr)
            return 1
        out[workload] = {op.req.label: op.digest() for op in canary.ops}
    (HERE / "digests.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
