"""Record the reference values the benchmark's checks compare against.

Run from the repository root, at the benchmark's pinned BLAS thread count
(importing ``run`` pins it)::

    python3 perfbench/record_reference.py

Re-record only when a change is meant to move the program's numbers, and
say in the change by how much.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run

if __name__ == "__main__":
    _tracer, workloads = run._import_program()
    reference = {"recorded_with": run.environment()}
    for name in run.WORKLOAD_NAMES:
        workload = workloads.WORKLOADS[name]()
        work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT))
        try:
            reference[name] = workload.check(workload.setup(workload.prepare(0, work)))
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print(f"{name}: {len(reference[name])} values", file=sys.stderr)
    out = run.HERE / "reference.json"
    out.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}", file=sys.stderr)
