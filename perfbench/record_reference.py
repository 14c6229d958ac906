"""Record the reference values the correctness gate compares against.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/record_reference.py

Runs each workload's set-up and its fixed reference inputs and writes
``perfbench/reference.json``.  The file in the repository was recorded at
the commit that introduced the benchmark; re-record only when a change is
meant to alter hhlab's reported values, and say so in that change.
"""

import json
import sys

from child import HERE, load_hhlab
from workloads import WORKLOADS


def main(names):
    hh = load_hhlab()
    path = HERE / "reference.json"
    ref = json.loads(path.read_text()) if path.exists() else {}
    for name in names or sorted(WORKLOADS):
        wl = WORKLOADS[name]
        state = wl.setup(hh)
        ref[name] = wl.record(hh, state)
        del state
        print(f"recorded {name}", file=sys.stderr)
    path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
