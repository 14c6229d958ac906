"""hhlab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each measurement runs in a fresh child
process (``child.py``), so peak RSS is that run's own high-water mark and
the library's ``lru_cache``s start cold, as they do for a CLI user.  BLAS
runs on one thread in every child.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before it
is a header record: library and BLAS versions, thread count, seed, Hilbert
dimension and the sector sizes of H''.  A traced run writes its spans to
``perfbench/out/``.  Problems found by the correctness gate go to standard
error.  Exit code 0 after a measurement, 1 when a child fails, 2 on bad
arguments or when the hhlab sources are missing.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("gauss_rp_2x2", "infrared_2x2", "quick_1d")
BLAS_THREADS = 1
# every child must have ended by then, so that a run ends within 3 minutes
BUDGET_S = 170.0
END_TO_END = (("setup_s", "s"), ("items_per_ref_s", "1/s"), ("item_p50_ref_ms", "ms"),
              ("peak_rss_mb", "MB"))


class ChildFailed(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONDONTWRITEBYTECODE": "1",
        "PYTHONHASHSEED": "0",
        "OPENBLAS_NUM_THREADS": str(BLAS_THREADS),
        "OMP_NUM_THREADS": str(BLAS_THREADS),
        "MKL_NUM_THREADS": str(BLAS_THREADS),
    })
    return env


def run_child(argv, deadline):
    """Run child.py to completion (killed at the deadline) and return its
    result record."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise ChildFailed("time budget spent before the child started")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), *argv],
                              cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"child did not finish within {BUDGET_S} s") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"child exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def parse_args(argv):
    ap = argparse.ArgumentParser(description="hhlab benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "hhlab" / "__init__.py").is_file():
        print(f"error: no hhlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]
    try:
        if args.trace:
            out_dir = HERE / "out"
            out_dir.mkdir(exist_ok=True)
            trace_file = out_dir / f"trace_{args.workload}_seed{args.seed}.json"
            res = run_child([*common, "--trace", "1", "--trace-file", str(trace_file)],
                            deadline)
            setups = [res["setup_s"]]
        else:
            res = run_child(common, deadline)
            # further set-ups, each in its own process so caches start cold
            setups = [res["setup_s"]] + [
                run_child([*common, "--setup-only"], deadline)["setup_s"]
                for _ in range(res["setup_reps"] - 1)]
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for problem in res["problems"][:20]:
        print(f"correctness: {problem}", file=sys.stderr)
    header = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **res["versions"],
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "total_dim": res["total_dim"],
        "block_sizes": res["blocks"],
        "items_in_job": res["n_job"],
        "job_wall_s": res["job_wall_s"],
        "items_per_s": res["items_per_s"],
        "item_p50_ms": res["item_p50_ms"],
        "probe_p50_ms": res["probe_p50_ms"],
        "setup_runs": len(setups),
        "failed_ratio": res["failed"] / res["attempted"],
        "item_tail": res["item_tail"],
        "problems": len(res["problems"]),
    }
    if args.trace:
        header["computed_counts"] = res["computed_counts"]
        header["spans_file"] = str(trace_file.relative_to(ROOT))
        metrics = res["layers"]
    else:
        res["setup_s"] = statistics.median(setups)
        metrics = {name: {"value": res[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"header": header}))
    print(json.dumps({
        "correct": not res["problems"] and res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
