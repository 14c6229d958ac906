"""One measurement of one workload, in a fresh process.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``
and the BLAS thread count fixed in the environment.  Prints one JSON object
as its last line of standard output.

The clock starts before numpy, scipy and hhlab are imported, so ``setup_s``
counts the imports a CLI user pays on every call as well as the set-up
proper.  The measured loop is closed with a single client: an item starts
when the previous one has returned.  It runs for ``--seconds`` and at least
the workload's ``n_job`` items.  Set-up plus those first items is the job:
its wall time goes into the header as ``job_wall_s``, and the per-layer
figures of a traced run cover exactly it.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from tracing import AFTER_JOB, MODULES, Tracer, per_span_overhead_s  # noqa: E402
from workloads import WORKLOADS, block_sizes  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# per-layer metrics and their units
LAYER_UNITS = {
    "hilbert.build_basis_s": "s",
    "hilbert.total_dim": "count",
    "model.build_doubleprime_s": "s",
    "model.pairing_bond_terms_s": "s",
    "model.pairing_bond_terms_calls": "count",
    "model.operator_bytes": "B",
    "thermo.spectral_s": "s",
    "thermo.pairing_bond_expectations_s": "s",
    "thermo.quadratic_form_quantities_s": "s",
    "thermo.blocks": "count",
    "thermo.max_block_dim": "count",
    "thermo.eigh_flops": "flop",
    "rpverify.field_partition_init_s": "s",
    "rpverify.log_partition_s": "s",
    "rpverify.log_partition_calls": "count",
    "rpverify.log_partition_repeat_ratio": "ratio",
    "rpverify.gauss_check_s": "s",
    "rpverify.rp_check_s": "s",
    "rpverify.infrared_chain_self_s": "s",
    "rpverify.verify_lr_split_s": "s",
    "rpverify.theta_relations_s": "s",
    "rpverify.dls_fuzz_s": "s",
    "rpverify.checks_failed": "count",
    "bounds.torus_integral_s": "s",
    "bounds.midpoint_points": "count",
    "bounds.oracle_s": "s",
    "bounds.phase_sweep_s": "s",
    "cli.main_self_s": "s",
    "cli.report_bytes": "B",
    **{f"{m}.self_s": "s" for m in MODULES},
    "trace.job_wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}

# The host's speed drifts by up to about 30 % over minutes under load from
# other tenants, and every timing moves with it.  A fixed kernel (the probe)
# is timed before and after each item; an item's cost at reference speed is
# its time divided by the mean of those two probes, times PROBE_REF_S.  The
# probe calls no hhlab code, so a change to hhlab cannot move it.
PROBE_REF_S = 0.010
_PROBE_MATRIX = np.random.default_rng(0).standard_normal((120, 120))
_PROBE_MATRIX = _PROBE_MATRIX + _PROBE_MATRIX.T

# counts that are exact functions of the workload: for a given seed they
# must repeat exactly
COMPUTED_COUNTS = ("thermo.eigh_flops", "bounds.midpoint_points", "model.operator_bytes",
                   "model.pairing_bond_terms_calls", "rpverify.log_partition_repeat_ratio")


def machine_probe():
    """Seconds for a fixed mix of interpreter work and one small LAPACK call,
    with the garbage collector held off so the heap the items leave behind
    does not change it."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = 0
        for k in range(100000):
            acc += k * k
        for _ in range(5):
            np.linalg.eigvalsh(_PROBE_MATRIX)
        return time.perf_counter() - t0
    finally:
        gc.enable()


def load_hhlab():
    """The hhlab modules, imported from this checkout's sources only."""
    pkg = importlib.import_module("hhlab")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"hhlab imported from {pkg.__file__}, not from {SRC}")
    return types.SimpleNamespace(**{m: importlib.import_module(f"hhlab.{m}") for m in MODULES})


def versions():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    scipy_blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__,
            "numpy_blas": f"{blas.get('name')} {blas.get('version')}",
            "scipy_blas": f"{scipy_blas.get('name')} {scipy_blas.get('version')}"}


def item_tail(durations):
    """The highest percentile with at least 10 samples beyond it."""
    n = len(durations)
    if n <= 10:
        return None
    k = n - 10
    return {"percentile": round(100.0 * k / n, 1), "ms": 1000.0 * sorted(durations)[k - 1],
            "samples": n}


def layer_metrics(tracer, job_wall_s, sizes):
    agg = tracer.job_layers(job_wall_s)
    total, own, calls = agg["total_s"], agg["self_s_by_name"], agg["calls"]
    counts = tracer.counts
    lp_calls = calls.get("rpverify.FieldPartition.log_partition", 0)
    values = {
        "hilbert.build_basis_s": total.get("hilbert.build_basis", 0.0),
        "hilbert.total_dim": int(sizes.sum()),
        "model.build_doubleprime_s": total.get("model.build_doubleprime", 0.0),
        "model.pairing_bond_terms_s": total.get("model.pairing_bond_terms", 0.0),
        "model.pairing_bond_terms_calls": calls.get("model.pairing_bond_terms", 0),
        "model.operator_bytes": counts["model.operator_bytes"],
        "thermo.spectral_s": total.get("thermo.spectral", 0.0),
        "thermo.pairing_bond_expectations_s": total.get("thermo.pairing_bond_expectations", 0.0),
        "thermo.quadratic_form_quantities_s": total.get("thermo.quadratic_form_quantities", 0.0),
        "thermo.blocks": len(sizes),
        "thermo.max_block_dim": int(sizes.max()),
        "thermo.eigh_flops": int(np.sum(sizes.astype(np.int64) ** 3)),
        "rpverify.field_partition_init_s": total.get("rpverify.FieldPartition.__init__", 0.0),
        "rpverify.log_partition_s": total.get("rpverify.FieldPartition.log_partition", 0.0),
        "rpverify.log_partition_calls": lp_calls,
        "rpverify.log_partition_repeat_ratio":
            counts["rpverify.log_partition_repeats"] / lp_calls if lp_calls else 0.0,
        "rpverify.gauss_check_s": total.get("rpverify.gaussian_domination_check", 0.0),
        "rpverify.rp_check_s": total.get("rpverify.rp_reflection_check", 0.0),
        "rpverify.infrared_chain_self_s": own.get("rpverify.infrared_chain_check", 0.0),
        "rpverify.verify_lr_split_s": total.get("rpverify.verify_lr_split", 0.0),
        "rpverify.theta_relations_s": total.get("rpverify.theta_relations_check", 0.0),
        "rpverify.dls_fuzz_s": total.get("rpverify.dls_fuzz", 0.0),
        "rpverify.checks_failed": counts["rpverify.checks_failed"],
        "bounds.torus_integral_s": total.get("bounds.torus_integral", 0.0),
        "bounds.midpoint_points": counts["bounds.midpoint_points"],
        "bounds.oracle_s": total.get("bounds.torus_integral_oracle", 0.0),
        "bounds.phase_sweep_s": total.get("bounds.phase_sweep", 0.0),
        "cli.main_self_s": own.get("cli.main", 0.0),
        "cli.report_bytes": counts["cli.report_bytes"],
        **{f"{m}.self_s": agg["self_s"][m] for m in MODULES},
        "trace.job_wall_s": job_wall_s,
        "trace.unattributed_s": agg["unattributed_s"],
        "trace.overhead_s": agg["spans"] * per_span_overhead_s(),
        "trace.spans": agg["spans"],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_UNITS.items()}


def measure(args):
    wl = WORKLOADS[args.workload]
    ref = json.loads((HERE / "reference.json").read_text())[wl.name]
    hh = load_hhlab()
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    state = wl.setup(hh)
    setup_s = time.perf_counter() - _START
    if args.setup_only:
        return {"setup_s": setup_s}

    rng = np.random.default_rng(args.seed)
    durations, probes, problems, failed = [], [], [], 0
    loop_start = time.perf_counter()
    probe_before = machine_probe()
    while len(durations) < wl.n_job or time.perf_counter() - loop_start < args.seconds:
        i = len(durations)
        inputs = wl.draw(rng)
        if tracer is not None:
            tracer.item = i if i < wl.n_job else AFTER_JOB
        t0 = time.perf_counter()
        try:
            out = wl.item(hh, state, inputs)
        except (AssertionError, RuntimeError, MemoryError) as exc:
            out = None
            failed += 1
            problems.append(f"item {i}: {type(exc).__name__}: {exc}")
        durations.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.item = AFTER_JOB
        probe_after = machine_probe()
        probes.append(0.5 * (probe_before + probe_after))
        probe_before = probe_after
        if out is not None:
            problems += wl.check_item(out, ref, f"item {i}")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    job_wall_s = setup_s + sum(durations[:wl.n_job])

    problems += wl.check_reference(hh, state, ref)
    sizes = block_sizes(wl.sector_matrix(hh, state))
    ref_s = [PROBE_REF_S * d / p for d, p in zip(durations, probes)]
    result = {
        "setup_s": setup_s,
        "job_wall_s": job_wall_s,
        "items_per_s": len(durations) / sum(durations),
        "item_p50_ms": 1000.0 * statistics.median(durations),
        "items_per_ref_s": len(ref_s) / sum(ref_s),
        "item_p50_ref_ms": 1000.0 * statistics.median(ref_s),
        "probe_p50_ms": 1000.0 * statistics.median(probes),
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(durations),
        "failed": failed,
        "problems": problems,
        "setup_reps": wl.setup_reps,
        "n_job": wl.n_job,
        "item_tail": item_tail(durations),
        "total_dim": int(sizes.sum()),
        "blocks": {str(n): int(c) for n, c in sorted(
            zip(*np.unique(sizes, return_counts=True)))},
        "versions": versions(),
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, job_wall_s, sizes)
        result["computed_counts"] = list(COMPUTED_COUNTS)
        tracer.write(args.trace_file)
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-file", help="where a traced run writes its spans")
    ap.add_argument("--setup-only", action="store_true",
                    help="time the set-up alone and stop")
    args = ap.parse_args(argv)
    print(json.dumps(measure(args)))


if __name__ == "__main__":
    main()
