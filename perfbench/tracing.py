"""Layer spans recorded from outside the library.

A :class:`Tracer` replaces the public functions and methods of the hhlab
modules with wrappers that record one span per call: name, start, end, the
span that was open when the call began (its parent) and the benchmark item
it belongs to.  Spans are kept in memory and written out once, at the end of
the run.  Nothing inside the library changes; a wrapper is installed in every
hhlab namespace that holds the original object, so calls made through
``from .hilbert import build_basis`` and through ``_model.pairing_bond_terms``
are both seen.

A few wrappers also record counts where the work happens:

* every ndarray a ``model`` function returns adds its ``nbytes`` to
  ``model.operator_bytes``;
* every ``FieldPartition.log_partition`` call is checked against the fields
  the same partition object has seen, rounded as its own cache rounds them,
  so the share of repeated fields is measured at the call;
* every ``bounds._midpoint_value(nu, n)`` call adds its ``n ** nu`` points;
* every ``cli._emit_text`` call adds the bytes of the report it writes;
* every ``CheckResult.to_record`` call of a failed check adds one to
  ``rpverify.checks_failed``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

import numpy as np

MODULES = ("lattice", "hilbert", "model", "thermo", "rpverify", "bounds", "cli")

# spans outside the job (the measured set-up plus the first n_job items)
# carry this item label and are left out of the per-layer figures
AFTER_JOB = "after_job"


def _array_bytes(obj):
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (list, tuple)):
        return sum(_array_bytes(v) for v in obj)
    if isinstance(obj, dict):
        return sum(_array_bytes(v) for v in obj.values())
    if hasattr(obj, "__dataclass_fields__"):
        return sum(_array_bytes(getattr(obj, f)) for f in obj.__dataclass_fields__)
    return 0


class Tracer:
    """In-memory span recorder plus the counters named above."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, item]
        self.item = -1           # -1: set-up; i: item i; AFTER_JOB: outside the job
        self.counts = defaultdict(int)
        self._stack = []
        self._seen_fields = defaultdict(set)

    def wrap(self, name, fn, on_call=None, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            span = [name, time.perf_counter(), None,
                    tracer._stack[-1] if tracer._stack else -1, tracer.item]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if on_result is not None and tracer.item != AFTER_JOB:
                on_result(result)
            return result

        return traced

    # -- hooks -----------------------------------------------------------------

    def _count_operator_bytes(self, result):
        self.counts["model.operator_bytes"] += _array_bytes(result)

    def _count_log_partition(self, args, kwargs):
        if self.item == AFTER_JOB:
            return
        ens, h = args[0], args[1] if len(args) > 1 else kwargs["h"]
        key = tuple(np.round(np.asarray(h, dtype=float), 12))
        seen = self._seen_fields[id(ens)]
        self.counts["rpverify.log_partition_repeats"] += key in seen
        seen.add(key)

    def _count_midpoint(self, args, kwargs):
        if self.item != AFTER_JOB:
            nu, n = args[0], args[1]
            self.counts["bounds.midpoint_points"] += n ** nu

    def _count_report_bytes(self, args, kwargs):
        if self.item != AFTER_JOB:
            self.counts["cli.report_bytes"] += len(args[1].encode())

    def _count_failed_checks(self, record):
        self.counts["rpverify.checks_failed"] += not record["pass"]

    # -- installation ------------------------------------------------------------

    def install(self):
        """Wrap every public (not underscored) function the hhlab modules
        define, every method a public class defines in its module's source,
        the quadrature kernel ``bounds._midpoint_value`` and the CLI's report
        writer ``cli._emit_text``."""
        hhlab = importlib.import_module("hhlab")
        mods = {m: importlib.import_module(f"hhlab.{m}") for m in MODULES}
        namespaces = [hhlab, *mods.values()]
        for short, mod in mods.items():
            public = [(attr, obj) for attr, obj in vars(mod).items()
                      if not attr.startswith("_") and callable(obj)
                      and getattr(obj, "__module__", None) == mod.__name__]
            for attr, obj in public:
                if inspect.isclass(obj):
                    self._wrap_methods(short, obj, mod)
                else:
                    hook = self._count_operator_bytes if short == "model" else None
                    self._replace(namespaces, obj,
                                  self.wrap(f"{short}.{attr}", obj, on_result=hook))
        kernel = mods["bounds"]._midpoint_value
        self._replace(namespaces, kernel,
                      self.wrap("bounds._midpoint_value", kernel,
                                on_call=self._count_midpoint))
        emit = mods["cli"]._emit_text
        self._replace(namespaces, emit,
                      self.wrap("cli._emit_text", emit, on_call=self._count_report_bytes))

    def _wrap_methods(self, short, cls, mod):
        for attr, fn in list(vars(cls).items()):
            if not inspect.isfunction(fn) or (attr.startswith("_") and attr != "__init__"):
                continue
            if fn.__code__.co_filename != mod.__file__:
                continue  # dataclass-generated methods
            name = f"{short}.{cls.__name__}.{attr}"
            on_call = (self._count_log_partition
                       if name == "rpverify.FieldPartition.log_partition" else None)
            on_result = (self._count_failed_checks
                         if name == "rpverify.CheckResult.to_record" else None)
            setattr(cls, attr, self.wrap(name, fn, on_call=on_call, on_result=on_result))

    def _replace(self, namespaces, original, wrapper):
        for ns in namespaces:
            for key, val in list(vars(ns).items()):
                if val is original:
                    setattr(ns, key, wrapper)

    # -- read-out ----------------------------------------------------------------

    def job_layers(self, job_wall_s):
        """Per-layer figures over the job: inclusive time and calls per span
        name, self time per module, and the job time no span covers."""
        in_job = [i for i, s in enumerate(self.spans) if s[4] != AFTER_JOB]
        child_time = defaultdict(float)
        for i in in_job:
            name, start, end, parent, _ = self.spans[i]
            if parent >= 0:
                child_time[parent] += end - start
        total = defaultdict(float)
        own = defaultdict(float)
        calls = defaultdict(int)
        self_by_module = dict.fromkeys(MODULES, 0.0)
        top_level = 0.0
        for i in in_job:
            name, start, end, parent, _ = self.spans[i]
            dur = end - start
            total[name] += dur
            own[name] += dur - child_time[i]
            calls[name] += 1
            self_by_module[name.split(".", 1)[0]] += dur - child_time[i]
            if parent < 0:
                top_level += dur
        return {
            "total_s": dict(total),
            "self_s_by_name": dict(own),
            "calls": dict(calls),
            "self_s": self_by_module,
            "spans": len(in_job),
            "unattributed_s": job_wall_s - top_level,
        }

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "item"],
                       "spans": self.spans}, fh)


def per_span_overhead_s(calls=20000):
    """Cost one wrapper adds to a call, timed against the bare call."""

    def bare():
        return None

    calibrator = Tracer()
    traced = calibrator.wrap("calibration", bare)
    best = float("inf")
    for _ in range(3):
        calibrator.spans.clear()
        t0 = time.perf_counter()
        for _ in range(calls):
            traced()
        t1 = time.perf_counter()
        for _ in range(calls):
            bare()
        t2 = time.perf_counter()
        best = min(best, ((t1 - t0) - (t2 - t1)) / calls)
    return max(best, 0.0)
