"""Spans around golaykit's public functions, recorded from outside.

`Tracer.install` replaces each traced function with a recording wrapper
in every golaykit module that holds it under some name (construct holds
`jointly_complementary`, planner holds the construction ops, and so
on), so internal calls are seen as well as the benchmark's own.
`Tracer.restore` puts every original back.  Spans stay in memory; the
per-layer metrics are computed from them once, at the end of the run.

A span is [name, start, end, parent, covered, info]: `covered` is the
wall time of its direct children including their wrappers, so self
time is end - start - covered and no layer is charged for tracing.
"""
from __future__ import annotations

import functools
import hashlib
import json
import statistics
import sys
from contextlib import contextmanager
from time import perf_counter

import numpy as np

NAME, START, END, PARENT, COVERED, INFO = range(6)

_VERIFY_ROUTES = ("verify.direct", "verify.product")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.wrapper_s = 0.0

    # recording ---------------------------------------------------------

    def _begin(self, name: str) -> list:
        parent = self._open[-1] if self._open else -1
        rec = [name, 0.0, 0.0, parent, 0.0, None]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _finish(self, rec: list, entered: float) -> None:
        left = perf_counter()
        if rec[PARENT] >= 0:
            self.spans[rec[PARENT]][COVERED] += left - entered
        self.wrapper_s += (left - entered) - (rec[END] - rec[START])

    @contextmanager
    def span(self, name: str, info: dict | None = None):
        """A span opened by the benchmark's own code."""
        entered = perf_counter()
        rec = self._begin(name)
        rec[INFO] = info
        rec[START] = perf_counter()
        try:
            yield rec
        finally:
            rec[END] = perf_counter()
            self._open.pop()
            self._finish(rec, entered)

    def _wrapper(self, fn, name, before, after):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = perf_counter()
            rec = tracer._begin(name)
            if before is not None:
                rec[INFO] = before(*args, **kwargs)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                tracer._open.pop()
            if after is not None:
                after(rec, result)
            tracer._finish(rec, entered)
            return result

        return traced

    # patching ----------------------------------------------------------

    def patch(self, owner, attr: str, name: str, before=None, after=None):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrapper(original, name, before, after))

    def patch_everywhere(self, fn, name: str, before=None, after=None):
        """Wrap `fn` under every name a golaykit module holds it by."""
        for mod_name, module in sorted(sys.modules.items()):
            if mod_name != "golaykit" and not mod_name.startswith("golaykit."):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.patch(module, attr, name, before, after)

    def write(self, path) -> None:
        """Write the spans as JSON: name, start, end (seconds from the
        first span) and parent index (-1 for none)."""
        origin = self.spans[0][START] if self.spans else 0.0
        rows = [[r[NAME], r[START] - origin, r[END] - origin, r[PARENT]]
                for r in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": rows}, fh)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self) -> "Tracer":
        from golaykit import _dfskernels, construct, planner, search, seeds
        from golaykit import tensor, verify

        every = self.patch_everywhere
        every(verify.is_gca_set, "verify.direct",
              before=_direct_info, after=_mark_rejection)
        for fn in (verify.jointly_complementary, verify.binary_pair_symmetry):
            every(fn, "verify.direct.wrapper")
        every(verify.gca_check_polynomial, "verify.product",
              before=_digest_info, after=_mark_rejection)
        every(verify.spectrum_flatness, "verify.spectrum")
        every(tensor.convolve, "tensor.convolve", before=_convolve_info)
        for fn in (tensor.kron, tensor.interleave, tensor.concat,
                   tensor.upsample, tensor.embed):
            every(fn, "tensor.struct")
        for op in construct.__all__:
            if op not in ("GcaSet", "set_to_obj", "set_from_obj"):
                every(getattr(construct, op), "construct.op")
        every(construct.set_to_obj, "io.serialize")
        every(construct.set_from_obj, "io.parse")
        for fn in (planner.plan_pair, planner.plan_quad):
            every(fn, "planner.plan", after=_mark_feasible)
        every(planner.execute, "planner.execute")
        for fn in (seeds.load_bundled, seeds.load_registry):
            every(fn, "seeds.load")
        self.patch(seeds.SeedRecord, "verify", "seeds.record_verify")
        for fn in (search.search_pair_arrays, search.search_base_arrays):
            every(fn, "search.engine", after=_outcome_nodes)
        for fn in (_dfskernels.run_pair_dfs, _dfskernels.run_base_dfs):
            every(fn, "search.dfs", after=_dfs_result)
        return self


# per-call counters, computed from each call's inputs or result -------------

def _digest(arrays) -> str:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(repr(a.shape).encode())
        for plane in (a.re, a.im):
            if plane.dtype == object:
                h.update(repr(plane.tolist()).encode())
            else:
                h.update(np.ascontiguousarray(plane, dtype=np.int64).tobytes())
    return h.hexdigest()


# The hooks read the arguments before the call; they leave iterators
# alone so that the wrapped function still sees every element.

def _digest_info(arrays):
    if not isinstance(arrays, (list, tuple)):
        return {}
    return {"digest": _digest(arrays)}


def _direct_info(arrays):
    if not isinstance(arrays, (list, tuple)):
        return {}
    row_pairs = 0
    for a in arrays:
        lead = int(np.prod(a.shape[:-1], dtype=np.int64))
        row_pairs += lead * lead
    return {"digest": _digest(arrays), "row_pairs": row_pairs}


def _mark_rejection(rec, result) -> None:
    ok = result.is_complementary if hasattr(result, "is_complementary") else result
    rec[INFO]["rejected"] = not ok


def _convolve_info(a, b):
    smaller = b if b.size < a.size else a
    return {"nonzero": int(np.count_nonzero(smaller.support()))}


def _mark_feasible(rec, report) -> None:
    rec[INFO] = {"feasible": bool(report.feasible)}


def _outcome_nodes(rec, outcome) -> None:
    rec[INFO] = {"nodes": int(outcome.nodes)}


def _dfs_result(rec, result) -> None:
    rec[INFO] = {"nodes": int(result[-1]), "budget_hit": int(result[0]) == 2}


# aggregation -----------------------------------------------------------------

def _per_call_cost(calls: int = 20000) -> float:
    """Seconds one traced call costs beyond what `wrapper_s` sees: the
    extra Python frame and the span bookkeeping around it."""
    def noop():
        return None

    probe = Tracer()
    traced = probe._wrapper(noop, "probe", None, None)
    t0 = perf_counter()
    for _ in range(calls):
        noop()
    direct = perf_counter() - t0
    t0 = perf_counter()
    for _ in range(calls):
        traced()
    wrapped = perf_counter() - t0
    return max(0.0, (wrapped - direct - probe.wrapper_s) / calls)


def _percentile(values, q: int) -> float:
    """q-th percentile (1..99) by statistics.quantiles; 0.0 when empty."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer: Tracer, passes: dict, src_lines: int,
                  job_names) -> dict:
    """Per-layer metrics from the spans of one traced set-up and pass.

    `passes` carries the workload's own phase numbers, measured under
    tracing: build/reverify/search seconds and the latency samples.
    """
    spans = tracer.spans
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for rec in spans:
        own = rec[END] - rec[START] - rec[COVERED]
        self_s[rec[NAME]] = self_s.get(rec[NAME], 0.0) + own
        calls[rec[NAME]] = calls.get(rec[NAME], 0) + 1

    def name_of(i: int) -> str:
        return spans[i][NAME] if i >= 0 else ""

    def info(rec, key, default=0):
        return (rec[INFO] or {}).get(key, default)

    plan_top = [r for r in spans
                if r[NAME] == "planner.plan" and name_of(r[PARENT]) != "planner.plan"]
    routes = [r for r in spans if r[NAME] in _VERIFY_ROUTES]
    distinct = {(r[NAME], info(r, "digest")) for r in routes}
    dfs_engine = {r[PARENT] for r in spans if r[NAME] == "search.dfs"}
    engine_mitm = [r for i, r in enumerate(spans)
                   if r[NAME] == "search.engine" and i not in dfs_engine]
    engine_dfs = [r for i, r in enumerate(spans)
                  if r[NAME] == "search.engine" and i in dfs_engine]

    def own(rec):
        return rec[END] - rec[START] - rec[COVERED]

    m = {
        "planner.plan.calls": len(plan_top),
        "planner.plan.self_s": self_s.get("planner.plan", 0.0),
        "planner.plan.feasible": sum(info(r, "feasible", False) for r in plan_top),
        "planner.execute.self_s": self_s.get("planner.execute", 0.0),
        "planner.execute.final_check_s": sum(
            r[END] - r[START] for r in spans
            if r[NAME] == "verify.direct" and name_of(r[PARENT]) == "planner.execute"),
    }
    for job in job_names:
        m[f"planner.job.{job}_s"] = sum(
            r[END] - r[START] for r in spans if r[NAME] == f"job.{job}")
    m.update({
        "construct.op.calls": calls.get("construct.op", 0),
        "construct.op.self_s": self_s.get("construct.op", 0.0),
        "verify.direct.calls": calls.get("verify.direct", 0),
        "verify.direct.self_s": (self_s.get("verify.direct", 0.0)
                                 + self_s.get("verify.direct.wrapper", 0.0)),
        "verify.direct.row_pairs": sum(info(r, "row_pairs") for r in spans
                                       if r[NAME] == "verify.direct"),
        "verify.product.calls": calls.get("verify.product", 0),
        "verify.product.self_s": self_s.get("verify.product", 0.0),
        "verify.spectrum.self_s": self_s.get("verify.spectrum", 0.0),
        "verify.reject.self_s": sum(own(r) for r in routes
                                    if info(r, "rejected", False)),
        "verify.unique_input_ratio": len(distinct) / len(routes) if routes else 0.0,
        "tensor.convolve.calls": calls.get("tensor.convolve", 0),
        "tensor.convolve.self_s": self_s.get("tensor.convolve", 0.0),
        "tensor.convolve.nonzero_steps": sum(info(r, "nonzero") for r in spans
                                             if r[NAME] == "tensor.convolve"),
        "tensor.struct.self_s": self_s.get("tensor.struct", 0.0),
        "seeds.load.self_s": self_s.get("seeds.load", 0.0),
        "seeds.record_verify.calls": calls.get("seeds.record_verify", 0),
        "seeds.record_verify.self_s": self_s.get("seeds.record_verify", 0.0),
        "search.mitm.nodes": sum(info(r, "nodes") for r in engine_mitm),
        "search.mitm.self_s": sum(own(r) for r in engine_mitm),
        "search.dfs.nodes": sum(info(r, "nodes") for r in spans
                                if r[NAME] == "search.dfs"),
        "search.dfs.self_s": (self_s.get("search.dfs", 0.0)
                              + sum(own(r) for r in engine_dfs)),
        "search.dfs.budget_hits": sum(info(r, "budget_hit", False) for r in spans
                                      if r[NAME] == "search.dfs"),
        "io.serialize.self_s": self_s.get("io.serialize", 0.0),
        "io.parse.self_s": self_s.get("io.parse", 0.0),
        "io.bytes": sum(info(r, "bytes") for r in spans
                        if r[NAME] in ("io.dumps", "io.loads")),
        "code.src_lines": src_lines,
    })
    # the benchmark's own json calls on gca-set/1 documents are io too
    m["io.serialize.self_s"] += self_s.get("io.dumps", 0.0)
    m["io.parse.self_s"] += self_s.get("io.loads", 0.0)

    plans = passes.get("plan_ms", [])
    builds = passes.get("build_ms", [])
    m.update({
        "phase.build_s": passes.get("build_s", 0.0),
        "phase.reverify_s": passes.get("reverify_s", 0.0),
        "phase.plan_p50_ms": _percentile(plans, 50),
        "phase.plan_p99_ms": _percentile(plans, 99),
        "phase.small_build_p50_ms": _percentile(builds, 50),
        "phase.small_build_p95_ms": _percentile(builds, 95),
        "phase.search_s": passes.get("search_s", 0.0),
        "phase.dfs_nodes_per_s": passes.get("dfs_nodes_per_s", 0.0),
    })
    m["trace.spans"] = len(spans)
    m["trace.overhead_s"] = tracer.wrapper_s + _per_call_cost() * len(spans)
    return m
