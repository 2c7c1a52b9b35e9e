"""golaykit benchmark: ladder, catalog and search workloads.

Run from the repository root:

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 10 --trace 0

A run first samples set-up time in fresh processes.  It then repeats
passes over the seed's inputs until --seconds have passed (at least one
pass), each pass in a fresh process, so no pass sees a cache warmed by
an earlier one.  In a pass, one closed-loop client sends one request at
a time to golaykit's public functions, imported from src/.  Every
output is checked outside the timed region against the benchmark's own
exact oracle and frozen expectations.  The last line of standard
output is one JSON object: with --trace 0 it holds the end-to-end
metrics; with --trace 1 the set-up and one pass run in this process
under spans, the spans are written to .perfbench/, and it holds the
per-layer metrics.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

# One client thread: golaykit makes no BLAS calls, and OpenBLAS's thread
# pool would otherwise start in every process and add about 60 ms of
# noisy start-up to each set-up sample.  Children inherit the setting.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import workloads  # noqa: E402

# Set-up is sampled SETUP_RUNS times at the start of every run, each time
# in a fresh process between two reference imports, each in a fresh
# process of its own.  On a shared machine the speed of a fixed loop
# swings by up to 2x for seconds to minutes, so each sample is scaled to
# the speed at which the reference import takes SETUP_REF_S.
SETUP_RUNS = 17
SETUP_REF_S = 0.12
PASS_TIMEOUT_S = 150

END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "pass_s": "s"}

SPECTRUM_TOLERANCE = 1e-9

# On a shared machine the speed of a fixed loop swings by up to 2x, for
# seconds to minutes, also within one long request.  An untraced pass
# therefore runs speed_probe at its start, every PROBE_EVERY_S from a
# SIGALRM handler (in the client's own thread, between bytecodes), and
# at its end.  Each request's time, without the probes' own time, is
# scaled to the speed at which the probe takes PROBE_REF_S, using the
# mean of the probes taken during the request and the nearest one on
# either side.
PROBE_EVERY_S = 0.2
PROBE_REF_S = 1e-3
_PROBE_ROW = np.arange(64, dtype=np.int64)


def speed_probe() -> float:
    """Best of three runs of a fixed small-array numpy loop, in seconds."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        acc = np.zeros(160, dtype=np.int64)
        for i in range(300):
            k = i % 64
            acc[k:k + 64] += _PROBE_ROW * 3 - _PROBE_ROW
            np.count_nonzero(acc)
        best = min(best, perf_counter() - t0)
    return best


class Ledger:
    """Request timings, attempts and failures of one pass."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        # (kind, seconds, index of the last probe before it, index of
        # the first probe after it)
        self.records: list[tuple[str, float, int, int]] = []
        self.probes: list[float] = []
        self.probe_s = 0.0

    def _probe(self, *_) -> None:
        t0 = perf_counter()
        self.probes.append(speed_probe())
        self.probe_s += perf_counter() - t0

    def start_probes(self) -> None:
        signal.signal(signal.SIGALRM, self._probe)
        self._probe()
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop_probes(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._probe()

    def scaled_pass_s(self) -> float:
        """Seconds of the pass; with probes, each request is scaled by
        the mean of the probes around and during it."""
        if not self.probes:
            return sum(t for _, t, _, _ in self.records)
        return sum(t * PROBE_REF_S / statistics.mean(self.probes[i:j + 1])
                   for _, t, i, j in self.records)

    def span(self, name, info=None):
        return self.tracer.span(name, info) if self.tracer else nullcontext()

    def request(self, kind: str, fn, *args, **kwargs):
        """Time one call; a raised exception is a failed request."""
        self.attempted += 1
        before = len(self.probes) - 1
        probe_s = self.probe_s
        error = None
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            result, error = None, exc
        took = perf_counter() - t0 - (self.probe_s - probe_s)
        self.records.append((kind, took, before, len(self.probes)))
        if error is not None:
            self.fail(f"{kind} raised:\n{''.join(traceback.format_exception(error))}")
        return result

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"FAILED: {what}", file=sys.stderr)

    def expect(self, ok: bool, what: str) -> None:
        """Output check of the last request, made outside its timing."""
        if not ok:
            self.fail(what)

    @property
    def last_s(self) -> float:
        return self.records[-1][1]

    def seconds(self, kinds) -> float:
        """Seconds spent on requests of these kinds."""
        return sum(t for k, t, _, _ in self.records if k in kinds)

    def samples(self, kind: str) -> list[float]:
        """Latencies in ms of this kind of request."""
        return [t * 1e3 for k, t, _, _ in self.records if k == kind]


# output checks ---------------------------------------------------------------

def _alphabet_ok(gs, alphabet: str) -> bool:
    allowed = {"binary": ("binary",), "quaternary": ("binary", "quaternary")}
    return gs.alphabet.value in allowed[alphabet]


def _set_ok(gs, role: str, alphabet: str, shape) -> bool:
    members = 2 if role == "pair" else 4
    return (len(gs.arrays) == members
            and all(a.shape == tuple(shape) for a in gs.arrays)
            and _alphabet_ok(gs, alphabet)
            and oracle.check_set(gs.arrays).is_complementary)


def _same_arrays(left, right) -> bool:
    return len(left) == len(right) and all(
        np.array_equal(a.re, b.re) and np.array_equal(a.im, b.im)
        for a, b in zip(left, right))


# workloads -------------------------------------------------------------------

def _plan(role: str, alphabet: str, shape, registry):
    from golaykit import planner
    from golaykit.tensor import Alphabet

    if role == "pair":
        return planner.plan_pair(Alphabet(alphabet), shape)
    return planner.plan_quad(Alphabet(alphabet), shape, registry)


def _recheck(ledger: Ledger, text: str):
    """Parse a gca-set/1 document and check it as `golaykit verify` does."""
    from golaykit import construct, verify

    with ledger.span("io.loads", {"bytes": len(text)}):
        doc = json.loads(text)
    gs = construct.set_from_obj(doc, verify=False)
    return (gs, verify.is_gca_set(gs.arrays),
            verify.gca_check_polynomial(gs.arrays),
            verify.spectrum_flatness(gs.arrays))


def _serialize(ledger: Ledger, gs):
    from golaykit import construct

    obj = construct.set_to_obj(gs)
    info = {}
    with ledger.span("io.dumps", info):
        text = json.dumps(obj)
    info["bytes"] = len(text)
    return obj, text


def run_ladder(ledger: Ledger, registry, seed: int) -> dict:
    from golaykit import planner

    for job in workloads.ladder_inputs(seed):
        with ledger.span(f"job.{job.name}"):
            report = ledger.request("plan", _plan, job.role, job.alphabet,
                                    job.shape, registry)
            gs = None
            if report is not None and report.feasible:
                gs = ledger.request("build", planner.execute, report.recipe,
                                    registry)
        if report is not None:
            ledger.expect(report.feasible, f"ladder {job.name}: plan refused")
        if gs is None:
            continue
        ledger.expect(_set_ok(gs, job.role, job.alphabet, job.shape),
                      f"ladder {job.name}: build is not the requested set")
        obj, text = ledger.request("serialize", _serialize, ledger, gs) or (None, None)
        if text is None:
            continue
        docs = [("clean", text, True)]
        if job.corruption is not None:
            docs.append(("corrupted", json.dumps(job.corruption.apply(obj)),
                         False))
        for label, doc_text, clean in docs:
            out = ledger.request("recheck", _recheck, ledger, doc_text)
            if out is None:
                continue
            parsed, direct, product, deviation = out
            if clean:
                ok = (_same_arrays(parsed.arrays, gs.arrays)
                      and direct.is_complementary and product
                      and deviation < SPECTRUM_TOLERANCE)
            else:
                ok = (not direct.is_complementary and not product
                      and not oracle.check_set(parsed.arrays).is_complementary)
            ledger.expect(ok, f"ladder {job.name}: {label} copy misjudged")
    return {"build_s": ledger.seconds(("plan", "build")),
            "reverify_s": ledger.seconds(("serialize", "recheck"))}


def run_catalog(ledger: Ledger, registry, seed: int) -> dict:
    from golaykit import planner

    items = workloads.catalog_inputs(seed, workloads.load_expectations())
    for item in items:
        report = ledger.request("plan", _plan, item.role, item.alphabet,
                                item.shape, registry)
        if report is None:
            continue
        # A shape the frozen table lists must still plan; a newly
        # feasible one is fine but is not built.
        ledger.expect(report.feasible or not item.build,
                      f"catalog {item}: frozen-feasible shape refused")
        if item.build and report.feasible:
            gs = ledger.request("build", planner.execute, report.recipe,
                                registry)
            if gs is not None:
                ledger.expect(_set_ok(gs, item.role, item.alphabet, item.shape),
                              f"catalog {item}: build is not the requested set")
    return {"build_s": ledger.seconds(("plan", "build")),
            "plan_ms": ledger.samples("plan"),
            "build_ms": ledger.samples("build")}


def _search_ok(inst, status, record) -> bool:
    if status.value not in inst.expect:
        return False
    if status.value != "found":
        return record is None
    if record is None:
        return False
    shapes = [t.shape for t in record.tensors]
    if inst.kind == "pair":
        want = [(inst.size,)] * 2
    else:
        m = inst.size
        want = [(m + 1,), (m + 1,), (m,), (m,)]
    verdict = oracle.check_set(record.tensors)
    weight_ok = inst.kind == "pair" or verdict.total_weight == 4 * inst.size + 2
    alphabet_ok = all(
        not np.any(t.re * t.re + t.im * t.im != 1)
        and (inst.alphabet == "quaternary" or not np.any(t.im))
        for t in record.tensors)
    return shapes == want and verdict.is_complementary and weight_ok and alphabet_ok


def run_search(ledger: Ledger, registry, seed: int) -> dict:
    from golaykit import seeds
    from golaykit.tensor import Alphabet

    answer_s = dfs_s = 0.0
    dfs_nodes = 0
    for inst in workloads.search_inputs(seed):
        if inst.kind == "pair":
            fn, args = seeds.search_golay_pair, (Alphabet(inst.alphabet),
                                                 (inst.size,), inst.budget)
        else:
            fn, args = seeds.search_base_sequences, (inst.size, inst.budget)
        out = ledger.request("search", fn, *args)
        if out is None:
            continue
        took = ledger.last_s
        status, record, nodes = out
        ledger.expect(_search_ok(inst, status, record),
                      f"search {inst.name}: got {status}, want one of {inst.expect}")
        if inst.finishes:
            answer_s += took
        else:
            dfs_s += took
            dfs_nodes += nodes
    return {"search_s": answer_s,
            "dfs_nodes_per_s": dfs_nodes / dfs_s if dfs_s else 0.0}


WORKLOADS = {"ladder": run_ladder, "catalog": run_catalog, "search": run_search}


# metrics -----------------------------------------------------------------------

def setup_samples() -> list[float]:
    """Seconds to import golaykit and load its bundled registry in a
    fresh process, each scaled by the mean of the reference imports
    timed just before and just after it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)

    def timed(*flag: str) -> float:
        out = subprocess.run([sys.executable, str(HERE / "setup_sample.py"), *flag],
                             cwd=ROOT, env=env, capture_output=True, text=True,
                             timeout=60, check=True)
        return float(out.stdout.split()[-1])

    samples = []
    reference = timed("--reference")
    for _ in range(SETUP_RUNS):
        took = timed()
        after = timed("--reference")
        samples.append(took * 2 * SETUP_REF_S / (reference + after))
        reference = after
    return samples


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))


def per_layer(tracer, phases: dict) -> dict:
    import spans

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    values = spans.layer_metrics(tracer, phases, src_lines(),
                                 [j[0] for j in workloads.LADDER_JOBS])
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec}


def print_result(attempted: int, failed: int, metrics: dict) -> None:
    """The result object, as the last line of standard output."""
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def end_to_end(values: dict) -> dict:
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def one_pass(args) -> int:
    """Load the registry and make one pass in this process.  Untraced,
    the result holds the pass's `pass_s` and `peak_rss_mb`; traced, the
    set-up runs under spans too and the result holds the per-layer
    metrics."""
    import golaykit
    from golaykit import seeds

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer().install()
    ledger = Ledger(tracer)
    try:
        registry = seeds.load_bundled()
        if registry.rejects or len(registry) == 0:
            print(f"error: bundled registry rejected records: {registry.rejects}",
                  file=sys.stderr)
            return 3
        gc.collect()
        if tracer is None:
            ledger.start_probes()
        phases = WORKLOADS[args.workload](ledger, registry, args.seed)
    finally:
        if tracer is not None:
            tracer.restore()
        elif ledger.probes:
            ledger.stop_probes()
    print(f"golaykit {golaykit.__version__}: {args.workload} seed {args.seed}, "
          f"one pass, {ledger.attempted} requests, {ledger.failed} failed",
          file=sys.stderr)

    if tracer is not None:
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}-{args.seed}.json")
        metrics = per_layer(tracer, phases)
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = end_to_end({"pass_s": ledger.scaled_pass_s(),
                              "peak_rss_mb": rss_mb})
    print_result(ledger.attempted, ledger.failed, metrics)
    return 0


def pass_in_child(args) -> dict:
    """One untraced pass in a fresh process; its result object."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
         "--one-pass"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=PASS_TIMEOUT_S,
        check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def run_untraced(args) -> int:
    """Set-up samples, then fresh-process passes until --seconds have
    passed; prints the end-to-end metrics."""
    setup = setup_samples()
    attempted = failed = 0
    pass_s, rss_mb = [], []
    start = perf_counter()
    while not pass_s or perf_counter() - start < args.seconds:
        result = pass_in_child(args)
        attempted += result["attempted"]
        failed += result["failed"]
        pass_s.append(result["metrics"]["pass_s"]["value"])
        rss_mb.append(result["metrics"]["peak_rss_mb"]["value"])
    print(f"{args.workload} seed {args.seed}: {len(pass_s)} pass(es), "
          f"{attempted} requests, {failed} failed", file=sys.stderr)
    print_result(attempted, failed,
                 end_to_end({"setup_s": statistics.median(setup),
                             "peak_rss_mb": max(rss_mb),
                             "pass_s": statistics.median(pass_s)}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: make one untraced pass in this process
    parser.add_argument("--one-pass", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "golaykit" / "__init__.py").is_file():
        print(f"error: golaykit sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.trace or args.one_pass:
        return one_pass(args)
    return run_untraced(args)


if __name__ == "__main__":
    sys.exit(main())
