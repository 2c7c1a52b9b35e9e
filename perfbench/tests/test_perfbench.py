"""Tests of the benchmark itself: oracle, tracing, metric names, inputs.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _naive(arrays):
    """The defining double sum, with Python complex integers."""
    rank = arrays[0][0].ndim
    bound = tuple(max(re.shape[k] for re, _ in arrays) for k in range(rank))
    out = {}
    for re, im in arrays:
        a = {i: complex(int(re[i]), int(im[i])) for i in np.ndindex(*re.shape)}
        for i, x in a.items():
            for j, y in a.items():
                d = tuple(p - q + b - 1 for p, q, b in zip(i, j, bound))
                out[d] = out.get(d, 0) + x * y.conjugate()
    shape = tuple(2 * b - 1 for b in bound)
    got_re = np.zeros(shape, dtype=np.int64)
    got_im = np.zeros(shape, dtype=np.int64)
    for d, v in out.items():
        got_re[d], got_im[d] = int(v.real), int(v.imag)
    return got_re, got_im


@pytest.mark.parametrize("shapes", [
    [(5,), (5,)], [(4,), (3,), (4,)], [(3, 4), (3, 4)], [(2, 3), (1, 3)],
    [(2, 3, 2)], [(1, 7), (1, 7)],
])
def test_oracle_matches_defining_sum(shapes):
    rng = np.random.default_rng(len(shapes) * 31 + sum(map(len, shapes)))
    arrays = [(rng.integers(-3, 4, s), rng.integers(-3, 4, s)) for s in shapes]
    re, im, weight = oracle.autocorrelation_sum(arrays)
    want_re, want_im = _naive(arrays)
    assert np.array_equal(re, want_re) and np.array_equal(im, want_im)
    assert weight == sum(int(np.sum(r * r + i * i)) for r, i in arrays)


def _built_quad():
    from golaykit import planner, seeds
    from golaykit.tensor import Alphabet

    registry = seeds.load_bundled()
    report = planner.plan_quad(Alphabet.QUATERNARY, (6, 10), registry)
    return planner.execute(report.recipe, registry)


def test_oracle_rejects_one_entry_corruption():
    from golaykit import construct

    gs = _built_quad()
    assert oracle.check_set(gs.arrays).is_complementary
    doc = construct.set_to_obj(gs)
    for factor in ((-1, 0), (0, 1), (0, -1)):
        bad = workloads.Corruption(member=2, index=17, factor=factor).apply(doc)
        assert bad is not doc and doc == construct.set_to_obj(gs)
        parsed = construct.set_from_obj(bad, verify=False)
        assert not oracle.check_set(parsed.arrays).is_complementary


def test_oracle_accepts_base_sequences_of_mixed_lengths():
    from golaykit import seeds

    record = seeds.load_bundled().get_base_sequences(5)
    verdict = oracle.check_set(record.tensors)
    assert verdict.is_complementary and verdict.total_weight == 4 * 5 + 2


def _golaykit_bindings():
    import golaykit  # noqa: F401
    from golaykit import _dfskernels, seeds  # noqa: F401

    return {(name, attr): value
            for name, module in sys.modules.items()
            if name == "golaykit" or name.startswith("golaykit.")
            for attr, value in vars(module).items()} | {
        ("SeedRecord", "verify"): seeds.SeedRecord.__dict__["verify"]}


def test_wrappers_leave_the_package_unpatched():
    from golaykit import planner, verify

    before = _golaykit_bindings()
    tracer = spans.Tracer().install()
    try:
        assert planner.is_gca_set is not before[("golaykit.verify", "is_gca_set")]
        assert len(tracer._patches) > 40
        _built_quad()
    finally:
        tracer.restore()
    after = _golaykit_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert verify.is_gca_set is before[("golaykit.verify", "is_gca_set")]


def test_spans_charge_self_time_without_children():
    tracer = spans.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(20000))
    outer, inner = tracer.spans
    assert inner[spans.PARENT] == 0 and outer[spans.PARENT] == -1
    outer_self = outer[spans.END] - outer[spans.START] - outer[spans.COVERED]
    assert 0 <= outer_self < inner[spans.END] - inner[spans.START]


def test_traced_build_reports_every_layer():
    tracer = spans.Tracer().install()
    try:
        _built_quad()
    finally:
        tracer.restore()
    names = {rec[spans.NAME] for rec in tracer.spans}
    assert {"planner.plan", "planner.execute", "construct.op", "verify.direct",
            "verify.product", "tensor.convolve", "tensor.struct",
            "seeds.load", "seeds.record_verify"} <= names
    values = spans.layer_metrics(tracer, {}, 1, [])
    assert values["planner.plan.calls"] == 1
    assert values["planner.plan.feasible"] == 1
    assert 0 < values["verify.unique_input_ratio"] < 1


def test_metric_names_and_benchmark_file():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    computed = spans.layer_metrics(spans.Tracer(), {}, 1,
                                   [j[0] for j in workloads.LADDER_JOBS])
    assert [m["name"] for m in spec["per_layer"]] == list(computed)
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer")
             for m in spec[group]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert set(w["name"] for w in spec["workloads"]) == set(run.WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_workload_inputs_are_deterministic_per_seed():
    expect = workloads.load_expectations()
    assert workloads.ladder_inputs(7) == workloads.ladder_inputs(7)
    assert workloads.search_inputs(7) == workloads.search_inputs(7)
    first = workloads.catalog_inputs(7, expect)
    assert first == workloads.catalog_inputs(7, expect)
    assert first != workloads.catalog_inputs(8, expect)
    assert workloads.ladder_inputs(7) != workloads.ladder_inputs(8)


def test_catalog_draw_respects_frozen_table():
    expect = workloads.load_expectations()
    items = workloads.catalog_inputs(3, expect)
    keys = [(i.role, i.alphabet, i.shape) for i in items]
    assert len(keys) == len(set(keys))
    for item in items:
        listed = workloads.shape_text(item.shape) in expect[f"{item.role}/{item.alphabet}"]
        assert item.build == listed
    builds = sum(i.build for i in items)
    assert builds == sum(workloads.CATALOG_BUILDS.values())


def test_ledger_counts_a_raising_request_once():
    ledger = run.Ledger(None)
    assert ledger.request("plan", lambda: 1 / 0) is None
    assert ledger.request("plan", lambda: 3) == 3
    assert (ledger.attempted, ledger.failed) == (2, 1)
    assert [rec[0] for rec in ledger.records] == ["plan", "plan"]


def test_build_check_catches_a_wrong_set():
    from golaykit import construct

    gs = _built_quad()
    assert run._set_ok(gs, "quad", "quaternary", (6, 10))
    assert not run._set_ok(gs, "quad", "quaternary", (10, 6))
    assert not run._set_ok(gs, "pair", "quaternary", (6, 10))
    bad = workloads.Corruption(0, 5, (0, 1)).apply(construct.set_to_obj(gs))
    parsed = construct.set_from_obj(bad, verify=False)
    assert not run._set_ok(parsed, "quad", "quaternary", (6, 10))


def test_setup_samples_are_scaled_by_the_reference_imports_around_them(monkeypatch):
    calls = []
    references = iter(["0.1", "0.3", "0.2"] + ["0.2"] * run.SETUP_RUNS)

    def fake_run(cmd, **kwargs):
        calls.append((cmd, kwargs["env"]))
        took = next(references) if cmd[-1] == "--reference" else "0.2"
        return subprocess.CompletedProcess(cmd, 0, stdout=took + "\n")

    monkeypatch.setattr(run.subprocess, "run", fake_run)
    samples = run.setup_samples()
    assert len(samples) == run.SETUP_RUNS
    # between references of 0.1 s and 0.3 s, then of 0.3 s and 0.2 s
    assert samples[0] == pytest.approx(0.2 / 0.2 * run.SETUP_REF_S)
    assert samples[1] == pytest.approx(0.2 / 0.25 * run.SETUP_REF_S)
    assert [cmd[2:] for cmd, _ in calls[:4]] == [["--reference"], [], ["--reference"], []]
    assert all(cmd[1].endswith("setup_sample.py") for cmd, _ in calls)
    env = calls[0][1]
    assert env["PYTHONPATH"].split(os.pathsep)[0] == str(ROOT / "src")
    assert env["OPENBLAS_NUM_THREADS"] == "1"


@pytest.mark.parametrize("flag", [[], ["--reference"]])
def test_setup_sample_script_prints_its_time(flag):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, str(BENCH / "setup_sample.py"), *flag],
                         env=env, capture_output=True, text=True, check=True)
    assert float(out.stdout) > 0


def test_search_accepts_a_seed_found_within_the_budget():
    from golaykit import seeds
    from golaykit.tensor import Alphabet

    status, record, _ = seeds.search_golay_pair(Alphabet("binary"), (10,), None)
    budgeted = workloads.SearchInstance("b10", "pair", "binary", 10, 5,
                                        ("budget-exceeded", "found"), False)
    assert run._search_ok(budgeted, status, record)
    wrong = workloads.SearchInstance("b10", "pair", "binary", 8, 5,
                                     ("budget-exceeded", "found"), False)
    assert not run._search_ok(wrong, status, record)


def test_pass_time_is_scaled_by_the_probes_around_each_request():
    ledger = run.Ledger(None)
    # the first request sits between probes 1x and 3x; probes 3x, 5x and
    # 1x come before, during and after the second
    ledger.records = [("plan", 1.0, 0, 1), ("build", 2.0, 1, 3)]
    assert ledger.scaled_pass_s() == 3.0
    ledger.probes = [run.PROBE_REF_S * k for k in (1, 3, 5, 1)]
    assert ledger.scaled_pass_s() == pytest.approx(1.0 / 2 + 2.0 / 3)


def test_probes_run_during_a_request_and_are_not_charged_to_it():
    from time import perf_counter

    ledger = run.Ledger(None)

    def busy_for_two_probes():
        end = perf_counter() + 10 * run.PROBE_EVERY_S
        while len(ledger.probes) < 3 and perf_counter() < end:
            sum(range(1000))

    ledger.start_probes()
    try:
        spent = ledger.probe_s
        t0 = perf_counter()
        ledger.request("build", busy_for_two_probes)
        wall = perf_counter() - t0
        during = ledger.probe_s - spent
    finally:
        ledger.stop_probes()
    (_, took, before, after), = ledger.records
    assert before == 0 and after == 3 and during > 0
    assert took == pytest.approx(wall - during, abs=1e-3)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
