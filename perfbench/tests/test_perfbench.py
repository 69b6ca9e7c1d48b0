"""Tests of the benchmark's own arithmetic and checks.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import re
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import run                                          # noqa: E402
import tracing                                      # noqa: E402
import workloads as wl                              # noqa: E402
from tuckeropt import completion, solvers           # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SPEC = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())

# a few-second version of over-rank: rank decrease, candidates, complements
TINY = replace(
    wl.WORKLOADS["over-rank"], name="tiny", dims=(8, 8, 8),
    runs=(wl.SolverRun("rfgrap-r", solvers.SolverConfig(
              max_iters=60, stat_tol=1e-14, delta=0.2, candidate_cap=150),
              False),
          wl.SolverRun("grap-r", solvers.SolverConfig(
              max_iters=4, stat_tol=1e-14, delta=0.2, candidate_cap=150),
              False)))


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_subtracts_children():
    # root [0, 10] > a [1, 4] > b [2, 3];  root > c [5, 9]
    t = tracing.Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
    root = t.open("root")
    a = t.open("tucker.a")
    b = t.open("tensor_core.b")
    t.close(b)
    t.close(a)
    c = t.open("geometry.c")
    t.close(c)
    t.close(root)
    assert tracing.self_times(t.spans) == [3, 2, 1, 4]
    assert sum(tracing.self_times(t.spans)) == t.spans[root].duration
    assert t.spans[b].top == a and t.spans[c].top == c


def test_self_time_counts_overlapping_children_once():
    spans = [tracing.Span("root", 0.0, 10.0),
             tracing.Span("x", 1.0, 5.0, parent=0),
             tracing.Span("y", 3.0, 7.0, parent=0),
             tracing.Span("z", 8.0, 12.0, parent=0)]      # clipped at 10
    assert tracing.self_times(spans)[0] == pytest.approx(10 - 6 - 2)


def test_spans_must_close_in_order():
    t = tracing.Tracer()
    outer = t.open("a")
    t.open("b")
    with pytest.raises(RuntimeError):
        t.close(outer)


def test_tail_percentile_rule():
    assert run.tail_percentile(39) is None
    assert run.tail_percentile(40) == 75.0
    assert run.tail_percentile(99) == 75.0
    assert run.tail_percentile(100) == 90.0
    assert run.tail_percentile(1000) == 99.0
    assert run.tail_percentile(10000) == 99.9


def test_metric_names_and_units_are_valid():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names), [n for n in names
                                               if not NAME.match(n)]
    assert all(UNIT.match(m["unit"]) for m in metrics)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(wl.WORKLOADS)


def test_per_layer_spec_matches_traced_metrics():
    emitted = set(tracing.layer_metrics([], [])) | set(run.EXTRA_LAYER_METRICS)
    assert {m["name"] for m in SPEC["per_layer"]} == emitted
    assert all(run.layer_unit(m["name"]) == m["unit"] for m in SPEC["per_layer"])


def test_init_that_rebuilds_truth_is_caught():
    # the pitfall: a random init drawn with the instance's own seed at the
    # true rank rebuilds the ground truth, so every solver "converges" at 0
    w = replace(wl.WORKLOADS["over-rank"], rank=(2, 2, 2),
                init_seed=wl.WORKLOADS["over-rank"].base_seed)
    P, truth = w.problem(5)
    X_bad = w.initial_point(P, 5)
    assert completion.test_error(P, X_bad) == pytest.approx(0, abs=1e-12)
    assert wl.check_init(P, X_bad)
    assert wl.check_init(P, truth)
    good = wl.WORKLOADS["over-rank"]
    assert not wl.check_init(P, good.initial_point(P, 5))


def test_bundle_roundtrip_and_tamper(tmp_path):
    P, _ = TINY.problem(3)
    bundle = wl.ensure_bundle(tmp_path, TINY, 3, P)
    P_disk, _, _ = wl.setup(TINY, bundle, 3)
    assert wl.check_bundle(P_disk, P) == []
    P_other, _ = TINY.problem(4)
    assert wl.check_bundle(P_disk, P_other)
    # cached: a second call does not rewrite
    mtime = (bundle / "omega.coo").stat().st_mtime_ns
    assert wl.ensure_bundle(tmp_path, TINY, 3, P) == bundle
    assert (bundle / "omega.coo").stat().st_mtime_ns == mtime


def test_failed_checks_are_reported():
    P, _ = TINY.problem(3)
    obj = completion.completion_objective(P)
    X0 = TINY.initial_point(P, 3)
    strict = replace(TINY, runs=(replace(TINY.runs[1], to_tol=True,
                                         final_rank=(1, 1, 1)),))
    (res,) = wl.run_pass(strict, obj, X0)
    errs = wl.check_run(res)
    assert any("termination" in e for e in errs)
    assert any("final rank" in e for e in errs)


def test_traced_pass_accounts_for_its_time():
    P, _ = TINY.problem(3)
    obj = completion.completion_objective(P)
    X0 = TINY.initial_point(P, 3)
    plain = wl.run_pass(TINY, obj, X0)
    originals = {(m, a): getattr(sys.modules[f"tuckeropt.{m}"], a)
                 for m, a, *_ in tracing.TARGETS}
    t = tracing.Tracer()
    uninstall = tracing.install(t)
    try:
        with t.span("pass") as root:
            traced = wl.run_pass(TINY, tracing.counting_objective(t, obj), X0)
    finally:
        uninstall()
    assert all(getattr(sys.modules[f"tuckeropt.{m}"], a) is fn
               for (m, a), fn in originals.items())
    assert wl.check_repeatable([plain, traced]) == []
    values = tracing.layer_metrics(t.spans, [root])
    layers = sum(v for k, v in values.items() if k.startswith("layer."))
    assert layers == pytest.approx(values["trace.root_s"], abs=1e-9)
    reported = sum(rec.n_candidates for r in traced for rec in r.trace.records)
    assert values["solvers.candidates"] == reported > 0
    assert 0 < values["solvers.candidates_distinct_ratio"] <= 1
    assert values["completion.multi_mode_contract.calls"] > 0
