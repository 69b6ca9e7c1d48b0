"""The benchmark passes do no more work than pinned.

Host drift moves a pass's wall time by more than most refactors do, so
times alone cannot show that a change did the same work.  The traced
counts can: for one pass of each ``perfbench/workloads.py`` workload at
seed 1, the counts the trajectory fixes (f and grad f evaluations,
backtracks, rank candidates) must equal their pins in ``gated_work.json``,
and the work counts (sparse contractions, SVDs, truncations, entries
evaluated) must not exceed theirs.  A change that lowers a work count
lowers its pin with it.

``gated_work.json`` holds ``perfbench/tracing.py``'s ``layer_metrics`` of
that pass for each workload, with ``numpy.__version__`` and the BLAS that
``numpy.show_config(mode="dicts")`` reports, as the trajectory pin does.
"""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from tuckeropt.completion import completion_objective

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
PINNED = json.loads(
    (Path(__file__).parent / "gated_work.json").read_text())
EQUAL = ("solvers.f_evals", "solvers.grad_evals", "solvers.backtracks",
         "solvers.candidates")
AT_MOST = ("completion.multi_mode_contract.calls",
           "tensor_core.thin_svd.calls", "tucker.hosvd_truncate.calls",
           "tucker.entries_at.calls", "tucker.entries_at.entries")


def _load(monkeypatch, stem):
    """perfbench/<stem>.py under a private name, without importing
    perfbench; monkeypatch restores sys.modules afterwards."""
    spec = importlib.util.spec_from_file_location(
        f"_gated_work_{stem}", PERFBENCH / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the file runs
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _traced_pass(monkeypatch, name, seed=1):
    """layer_metrics of one traced run_pass of workload ``name``."""
    tracing = _load(monkeypatch, "tracing")
    wl = _load(monkeypatch, "workloads")
    w = wl.WORKLOADS[name]
    P, _ = w.problem(seed)
    X0 = w.initial_point(P, seed)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        obj = tracing.counting_objective(tracer, completion_objective(P))
        with tracer.span("pass") as root:
            wl.run_pass(w, obj, X0)
    finally:
        uninstall()
    return tracing.layer_metrics(tracer.spans, [root])


@pytest.mark.parametrize("name", sorted(PINNED["workloads"]))
def test_benchmark_pass_does_no_more_work_than_pinned(monkeypatch, name):
    pin = PINNED["workloads"][name]
    ran = _traced_pass(monkeypatch, name)
    errs = [f"{key}: pinned {pin[key]:g}, ran {ran[key]:g}"
            for key in EQUAL if ran[key] != pin[key]]
    errs += [f"{key}: pinned at most {pin[key]:g}, ran {ran[key]:g}"
             for key in AT_MOST if ran[key] > pin[key]]
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert not errs, (f"{name}: {'; '.join(errs)} (pinned with numpy "
                      f"{PINNED['numpy']}, {PINNED['blas']}; running numpy "
                      f"{np.__version__}, {blas['name']} {blas['version']})")
