"""The benchmark's tracer wraps callables of the package, and its hooks read
what they return."""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from tuckeropt import solvers
from tuckeropt.completion import (
    completion_objective,
    gen_synthetic,
    random_tucker,
)
from tuckeropt.solvers import SolverConfig

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing(monkeypatch):
    """perfbench/tracing.py, loaded from its file without importing
    perfbench."""
    spec = importlib.util.spec_from_file_location("_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the file runs
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_name_is_a_callable_of_the_package(monkeypatch):
    # a refactor that renames, or stops importing, a traced name must fail
    # here rather than leave `perfbench/run.py --trace 1` without it
    tracing = _tracing(monkeypatch)
    assert tracing.TARGETS
    for module, attr, *_ in tracing.TARGETS:
        owner = importlib.import_module(f"tuckeropt.{module}")
        assert callable(getattr(owner, attr, None)), f"{module}.{attr}"


def test_traced_solve_reports_candidates_backtracks_and_kernel_bytes(
        monkeypatch):
    # the hooks read the kernel's (S, factors, skip) and armijo_search's
    # backtrack count from its result: a multi-candidate grap-r solve, with
    # an Armijo constant that makes every line search backtrack, must show
    # up in layer_metrics as the solver saw it
    tracing = _tracing(monkeypatch)
    P, _ = gen_synthetic((10, 9, 8), (2, 2, 2), 0.3, seed=5)
    X0 = random_tucker(P.dims, (3, 3, 3), np.random.default_rng(6))
    cfg = SolverConfig(max_iters=3, delta=0.5, armijo_a=0.9)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        obj = tracing.counting_objective(tracer, completion_objective(P))
        with tracer.span("pass") as root:
            _, trace = solvers.solve_grap_r(obj, X0, (3, 3, 3), cfg)
    finally:
        uninstall()
    values = tracing.layer_metrics(tracer.spans, [root])
    nominal = sum(rec.n_candidates for rec in trace.records)
    assert values["solvers.candidates"] == nominal
    assert max(rec.n_candidates for rec in trace.records) > 1
    # a search makes one evaluation of f per backtrack and one more; the
    # records keep only each winning candidate's backtracks
    searches = {i for i, s in enumerate(tracer.spans)
                if s.name == "solvers.armijo_search"}
    evals = sum(s.name == "completion.objective.eval" and s.parent in searches
                for s in tracer.spans)
    assert values["solvers.backtracks"] == evals - len(searches)
    assert values["solvers.backtracks"] >= sum(
        rec.backtracks for rec in trace.records) > 0
    assert values["completion.multi_mode_contract.kron_bytes"] > 0
