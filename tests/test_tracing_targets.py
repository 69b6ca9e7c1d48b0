"""The names the benchmark's tracer wraps are callables of the package."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_name_is_a_callable_of_the_package(monkeypatch):
    # a refactor that renames, or stops importing, a traced name must fail
    # here rather than leave `perfbench/run.py --trace 1` without it
    spec = importlib.util.spec_from_file_location("_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the file runs
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for module, attr, *_ in tracing.TARGETS:
        owner = importlib.import_module(f"tuckeropt.{module}")
        assert callable(getattr(owner, attr, None)), f"{module}.{attr}"
