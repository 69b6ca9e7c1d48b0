"""`tools/trace_gate.py compare` on small synthetic recordings."""

import importlib.util
import json
import os
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from tuckeropt.completion import criterion8, criterion9

TOOL = Path(__file__).resolve().parent.parent / "tools" / "trace_gate.py"


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("trace_gate", TOOL)
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ):       # it sets BLAS thread variables
        spec.loader.exec_module(module)
    return module


def _run(f_values, backtracks=0):
    recs = [{"iter": t, "f_value": f, "stationarity": f / 2,
             "grad_norm": f, "direction_norm": f / 3, "stepsize": 0.5,
             "rank": [2, 2, 2], "n_candidates": int(t > 0),
             "backtracks": backtracks if t else 0, "test_error": f / 10}
            for t, f in enumerate(f_values)]
    return {"termination": "converged", "records": recs}


def _recording():
    """criterion8 has one candidate per iteration, criterion9 several."""
    out = {}
    for inst, fs in (("criterion8", [4.0, 1.0, 0.25]),
                     ("criterion9", [9.0, 3.0, 1.0])):
        for solver in ("grap", "rfgrap", "grap-r", "rfgrap-r"):
            out[f"{inst}/{solver}"] = _run(fs)
    return out


def _compare(gate, tmp_path, old, new):
    (tmp_path / "old.json").write_text(json.dumps(old))
    (tmp_path / "new.json").write_text(json.dumps(new))
    return gate.compare(tmp_path / "old.json", tmp_path / "new.json")


def test_identical_recordings_pass(gate, tmp_path):
    assert _compare(gate, tmp_path, _recording(), _recording()) == 0


def test_one_ulp_in_a_plain_solver_fails(gate, tmp_path, capsys):
    new = _recording()
    rec = new["criterion9/grap"]["records"][1]
    rec["f_value"] = float(np.nextafter(rec["f_value"], np.inf))
    assert _compare(gate, tmp_path, _recording(), new) == 1
    assert "FAIL criterion9/grap:" in capsys.readouterr().out


def test_plain_solver_failure_reports_what_held(gate, tmp_path, capsys):
    new = _recording()
    for rec in new["criterion8/rfgrap"]["records"]:
        rec["f_value"] += 2.0 ** -46           # exact: |df|/f_0 = 2**-48
    new["criterion9/grap"] = _run([9.0, 3.0, 1.0], backtracks=2)
    assert _compare(gate, tmp_path, _recording(), new) == 1
    lines = {line.split(":")[0]: line
             for line in capsys.readouterr().out.splitlines()}
    assert lines["FAIL criterion8/rfgrap"].endswith(
        "differs from the old recording; same iterations, ranks, "
        "candidates, backtracks and termination; max |df|/f_0 3.55e-15, "
        "max |d test error| 0.00e+00")
    assert "iteration 1: backtracks differ" in lines["FAIL criterion9/grap"]
    # the last line counts how the runs moved
    assert lines["8 runs"] == ("8 runs: 6 bit-identical, 1 rounding-only, "
                               "1 with a changed trajectory")


def test_rank_decrease_solver_within_tolerance_passes(gate, tmp_path):
    new = _recording()
    for rec in new["criterion9/grap-r"]["records"]:
        rec["f_value"] += 0.5e-12 * 9.0
    assert _compare(gate, tmp_path, _recording(), new) == 0
    for rec in new["criterion9/grap-r"]["records"]:
        rec["f_value"] += 1e-12 * 9.0
    assert _compare(gate, tmp_path, _recording(), new) == 1


def test_changed_backtrack_count_fails(gate, tmp_path, capsys):
    new = _recording()
    new["criterion9/rfgrap-r"] = _run([9.0, 3.0, 1.0], backtracks=1)
    assert _compare(gate, tmp_path, _recording(), new) == 1
    assert "backtracks differ" in capsys.readouterr().out


def test_missing_key_fails(gate, tmp_path, capsys):
    new = _recording()
    del new["criterion8/rfgrap-r"]
    assert _compare(gate, tmp_path, _recording(), new) == 1
    out = capsys.readouterr().out
    assert "FAIL criterion8/rfgrap-r: missing" in out
    assert out.splitlines()[-1] == ("8 runs: 7 bit-identical, "
                                    "0 rounding-only, "
                                    "1 with a changed trajectory")


def test_gate_runs_the_registry_experiments(gate):
    # the gate records the very runs that acceptance criteria 8 and 9 make
    path = list(sys.path)
    instances = gate._instances()
    # and reads perfbench's registry without making its modules importable
    assert sys.path == path
    assert "workloads" not in sys.modules
    for name, make in (("criterion8", criterion8), ("criterion9", criterion9)):
        got, want = instances[name], make()
        assert got.rank == want.rank and got.configs == want.configs
        assert np.array_equal(got.problem.omega.idx, want.problem.omega.idx)
        assert got.problem.omega.vals.tobytes() == \
            want.problem.omega.vals.tobytes()
        for a, b in zip((got.X0.core, *got.X0.factors),
                        (want.X0.core, *want.X0.factors)):
            assert a.tobytes() == b.tobytes()
