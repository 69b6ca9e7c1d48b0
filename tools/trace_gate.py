"""Record the four solvers' traces and gate one recording against another.

Run from the repository root:

    PYTHONPATH=src python3 tools/trace_gate.py record traces_new.json
    PYTHONPATH=path/to/old/src python3 tools/trace_gate.py record traces_old.json
    python3 tools/trace_gate.py compare traces_old.json traces_new.json

``record`` runs grap, rfgrap, grap-r and rfgrap-r on four instances: the
acceptance criterion 8 and criterion 9 experiments (as
``tuckeropt.completion.criterion8`` and ``criterion9`` define them) and the
benchmark workloads true-rank and over-rank at seed 1 (as
``perfbench/workloads.py`` defines them).  It writes every iteration record
except its wall time, plus each run's termination, to JSON.  Floats are
written with ``repr`` precision, so a recording round-trips bit for bit.
BLAS runs single-threaded unless the thread variables are already set.

``compare`` applies these gates and exits 1 when one fails:

* grap and rfgrap are bit-identical to the old recording everywhere (a
  failure says whether iterations, ranks, candidates, backtracks and
  termination held, and gives the largest |df|/f_0 and |d test error|);
* on the single-candidate instances (criterion 8, true-rank), grap-r and
  rfgrap-r are bit-identical to the new recording's grap and rfgrap;
* elsewhere, grap-r and rfgrap-r keep the old iterations, ranks, candidate
  counts, backtracks and termination, with |df| <= 1e-12 f_0 and
  |d test error| <= 1e-12 at every iteration.

Its last line counts the runs that are bit-identical to the old recording,
that moved in rounding only (iterations, ranks, candidates, backtracks and
termination held), and that changed their trajectory (a run missing from
one recording counts there).  The line does not change the exit code.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")    # before numpy is imported

import argparse                         # noqa: E402
import importlib.util                   # noqa: E402
import json                             # noqa: E402
import sys                              # noqa: E402
import time                             # noqa: E402
from dataclasses import asdict          # noqa: E402
from pathlib import Path                # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SINGLE_CANDIDATE = ("criterion8", "true-rank")
F_RTOL = 1e-12
TEST_ATOL = 1e-12
EXACT_FIELDS = ("iter", "rank", "n_candidates", "backtracks")


def _instances():
    """name -> Experiment (problem, X0, rank bound, {solver: SolverConfig})."""
    from tuckeropt.completion import Experiment, criterion8, criterion9

    # perfbench/ is not a package: load its registry by path, under a
    # private name (its dataclasses look their module up in sys.modules),
    # so that no top-level perfbench module becomes importable
    spec = importlib.util.spec_from_file_location(
        "_trace_gate_workloads", ROOT / "perfbench" / "workloads.py")
    wl = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(wl)

    out = {"criterion8": criterion8(), "criterion9": criterion9()}
    for name in ("true-rank", "over-rank"):
        w = wl.WORKLOADS[name]
        P, _ = w.problem(1)
        cfgs = {run.solver: run.cfg for run in w.runs}
        # a plain solver the workload does not run takes the budget of its
        # rank-decreasing counterpart
        for s in ("grap", "rfgrap"):
            cfgs.setdefault(s, cfgs[f"{s}-r"])
        out[name] = Experiment(P, w.initial_point(P, 1), w.rank, cfgs)
    return out


def record(path: Path) -> int:
    from tuckeropt.completion import completion_objective
    from tuckeropt.solvers import SOLVERS

    traces = {}
    for inst, (P, X0, r, cfgs) in _instances().items():
        obj = completion_objective(P)
        for s, solve in SOLVERS.items():
            t0 = time.perf_counter()
            _, tr = solve(obj, X0, r, cfgs[s])
            recs = []
            for rec in tr.records:
                row = asdict(rec)
                del row["wall_time_s"]
                row["rank"] = list(row["rank"])
                recs.append(row)
            traces[f"{inst}/{s}"] = {"termination": tr.termination,
                                     "records": recs}
            print(f"{inst}/{s}: {tr.termination} after {tr.iters} "
                  f"iterations [{time.perf_counter() - t0:.1f} s]")
    path.write_text(json.dumps(traces, indent=1) + "\n")
    return 0


def _trajectory_errors(old, new) -> list:
    """Where the termination, the record count or an exact field moved
    (empty when iterations, ranks, candidates, backtracks and termination
    all held)."""
    errs = []
    if old["termination"] != new["termination"]:
        errs.append(f"termination {old['termination']} -> "
                    f"{new['termination']}")
    a, b = old["records"], new["records"]
    if len(a) != len(b):
        return errs + [f"{len(a)} -> {len(b)} records"]
    for ra, rb in zip(a, b):
        moved = [k for k in EXACT_FIELDS if ra[k] != rb[k]]
        if moved:
            errs.append(f"iteration {ra['iter']}: {', '.join(moved)} differ")
    return errs


def _tolerance_gate(old, new) -> list:
    """Failure messages of the rank-decrease gate (empty when it holds)."""
    errs = _trajectory_errors(old, new)
    a, b = old["records"], new["records"]
    if len(a) != len(b):
        return errs
    f0 = abs(a[0]["f_value"])
    for ra, rb in zip(a, b):
        if abs(ra["f_value"] - rb["f_value"]) > F_RTOL * f0:
            errs.append(f"iteration {ra['iter']}: |df| > {F_RTOL:g} f_0")
        ta, tb = ra["test_error"], rb["test_error"]
        if (ta is None) != (tb is None) or \
                (ta is not None and abs(ta - tb) > TEST_ATOL):
            errs.append(f"iteration {ra['iter']}: |d test error| > "
                        f"{TEST_ATOL:g}")
    return errs


def _deviation(old, new) -> str:
    """Largest |df|/f_0 and |d test error| over common iterations."""
    a, b = old["records"], new["records"]
    f0 = abs(a[0]["f_value"]) or 1.0
    df = max((abs(x["f_value"] - y["f_value"]) / f0
              for x, y in zip(a, b)), default=0.0)
    dt = max((abs(x["test_error"] - y["test_error"]) for x, y in zip(a, b)
              if x["test_error"] is not None
              and y["test_error"] is not None), default=0.0)
    return f"max |df|/f_0 {df:.2e}, max |d test error| {dt:.2e}"


def _verdict(old, new, key):
    """(failure messages, what held) for one recorded run."""
    inst, solver = key.split("/")
    if not solver.endswith("-r"):
        if new[key] == old[key]:
            return [], "bit-identical to the old recording"
        moved = _trajectory_errors(old[key], new[key])
        return ["differs from the old recording", *(moved[:3] or [
            "same iterations, ranks, candidates, backtracks and termination"]),
            _deviation(old[key], new[key])], ""
    if inst in SINGLE_CANDIDATE:
        plain = solver[:-2]
        if new[key] == new[f"{inst}/{plain}"]:
            return [], (f"bit-identical to {plain}; "
                        f"{_deviation(old[key], new[key])} from the old "
                        f"recording")
        return [f"differs from {plain} on a single-candidate instance"], ""
    if new[key] == old[key]:
        return [], "bit-identical to the old recording"
    return _tolerance_gate(old[key], new[key]), (
        "same iterations, ranks, candidates, backtracks and termination; "
        + _deviation(old[key], new[key]))


def _movement(old, new) -> str:
    """How one run moved from the old recording to the new one."""
    if old is None or new is None or _trajectory_errors(old, new):
        return "with a changed trajectory"
    return "bit-identical" if new == old else "rounding-only"


def compare(old_path: Path, new_path: Path) -> int:
    old = json.loads(old_path.read_text())
    new = json.loads(new_path.read_text())
    failed = False
    keys = sorted(set(old) | set(new))
    moved = dict.fromkeys(("bit-identical", "rounding-only",
                           "with a changed trajectory"), 0)
    for key in keys:
        if key not in old or key not in new:
            errs, held = ["missing from one recording"], ""
        else:
            errs, held = _verdict(old, new, key)
        failed = failed or bool(errs)
        moved[_movement(old.get(key), new.get(key))] += 1
        print(f"FAIL {key}: " + "; ".join(errs[:5]) if errs
              else f"ok   {key}: {held}")
    print(f"{len(keys)} runs: "
          + ", ".join(f"{n} {how}" for how, n in moved.items()))
    return 1 if failed else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)
    p = sub.add_parser("record", help="write the four solvers' traces")
    p.add_argument("out", type=Path)
    p = sub.add_parser("compare", help="gate a new recording on an old one")
    p.add_argument("old", type=Path)
    p.add_argument("new", type=Path)
    args = ap.parse_args(argv)
    if args.command == "record":
        return record(args.out)
    return compare(args.old, args.new)


if __name__ == "__main__":
    sys.exit(main())
