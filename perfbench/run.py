"""tuckeropt benchmark: time to solution on tensor-completion workloads.

Run from the repository root:

    python3 perfbench/run.py --workload true-rank --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # each in its own process

One invocation runs one workload in one single-threaded process.  It
generates the instance from ``--seed`` (cached as a problem bundle under
``perfbench/.cache``), runs a short untimed warm-up of every solver and then
timed passes of the workload's solver calls for ``--seconds``: at least two
passes, and none that is expected to end past the deadline.  ``setup_s`` is
timed over a round of set-ups before the first pass and after every pass, so
that it is sampled across the whole run.  With ``--trace 1`` it alternates
untraced and traced passes and reports per-layer metrics instead; the spans
are written to ``perfbench/.cache/traces``.  Every pass is checked; the last
line of standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``, and the exit code is 1 when a check fails.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:            # before numpy is imported
    os.environ[_var] = "1"

import argparse                     # noqa: E402
import json                         # noqa: E402
import platform                     # noqa: E402
import resource                     # noqa: E402
import statistics                   # noqa: E402
import subprocess                   # noqa: E402
import sys                          # noqa: E402
import time                         # noqa: E402
from pathlib import Path            # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
CACHE = HERE / ".cache"
WORKLOAD_NAMES = ("true-rank", "over-rank")
SETUPS_PER_ROUND = 8
MIN_PASSES = 2
TAIL_LADDER = (99.9, 99.0, 90.0, 75.0)

# name -> unit; --trace 0 reports these
END_TO_END = {"setup_s": "s", "solve_s": "s", "time_to_tol_s": "s",
              "iter_s.p50": "s", "iter_s.tail": "s", "peak_rss_mb": "MB",
              "iters": "count"}
# --trace 1 reports these next to tracing.layer_metrics
EXTRA_LAYER_METRICS = ("tensor_core.load_coo.s", "tensor_core.load_coo.bytes",
                       "process.sys_s", "process.minor_faults",
                       "trace.overhead_s")


def tail_percentile(n: int):
    """Highest percentile of the ladder with at least ten of n samples
    beyond it, or None when there are too few samples.

    n is the iteration count of one pass, which does not depend on how many
    passes fit in a run, so every run of a workload reports one percentile.
    """
    return next((q for q in TAIL_LADDER if n * (100 - q) >= 1000 - 1e-6),
                None)


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        l3 = None
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, "l3": l3,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


def _rusage():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_stime, ru.ru_minflt


def _import_package():
    """Import tuckeropt from this checkout's src/, and nothing else."""
    if not (SRC / "tuckeropt" / "__init__.py").is_file():
        sys.exit(f"error: no tuckeropt sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import tuckeropt

    if Path(tuckeropt.__file__).resolve().parent != SRC / "tuckeropt":
        sys.exit(f"error: imported tuckeropt from {tuckeropt.__file__}")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    _import_package()
    import tracing
    import workloads as wl

    w = wl.WORKLOADS[name]
    print(f"# workload {name} seed {seed} seconds {seconds} trace {int(trace)}")
    print("# env " + json.dumps(environment()))
    P_gen, _ = w.problem(seed)
    bundle = wl.ensure_bundle(CACHE, w, seed, P_gen)
    tracer = tracing.Tracer()
    errors = []
    setup_s, setup_roots = [], []

    def setup_round():
        """SETUPS_PER_ROUND timed set-ups (traced with --trace 1)."""
        uninstall = tracing.install(tracer) if trace else None
        for _ in range(SETUPS_PER_ROUND):
            t0 = time.perf_counter()
            with tracer.span("setup") as root:
                out = wl.setup(w, bundle, seed)
            setup_s.append(time.perf_counter() - t0)
            setup_roots.append(root)
        if uninstall:
            uninstall()
        return out

    wl.setup(w, bundle, seed)       # untimed: fills the file cache
    P, obj, X0 = setup_round()
    errors += wl.check_bundle(P, P_gen) + wl.check_init(P, X0)

    wl.warm_up(w, obj, X0)
    all_passes, timed, traced_walls, pass_roots = [], [], [], []
    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        s0 = _rusage()
        results = wl.run_pass(w, obj, X0)
        s1 = _rusage()
        timed.append((results, time.perf_counter() - t0,
                      s1[0] - s0[0], s1[1] - s0[1]))
        all_passes.append(results)
        if trace:
            uninstall = tracing.install(tracer)
            traced_obj = tracing.counting_objective(tracer, obj)
            t0 = time.perf_counter()
            with tracer.span("pass") as root:
                results = wl.run_pass(w, traced_obj, X0)
            pass_roots.append(root)
            traced_walls.append(time.perf_counter() - t0)
            uninstall()
            all_passes.append(results)
        setup_round()
        elapsed = time.perf_counter() - t_start
        if len(timed) >= (1 if trace else MIN_PASSES) and \
                elapsed * (len(timed) + 1) / len(timed) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted = failed = 0
    for results in all_passes:
        errors += wl.check_pass(results)
        for res in results:
            attempted += 1
            errs = wl.check_run(res)
            failed += bool(errs)
            errors += errs
    errors += wl.check_repeatable(all_passes)

    if trace:
        metrics, details = _layer_metrics(tracer, pass_roots, setup_roots,
                                          timed, traced_walls, all_passes[-1],
                                          errors)
        (CACHE / "traces").mkdir(parents=True, exist_ok=True)
        tracer.write(CACHE / "traces" / f"{name}-seed{seed}.jsonl")
    else:
        metrics, details = _end_to_end(timed, setup_s, peak_rss_mb)
    correct = not errors and failed == 0
    for e in dict.fromkeys(errors):
        print(f"# FAILED {e}")
    for key, m in metrics.items():
        print(f"# metric {key} = {m['value']:.6g} {m['unit']}"
              + (f"  ({details[key]})" if key in details else ""))
    print(f"# timed part took {time.perf_counter() - t_start:.1f} s; "
          f"{len(timed)} timed passes, {attempted} solver runs, "
          f"fail_rate {failed / attempted:.3g}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


_LAYER_UNITS = {"calls": "count", "entries": "count", "kron_bytes": "B",
                "bytes": "B", "f_evals": "count", "grad_evals": "count",
                "backtracks": "count", "candidates": "count",
                "minor_faults": "count", "spans": "count",
                "f_evals_per_candidate": "ratio",
                "candidates_distinct_ratio": "ratio"}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from the last part of its name."""
    return _LAYER_UNITS.get(name.rsplit(".", 1)[1], "s")


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _end_to_end(timed, setup_s, peak_rss_mb):
    import numpy as np
    import workloads as wl

    n = len(timed)
    solve = [wall for _, wall, _, _ in timed]
    ttt, iters, iter_times, by_solver = [], [], [], {}
    for results, *_ in timed:
        for r in results:
            by_solver.setdefault(r.run.solver, []).append(r.wall_s)
        traces = [r for r in results if r.trace is not None]
        tol = [wl.time_to_tol(r.trace) for r in traces if r.run.to_tol]
        if None not in tol:
            ttt.append(sum(tol))
        iters.append(sum(r.trace.iters for r in traces))
        for r in traces:
            iter_times += wl.iteration_times(r.trace)
    q = tail_percentile(len(iter_times) // n)
    values = {"setup_s": statistics.median(setup_s),
              "solve_s": statistics.median(solve),
              "time_to_tol_s": statistics.median(ttt) if ttt else None,
              "iter_s.p50": statistics.median(iter_times) if iter_times else None,
              "iter_s.tail": float(np.percentile(iter_times, q)) if q else None,
              "peak_rss_mb": peak_rss_mb,
              "iters": statistics.median(iters)}
    details = {"setup_s": f"median of {len(setup_s)} set-ups",
               "solve_s": f"median of {n} passes ("
                          + ", ".join(f"{wall:.3g}" for _, wall, *_ in timed)
                          + " s); per solver " + ", ".join(
                   f"{k} {statistics.median(v):.3g} s"
                   for k, v in by_solver.items()),
               "time_to_tol_s": f"median of {len(ttt)} passes",
               "iter_s.p50": f"{len(iter_times)} iterations",
               "iter_s.tail": f"p{q:g} of {len(iter_times)} iterations"
               if q else "omitted",
               "iters": f"median of {n} passes"}
    metrics = {k: _metric(v, END_TO_END[k]) for k, v in values.items()
               if v is not None}
    return metrics, details


def _layer_metrics(tracer, pass_roots, setup_roots, timed, traced_walls,
                   traced_results, errors):
    import tracing

    spans = tracer.spans
    values = tracing.layer_metrics(spans, pass_roots)
    selfs = tracing.self_times(spans)
    under = {}
    for i, s in enumerate(spans):
        root = i if s.parent is None else under[s.parent]
        under[i] = root
    for root in pass_roots:
        total = sum(v for i, v in enumerate(selfs) if under[i] == root)
        if abs(total - spans[root].duration) > 1e-6 + 1e-9 * len(spans):
            errors.append(f"self times sum to {total} s, root span lasts "
                          f"{spans[root].duration} s")
    loads = [[s for i, s in enumerate(spans) if under[i] == root
              and s.name == "tensor_core.load_coo"] for root in setup_roots]
    values["tensor_core.load_coo.s"] = statistics.median(
        sum(s.duration for s in ls) for ls in loads)
    values["tensor_core.load_coo.bytes"] = sum(
        s.attrs["bytes"] for s in loads[0])
    values["process.sys_s"] = statistics.mean(t[2] for t in timed)
    values["process.minor_faults"] = statistics.mean(t[3] for t in timed)
    walls = [t[1] for t in timed]
    values["trace.overhead_s"] = (statistics.median(traced_walls)
                                  - statistics.median(walls))
    reported = sum(rec.n_candidates for r in traced_results
                   if r.trace is not None and r.run.solver.endswith("-r")
                   for rec in r.trace.records)
    if values["solvers.candidates"] != reported:
        errors.append(f"traced {values['solvers.candidates']} candidates, "
                      f"solvers reported {reported}")
    metrics = {k: _metric(v, layer_unit(k)) for k, v in values.items()}
    details = {"trace.overhead_s": f"median of {len(traced_walls)} traced "
                                   f"minus median of {len(walls)} untraced "
                                   f"passes ({statistics.median(walls):.3f} s)",
               "tensor_core.load_coo.s": f"median of {len(loads)} set-ups"}
    return metrics, details


def run_all(args) -> int:
    """Every workload in its own process; prints one table."""
    status, results = 0, {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               name, "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
        if lines:
            results[name] = json.loads(lines[-1])
    print(f"{'workload':<12} {'metric':<44} {'value':>14} unit")
    for name, res in results.items():
        for key, m in res["metrics"].items():
            print(f"{name:<12} {key:<44} {m['value']:>14.6g} {m['unit']}")
        print(f"{name:<12} {'fail_rate':<44} "
              f"{res['failed'] / res['attempted']:>14.6g} ratio")
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=55)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace))


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main())
