"""Command-line front end: completion solves, benchmarks, HOSVD, checks.

Outputs are plot-ready CSV traces plus JSON summaries; there is no
interactive UI.  All commands are deterministic for a fixed seed (the wall
time column excepted).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .completion import (
    completion_objective,
    gen_synthetic,
    load_problem,
    random_tucker,
    save_problem,
    spectral_init,
)
from .oracles import CHECK_SUITES, run_check_suites
from .solvers import (
    SOLVERS,
    SolverConfig,
    trace_table,
    write_summary_json,
    write_trace_csv,
)
from .tensor_core import load_dense
from .tucker import (
    check_bound,
    hosvd,
    hosvd_truncate,
    load_checkpoint,
    mode_singular_values,
    save_checkpoint,
    to_dense,
)


def _parse_tuple(text: str) -> tuple:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}")


def _add_shared_flags(p: argparse.ArgumentParser) -> None:
    """The flags that both ``complete`` and ``bench`` read."""
    p.add_argument("--rank", type=_parse_tuple, help="rank bound r1,...,rd")
    p.add_argument("--init", choices=["spectral", "random"],
                   default="spectral")
    p.add_argument("--delta", type=float, default=1e-2,
                   help="rank-decrease threshold (relative by default)")
    p.add_argument("--delta-absolute", action="store_true",
                   help="treat --delta as an absolute singular-value threshold")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of --init random (and of bench instances)")
    p.add_argument("--max-iters", type=int, default=500)
    p.add_argument("--tol", type=float, default=1e-8,
                   help="stationarity stopping tolerance")


def _make_config(args) -> SolverConfig:
    return SolverConfig(delta=args.delta, max_iters=args.max_iters,
                        stat_tol=args.tol)


def _start(problem, r, args, resume=None):
    """(X0, iteration, delta_eff) of a run: the run the ``resume``
    checkpoint was saved from, its point cut to the bound r, else a new run
    from the --init point.  With delta_eff None the solvers take --delta
    relative to sigma_max(X0)."""
    delta_eff = args.delta if args.delta_absolute else None
    if resume:
        X0, it, saved = load_checkpoint(resume)
        if X0.dims != problem.dims:
            raise ValueError(f"checkpoint dims {X0.dims} do not match "
                             f"problem dims {problem.dims}")
        if any(a > b for a, b in zip(X0.rank, r)):
            X0 = hosvd_truncate(X0, tuple(map(min, X0.rank, r)))
        return X0, it, delta_eff if saved is None else saved
    if args.init == "random":
        # a stream of its own: gen_synthetic draws the truth from
        # default_rng(seed), which would make the start the ground truth
        rng = np.random.default_rng([args.seed, 1])
        return random_tucker(problem.dims, r, rng), 0, delta_eff
    return spectral_init(problem, r), 0, delta_eff


def _exit_code(trace) -> int:
    if trace.termination == "converged":
        return 0
    if trace.termination == "max_iters":
        return 2
    return 1


def _run(problem, solver, r, start, cfg, label, trace_path=None,
         summary_path=None):
    """Solve from ``start`` (see :func:`_start`) and report the run: the
    trace CSV and summary JSON to the paths given, the result line under
    ``label``, and a ``FAILED:`` line if it failed.  Returns (X, trace)."""
    X0, it, delta_eff = start
    X, trace = SOLVERS[solver](completion_objective(problem), X0, r, cfg,
                               start=it, delta_eff=delta_eff)
    if trace_path:
        write_trace_csv(trace, trace_path)
    if summary_path:
        write_summary_json(trace, summary_path)
    rec = trace.final()
    print(f"{label}: {trace.termination} after {rec.iter} iterations, "
          f"f={rec.f_value:.6e}, stationarity={rec.stationarity:.3e}, "
          f"rank={rec.rank}"
          + (f", test_error={rec.test_error:.3e}"
             if rec.test_error is not None else ""))
    if _exit_code(trace) == 1:
        print(f"FAILED: {label}: "
              + ("; ".join(trace.diagnostics) or trace.termination),
              file=sys.stderr)
    return X, trace


def cmd_complete(args) -> int:
    if args.rank is None:
        raise ValueError("--rank is required for complete")
    problem = load_problem(args.problem)
    r = check_bound(args.rank, problem.dims)
    start = _start(problem, r, args, args.resume)
    X, trace = _run(problem, args.solver, r, start,
                    _make_config(args), args.solver, args.trace,
                    args.summary)
    if args.save:
        save_checkpoint(X, args.save, trace.final().iter, trace.delta_eff)
    return _exit_code(trace)


_BENCH_SETTINGS = {
    "true-rank": {
        "scaled": dict(n=(40, 40, 40), r_true=(4, 4, 4),
                       ranks=[(4, 4, 4)], p=0.1),
        "paper": dict(n=(400, 400, 400), r_true=(6, 6, 6),
                      ranks=[(6, 6, 6)], p=0.01),
    },
    "over-rank": {
        "scaled": dict(n=(30, 30, 30), r_true=(2, 2, 2),
                       ranks=[(3, 3, 3), (4, 4, 4)], p=0.3),
        "paper": dict(n=(400, 400, 400), r_true=(2, 2, 2),
                      ranks=[(3, 3, 3), (4, 4, 4), (5, 5, 5), (6, 6, 6)],
                      p=0.01),
    },
    # bounds below the true rank: no iterate can fit the data exactly
    "under-rank": {
        "scaled": dict(n=(20, 20, 20), r_true=(4, 4, 4),
                       ranks=[(2, 2, 2)], p=0.2),
        "paper": dict(n=(400, 400, 400), r_true=(6, 6, 6),
                      ranks=[(2, 2, 2), (4, 4, 4)], p=0.01),
    },
}


def cmd_bench(args) -> int:
    setting = _BENCH_SETTINGS[args.suite]["paper" if args.paper_scale
                                          else "scaled"]
    n = args.n or setting["n"]
    r_true = args.true_rank or setting["r_true"]
    p = args.p if args.p is not None else setting["p"]
    # before the bundle is generated and written
    ranks = [check_bound(r, n)
             for r in ([args.rank] if args.rank else setting["ranks"])]
    out = args.out
    problem, _truth = gen_synthetic(n, r_true, p, seed=args.seed)
    save_problem(problem, out / f"{args.suite}_problem", seed=args.seed,
                 r_true=r_true)
    cfg = _make_config(args)
    comparison_rows = []
    codes = []
    for r in ranks:
        label = "x".join(str(x) for x in r)
        start = _start(problem, r, args)     # shared by the solvers
        for name in sorted(SOLVERS):
            stem = f"{args.suite}_r{label}_{name}"
            _, trace = _run(problem, name, r, start, cfg,
                            f"{name} r={label}", out / f"{stem}.csv",
                            out / f"{stem}.json")
            codes.append(_exit_code(trace))
            cols, *rows = trace_table(trace)
            comparison_rows += [[args.suite, label, name] + row
                                for row in rows]
    with open(out / f"{args.suite}_comparison.csv", "w") as f:
        f.writelines(",".join(row) + "\n" for row in
                     [["suite", "rank_bound", "solver"] + cols]
                     + comparison_rows)
    # the worst run decides: any failure, else any exhausted budget
    return 1 if 1 in codes else max(codes, default=0)


def cmd_hosvd(args) -> int:
    A = load_dense(args.input)
    r = args.rank or A.shape
    T = hosvd(A, r)
    err = float(np.linalg.norm((A - to_dense(T)).ravel()))
    for k, sig in enumerate(mode_singular_values(T), start=1):
        print(f"mode {k} singular values: "
              + " ".join(f"{s:.6e}" for s in sig))
    print(f"rank: {T.rank}")
    print(f"truncation error: {err:.6e}")
    if args.save:
        save_checkpoint(T, args.save)
    return 0


def cmd_check(args) -> int:
    names = args.suite or None
    reports = run_check_suites(names, seed=args.seed, restarts=args.restarts)
    ok = True
    for rep in reports:
        print(json.dumps(rep.to_dict() if args.verbose
                         else {k: v for k, v in rep.to_dict().items()
                               if k != "margins"}))
        ok = ok and rep.passed
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tuckeropt",
        description="First-order optimization on Tucker tensor varieties")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("complete", help="solve a tensor completion problem")
    p.add_argument("problem", type=Path,
                   help="problem bundle directory (omega.coo, gamma.coo, "
                        "meta.json)")
    p.add_argument("--solver", choices=sorted(SOLVERS), default="grap-r")
    _add_shared_flags(p)
    p.add_argument("--trace", type=Path, help="write per-iteration CSV here")
    p.add_argument("--summary", type=Path, help="write summary JSON here")
    p.add_argument("--save", type=Path, help="write final Tucker checkpoint")
    p.add_argument("--resume", type=Path,
                   help="continue the run a checkpoint was saved from")
    p.set_defaults(fn=cmd_complete)

    p = sub.add_parser("bench", help="run a synthetic benchmark suite")
    p.add_argument("suite", choices=sorted(_BENCH_SETTINGS))
    _add_shared_flags(p)
    p.add_argument("--n", type=_parse_tuple, help="tensor dimensions")
    p.add_argument("--true-rank", type=_parse_tuple)
    p.add_argument("--p", type=float, help="sampling rate")
    p.add_argument("--out", type=Path, default=Path("bench_out"))
    p.add_argument("--paper-scale", action="store_true",
                   help="full-size settings (long-running)")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("hosvd", help="truncated HOSVD of a dense tensor file")
    p.add_argument("input", type=Path)
    p.add_argument("--rank", type=_parse_tuple)
    p.add_argument("--save", type=Path)
    p.set_defaults(fn=cmd_hosvd)

    p = sub.add_parser("check", help="run the brute-force verification suites")
    p.add_argument("--suite", action="append", choices=sorted(CHECK_SUITES),
                   help="run only this suite (repeatable)")
    p.add_argument("--restarts", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--verbose", action="store_true",
                   help="include per-instance margins")
    p.set_defaults(fn=cmd_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
