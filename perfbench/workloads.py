"""Benchmark workloads: instances, bundle cache, set-up, solver passes, checks.

Every function here calls into ``tuckeropt`` through module attributes
(``solvers.solve_grap``, ``completion.load_problem``, ...), looked up at call
time, so that the wrappers installed by :mod:`tracing` see the calls.
"""

from __future__ import annotations

import os
import shutil
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from tuckeropt import completion, solvers, tensor_core, tucker

TOL = 1e-6                # the paper's success criterion on the test error
MIN_INIT_ERROR = 0.5      # an initial point this close has the truth built in
SOLVE_FN = {"grap": "solve_grap", "rfgrap": "solve_rfgrap",
            "grap-r": "solve_grap_r", "rfgrap-r": "solve_rfgrap_r"}


@dataclass(frozen=True)
class SolverRun:
    """One solver call of a pass.

    ``to_tol`` runs count towards ``time_to_tol_s`` and must converge with
    test error <= TOL; the others run a fixed iteration budget.
    """

    solver: str
    cfg: solvers.SolverConfig
    to_tol: bool
    final_rank: tuple | None = None     # rank the run must end at


@dataclass(frozen=True)
class Workload:
    """A fixed base instance; ``--seed`` relabels it.

    The seed draws a permutation and a sign per index of every mode and
    applies them to Omega, Gamma and the initial point.  Every seed thus
    poses the base problem up to a symmetry the solvers respect, with other
    index sets, values and memory layouts but the same iteration counts.
    Independently generated instances vary far more: true-rank took 264 to
    444 iterations per pass over five seeds, wider than any bound allows.
    """

    name: str
    dims: tuple
    r_true: tuple
    rank: tuple
    p: float
    base_seed: int              # gen_synthetic seed of the base instance
    init_seed: int | None       # random init seed; None for spectral init
    runs: tuple

    def problem(self, seed: int):
        """(CompletionProblem, ground truth) of this workload for ``seed``."""
        P, truth = completion.gen_synthetic(self.dims, self.r_true, self.p,
                                            seed=self.base_seed)
        perms, signs = _relabeling(self.dims, seed)

        def move(S):
            old = S.idx - 1
            idx = np.column_stack([pk[old[:, k]] for k, pk in enumerate(perms)])
            sign = np.prod([sk[old[:, k]] for k, sk in enumerate(signs)], axis=0)
            return tensor_core.SparseCooTensor(S.dims, idx + 1, S.vals * sign)

        P = completion.CompletionProblem(self.dims, move(P.omega),
                                         move(P.gamma), self.p)
        return P, _relabel_tucker(truth, perms, signs)

    def initial_point(self, P, seed: int):
        if self.init_seed is None:
            return tucker.hosvd(P.omega.to_dense() / P.p, self.rank)
        X0 = completion.random_tucker(self.dims, self.rank,
                                      np.random.default_rng(self.init_seed))
        return _relabel_tucker(X0, *_relabeling(self.dims, seed))


def _relabeling(dims, seed: int):
    rng = np.random.default_rng(seed)
    return ([rng.permutation(n) for n in dims],
            [rng.choice([-1.0, 1.0], size=n) for n in dims])


def _relabel_tucker(T, perms, signs):
    """T with the rows of factor k moved by perms[k] and scaled by signs[k]."""
    factors = []
    for U, pk, sk in zip(T.factors, perms, signs):
        V = np.empty_like(U)
        V[pk] = sk[:, None] * U
        factors.append(V)
    return tucker.TuckerTensor(T.core, tuple(factors))


_TO_TOL = solvers.SolverConfig(max_iters=300)
_OVER = dict(stat_tol=1e-14, delta=0.2, candidate_cap=150)

WORKLOADS = {
    # Criterion 8: many small kernel calls, one candidate per iteration, so
    # per-call overhead dominates and the candidate loop is bypassed.
    "true-rank": Workload(
        "true-rank", (40, 40, 40), (4, 4, 4), (4, 4, 4), 0.1, base_seed=0,
        init_seed=None,
        runs=tuple(SolverRun(s, _TO_TOL, True)
                   for s in ("grap", "rfgrap", "grap-r", "rfgrap-r"))),
    # Criterion 9's instance with bound 3 over true rank 2 (bound 4 leaves
    # rfgrap-r at rank 4 for most seeds): the only workload with the
    # rank-decrease loop, deficient-mode complements and identity-mode
    # contractions.  rfgrap-r runs to tolerance; grap-r has a fixed budget
    # that reaches its multi-candidate phase.  The init seed differs from
    # the instance seed, whose generator would rebuild the ground truth.
    "over-rank": Workload(
        "over-rank", (30, 30, 30), (2, 2, 2), (3, 3, 3), 0.3, base_seed=29,
        init_seed=1029,
        runs=(SolverRun("rfgrap-r", solvers.SolverConfig(max_iters=150, **_OVER),
                        True, final_rank=(2, 2, 2)),
              SolverRun("grap-r", solvers.SolverConfig(max_iters=6, **_OVER),
                        False))),
}


# ---------------------------------------------------------------------------
# Problem bundles, cached per seed in the benchmark's directory

def ensure_bundle(cache: Path, w: Workload, seed: int, P) -> Path:
    """Write P as a bundle unless this seed's bundle is already cached."""
    final = cache / "bundles" / f"{w.name}-seed{seed}"
    if (final / "meta.json").is_file():
        return final
    tmp = final.with_name(f"{final.name}.tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    completion.save_problem(P, tmp, seed=seed, r_true=w.r_true)
    try:
        os.replace(tmp, final)
    except OSError:             # another run cached it first
        shutil.rmtree(tmp, ignore_errors=True)
    return final


def setup(w: Workload, bundle: Path, seed: int):
    """What ``tuckeropt complete`` pays per run: load, objective, init."""
    P = completion.load_problem(bundle)
    obj = completion.completion_objective(P)
    return P, obj, w.initial_point(P, seed)


# ---------------------------------------------------------------------------
# Passes

@dataclass
class RunResult:
    run: SolverRun
    wall_s: float
    trace: object = None        # SolverTrace, None when the solver raised
    error: str | None = None


def run_pass(w: Workload, obj, X0) -> list:
    """Every solver call of the workload, each timed on its own."""
    out = []
    for run in w.runs:
        solve = getattr(solvers, SOLVE_FN[run.solver])
        t0 = time.perf_counter()
        try:
            _, trace = solve(obj, X0, w.rank, run.cfg)
        except (solvers.LineSearchFailure, solvers.CandidateExhaustion) as e:
            out.append(RunResult(run, time.perf_counter() - t0,
                                 error=f"{type(e).__name__}: {e}"))
            continue
        out.append(RunResult(run, time.perf_counter() - t0, trace))
    return out


def warm_up(w: Workload, obj, X0, iters: int = 5) -> None:
    """A short untimed pass: every solver for at most ``iters`` iterations."""
    short = tuple(replace(r, cfg=replace(r.cfg, max_iters=min(
        iters, r.cfg.max_iters))) for r in w.runs)
    run_pass(replace(w, runs=short), obj, X0)


def time_to_tol(trace) -> float | None:
    return next((r.wall_time_s for r in trace.records
                 if r.test_error is not None and r.test_error <= TOL), None)


def iteration_times(trace) -> list:
    t = [r.wall_time_s for r in trace.records]
    return [b - a for a, b in zip(t, t[1:])]


def same_trajectory(a, b, rtol: float = 1e-12) -> bool:
    """Same iterations, ranks, candidates and backtracks; f within rtol."""
    def exact(tr):
        return [(r.iter, r.rank, r.n_candidates, r.backtracks)
                for r in tr.records]
    fa = np.array([r.f_value for r in a.records])
    fb = np.array([r.f_value for r in b.records])
    return exact(a) == exact(b) and bool(
        np.all(np.abs(fa - fb) <= rtol * np.maximum(np.abs(fa), np.abs(fb))))


# ---------------------------------------------------------------------------
# Correctness checks; each returns a list of failure messages

def check_run(res: RunResult) -> list:
    name = res.run.solver
    if res.error is not None:
        return [f"{name} raised {res.error}"]
    tr = res.trace
    errs = []
    expected = ("converged",) if res.run.to_tol else ("max_iters", "converged")
    if tr.termination not in expected:
        errs.append(f"{name}: unexpected termination {tr.termination}")
    f = [r.f_value for r in tr.records]
    slack = 1e-12 * f[0]        # rounding of the rank-preserving truncation
    if any(b > a + slack for a, b in zip(f, f[1:])):
        errs.append(f"{name}: f increased")
    if res.run.to_tol and time_to_tol(tr) is None:
        errs.append(f"{name}: test error {tr.final().test_error:.3e} > {TOL}")
    want = res.run.final_rank
    if want is not None and tr.final().rank != want:
        errs.append(f"{name}: final rank {tr.final().rank} != {want}")
    return errs


def check_pass(results: list) -> list:
    """Across the solvers of one pass: grap-r keeps grap's iterations when
    both run to tolerance (one candidate per iteration)."""
    iters = {res.run.solver: res.trace.iters for res in results
             if res.trace is not None and res.run.to_tol}
    if "grap" in iters and "grap-r" in iters and iters["grap"] != iters["grap-r"]:
        return [f"grap-r took {iters['grap-r']} iterations, grap "
                f"{iters['grap']}"]
    return []


def check_repeatable(passes: list) -> list:
    """Every pass of one process follows the same trajectories."""
    errs = []
    for later in passes[1:]:
        for a, b in zip(passes[0], later):
            if a.trace is not None and b.trace is not None and \
                    not same_trajectory(a.trace, b.trace):
                errs.append(f"{a.run.solver}: trace differs between passes")
    return errs


def check_bundle(P_disk, P_gen) -> list:
    """The bundle read back equals the generated problem exactly."""
    same = (P_disk.dims == P_gen.dims and P_disk.p == P_gen.p
            and all(np.array_equal(getattr(P_disk, s).idx, getattr(P_gen, s).idx)
                    and np.array_equal(getattr(P_disk, s).vals,
                                       getattr(P_gen, s).vals)
                    for s in ("omega", "gamma")))
    return [] if same else ["bundle on disk differs from the generated problem"]


def check_init(P, X0) -> list:
    """An initial point must start far from the ground truth."""
    err = completion.test_error(P, X0)
    if not err > MIN_INIT_ERROR:
        return [f"initial test error {err:.3e} <= {MIN_INIT_ERROR}: the "
                f"initial point has the ground truth built in"]
    return []
