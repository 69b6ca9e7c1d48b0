"""First-order solvers on the bounded-Tucker-rank set.

Four methods share one skeleton: a projected line-search step built from
either the approximate projection (retracted variants) or the partial
projection (retraction-free variants), optionally wrapped in a rank-decrease
outer loop that enumerates lower-rank candidates and keeps the best one.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    Contractions,
    TangentVector,
    approx_project,
    partial_project,
    stationarity_measure,
    tangent_norm,
)
from .tensor_core import delta_rank, fro_norm
from .tucker import (
    TuckerTensor,
    add_scaled_tangent,
    hosvd_truncate,
    hosvd_truncations,
    mode_singular_values,
)


class LineSearchFailure(RuntimeError):
    """Backtracking reached the stepsize floor without sufficient decrease."""


class CandidateExhaustion(RuntimeError):
    """Every rank candidate in one iteration failed, or too many to try.

    ``diagnostics`` holds one line per failed truncated rank, naming the
    candidate rl that represents it.
    """

    def __init__(self, message, diagnostics=()):
        super().__init__(message)
        self.diagnostics = tuple(diagnostics)


@dataclass(frozen=True)
class ObjectiveHandle:
    """Objective f with Euclidean gradient and optional per-direction hooks.

    ``grad`` may return a dense array or a SparseCooTensor.  ``initial_step``,
    if given, maps (X, V) to a proposed initial stepsize (e.g. the exact
    minimizer for quadratics); ``test_metric`` is recorded in traces.
    """

    eval: callable
    grad: callable
    initial_step: callable | None = None
    test_metric: callable | None = None
    eval_grad: callable | None = None


def _f_and_grad(obj: "ObjectiveHandle", X):
    """(f(X), grad f(X)), using the fused path when the objective has one."""
    if obj.eval_grad is not None:
        return obj.eval_grad(X)
    return obj.eval(X), obj.grad(X)


@dataclass(frozen=True)
class SolverConfig:
    rho: float = 0.5
    armijo_a: float = 1e-4
    delta: float = 1e-2
    max_iters: int = 500
    stat_tol: float = 1e-8
    step_floor: float = 1e-16
    candidate_cap: int = 64

    def __post_init__(self):
        if not 0 < self.rho < 1:
            raise ValueError("rho must lie in (0, 1)")
        if not 0 < self.armijo_a < 1:
            raise ValueError("armijo_a must lie in (0, 1)")
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        if self.step_floor <= 0:
            raise ValueError("step_floor must be positive")
        if self.max_iters < 0 or self.candidate_cap < 1:
            raise ValueError("invalid iteration/candidate limits")


@dataclass(frozen=True)
class IterRecord:
    iter: int
    f_value: float
    stationarity: float
    grad_norm: float
    direction_norm: float
    stepsize: float
    rank: tuple
    n_candidates: int
    backtracks: int
    wall_time_s: float
    test_error: float | None = None


@dataclass
class SolverTrace:
    """Per-iteration records and the reason the run ended.

    ``diagnostics`` explains a failed termination: for
    ``"line_search_failure"`` it is the failed search's message, and for
    ``"candidate_exhaustion"`` it is the message, then one line per rank
    candidate that failed its line search.  A run ends ``"non_finite"``,
    with a last record whose stationarity is NaN, when f(X) or
    ||grad f(X)|| is not finite.  ``delta_eff`` is the rank-decrease
    threshold the run used (None for a plain solver not handed one), which
    a checkpoint keeps so that a resumed run uses it too.
    """

    solver: str
    records: list = field(default_factory=list)
    termination: str = "running"
    diagnostics: tuple = ()
    delta_eff: float | None = None

    @property
    def iters(self) -> int:
        return self.records[-1].iter if self.records else 0

    def final(self) -> IterRecord:
        return self.records[-1]


def armijo_search(obj: ObjectiveHandle, X: TuckerTensor, V: TangentVector,
                  dir_inner: float, sbar: float, cfg: SolverConfig,
                  retracted: bool, r, fX: float):
    """Backtracking line search; returns (s, Y, n_backtracks, f(Y)).

    Finds the smallest l >= 0 such that s = rho^l * sbar satisfies
    f(X) - f(Y_s) >= s * a * dir_inner, where Y_s is the step truncated to
    the rank bound r for the retracted variants and the structured exact
    step otherwise.  ``fX`` is f(X), so a search makes n_backtracks + 1
    evaluations of f, and f(Y) is returned so that the caller need not
    evaluate the accepted point again.
    """
    if dir_inner <= 0:
        raise ValueError(f"not a descent direction: dir_inner={dir_inner}")
    if sbar <= 0:
        raise ValueError("initial stepsize must be positive")
    s = sbar
    backtracks = 0
    while s >= cfg.step_floor:
        Y = add_scaled_tangent(X, s, V)
        if retracted:
            Y = hosvd_truncate(Y, tuple(min(a, b) for a, b in zip(r, Y.rank)))
        fY = obj.eval(Y)
        if fX - fY >= s * cfg.armijo_a * dir_inner:
            return s, Y, backtracks, fY
        s *= cfg.rho
        backtracks += 1
    raise LineSearchFailure(
        f"line search hit the stepsize floor {cfg.step_floor:g} after "
        f"{backtracks} backtracks (f={fX:.6g}, dir_inner={dir_inner:.6g}, "
        f"sbar={sbar:.6g})")


def grap_r_index_sets(X: TuckerTensor, delta: float):
    """Per-mode candidate rank sets {delta-rank, ..., rank}."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    sets = []
    for sigma in mode_singular_values(X):
        rk = sigma.size
        sets.append(tuple(range(delta_rank(sigma, delta), rk + 1)))
    return sets


def rfgrap_r_index_sets(X: TuckerTensor, delta: float):
    """Per-mode candidate rank sets {rank-1, rank} when sigma_min <= delta."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    sets = []
    for sigma in mode_singular_values(X):
        rk = sigma.size
        if rk and sigma[-1] <= delta:
            sets.append((rk - 1, rk))
        else:
            sets.append((rk,))
    return sets


@dataclass(frozen=True)
class _StepInfo:
    f_after: float
    stepsize: float
    direction_norm: float
    backtracks: int


def _initial_stepsize(obj, X, V, vnorm, cfg, retraction_free):
    sbar = None
    if obj.initial_step is not None:
        sbar = obj.initial_step(X, V)
    if sbar is None or not math.isfinite(sbar) or sbar <= 0:
        sbar = min(1.0, 1.0 / vnorm)
    if not retraction_free:
        sbar = min(sbar, 1.0 / vnorm)
    return max(sbar, cfg.step_floor)


def _direction_step(obj, grad, fX, r, cfg, retraction_free):
    """One projected line-search step from X = grad.anchor; returns
    (Y, _StepInfo).

    ``grad`` is the :class:`Contractions` object of grad f(X), whose
    contractions the stationarity measure at X may already have formed.
    The direction is the projection of -grad f, taken as minus the
    projection of grad f: both projections are odd in their argument.
    """
    if retraction_free:
        V, _branch = partial_project(grad, r)
    else:
        V = approx_project(grad, r)
    X = grad.anchor
    V = TangentVector(X, -V.C, tuple(-U for U in V.Udot), V.Ucomp)
    vnorm = tangent_norm(V)
    if vnorm == 0.0:
        return X, _StepInfo(f_after=fX, stepsize=0.0, direction_norm=0.0,
                            backtracks=0)
    dir_inner = vnorm * vnorm
    sbar = _initial_stepsize(obj, X, V, vnorm, cfg, retraction_free)
    s, Y, bt, fY = armijo_search(obj, X, V, dir_inner, sbar, cfg,
                                 retracted=not retraction_free, r=r, fX=fX)
    return Y, _StepInfo(f_after=fY, stepsize=s, direction_norm=vnorm,
                        backtracks=bt)


def _make_record(obj, X, fX, gnorm, stat, t, info, n_candidates, t_start):
    terr = obj.test_metric(X) if obj.test_metric is not None else None
    return IterRecord(iter=t, f_value=fX, stationarity=stat,
                      grad_norm=gnorm,
                      direction_norm=info.direction_norm,
                      stepsize=info.stepsize, rank=X.rank,
                      n_candidates=n_candidates, backtracks=info.backtracks,
                      wall_time_s=time.perf_counter() - t_start,
                      test_error=terr)


_NO_STEP = _StepInfo(f_after=float("nan"), stepsize=0.0, direction_norm=0.0,
                     backtracks=0)


def _effective_delta(X0: TuckerTensor, cfg: SolverConfig) -> float:
    """Rank-decrease threshold relative to sigma_max at the start."""
    sig = [s[0] for s in mode_singular_values(X0) if s.size]
    smax = max(sig) if sig else 0.0
    return cfg.delta * smax if smax > 0 else cfg.delta


def _candidate_ranks(X, r, cfg, retraction_free, delta_eff):
    if retraction_free:
        sets = rfgrap_r_index_sets(X, delta_eff)
    else:
        sets = grap_r_index_sets(X, delta_eff)
    count = int(np.prod([len(s) for s in sets], dtype=np.int64))
    if count > cfg.candidate_cap:
        raise CandidateExhaustion(
            f"{count} rank candidates exceed candidate_cap="
            f"{cfg.candidate_cap}; decrease delta or raise the cap")
    return list(itertools.product(*sets))


def _rank_decrease_step(obj, fX, grad, r, cfg, retraction_free, delta_eff):
    """Evaluate every lower-rank candidate of X = grad.anchor, keep the best;
    returns (Y, info, n).

    Every nominal candidate rl is truncated, but the step is taken once per
    distinct truncated rank: hosvd_truncate's result depends only on the
    per-mode kept counts, which its rank reports, so candidates that truncate
    alike give the same step.  Each distinct rank is represented by its
    smallest (sum(rl), rl), which is the candidate the tie-break key
    (f, sum(rl), rl) would pick among them.  n is the nominal count.

    X stands in for its own rank: a truncation that keeps X.rank equals X up
    to rounding, so that candidate steps from X itself, with the f(X) and
    the :class:`Contractions` object ``grad`` of grad f(X) that the caller
    already has.  Only the other distinct ranks evaluate f and grad f.

    Those other candidates are served from X's basis: their factors are
    U_k W_k, so their contractions are X-basis contractions of their own
    gradient followed by small W products (see :class:`Contractions`).
    Each candidate forms its patterns on demand and drops them after its
    step.
    """
    X = grad.anchor
    cands = _candidate_ranks(X, r, cfg, retraction_free, delta_eff)
    distinct = {}
    for rl, (Xc, ws) in zip(cands, hosvd_truncations(X, cands)):
        seen = distinct.get(Xc.rank)
        if seen is None or (sum(rl), rl) < (sum(seen[0]), seen[0]):
            distinct[Xc.rank] = (rl, Xc, ws)
    best_key = None
    best = None
    failures = []
    for rl, Xc, ws in distinct.values():
        if Xc.rank == X.rank:
            fc, gc = fX, grad
        else:
            fc, A = _f_and_grad(obj, Xc)
            gc = Contractions(Xc, A, (Contractions(X, A), ws))
        try:
            Yc, info = _direction_step(obj, gc, fc, r, cfg, retraction_free)
        except LineSearchFailure as e:
            failures.append(f"candidate {rl}: {e}")
            continue
        key = (info.f_after, sum(rl), rl)
        if best_key is None or key < best_key:
            best_key = key
            best = (Yc, info)
    if best is None:
        raise CandidateExhaustion(
            f"all {len(cands)} rank candidates failed the line search",
            diagnostics=failures)
    return best[0], best[1], len(cands)


def _solve(obj, X0, r, cfg, *, retraction_free, rank_decrease, name,
           start=0, delta_eff=None):
    """Run one solver from X0; returns (X, SolverTrace).

    ``start`` and ``delta_eff`` continue a run from its iterate X0 at
    iteration ``start`` (see :func:`~tuckeropt.tucker.save_checkpoint`):
    the records are numbered from ``start``, ``cfg.max_iters`` still bounds
    the iteration index, and the rank-decrease threshold is ``delta_eff``
    rather than the default delta * sigma_max(X0).  A run resumed at an
    index at or past ``cfg.max_iters`` records its start point and ends.
    """
    r = tuple(int(x) for x in r)
    if len(r) != X0.ndim:
        raise ValueError(f"rank bound {r} has {len(r)} entries, the start "
                         f"point has {X0.ndim} modes")
    if any(rl > rk for rl, rk in zip(X0.rank, r)):
        raise ValueError(f"start rank {X0.rank} exceeds bound {r}")
    t_start = time.perf_counter()
    if rank_decrease and delta_eff is None:
        delta_eff = _effective_delta(X0, cfg)
    trace = SolverTrace(solver=name, delta_eff=delta_eff)
    X = X0
    pending = _NO_STEP
    n_candidates = 0
    for t in range(start, max(start, cfg.max_iters) + 1):
        fX, grad = _f_and_grad(obj, X)
        gnorm = fro_norm(grad)
        if not (math.isfinite(fX) and math.isfinite(gnorm)):
            # nothing below is defined on non-finite data
            trace.records.append(_make_record(obj, X, fX, gnorm, math.nan, t,
                                              pending, n_candidates, t_start))
            trace.termination = "non_finite"
            return X, trace
        contractions = Contractions(X, grad)
        stat = stationarity_measure(contractions, r)
        trace.records.append(_make_record(obj, X, fX, gnorm, stat, t, pending,
                                          n_candidates, t_start))
        if stat <= cfg.stat_tol:
            trace.termination = "converged"
            return X, trace
        if t >= cfg.max_iters:
            trace.termination = "max_iters"
            return X, trace
        if rank_decrease:
            try:
                X, pending, n_candidates = _rank_decrease_step(
                    obj, fX, contractions, r, cfg, retraction_free, delta_eff)
            except CandidateExhaustion as e:
                trace.termination = "candidate_exhaustion"
                trace.diagnostics = (str(e),) + e.diagnostics
                return X, trace
            continue
        try:
            Y, pending = _direction_step(obj, contractions, fX, r, cfg,
                                         retraction_free)
        except LineSearchFailure as e:
            trace.termination = "line_search_failure"
            trace.diagnostics = (str(e),)
            return X, trace
        n_candidates = 1
        if pending.stepsize == 0.0:
            trace.termination = "stalled"
            return X, trace
        X = Y
    trace.termination = "max_iters"
    return X, trace


def solve_grap(obj, X0, r, cfg, *, start=0, delta_eff=None):
    return _solve(obj, X0, r, cfg, retraction_free=False,
                  rank_decrease=False, name="grap", start=start,
                  delta_eff=delta_eff)


def solve_rfgrap(obj, X0, r, cfg, *, start=0, delta_eff=None):
    return _solve(obj, X0, r, cfg, retraction_free=True,
                  rank_decrease=False, name="rfgrap", start=start,
                  delta_eff=delta_eff)


def solve_grap_r(obj, X0, r, cfg, *, start=0, delta_eff=None):
    return _solve(obj, X0, r, cfg, retraction_free=False,
                  rank_decrease=True, name="grap-r", start=start,
                  delta_eff=delta_eff)


def solve_rfgrap_r(obj, X0, r, cfg, *, start=0, delta_eff=None):
    return _solve(obj, X0, r, cfg, retraction_free=True,
                  rank_decrease=True, name="rfgrap-r", start=start,
                  delta_eff=delta_eff)


SOLVERS = {"grap": solve_grap, "rfgrap": solve_rfgrap,
           "grap-r": solve_grap_r, "rfgrap-r": solve_rfgrap_r}


# ---------------------------------------------------------------------------
# Trace output

def write_trace_csv(trace: SolverTrace, path, d: int) -> None:
    """CSV with one row per iteration (wall time varies between runs)."""
    cols = (["iter", "f", "stationarity", "grad_norm", "dir_norm", "step",
             "backtracks"] + [f"r{k + 1}" for k in range(d)]
            + ["candidates", "time_s", "test_error"])
    with open(path, "w") as f:
        f.write(",".join(cols) + "\n")
        for rec in trace.records:
            row = [str(rec.iter), repr(rec.f_value), repr(rec.stationarity),
                   repr(rec.grad_norm), repr(rec.direction_norm),
                   repr(rec.stepsize), str(rec.backtracks)]
            row += [str(x) for x in rec.rank]
            row += [str(rec.n_candidates), repr(rec.wall_time_s),
                    "" if rec.test_error is None else repr(rec.test_error)]
            f.write(",".join(row) + "\n")


def write_summary_json(trace: SolverTrace, path) -> None:
    rec = trace.final()
    summary = {
        "solver": trace.solver,
        "f": rec.f_value,
        "stationarity": rec.stationarity,
        "rank": list(rec.rank),
        "iters": rec.iter,
        "wall_time_s": rec.wall_time_s,
        "termination": trace.termination,
    }
    if rec.test_error is not None:
        summary["test_error"] = rec.test_error
    if trace.diagnostics:
        summary["diagnostics"] = list(trace.diagnostics)
    with open(path, "w") as f:
        json.dump(summary, f, indent=2)
        f.write("\n")
