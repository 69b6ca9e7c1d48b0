"""First-order solvers on the bounded-Tucker-rank set.

Four methods share one iteration: a projected line-search step built from
either the approximate projection (retracted variants) or the partial
projection (retraction-free variants), taken from every rank candidate of
the iterate, of which the best is kept.  The rank-decreasing variants weigh
lower-rank candidates; the plain ones have one, the iterate's own rank.
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
    check_bound,
    check_count,
    check_threshold,
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
        if not (math.isfinite(self.delta) and self.delta > 0):
            raise ValueError("delta must be positive and finite")
        if not (math.isfinite(self.step_floor) and self.step_floor > 0):
            raise ValueError("step_floor must be positive and finite")
        if not (math.isfinite(self.stat_tol) and self.stat_tol >= 0):
            raise ValueError("stat_tol must be finite and non-negative")
        check_count(self.max_iters, "max_iters", 0)
        check_count(self.candidate_cap, "candidate_cap", 1)


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
    """A step's outcome; the defaults are those of no move."""

    f_after: float = math.nan
    stepsize: float = 0.0
    direction_norm: float = 0.0
    backtracks: int = 0


def _direction_step(obj, grad, fX, cfg, retraction_free):
    """One projected line-search step from X = grad.anchor; returns
    (Y, _StepInfo).

    ``grad`` is the :class:`Contractions` object of grad f(X), whose
    contractions the stationarity measure at X may already have formed.
    The direction is the projection of -grad f, taken as minus the
    projection of grad f: both projections are odd in their argument.  The
    search starts at the objective's proposal, else at min(1, 1/||V||),
    which also caps a retracted variant's proposal.
    """
    if retraction_free:
        V, _branch = partial_project(grad)
    else:
        V = approx_project(grad)
    X, r = grad.anchor, grad.bound
    V = TangentVector(X, -V.C, tuple(-U for U in V.Udot), V.Ucomp)
    vnorm = tangent_norm(V)
    if vnorm == 0.0:
        return X, _StepInfo(f_after=fX)
    sbar = obj.initial_step(X, V) if obj.initial_step is not None else None
    if sbar is None or not math.isfinite(sbar) or sbar <= 0:
        sbar = min(1.0, 1.0 / vnorm)
    if not retraction_free:
        sbar = min(sbar, 1.0 / vnorm)
    s, Y, bt, fY = armijo_search(obj, X, V, vnorm * vnorm,
                                 max(sbar, cfg.step_floor), cfg,
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


def _effective_delta(X0: TuckerTensor, cfg: SolverConfig) -> float:
    """Rank-decrease threshold relative to sigma_max at the start."""
    sig = [s[0] for s in mode_singular_values(X0) if s.size]
    smax = max(sig) if sig else 0.0
    return cfg.delta * smax if smax > 0 else cfg.delta


def _candidate_ranks(X, cfg, retraction_free, delta_eff):
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


def _step(obj, fX, grad, cfg, retraction_free, delta):
    """The best candidate step from X = grad.anchor; returns (Y, info, n).

    A plain solver (``delta`` None) has one candidate, X's own rank, and
    its failed search raises :class:`LineSearchFailure`.  A rank-decreasing
    one truncates every candidate rl of its index sets at threshold
    ``delta`` through one tree, and steps once per distinct truncated rank
    (a truncation depends only on the kept counts, which its rank reports),
    from that rank's smallest (sum(rl), rl): the candidate the key
    (f, sum(rl), rl) would pick among them.  It raises
    :class:`CandidateExhaustion`, with one line per failed candidate, when
    every step failed.  n is the nominal count.

    X stands in for its own rank, with the f(X) and the
    :class:`Contractions` object ``grad`` of grad f(X) that the caller has,
    so a zero step from it returns X itself.  Only the other ranks evaluate
    f and grad f.  Their factors are U_k W_k, so their contractions are
    X-basis contractions of their own gradient followed by small W
    products (see :class:`Contractions`).
    """
    X, r = grad.anchor, grad.bound
    if delta is None:
        cands, distinct = [X.rank], {X.rank: (X.rank, X, None)}
    else:
        cands, distinct = _candidate_ranks(X, cfg, retraction_free, delta), {}
        for rl, (Xc, ws) in zip(cands, hosvd_truncations(X, cands)):
            seen = distinct.get(Xc.rank)
            if seen is None or (sum(rl), rl) < (sum(seen[0]), seen[0]):
                distinct[Xc.rank] = (rl, Xc, ws)
    best, failures = None, []
    for rl, Xc, ws in distinct.values():
        if Xc.rank == X.rank:
            fc, gc = fX, grad
        else:
            fc, A = _f_and_grad(obj, Xc)
            gc = Contractions(Xc, A, r, (Contractions(X, A, r), ws))
        try:
            Yc, info = _direction_step(obj, gc, fc, cfg, retraction_free)
        except LineSearchFailure as e:
            if delta is None:
                raise
            failures.append(f"candidate {rl}: {e}")
            continue
        key = (info.f_after, sum(rl), rl)
        if best is None or key < best[0]:
            best = (key, Yc, info)
    if best is None:
        raise CandidateExhaustion(
            f"all {len(cands)} rank candidates failed the line search",
            diagnostics=failures)
    return best[1], best[2], len(cands)


def _solve(obj, X0, r, cfg, *, retraction_free, rank_decrease, name,
           start=0, delta_eff=None):
    """Run one solver from X0; returns (X, SolverTrace).

    ``start`` and ``delta_eff`` continue a run from its iterate X0 at
    iteration ``start`` (see :func:`~tuckeropt.tucker.save_checkpoint`):
    the records are numbered from ``start``, ``cfg.max_iters`` still bounds
    the iteration index, and the rank-decrease threshold is ``delta_eff``
    rather than the default delta * sigma_max(X0).  A run resumed at an
    index at or past ``cfg.max_iters`` records its start point and ends.
    Every iteration records its point, then steps (see :func:`_step`); a
    step that returns X itself ends the run ``"stalled"``.
    """
    r = check_bound(r, X0.dims)
    if any(rl > rk for rl, rk in zip(X0.rank, r)):
        raise ValueError(f"start rank {X0.rank} exceeds bound {r}")
    check_count(start, "start", 0)
    check_threshold(delta_eff)
    t_start = time.perf_counter()
    if rank_decrease and delta_eff is None:
        delta_eff = _effective_delta(X0, cfg)
    trace = SolverTrace(solver=name, delta_eff=delta_eff)
    X, t, pending, n_candidates = X0, start, _StepInfo(), 0
    while trace.termination == "running":
        fX, grad = _f_and_grad(obj, X)
        gnorm = fro_norm(grad)
        finite = math.isfinite(fX) and math.isfinite(gnorm)
        stat = math.nan     # nothing below is defined on non-finite data
        if finite:
            contractions = Contractions(X, grad, r)
            stat = stationarity_measure(contractions)
        trace.records.append(_make_record(obj, X, fX, gnorm, stat, t, pending,
                                          n_candidates, t_start))
        if not finite:
            trace.termination = "non_finite"
        elif stat <= cfg.stat_tol:
            trace.termination = "converged"
        elif t >= cfg.max_iters:
            trace.termination = "max_iters"
        else:
            try:
                Y, pending, n_candidates = _step(
                    obj, fX, contractions, cfg, retraction_free,
                    delta_eff if rank_decrease else None)
            except LineSearchFailure as e:
                trace.termination = "line_search_failure"
                trace.diagnostics = (str(e),)
            except CandidateExhaustion as e:
                trace.termination = "candidate_exhaustion"
                trace.diagnostics = (str(e),) + e.diagnostics
            else:
                if Y is X:
                    trace.termination = "stalled"
                X, t = Y, t + 1
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

def trace_table(trace: SolverTrace):
    """The trace CSV's header, then one row per iteration, as lists of
    strings (wall time varies between runs)."""
    d = len(trace.final().rank)
    yield (["iter", "f", "stationarity", "grad_norm", "dir_norm", "step",
            "backtracks"] + [f"r{k + 1}" for k in range(d)]
           + ["candidates", "time_s", "test_error"])
    for rec in trace.records:
        yield ([str(rec.iter), repr(rec.f_value), repr(rec.stationarity),
                repr(rec.grad_norm), repr(rec.direction_norm),
                repr(rec.stepsize), str(rec.backtracks)]
               + [str(x) for x in rec.rank]
               + [str(rec.n_candidates), repr(rec.wall_time_s),
                  "" if rec.test_error is None else repr(rec.test_error)])


def write_trace_csv(trace: SolverTrace, path) -> None:
    """CSV of :func:`trace_table`: one row per iteration."""
    with open(path, "w") as f:
        f.writelines(",".join(row) + "\n" for row in trace_table(trace))


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
