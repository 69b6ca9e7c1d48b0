"""The rank-decreasing solvers across rank parameters, orders and shapes.

Small completion instances with fixed seeds: d = 2, 3 and 4, non-cubic
dimensions, non-uniform bounds below and above the true rank, starts below
the bound, candidate sets that reach rank 0 in a mode, and an Omega that
leaves a slice unobserved.  Every run has iterations with several rank
candidates, whose steps are served from the iterate's basis.

A weighted instance pins the paper's answer to Levin, Kileel & Boumal
(Math. Program. 199, 2023): without rank decrease, projected gradient
steps converge to a non-stationary point of the bounded-rank set, and the
rank-decreasing solvers escape it.
"""

import numpy as np
import pytest

from tuckeropt.completion import (
    CompletionProblem,
    completion_objective,
    gen_synthetic,
    random_tucker,
)
from tuckeropt.geometry import Contractions, stationarity_measure
from tuckeropt.oracles import _ref_stationarity
from tuckeropt.solvers import (
    SOLVERS,
    ObjectiveHandle,
    SolverConfig,
    solve_grap_r,
    solve_rfgrap_r,
)
from tuckeropt.tensor_core import SparseCooTensor
from tuckeropt.tucker import TuckerTensor, hosvd_truncate, to_dense

TERMINATIONS = {"converged", "max_iters", "stalled", "line_search_failure",
                "candidate_exhaustion"}

# (dims, true rank, bound, start rank, sampling rate, seed, options): the
# options are SolverConfig fields, and "delta_eff", an absolute rank-decrease
# threshold for the solver, and "unobserved", a 1-based slice of mode 1 taken
# out of Omega
INSTANCES = {
    # d = 2 under the true rank; a threshold above every singular value
    # offers every rank down to 0 in both modes
    "d2-under-rank-0": ((12, 9), (3, 2), (2, 2), (2, 2), 0.5, 1,
                        dict(delta_eff=1e6)),
    # d = 2 over the true rank, from a start below the bound
    "d2-over-below": ((11, 8), (1, 2), (3, 3), (2, 3), 0.5, 2,
                      dict(delta=0.3)),
    # d = 4, non-uniform bound over a non-uniform true rank
    "d4-over": ((7, 6, 5, 4), (2, 2, 1, 2), (3, 3, 2, 2), (3, 3, 2, 2), 0.4,
                3, dict(delta=0.3, candidate_cap=150)),
    # d = 4, under the true rank in two modes, from a start below the bound
    "d4-under-below": ((6, 7, 5, 4), (3, 2, 2, 2), (2, 2, 2, 1),
                       (1, 2, 2, 1), 0.4, 4, dict(delta=0.5)),
    # d = 3, non-uniform bound over a non-uniform true rank
    "d3-over": ((9, 7, 8), (2, 1, 2), (3, 2, 3), (3, 2, 3), 0.4, 5,
                dict(delta=0.3)),
    # d = 3 over the true rank, with slice 3 of mode 1 unobserved
    "d3-unobserved-slice": ((8, 9, 6), (2, 2, 1), (2, 3, 2), (2, 3, 2), 0.4,
                            6, dict(delta=0.3, unobserved=3)),
}


def _problem(dims, r_true, p, seed, unobserved):
    """The synthetic instance, with slice ``unobserved`` of mode 1 (when
    not None) taken out of Omega."""
    P, _ = gen_synthetic(dims, r_true, p, seed=seed)
    if unobserved is None:
        return P
    keep = P.omega.idx[:, 0] != unobserved
    omega = SparseCooTensor(dims, P.omega.idx[keep], P.omega.vals[keep])
    return CompletionProblem(dims, omega, P.gamma, P.p)


@pytest.mark.parametrize("solve", [solve_grap_r, solve_rfgrap_r],
                         ids=["grap-r", "rfgrap-r"])
@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_rank_decreasing_solver_is_monotone_and_stationary(name, solve):
    dims, r_true, bound, start, p, seed, kw = INSTANCES[name]
    kw = dict(kw)
    delta_eff = kw.pop("delta_eff", None)
    P = _problem(dims, r_true, p, seed, kw.pop("unobserved", None))
    obj = completion_objective(P)
    X0 = random_tucker(dims, start, np.random.default_rng(100 + seed))
    cfg = SolverConfig(max_iters=25, stat_tol=1e-12, **kw)
    X, trace = solve(obj, X0, bound, cfg, delta_eff=delta_eff)
    assert trace.termination in TERMINATIONS
    recs = trace.records
    f0 = recs[0].f_value
    for a, b in zip(recs, recs[1:]):
        assert b.f_value <= a.f_value + 1e-12 * f0, f"iteration {b.iter}"
    for rec in recs:
        assert all(rk <= bk for rk, bk in zip(rec.rank, bound))
    assert X.rank == recs[-1].rank
    assert max(rec.n_candidates for rec in recs) > 1
    grad = obj.grad(X)
    got = stationarity_measure(Contractions(X, grad), bound)
    assert got == pytest.approx(_ref_stationarity(X, grad, bound),
                                rel=1e-8, abs=1e-12 * np.sqrt(f0))


@pytest.mark.parametrize("solver", sorted(SOLVERS))
@pytest.mark.parametrize("d", [2, 3])
def test_only_rank_decrease_escapes_a_non_stationary_limit(d, solver):
    # f(X) = 1/2 ||W * (X - A)||^2 on 3^d entries under the bound (2, ..., 2),
    # with A = e_1 (x) ... (x) e_1 + e_3 (x) ... (x) e_3 and W^2 = 1 except
    # 1/2 at (2, ..., 2), from core diag(1, 0.3) and factors I[:, :2].  The
    # (3, ..., 3) gradient entry lies outside the tangent space at every
    # rank-(2, ..., 2) iterate, so the plain steps only shrink the second
    # term, and the iterates tend to the rank-1 point e_1 (x) ... (x) e_1,
    # where the measure reports them converged.  That point is not
    # stationary: the rank-decreasing solvers step from its rank-1
    # truncation to the minimizer A.
    dims, bound = (3,) * d, (2,) * d
    A = np.zeros(dims)
    A[(0,) * d] = A[(2,) * d] = 1.0
    W2 = np.ones(dims)
    W2[(1,) * d] = 0.5

    def grad(X):
        return W2 * (to_dense(X) - A)

    obj = ObjectiveHandle(
        eval=lambda X: 0.5 * float(np.sum(W2 * (to_dense(X) - A) ** 2)),
        grad=grad)
    core = np.zeros(bound)
    core[(0,) * d], core[(1,) * d] = 1.0, 0.3
    X0 = TuckerTensor(core, tuple(np.eye(3)[:, :2] for _ in range(d)))
    rank_decrease = solver.endswith("-r")
    cfg = SolverConfig(delta=0.1) if rank_decrease else SolverConfig()
    X, trace = SOLVERS[solver](obj, X0, bound, cfg)
    assert trace.termination == "converged"
    f = trace.records[-1].f_value
    if rank_decrease:
        assert f <= 1e-12
        assert _ref_stationarity(X, grad(X), bound) <= 1e-10
    else:
        assert f >= 0.49
        X1 = hosvd_truncate(X, (1,) * d)
        assert _ref_stationarity(X1, grad(X1), bound) >= 0.9
