"""Unit tests for the line search, rank-candidate logic, and solver loops."""

import csv
import dataclasses
import json
import re

import numpy as np
import pytest

from tuckeropt import geometry, solvers
from tuckeropt.completion import (
    completion_objective,
    criterion9,
    gen_synthetic,
    random_tucker,
    spectral_init,
)
from tuckeropt.geometry import (
    Contractions,
    TangentVector,
    approx_project,
    tangent_norm,
)
from tuckeropt.oracles import angle_constants, exact_tangent_projection_oracle
from tuckeropt.solvers import (
    SOLVERS,
    IterRecord,
    LineSearchFailure,
    ObjectiveHandle,
    SolverConfig,
    SolverTrace,
    armijo_search,
    grap_r_index_sets,
    rfgrap_r_index_sets,
    solve_grap,
    solve_grap_r,
    solve_rfgrap,
    solve_rfgrap_r,
    write_summary_json,
    write_trace_csv,
)
from tuckeropt.tensor_core import fro_norm
from tuckeropt.tucker import (
    TuckerTensor,
    check_bound,
    hosvd,
    hosvd_truncate,
    load_checkpoint,
    save_checkpoint,
)

RNG = np.random.default_rng(77)


def _dense_objective(A):
    from tuckeropt.tucker import to_dense

    return ObjectiveHandle(
        eval=lambda X: 0.5 * float(np.sum((to_dense(X) - A) ** 2)),
        grad=lambda X: to_dense(X) - A,
    )


def _completion_setup(dims=(10, 10, 10), r_true=(2, 2, 2), p=0.3, seed=4):
    P, truth = gen_synthetic(dims, r_true, p, seed=seed)
    obj = completion_objective(P)
    X0 = spectral_init(P, r_true)
    return P, truth, obj, X0


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(rho=1.0)
    with pytest.raises(ValueError):
        SolverConfig(armijo_a=0.0)
    # a NaN delta leaves grap-r one candidate per iteration, a NaN
    # step_floor fails every line search, a NaN or negative stat_tol is
    # never met, and max_iters and candidate_cap are counts, not 2.5
    for bad in (dict(delta=-1.0), dict(delta=np.nan), dict(delta=np.inf),
                dict(step_floor=np.nan), dict(step_floor=np.inf),
                dict(stat_tol=np.nan), dict(stat_tol=-1e-8),
                dict(stat_tol=np.inf), dict(max_iters=2.5),
                dict(candidate_cap=2.5)):
        with pytest.raises(ValueError, match=next(iter(bad))):
            SolverConfig(**bad)
    with pytest.raises(ValueError):
        SolverConfig(candidate_cap=0)
    # a handed-in threshold follows the checkpoint's rule, and is refused
    # before f is evaluated
    _, _, obj, X0 = _completion_setup()
    for delta_eff in (0.0, -1.0, np.nan, np.inf):
        log = []
        with pytest.raises(ValueError, match="not positive and finite"):
            solve_grap_r(_counting(obj, log), X0, (2, 2, 2), SolverConfig(),
                         delta_eff=delta_eff)
        assert log == []


@pytest.mark.parametrize("solve", [solve_grap, solve_rfgrap, solve_grap_r,
                                   solve_rfgrap_r])
def test_solvers_refuse_a_negative_start(solve):
    # the records would be numbered -3, -2, ...; the start is refused
    # before f is evaluated
    _, _, obj, X0 = _completion_setup()
    log = []
    with pytest.raises(ValueError, match="start is -3"):
        solve(_counting(obj, log), X0, (2, 2, 2), SolverConfig(), start=-3)
    assert log == []


def test_armijo_accepts_descent():
    A = RNG.standard_normal((5, 5, 5))
    obj = _dense_objective(A)
    X = random_tucker((5, 5, 5), (2, 2, 2), RNG)
    V = approx_project(Contractions(X, -obj.grad(X), (2, 2, 2)))
    vn = tangent_norm(V)
    cfg = SolverConfig()
    s, Y, bt, fY = armijo_search(obj, X, V, vn * vn, 1.0 / vn, cfg,
                                 retracted=True, r=(2, 2, 2), fX=obj.eval(X))
    assert fY == obj.eval(Y)
    assert obj.eval(X) - fY >= s * cfg.armijo_a * vn * vn
    assert all(a <= 2 for a in Y.rank)


def test_armijo_rejects_ascent_direction():
    A = RNG.standard_normal((4, 4, 4))
    obj = _dense_objective(A)
    X = random_tucker((4, 4, 4), (2, 2, 2), RNG)
    # +grad: ascent
    V = approx_project(Contractions(X, obj.grad(X), (2, 2, 2)))
    with pytest.raises(ValueError):
        armijo_search(obj, X, V, -1.0, 1.0, SolverConfig(), retracted=True,
                      r=(2, 2, 2), fX=obj.eval(X))


def test_armijo_failure_reports_diagnostics():
    # an objective that never decreases forces the floor to be hit
    X = random_tucker((4, 4, 4), (2, 2, 2), RNG)
    obj = ObjectiveHandle(eval=lambda T: 1.0, grad=lambda T: None)
    A = RNG.standard_normal((4, 4, 4))
    V = approx_project(Contractions(X, A, (2, 2, 2)))
    vn = tangent_norm(V)
    with pytest.raises(LineSearchFailure,
                       match=r"after 14 backtracks \(f=1, dir_inner=.*, "
                             r"sbar=1\)"):
        armijo_search(obj, X, V, vn * vn, 1.0, SolverConfig(step_floor=1e-4),
                      retracted=True, r=(2, 2, 2), fX=obj.eval(X))


@pytest.mark.parametrize("solve", [solve_grap, solve_rfgrap])
def test_line_search_failure_keeps_its_message(solve, tmp_path):
    # f never decreases, so the first line search hits the stepsize floor
    A = RNG.standard_normal((4, 4, 4))
    obj = ObjectiveHandle(eval=lambda T: 1.0, grad=lambda T: A)
    X0 = random_tucker((4, 4, 4), (2, 2, 2), RNG)
    X, trace = solve(obj, X0, (2, 2, 2), SolverConfig(step_floor=1e-4))
    assert X is X0 and trace.termination == "line_search_failure"
    assert len(trace.diagnostics) == 1
    assert re.match(r"line search hit the stepsize floor 0.0001 after \d+ "
                    r"backtracks \(f=1, ", trace.diagnostics[0])
    write_summary_json(trace, tmp_path / "summary.json")
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["diagnostics"] == list(trace.diagnostics)


@pytest.mark.parametrize("solve", [solve_grap, solve_rfgrap, solve_grap_r,
                                   solve_rfgrap_r])
def test_non_finite_objective_ends_the_run_with_its_trace(solve):
    # finite data whose squared error overflows: f(X0) is inf
    P, _ = gen_synthetic((10, 9, 8), (2, 2, 2), 0.3, seed=1)
    huge = dataclasses.replace(
        P, omega=P.omega.with_values(P.omega.vals * 1e300))
    X0 = random_tucker(P.dims, (2, 2, 2), np.random.default_rng(1))
    with np.errstate(over="ignore"):
        X, trace = solve(completion_objective(huge), X0, (2, 2, 2),
                         SolverConfig(max_iters=5))
    assert X is X0 and trace.termination == "non_finite"
    rec = trace.final()
    assert rec.iter == 0 and rec.f_value == np.inf
    assert np.isnan(rec.stationarity)


def test_index_sets():
    core = np.zeros((3, 3, 3))
    core[0, 0, 0] = 5.0
    core[1, 1, 1] = 1.0
    core[2, 2, 2] = 1e-9
    X = TuckerTensor(core, tuple(np.eye(5)[:, :3] for _ in range(3)))
    sets = grap_r_index_sets(X, 1e-6)
    assert sets == [(2, 3)] * 3
    sets = grap_r_index_sets(X, 2.0)
    assert sets == [(1, 2, 3)] * 3
    sets = rfgrap_r_index_sets(X, 1e-6)
    assert sets == [(2, 3)] * 3
    sets = rfgrap_r_index_sets(X, 1e-12)
    assert sets == [(3,)] * 3


def test_candidate_cap():
    from tuckeropt.solvers import CandidateExhaustion, _candidate_ranks

    core = RNG.standard_normal((3, 3, 3)) * 1e-12
    core[0, 0, 0] = 1e-12
    X = TuckerTensor(core, tuple(np.eye(4)[:, :3] for _ in range(3)))
    cfg = SolverConfig(candidate_cap=8)
    with pytest.raises(CandidateExhaustion):
        _candidate_ranks(X, cfg, False, delta_eff=10.0)


def test_candidate_exhaustion_returns_the_trace(tmp_path, monkeypatch):
    P, _ = gen_synthetic((10, 10, 10), (2, 2, 2), 0.3, seed=5)
    obj = completion_objective(P)
    X0 = random_tucker((10, 10, 10), (4, 4, 4), np.random.default_rng(6))
    # a threshold above every singular value: 5**3 grap-r candidates and
    # 2**3 rfgrap-r ones, both over the cap
    cfg = SolverConfig(max_iters=5, candidate_cap=7)
    for solve in (solve_grap_r, solve_rfgrap_r):
        X, trace = solve(obj, X0, (4, 4, 4), cfg, delta_eff=1e6)
        assert X is X0 and len(trace.records) == 1
        assert trace.termination == "candidate_exhaustion"
        assert len(trace.diagnostics) == 1
        assert "exceed candidate_cap=7" in trace.diagnostics[0]
    # every candidate fails its line search: one line per failed candidate
    def failing(*args, **kwargs):
        raise LineSearchFailure("no decrease")
    monkeypatch.setattr(solvers, "armijo_search", failing)
    cfg = SolverConfig(max_iters=5)
    X, trace = solve_grap_r(obj, X0, (4, 4, 4), cfg, delta_eff=1e-12)
    assert X is X0 and len(trace.records) == 1
    assert trace.termination == "candidate_exhaustion"
    assert trace.diagnostics == ("all 1 rank candidates failed the line "
                                 "search", "candidate (4, 4, 4): no decrease")
    path = tmp_path / "summary.json"
    write_summary_json(trace, path)
    summary = json.loads(path.read_text())
    assert summary["termination"] == "candidate_exhaustion"
    assert summary["diagnostics"] == list(trace.diagnostics)


def test_steps_from_rank_zero_candidate():
    # index sets may include rank 0 (collapse to the zero tensor); a step
    # from the zero candidate must grow back into the bound without errors
    _, _, obj, X0 = _completion_setup()
    Z = hosvd_truncate(X0, (0,) + X0.rank[1:])
    assert Z.rank == (0, 0, 0) and fro_norm(Z.core) == 0.0
    cfg = SolverConfig(max_iters=1)
    for solve in (solve_grap, solve_rfgrap):
        Y, _ = solve(obj, Z, X0.rank, cfg)
        assert obj.eval(Y) < obj.eval(Z)
        assert all(a <= b for a, b in zip(Y.rank, X0.rank))


def test_single_steps_decrease_objective():
    _, _, obj, X0 = _completion_setup()
    cfg = SolverConfig(max_iters=1)
    for solve in (solve_grap, solve_rfgrap):
        Y, trace = solve(obj, X0, (2, 2, 2), cfg)
        assert isinstance(trace.final(), IterRecord)
        assert obj.eval(Y) < obj.eval(X0)


def test_single_step_is_the_first_iteration_of_a_solve():
    _, _, obj, X0 = _completion_setup()
    cfg = SolverConfig(max_iters=30)
    for solve in (solve_grap, solve_rfgrap):
        Y, one = solve(obj, X0, (2, 2, 2),
                       dataclasses.replace(cfg, max_iters=1))
        rec = one.final()
        _, trace = solve(obj, X0, (2, 2, 2), cfg)
        ref = trace.records[1]
        assert rec.iter == 1
        assert Y.rank == rec.rank
        for name in ("f_value", "stationarity", "stepsize", "backtracks",
                     "rank"):
            # bit for bit
            assert (np.asarray(getattr(rec, name)).tobytes()
                    == np.asarray(getattr(ref, name)).tobytes()), name


def _counting(obj, log):
    """Copy of obj whose eval and eval_grad append their name to ``log``."""
    def counted(name):
        fn = getattr(obj, name)

        def call(X):
            log.append(name)
            return fn(X)
        return call
    return dataclasses.replace(obj, eval=counted("eval"),
                               eval_grad=counted("eval_grad"))


def test_single_step_evaluates_f_once_per_trial_point():
    _, _, obj, X0 = _completion_setup()
    for initial_step in (obj.initial_step, None):
        base = dataclasses.replace(obj, initial_step=initial_step)
        for solve in (solve_grap, solve_rfgrap):
            log = []
            _, trace = solve(_counting(base, log), X0, (3, 3, 3),
                             SolverConfig(max_iters=1))
            rec = trace.final()
            assert rec.stepsize > 0
            assert log.count("eval") == rec.backtracks + 1


def test_rank_decrease_steps_once_per_distinct_truncated_rank(monkeypatch):
    # a threshold above every singular value offers all ranks 0..4 per mode,
    # and every candidate with a zero mode truncates to rank (0, 0, 0)
    P, _ = gen_synthetic((10, 10, 10), (2, 2, 2), 0.3, seed=5)
    X0 = random_tucker((10, 10, 10), (4, 4, 4), np.random.default_rng(6))
    cfg = SolverConfig(max_iters=2, candidate_cap=125)
    log = []
    obj = _counting(completion_objective(P), log)
    truncate, measure = solvers.hosvd_truncations, solvers.stationarity_measure

    def logged_truncate(X, ranks):
        out = truncate(X, ranks)
        log.extend(Xc.rank for Xc, _ in out)
        assert all(Xc.rank == (0, 0, 0)
                   for rl, (Xc, _) in zip(ranks, out) if 0 in rl)
        return out

    def logged_measure(*args):
        log.append("iteration")
        return measure(*args)
    monkeypatch.setattr(solvers, "hosvd_truncations", logged_truncate)
    monkeypatch.setattr(solvers, "stationarity_measure", logged_measure)
    _, trace = solve_grap_r(obj, X0, (4, 4, 4), cfg, delta_eff=1e6)
    starts = [i for i, e in enumerate(log) if e == "iteration"]
    assert len(starts) == len(trace.records) == cfg.max_iters + 1
    collapsed = 0
    for t, (a, b) in enumerate(zip(starts, starts[1:])):
        block = log[a + 1:b]
        first_grad = block.index("eval_grad")
        # candidate truncations come before the first candidate's gradient;
        # the last gradient in the block is the next iterate's.  The
        # candidate that keeps the iterate's rank steps from the iterate
        # itself, with the gradient its stationarity measure used.
        ranks = block[:first_grad]
        assert trace.records[t + 1].n_candidates == len(ranks)
        rank = trace.records[t].rank
        assert rank in ranks
        assert block.count("eval_grad") == len(set(ranks) - {rank}) + 1
        collapsed += len(ranks) - len(set(ranks))
    assert collapsed > 0


@pytest.mark.parametrize("solve", [solve_grap, solve_rfgrap, solve_grap_r,
                                   solve_rfgrap_r])
def test_a_step_that_leaves_the_iterate_in_place_ends_stalled(solve,
                                                              monkeypatch):
    # with every projection zero, the only candidate (the iterate's own
    # rank, at a full-rank point) steps nowhere: one stall rule for all four
    _, _, obj, X0 = _completion_setup()

    def zero(G):
        X, r = G.anchor, G.bound
        return TangentVector(
            X, np.zeros(r), tuple(np.zeros((n, rk)) for n, rk in
                                  zip(X.dims, X.rank)),
            tuple(np.zeros((n, b - rk)) for n, b, rk in
                  zip(X.dims, r, X.rank)))
    monkeypatch.setattr(solvers, "approx_project", zero)
    monkeypatch.setattr(solvers, "partial_project", lambda G: (zero(G), 0))
    X, trace = solve(obj, X0, X0.rank, SolverConfig(max_iters=7))
    assert trace.termination == "stalled"
    assert X is X0 and len(trace.records) == 1
    assert trace.records[0].stationarity > 0


def _records(trace):
    return [dataclasses.replace(rec, wall_time_s=0.0) for rec in trace.records]


def test_rank_decrease_solvers_match_plain_ones_at_true_rank():
    # one candidate per iteration, the iterate's own rank: the rank-decrease
    # loop steps from the iterate itself, exactly as the plain solver does
    _, _, obj, X0 = _completion_setup()
    cfg = SolverConfig(max_iters=60)
    for plain, decreasing in ((solve_grap, solve_grap_r),
                              (solve_rfgrap, solve_rfgrap_r)):
        _, a = plain(obj, X0, (2, 2, 2), cfg)
        _, b = decreasing(obj, X0, (2, 2, 2), cfg)
        assert a.termination == b.termination
        assert all(rec.n_candidates == 1 for rec in b.records[1:])
        assert _records(a) == _records(b)


def _kernel_log(monkeypatch):
    """List that receives "iteration" at each stationarity measure and, at
    each sparse contraction kernel call, the 0-based modes that carry a
    matrix."""
    log = []
    contract = geometry.multi_mode_contract
    measure = solvers.stationarity_measure

    def logged_measure(*args):
        log.append("iteration")
        return measure(*args)
    monkeypatch.setattr(geometry, "multi_mode_contract",
                        lambda S, mats, skip: log.append(tuple(
                            j for j, M in enumerate(mats)
                            if M is not None and j != skip - 1))
                        or contract(S, mats, skip))
    monkeypatch.setattr(solvers, "stationarity_measure", logged_measure)
    return log


def test_full_rank_iteration_contracts_twice(monkeypatch):
    # the mode terms and the core term come from the patterns (I, I, U) and
    # (I, U, I), and the projection reads what the stationarity measure formed
    _, _, obj, X0 = _completion_setup()
    log = _kernel_log(monkeypatch)
    _, trace = solve_grap(obj, X0, X0.rank, SolverConfig(max_iters=3))
    assert trace.final().iter == 3
    starts = [i for i, e in enumerate(log) if e == "iteration"] + [len(log)]
    for a, b in zip(starts, starts[1:]):
        assert log[a + 1:b] == [(2,), (1,)]


def test_multi_candidate_iteration_kernel_calls(monkeypatch):
    # rfgrap-r at rank (3, 3, 3) under bound (3, 3, 3), every mode offering
    # {2, 3}: the iterate and each of the 7 other candidates, served from
    # the iterate's basis, make the two contractions (I, I, U) and (I, U, I)
    # that their mode terms come from; the candidate deficient in modes 2
    # and 3 also needs (U, I, I) for its complement, and the one deficient
    # everywhere forms (W, I, I), from which its later complement patterns
    # and C block grow (its first complement comes from an R factor of its
    # sparse gradient, not from a contraction)
    P, _ = gen_synthetic((10, 9, 8), (2, 2, 2), 0.3, seed=5)
    X0 = random_tucker(P.dims, (3, 3, 3), np.random.default_rng(6))
    cfg = SolverConfig(max_iters=1)
    log = _kernel_log(monkeypatch)
    _, trace = solve_rfgrap_r(completion_objective(P), X0, (3, 3, 3), cfg,
                              delta_eff=1e6)
    assert trace.records[1].n_candidates == 8
    start, end = (i for i, e in enumerate(log) if e == "iteration")
    block = log[start + 1:end]
    assert sorted(block) == [(0,)] * 2 + [(1,)] * 8 + [(2,)] * 8


def test_rank_decrease_reuses_the_iterate_for_its_own_rank():
    _, _, obj, X0 = _completion_setup()
    log = []
    _, trace = solve_grap_r(_counting(obj, log), X0, X0.rank,
                            SolverConfig(max_iters=5))
    assert [rec.n_candidates for rec in trace.records] == [0] + [1] * 5
    # the only evaluations of the gradient are the iterates' own
    assert log.count("eval_grad") == len(trace.records)


@pytest.mark.parametrize("solve", [solve_grap, solve_rfgrap, solve_grap_r,
                                   solve_rfgrap_r])
def test_resumed_run_continues_the_same_iterate_sequence(solve, tmp_path):
    # the over-rank instance at delta = 0.2, split 4 + 8 through a
    # checkpoint: the iteration index and delta_eff it keeps make the
    # resumed records those of one 12-iteration run, bit for bit (the first
    # resumed record is the checkpointed point, before any step)
    P = criterion9().problem
    X0 = random_tucker(P.dims, (3, 3, 3), np.random.default_rng(1029))
    r = (3, 3, 3)

    def cfg(n):
        return SolverConfig(max_iters=n, stat_tol=1e-14, delta=0.2,
                            candidate_cap=150)
    _, full = solve(completion_objective(P), X0, r, cfg(12))
    X4, first = solve(completion_objective(P), X0, r, cfg(4))
    path = tmp_path / "x4.ttkr"
    save_checkpoint(X4, path, first.final().iter, first.delta_eff)
    X, start, delta_eff = load_checkpoint(path)
    assert (start, delta_eff) == (4, full.delta_eff)
    _, resumed = solve(completion_objective(P), X, r, cfg(12), start=start,
                       delta_eff=delta_eff)
    assert resumed.termination == full.termination
    assert [(rec.iter, rec.f_value, rec.rank) for rec in resumed.records] == \
        [(rec.iter, rec.f_value, rec.rank) for rec in full.records[4:]]
    assert [rec.n_candidates for rec in resumed.records[1:]] == \
        [rec.n_candidates for rec in full.records[5:]]


def test_solver_monotone_decrease_and_convergence():
    _, truth, obj, X0 = _completion_setup()
    cfg = SolverConfig(max_iters=500)
    for solve in (solve_grap, solve_rfgrap, solve_grap_r, solve_rfgrap_r):
        X, trace = solve(obj, X0, (2, 2, 2), cfg)
        fs = [rec.f_value for rec in trace.records]
        assert all(b <= a + 1e-15 for a, b in zip(fs, fs[1:]))
        assert trace.termination == "converged"
        assert trace.final().test_error < 1e-6


def test_solver_deterministic():
    _, _, obj, X0 = _completion_setup()
    cfg = SolverConfig(max_iters=30)
    X1, t1 = solve_grap(obj, X0, (2, 2, 2), cfg)
    X2, t2 = solve_grap(obj, X0, (2, 2, 2), cfg)
    assert np.array_equal(X1.core, X2.core)
    assert [r.f_value for r in t1.records] == [r.f_value for r in t2.records]


def test_solver_max_iters_termination():
    _, _, obj, X0 = _completion_setup()
    cfg = SolverConfig(max_iters=2)
    _, trace = solve_grap(obj, X0, (2, 2, 2), cfg)
    assert trace.termination == "max_iters"
    assert trace.final().iter == 2


def test_solver_rejects_oversized_start():
    _, _, obj, X0 = _completion_setup()
    with pytest.raises(ValueError):
        solve_grap(obj, X0, (1, 1, 1), SolverConfig())


# bounds on dims (5, 5, 5) that break the rule 1 <= r_k <= n_k, one
# integer per mode, and the message each raises
BAD_BOUNDS = {
    "short": ((2, 2), r"\(2, 2\) has 2 entries for 3 modes"),
    "long": ((2, 2, 2, 2), r"has 4 entries for 3 modes"),
    "zero": ((2, 0, 2), r"mode 2 is 0; it must be an integer in 1\.\.5"),
    "above-n": ((2, 2, 6), r"mode 3 is 6; it must be an integer in 1\.\.5"),
    "fraction": ((2.5, 2, 2), r"mode 1 is 2\.5; it must be an integer"),
}


def _bound_entry_points(log):
    """Every library function that takes a rank bound, as a call on the
    bound alone; the solvers' objective appends to ``log``."""
    rng = np.random.default_rng(5)
    P, _ = gen_synthetic((5, 5, 5), (2, 2, 2), 0.3, seed=4)
    X = random_tucker(P.dims, (2, 2, 2), rng)
    A = rng.standard_normal(P.dims)
    obj = _counting(completion_objective(P), log)
    calls = {
        "check_bound": lambda r: check_bound(r, P.dims),
        "hosvd": lambda r: hosvd(A, r),
        "spectral_init": lambda r: spectral_init(P, r),
        "random_tucker": lambda r: random_tucker(P.dims, r, rng),
        "gen_synthetic": lambda r: gen_synthetic(P.dims, r, 0.3, seed=0),
        "Contractions": lambda r: Contractions(X, A, r),
        "angle_constants": lambda r: angle_constants(P.dims, r, (1, 1, 1)),
        "exact_tangent_projection_oracle":
            lambda r: exact_tangent_projection_oracle(X, A, r, restarts=1,
                                                      seed=0),
    }
    for name, solve in SOLVERS.items():
        calls[name] = (lambda r, solve=solve:
                       solve(obj, X, r, SolverConfig()))
    return calls


@pytest.mark.parametrize("entry", sorted(_bound_entry_points([])))
@pytest.mark.parametrize("case", sorted(BAD_BOUNDS))
def test_entry_points_refuse_a_bound_that_breaks_the_rule(entry, case):
    # each refuses the bound where it enters, with a message that names
    # the mode; a solver does so before f or grad f is evaluated
    bound, message = BAD_BOUNDS[case]
    log = []
    with pytest.raises(ValueError, match=message):
        _bound_entry_points(log)[entry](bound)
    assert log == []


def test_armijo_recheck_from_trace():
    # decrease recorded between consecutive iterates satisfies the
    # sufficient-decrease inequality reconstructed from the trace
    _, _, obj, X0 = _completion_setup()
    cfg = SolverConfig(max_iters=50)
    _, trace = solve_rfgrap(obj, X0, (2, 2, 2), cfg)
    recs = trace.records
    for prev, cur in zip(recs, recs[1:]):
        if cur.stepsize == 0.0:
            continue
        lhs = prev.f_value - cur.f_value
        rhs = cur.stepsize * cfg.armijo_a * cur.direction_norm ** 2
        assert lhs >= rhs - 1e-12 * max(1.0, prev.f_value)


def test_trace_csv_and_summary(tmp_path):
    _, _, obj, X0 = _completion_setup()
    cfg = SolverConfig(max_iters=5)
    _, trace = solve_grap_r(obj, X0, (2, 2, 2), cfg)
    csv_path = tmp_path / "trace.csv"
    write_trace_csv(trace, csv_path)
    with open(csv_path) as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == len(trace.records)
    assert set(rows[0]) == {"iter", "f", "stationarity", "grad_norm",
                            "dir_norm", "step", "backtracks", "r1", "r2",
                            "r3", "candidates", "time_s", "test_error"}
    # repr round-trip: values parse back exactly
    assert float(rows[1]["f"]) == trace.records[1].f_value
    js_path = tmp_path / "summary.json"
    write_summary_json(trace, js_path)
    summary = json.loads(js_path.read_text())
    assert summary["solver"] == "grap-r"
    assert summary["iters"] == trace.final().iter
    assert summary["termination"] == trace.termination
    assert "diagnostics" not in summary


def test_trace_helpers():
    t = SolverTrace(solver="grap")
    assert t.iters == 0
