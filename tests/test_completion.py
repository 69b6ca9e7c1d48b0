"""Unit tests for the tensor-completion objective and synthetic instances."""

import dataclasses
import json

import numpy as np
import pytest

from tuckeropt import completion
from tuckeropt.completion import (
    CompletionProblem,
    completion_objective,
    euclidean_gradient,
    gen_synthetic,
    load_problem,
    random_tucker,
    save_problem,
    test_error as completion_test_error,
)
from tuckeropt.geometry import Contractions
from tuckeropt.oracles import _ref_multi_mode_contract
from tuckeropt.solvers import SolverConfig, solve_grap
from tuckeropt.tensor_core import (
    SparseCooTensor,
    index_plan,
    mode_product,
    unfold,
)
from tuckeropt.tucker import TuckerTensor, entries_at, to_dense

RNG = np.random.default_rng(21)


def _problem(dims=(6, 6, 6), r=(2, 2, 2), p=0.3, seed=3):
    return gen_synthetic(dims, r, p, seed=seed)


def test_gen_synthetic_structure():
    P, truth = _problem()
    total = 6 ** 3
    assert P.omega.nnz == round(0.3 * total)
    assert P.gamma.nnz == P.omega.nnz
    both = np.vstack([P.omega.idx, P.gamma.idx])
    assert np.unique(both, axis=0).shape[0] == both.shape[0]
    # observed values agree with the ground truth
    assert np.allclose(P.omega.vals,
                       entries_at(truth, index_plan(P.omega.idx, P.dims)))
    assert np.allclose(P.gamma.vals,
                       entries_at(truth, index_plan(P.gamma.idx, P.dims)))


def test_gen_synthetic_deterministic():
    P1, t1 = _problem(seed=9)
    P2, t2 = _problem(seed=9)
    assert np.array_equal(P1.omega.idx, P2.omega.idx)
    assert np.array_equal(P1.omega.vals, P2.omega.vals)
    assert np.array_equal(t1.core, t2.core)


def test_random_tucker_rejects_a_rank_of_the_wrong_length():
    rng = np.random.default_rng(0)
    for r in ((2, 2), (2, 2, 2, 2)):
        with pytest.raises(ValueError, match=rf"has {len(r)} entries.* have 3"):
            random_tucker((10, 9, 8), r, rng)


def test_problem_rejects_non_finite_values():
    # the repro: one NaN among Omega's values, then the same check on Gamma
    P, _ = gen_synthetic((10, 9, 8), (2, 2, 2), 0.3, seed=1)
    for field, name, bad in (("omega", "Omega", np.nan),
                             ("gamma", "Gamma", -np.inf)):
        S = getattr(P, field)
        vals = S.vals.copy()
        vals[3] = bad
        with pytest.raises(ValueError, match=f"non-finite values in the "
                                             f"(training|test) set {name}"):
            dataclasses.replace(P, **{field: S.with_values(vals)})


def test_load_problem_names_the_bundle_of_non_finite_data(tmp_path):
    P, _ = _problem()
    save_problem(P, tmp_path / "prob")
    vals = P.omega.vals.copy()
    vals[0] = np.nan
    completion.save_coo(P.omega.with_values(vals),
                        tmp_path / "prob" / "omega.coo")
    with pytest.raises(ValueError, match="prob: non-finite values in the "
                                         "training set Omega"):
        load_problem(tmp_path / "prob")


@pytest.mark.parametrize("meta", [{"dims": [5, 4, 3]},
                                  {"dims": [5, 4, 3], "p": "0.3"}, []])
def test_load_problem_names_the_bundle_of_a_malformed_meta(tmp_path, meta):
    P, _ = _problem()
    save_problem(P, tmp_path / "prob")
    (tmp_path / "prob" / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(ValueError, match="prob: meta.json needs integer dims "
                                         "and a number p"):
        load_problem(tmp_path / "prob")


def test_problem_rejects_overlap():
    idx = np.array([[1, 1, 1], [2, 2, 2]])
    S = SparseCooTensor((3, 3, 3), idx, np.ones(2))
    with pytest.raises(ValueError):
        CompletionProblem((3, 3, 3), S, S, 0.1)


def _overlaps_by_unique(omega_idx, gamma_idx):
    """The np.unique(axis=0) check that CompletionProblem's is tested against."""
    both = np.vstack([omega_idx, gamma_idx])
    return np.unique(both, axis=0).shape[0] != both.shape[0]


@pytest.mark.parametrize("dims", [(9, 7), (6, 5, 4), (4, 3, 5, 3)])
def test_problem_overlap_check_matches_unique(dims):
    rng = np.random.default_rng(len(dims))
    total = int(np.prod(dims))
    tuples = np.column_stack(np.unravel_index(rng.permutation(total), dims)) + 1
    last = np.array(dims)       # the grid's lexicographically last tuple

    def sparse(idx):
        return SparseCooTensor(dims, idx, rng.standard_normal(len(idx)))

    cases = []
    for _ in range(20):
        m, k = rng.integers(1, total // 3, size=2)
        omega, gamma = tuples[:m], tuples[m:m + k]
        cases.append((omega, gamma))                        # disjoint
        shared = rng.choice(m, size=rng.integers(1, m + 1), replace=False)
        cases.append((omega, np.vstack([gamma, omega[shared]])))  # overlapping
    # Omega and Gamma sharing only the last tuple, then Omega alone holding it
    rest = tuples[~(tuples == last).all(axis=1)]
    cases.append((np.vstack([rest[:10], last]), np.vstack([rest[10:20], last])))
    cases.append((np.vstack([rest[:10], last]), rest[10:20]))
    for omega, gamma in cases:
        expect = _overlaps_by_unique(omega, gamma)
        if expect:
            with pytest.raises(ValueError, match="overlap"):
                CompletionProblem(dims, sparse(omega), sparse(gamma), 0.1)
        else:
            CompletionProblem(dims, sparse(omega), sparse(gamma), 0.1)
    assert sum(_overlaps_by_unique(o, g) for o, g in cases) == 21
    # an empty test set never overlaps
    empty = SparseCooTensor(dims, np.zeros((0, len(dims)), dtype=np.int64), [])
    assert CompletionProblem(dims, sparse(tuples[:5]), empty, 0.1).gamma.nnz == 0


def test_objective_and_gradient_consistent():
    P, truth = _problem()
    X = random_tucker(P.dims, (2, 2, 2), RNG)
    f = completion_objective(P).eval(X)
    resid = entries_at(X, index_plan(P.omega.idx, P.dims)) - P.omega.vals
    assert f == pytest.approx(0.5 * resid @ resid)
    g = euclidean_gradient(P, X)
    assert np.array_equal(g.idx, P.omega.idx)
    assert np.allclose(g.vals, resid)
    # zero at the ground truth
    assert completion_objective(P).eval(truth) < 1e-20
    assert np.linalg.norm(euclidean_gradient(P, truth).vals) < 1e-10


def test_objective_gradient_finite_difference():
    P, _ = _problem(dims=(4, 4, 4), p=0.4)
    X = random_tucker(P.dims, (2, 2, 2), RNG)
    g = euclidean_gradient(P, X).to_dense()
    dense = to_dense(X)

    def f(A):
        vals = A[tuple(P.omega.idx.T - 1)] - P.omega.vals
        return 0.5 * vals @ vals

    h = 1e-6
    rng = np.random.default_rng(0)
    for _ in range(10):
        i = tuple(int(rng.integers(0, n)) for n in P.dims)
        Ap = dense.copy()
        Ap[i] += h
        Am = dense.copy()
        Am[i] -= h
        fd = (f(Ap) - f(Am)) / (2 * h)
        assert fd == pytest.approx(g[i], abs=1e-6)


def _contract(S, mats):
    """S x_j mats[j]^T over the modes where mats[j] is not None, formed by
    the Contractions object of a point with those factors."""
    factors = tuple(np.zeros((n, 0)) if M is None else M
                    for n, M in zip(S.dims, mats))
    X = TuckerTensor(np.zeros(tuple(M.shape[1] for M in factors)), factors)
    return Contractions(X, S).contract(["I" if M is None else "U"
                                        for M in mats])


def test_multi_mode_contract_matches_dense():
    P, _ = _problem(dims=(5, 4, 6), p=0.4)
    S = P.omega
    U = [RNG.standard_normal((n, 2)) for n in S.dims]
    for skip in (1, 2, 3):
        got = unfold(_contract(S, [None if j == skip - 1 else M
                                   for j, M in enumerate(U)]), skip)
        ref = S.to_dense()
        for j in range(3):
            if j != skip - 1:
                ref = mode_product(ref, j + 1, U[j].T)
        assert np.allclose(got, unfold(ref, skip), atol=1e-12)


def test_multi_mode_contract_identity_factor():
    P, _ = _problem(dims=(4, 4, 4), p=0.5)
    S = P.omega
    U = [None, RNG.standard_normal((4, 2)), RNG.standard_normal((4, 3))]
    got = unfold(_contract(S, U), 1)
    ref = mode_product(mode_product(S.to_dense(), 2, U[1].T), 3, U[2].T)
    assert np.allclose(got, unfold(ref, 1), atol=1e-12)


@pytest.mark.parametrize("identity", [(1,), (0, 2), (1, 3), (0, 1, 3)])
def test_multi_mode_contract_identity_modes_match_dense(identity):
    # None at modes other than the unfolded one stays in the contraction
    dims = (4, 3, 5, 2)
    mask = RNG.random(dims) < 0.4
    idx = np.argwhere(mask) + 1
    S = SparseCooTensor(dims, idx, RNG.standard_normal(idx.shape[0]))
    empty = SparseCooTensor(dims, np.zeros((0, 4), dtype=np.int64), np.zeros(0))
    U = [None if j in identity else RNG.standard_normal((n, q))
         for j, (n, q) in enumerate(zip(dims, (2, 1, 3, 2)))]
    for T in (S, empty):
        D = _contract(T, U)
        for skip in (j + 1 for j in identity):
            got = unfold(D, skip)
            ref = _ref_multi_mode_contract(T, U, skip)
            assert got.shape == ref.shape
            assert np.allclose(got, ref, atol=1e-12)


def test_test_error():
    P, truth = _problem()
    assert completion_test_error(P, truth) < 1e-12
    other = random_tucker(P.dims, (2, 2, 2), RNG)
    assert completion_test_error(P, other) > 1e-2


def test_completion_objective_handle():
    P, truth = _problem()
    obj = completion_objective(P)
    X = random_tucker(P.dims, (2, 2, 2), RNG)
    resid = entries_at(X, index_plan(P.omega.idx, P.dims)) - P.omega.vals
    assert obj.eval(X) == pytest.approx(0.5 * resid @ resid)
    assert obj.test_metric is not None
    assert obj.test_metric(X) == pytest.approx(completion_test_error(P, X))


def test_accepted_point_gradient_reuses_its_residual(monkeypatch):
    # the line search evaluates f last at the point it accepts; the next
    # iteration's gradient there must not gather the entries again
    P, _ = _problem(dims=(10, 10, 10), seed=4)
    log = []
    gather = completion.entries_at

    def logged_gather(X, plan):
        if plan is P.omega.plan:
            log.append(("entries_at", X))
        return gather(X, plan)
    monkeypatch.setattr(completion, "entries_at", logged_gather)
    obj = completion_objective(P)

    def logged(name):
        fn = getattr(obj, name)

        def call(X):
            log.append((name, X))
            return fn(X)
        return call
    obj = dataclasses.replace(obj, eval=logged("eval"),
                              eval_grad=logged("eval_grad"))
    X0 = random_tucker(P.dims, (2, 2, 2), np.random.default_rng(8))
    _, trace = solve_grap(obj, X0, (2, 2, 2), SolverConfig(max_iters=8))
    assert trace.final().iter == 8
    accepted = 0
    last_eval = None
    for i, (name, X) in enumerate(log):
        if name == "eval":
            last_eval = X
        if name != "eval_grad":
            continue
        reused = X is last_eval
        gathered = (i + 1 < len(log) and log[i + 1][0] == "entries_at"
                    and log[i + 1][1] is X)
        assert gathered != reused
        accepted += reused
    assert accepted == trace.final().iter
    # one gather per point: every f evaluation, plus the starting gradient
    assert (sum(e == "entries_at" for e, _ in log)
            == sum(e == "eval" for e, _ in log) + 1)


def test_initial_step_minimizes_parabola():
    from tuckeropt.geometry import approx_project
    from tuckeropt.tucker import add_scaled_tangent

    P, _ = _problem()
    obj = completion_objective(P)
    X = random_tucker(P.dims, (2, 2, 2), RNG)
    G = obj.grad(X)
    V = approx_project(Contractions(X, G.with_values(-G.vals)), (3, 3, 3))
    s = obj.initial_step(X, V)
    assert s > 0

    def phi(t):
        # objective along the un-truncated step (exact parabola)
        Y = add_scaled_tangent(X, t, V)
        return obj.eval(Y)

    eps = 1e-4 * s
    assert phi(s) <= phi(s + eps) + 1e-12
    assert phi(s) <= phi(s - eps) + 1e-12


def test_problem_bundle_roundtrip(tmp_path):
    P, _ = _problem()
    save_problem(P, tmp_path / "prob", seed=3, r_true=(2, 2, 2))
    Q = load_problem(tmp_path / "prob")
    assert Q.dims == P.dims and Q.p == P.p
    assert np.array_equal(Q.omega.idx, P.omega.idx)
    assert np.array_equal(Q.omega.vals, P.omega.vals)
    assert np.array_equal(Q.gamma.idx, P.gamma.idx)
