"""Unit tests for tangent-cone projections and stationarity."""

import itertools

import numpy as np
import pytest

from tuckeropt import geometry
from tuckeropt.completion import (
    completion_objective,
    gen_synthetic,
    random_tucker,
)
from tuckeropt.geometry import (
    Contractions,
    approx_project,
    choose_singular_complement,
    partial_project,
    stationarity_measure,
    tangent_entries_at,
    tangent_norm,
)
from tuckeropt.oracles import (
    _perp,
    _ref_tangent_entries_at,
    ambient_inner,
    angle_constants,
    embed,
    inner,
    sample_normal,
    tucker_rank,
)
from tuckeropt.tensor_core import (
    SparseCooTensor,
    fold,
    fro_norm,
    index_plan,
    mixed_eval,
    mode_product,
)
from tuckeropt.tucker import (
    TuckerTensor,
    hosvd_truncations,
    to_dense,
)

RNG = np.random.default_rng(7)
DIMS = (6, 6, 6)


def _instance(rlow=(2, 2, 2), r=(3, 3, 3), dims=DIMS, rng=RNG):
    X = random_tucker(dims, rlow, rng)
    A = rng.standard_normal(dims)
    return X, A, r


def _sparse(A, frac=0.3, rng=RNG):
    mask = rng.random(A.shape) < frac
    idx = np.argwhere(mask) + 1
    return SparseCooTensor(A.shape, idx, A[mask])


def test_tangent_norm_matches_embedding():
    X, A, r = _instance()
    V = approx_project(Contractions(X, A, r))
    assert tangent_norm(V) == pytest.approx(fro_norm(embed(V)), rel=1e-12)


def test_tangent_entries_match_embedding():
    X, A, r = _instance()
    V = approx_project(Contractions(X, A, r))
    E = embed(V)
    idx = np.column_stack([RNG.integers(1, n + 1, size=40) for n in DIMS])
    assert np.allclose(tangent_entries_at(V, index_plan(idx, DIMS)),
                       E[tuple(idx.T - 1)], atol=1e-12)
    # at the corner tuples of a 4^3 point, and on an empty plan
    rng = np.random.default_rng(13)
    X = random_tucker((4, 4, 4), (2, 2, 2), rng)
    V = approx_project(Contractions(X, rng.standard_normal((4, 4, 4)),
                                    (3, 3, 3)))
    idx = np.array([[4, 1, 1], [1, 4, 2]])
    assert np.allclose(tangent_entries_at(V, index_plan(idx, X.dims)),
                       _ref_tangent_entries_at(V, idx), atol=1e-12)
    empty = index_plan(np.zeros((0, 3)), X.dims)
    assert tangent_entries_at(V, empty).shape == (0,)


@pytest.mark.parametrize("width", [0, 1, 3])
def test_tangent_vector_takes_complements_of_exact_width(width):
    # bound (4, 4, 4) over rank (2, 2, 2): each Ucomp_k has exactly 2 columns
    X, A, _ = _instance()
    V = approx_project(Contractions(X, A, (4, 4, 4)))
    assert [Uc.shape for Uc in V.Ucomp] == [(6, 2)] * 3
    comps = list(V.Ucomp)
    comps[1] = np.zeros((6, width))
    with pytest.raises(ValueError, match="Ucomp_2"):
        geometry.TangentVector(X, V.C, V.Udot, comps)


def test_ambient_inner_dense_and_sparse():
    # a sparse A is densified: its inner product with V is the sum of its
    # values times V's entries at its tuples
    X, A, r = _instance()
    V = approx_project(Contractions(X, A, r))
    S = _sparse(A)
    assert ambient_inner(S, V) == pytest.approx(
        float(S.vals @ tangent_entries_at(V, S.plan)), rel=1e-10)


def test_projection_inner_product_identity():
    # <A, P(A)> = ||P(A)||^2 for the approximate projection
    X, A, r = _instance()
    V = approx_project(Contractions(X, A, r))
    assert ambient_inner(A, V) == pytest.approx(tangent_norm(V) ** 2,
                                                rel=1e-12)


def test_partial_projection_identity_and_branch():
    X, A, r = _instance()
    V, branch = partial_project(Contractions(X, A, r))
    assert 0 <= branch <= 3
    assert ambient_inner(A, V) == pytest.approx(tangent_norm(V) ** 2,
                                                rel=1e-12)


def _factor_branch(rng=RNG):
    """partial_project at a rank-(3, 2, 2) point X under the bound (3, 3, 3)
    of an A with nothing in span(U_1) in mode 1.  Mode 1 is at the bound, so
    every term that contracts mode 1 with U_1 vanishes, whatever the
    complements: the multilinear term and the mode terms k >= 2.  That
    leaves the mode-1 factor branch."""
    X, A, r = _instance(rlow=(3, 2, 2), r=(3, 3, 3), rng=rng)
    U = X.factors[0]
    A = A - mode_product(A, 1, U @ U.T)
    return partial_project(Contractions(X, A, r))


def test_partial_projection_factor_branch_stays_low_rank():
    V, branch = _factor_branch()
    X = V.anchor
    assert branch == 1
    # a factor branch lives in the tangent space at X: rank stays <= rlow
    Y = to_dense(X) + 0.1 * embed(V)
    assert all(a <= b for a, b in zip(tucker_rank(Y, 1e-8), X.rank))


def test_step_feasibility_partial_projection():
    # both partial-projection branches keep X + s*V inside the bounded-rank
    # set for every stepsize (this is what makes them retraction-free); the
    # approximate projection does not have this property in general
    X, A, r = _instance()
    V, _branch = partial_project(Contractions(X, A, r))
    for s in (0.5, 1.0, 3.0):
        Y = to_dense(X) + s * embed(V)
        assert all(a <= b for a, b in zip(tucker_rank(Y, 1e-8), r))


def test_sparse_dense_projection_agree():
    X, A, r = _instance()
    S = _sparse(A)
    Vd = approx_project(Contractions(X, S.to_dense(), r))
    Vs = approx_project(Contractions(X, S, r))
    assert np.allclose(embed(Vd), embed(Vs), atol=1e-10)


def test_tangent_space_project_full_rank():
    X, A, _ = _instance(rlow=(3, 3, 3), r=(3, 3, 3))
    V = approx_project(Contractions(X, A, X.rank))
    E = embed(V)
    # projection onto a linear space: residual orthogonal to the space
    W = approx_project(Contractions(X, A - E, X.rank))
    assert tangent_norm(W) < 1e-10 * fro_norm(A)


def test_complement_orthogonality():
    X, A, r = _instance(rlow=(2, 1, 2), r=(3, 3, 3))
    comps = choose_singular_complement(Contractions(X, A, r))
    for U, c, (rl, rk) in zip(X.factors, comps, zip(X.rank, r)):
        assert c.shape[1] == rk - rl
        assert np.allclose(U.T @ c, 0, atol=1e-12)
        assert np.allclose(c.T @ c, np.eye(c.shape[1]), atol=1e-12)


def test_stationarity_zero_at_minimizer():
    # gradient of f(Y) = 1/2||Y - X||^2 vanishes at X, so the measure is 0
    X, _, r = _instance()
    grad = np.zeros(DIMS)
    assert stationarity_measure(Contractions(X, grad, r)) == 0.0


def test_stationarity_detects_descent():
    X, A, r = _instance()
    grad = to_dense(X) - A
    stat = stationarity_measure(Contractions(X, grad, r))
    assert stat > 1e-3
    # every mode is below the bound, so the normal cone is {0} and the
    # measure is the whole gradient
    assert stat == pytest.approx(fro_norm(grad), rel=1e-12)


def test_stationarity_full_rank_point():
    X, A, _ = _instance(rlow=(3, 3, 3), r=(3, 3, 3))
    grad = to_dense(X) - A
    assert X.rank == (3, 3, 3)
    stat = stationarity_measure(Contractions(X, grad, (3, 3, 3)))
    # at a full-bound smooth point the measure vanishes iff the Riemannian
    # gradient does
    V = approx_project(Contractions(X, grad, X.rank))
    assert (stat < 1e-10) == (tangent_norm(V) < 1e-10)


# (dims, rank, bound): 6x6x6 deficient in every mode (where the normal cone
# is {0}) and in two modes, d = 2, d = 4, and a point with a full mode
# (rank_k = n_k, so span(U_k)^perp has width 0)
NORMAL_CASES = [(DIMS, (2, 2, 2), (3, 3, 3)), (DIMS, (2, 2, 2), (3, 2, 3)),
                ((6, 5), (2, 1), (3, 1)),
                ((4, 3, 5, 3), (2, 1, 2, 1), (3, 2, 2, 2)),
                ((5, 4, 6), (2, 4, 3), (3, 4, 3))]


def _normal_cases():
    for seed, (dims, rlow, r) in enumerate(NORMAL_CASES):
        yield _instance(rlow, r, dims, np.random.default_rng(seed))


def test_normal_cone_orthogonal_to_tangent_cone():
    for X, A, r in _normal_cases():
        for U in X.factors:
            P = _perp(U)
            n, q = U.shape
            assert P.shape == (n, n - q)
            assert np.allclose(U.T @ P, 0, atol=1e-12)
            assert np.allclose(P.T @ P, np.eye(n - q), atol=1e-12)
        W = sample_normal(X, r, seed=5)
        V = approx_project(Contractions(X, A, r))
        at_bound = any(a == b for a, b in zip(X.rank, r))
        assert (fro_norm(W) > 0) == at_bound and tangent_norm(V) > 0
        assert (abs(inner(W, embed(V)))
                <= 1e-10 * fro_norm(W) * tangent_norm(V))


def test_normal_vector_certifies_stationarity():
    # at X with gradient -W, W in the normal cone, the measure must vanish
    for X, _, r in _normal_cases():
        W = sample_normal(X, r, seed=11)
        stat = stationarity_measure(Contractions(X, -W, r))
        assert stat <= 1e-10 * fro_norm(W)


def test_angle_constants_values():
    wt, wh = angle_constants((6, 6, 6), (3, 3, 3), (2, 2, 2))
    c = (1 / 6) ** 3
    assert wt == pytest.approx(np.sqrt(c / 4))
    assert wh == pytest.approx(np.sqrt(c / 4))
    wt2, wh2 = angle_constants((6, 6, 6), (3, 3, 3), (3, 3, 3))
    assert wt2 == 1.0
    assert wh2 == pytest.approx(1 / 2)


def test_angle_condition_holds():
    # ||P(A)|| >= omega_tilde * ||A|| cannot hold for all A, but the angle
    # condition relative to the exact projection does; here we verify the
    # cheap sufficient check <A, P(A)> = ||P(A)||^2 > 0 for generic A
    X, A, r = _instance()
    V = approx_project(Contractions(X, A, r))
    assert tangent_norm(V) > 0


def _same(a, b):
    """Bitwise equality of nested tuples/lists of arrays and scalars."""
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return np.array_equal(a, b)


@pytest.mark.parametrize("pattern", [p for bits in np.ndindex(2, 2, 2)
                                     for p in [tuple(k for k in range(3)
                                                     if bits[k])]])
def test_shared_contractions_match_fresh_ones(pattern):
    # every kernel gives bit-identical results from one shared Contractions
    # object of A (as the solvers use it) and from its own fresh
    # contractions; the projections of -A, which the solvers take as the
    # negated projections of A, pick the same complements and branch and
    # negate C and Udot exactly
    rng = np.random.default_rng(31 + len(pattern))
    r = (3, 3, 3)
    rlow = tuple(rk - (k in pattern) for k, rk in enumerate(r))
    for A in (_sparse(rng.standard_normal(DIMS), rng=rng),
              rng.standard_normal(DIMS)):
        X = random_tucker(DIMS, rlow, rng)
        neg = (-A if isinstance(A, np.ndarray)
               else A.with_values(-1.0 * A.vals))
        fresh = (stationarity_measure(Contractions(X, A, r)),
                 choose_singular_complement(Contractions(X, neg, r)),
                 approx_project(Contractions(X, neg, r)),
                 partial_project(Contractions(X, neg, r)))
        shared = Contractions(X, A, r)
        got = (stationarity_measure(shared),
               choose_singular_complement(shared),
               approx_project(shared), partial_project(shared))
        assert got[0] == fresh[0]
        assert _same(got[1], fresh[1])
        for V, W in ((got[2], fresh[2]), (got[3][0], fresh[3][0])):
            assert _same((-V.C, tuple(-U for U in V.Udot), V.Ucomp),
                         (W.C, W.Udot, W.Ucomp))
        assert got[3][1] == fresh[3][1]


def test_contractions_are_formed_once_per_pattern(monkeypatch):
    # at a full-rank point the stationarity measure makes two sparse
    # contractions, (I, I, U) and (I, U, I), which give the d mode terms
    # and the core term; the projections then read them as they are
    X = random_tucker(DIMS, (3, 3, 3), RNG)
    G = _sparse(RNG.standard_normal(DIMS))
    calls = []
    contract = geometry.multi_mode_contract
    monkeypatch.setattr(geometry, "multi_mode_contract",
                        lambda *a: calls.append(a[2]) or contract(*a))
    shared = Contractions(X, G, (3, 3, 3))
    stationarity_measure(shared)
    assert calls == [1, 3]
    # so are the U-only mode residuals D_k - U_k (U_k^T D_k)
    residuals = [shared.mode_residual(k) for k in range(3)]
    approx_project(shared)
    partial_project(shared)
    assert calls == [1, 3]
    assert all(shared.mode_residual(k) is R for k, R in enumerate(residuals))
    # a mode at its bound widens by an empty complement: U_k itself
    assert all(shared.mode_residual(k, widen=True) is R
               for k, R in enumerate(residuals))


def test_derived_contractions_equal_direct_ones():
    # a pattern with two or more matrix modes is formed from the memoized
    # pattern with its first matrix mode left as it is; the result is the
    # one a fresh parent gives, bit for bit, and a pattern with one matrix
    # mode comes straight from the kernel (A sparse) or one mode product
    rng = np.random.default_rng(41)
    X = random_tucker(DIMS, (3, 2, 3), rng)
    comp = choose_singular_complement(
        Contractions(X, rng.standard_normal(DIMS), (3, 3, 3)))[1]

    def widened(A):
        # the point's complement on mode 2, the one deficient mode
        G = Contractions(X, A, (3, 3, 3))
        G.complements[1] = comp
        return G

    for A in (_sparse(rng.standard_normal(DIMS), rng=rng),
              rng.standard_normal(DIMS)):
        for modes in (("U", "U", "U"), ("U", "W", "U"), ("I", "W", "U"),
                      ("I", "I", "U"), ("I", "W", "I")):
            shared = widened(A)
            mats = [shared._mode_matrix(j, m) for j, m in enumerate(modes)]
            matrix = [j for j, M in enumerate(mats) if M is not None]
            got = shared.contract(modes)
            assert len(shared._memo) == len(matrix)
            if len(matrix) > 1:
                s = matrix[0]
                parent = widened(A).contract(
                    modes[:s] + ("I",) + modes[s + 1:])
                ref = mode_product(parent, s + 1, mats[s].T)
            elif isinstance(A, SparseCooTensor):
                skip = 3 if matrix == [1] else 1
                ref = fold(geometry.multi_mode_contract(A, mats, skip), skip,
                           got.shape)
            else:
                ref = mode_product(A, matrix[0] + 1, mats[matrix[0]].T)
            assert np.array_equal(got, ref)


def test_contract_takes_mode_tags_and_the_points_complement():
    # "W" on a mode at its bound is "U", under the same memo entry; on a
    # deficient mode it needs the complement chosen first; anything but
    # d tags "I", "U" or "W" is refused
    X, A, r = _instance(rlow=(3, 2, 3), r=(3, 3, 3))
    G = Contractions(X, A, r)
    assert G.contract(("W", "U", "W")) is G.contract(("U", "U", "U"))
    assert [c.shape for c in G.complements] == [(6, 0)] * 3
    with pytest.raises(ValueError, match="mode 2 has no complement"):
        G.contract(("U", "W", "U"))
    with pytest.raises(ValueError, match="mode 2 has no complement"):
        G.mode_residual(1, widen=True)
    comps = choose_singular_complement(G)
    assert G.complements == comps and comps[1].shape == (6, 1)
    wide = np.hstack([X.factors[1], comps[1]])
    assert np.allclose(G.contract(("U", "W", "U")),
                       mode_product(G.contract(("U", "I", "U")), 2, wide.T),
                       rtol=0, atol=1e-13 * fro_norm(A))
    for bad in (("U", "U"), ("U", comps[1], "U"), ("U", "V", "U")):
        with pytest.raises(ValueError, match="mode tags"):
            G.contract(bad)


def test_contractions_check_the_rank_bound():
    # beyond the rule every entry point applies (see test_solvers), the
    # bound is at least the point's rank in every mode
    rng = np.random.default_rng(5)
    X = random_tucker((5, 5, 5), (2, 2, 2), rng)
    A = rng.standard_normal((5, 5, 5))
    with pytest.raises(ValueError, match="exceeds bound"):
        Contractions(X, A, (2, 1, 2))
    G = Contractions(X, A, np.array([3, 2, 2]))
    assert G.bound == (3, 2, 2) and all(type(b) is int for b in G.bound)


def test_tangent_entries_at_a_rank_zero_anchor():
    # at the zero tensor the direction is all C, over the complements alone
    rng = np.random.default_rng(12)
    dims = (5, 4, 3)
    X = TuckerTensor(np.zeros((0, 0, 0)), [np.zeros((n, 0)) for n in dims])
    Ucomp = [np.linalg.qr(rng.standard_normal((n, 2)))[0] for n in dims]
    V = geometry.TangentVector(X, rng.standard_normal((2, 2, 2)),
                               [np.zeros((n, 0)) for n in dims], Ucomp)
    idx = np.argwhere(rng.random(dims) < 0.5) + 1
    ref = _ref_tangent_entries_at(V, idx)
    got = tangent_entries_at(V, index_plan(idx, dims))
    assert np.abs(ref).max() > 0.1
    assert np.allclose(got, ref, rtol=0, atol=1e-13)


def test_tangent_entries_skip_a_zero_core_block(monkeypatch):
    # a single-factor branch of the partial projection has C = 0: its
    # entries on Omega take one mixed_eval per nonzero Udot_k and none for C
    rng = np.random.default_rng(11)
    P, _ = gen_synthetic(DIMS, (2, 2, 2), 0.3, seed=4)
    V, branch = _factor_branch(rng)
    X = V.anchor
    assert branch >= 1 and not V.C.any()

    # reference: the C block evaluated as any other, zeros included
    plan = P.omega.plan
    wide = [np.hstack([U, Uc]) for U, Uc in zip(X.factors, V.Ucomp)]
    ref = mixed_eval(V.C, wide, plan)
    for k in range(X.ndim):
        if V.Udot[k].any():
            mats = [V.Udot[j] if j == k else X.factors[j] for j in range(X.ndim)]
            ref = ref + mixed_eval(X.core, mats, plan)
    ref_step = tangent_norm(V) ** 2 / float(ref @ ref)

    calls = []

    def counted(*args):
        calls.append(args)
        return mixed_eval(*args)

    monkeypatch.setattr(geometry, "mixed_eval", counted)
    assert np.array_equal(tangent_entries_at(V, plan), ref)
    assert len(calls) == sum(bool(Ud.any()) for Ud in V.Udot) >= 1
    step = completion_objective(P).initial_step(X, V)
    assert np.float64(step).tobytes() == np.float64(ref_step).tobytes()


def _served_patterns(X, cands, make_grad, r):
    """(candidate Contractions served from X's basis, fresh ones) after the
    complement choice and both projections have read every pattern."""
    truncs = hosvd_truncations(X, cands)
    grads = [make_grad(Xc) for Xc, _ in truncs]
    served = [Contractions(Xc, A, r, (Contractions(X, A, r), ws))
              for (Xc, ws), A in zip(truncs, grads)]
    for C in served:
        approx_project(C)
        partial_project(C)
    fresh = [Contractions(Xc, A, r) for (Xc, _), A in zip(truncs, grads)]
    return served, fresh


def _assert_close_patterns(served, fresh):
    for C, F in zip(served, fresh):
        assert C._memo, "no pattern was served"
        # "W" modes widen by the served object's complements in both
        F.complements[:] = C.complements
        for modes, D in C._memo.items():
            ref = F.contract(modes)
            assert D.shape == ref.shape
            assert np.linalg.norm(D - ref) <= 1e-13 * np.linalg.norm(ref)


def test_served_candidate_patterns_match_fresh_ones():
    # a candidate served from X's basis hands out, for every pattern its
    # complement choice and projections read, what contracting its own
    # gradient gives: every deficiency set, rank-0 (zero-width W)
    # candidates, sparse gradients on one plan, on two plans, and dense ones
    rng = np.random.default_rng(23)
    dims, r = (7, 6, 5), (3, 3, 3)
    X = random_tucker(dims, r, rng)
    cands = [rl for rl in itertools.product((2, 3), repeat=3) if rl != r]
    cands += [(0, 3, 3), (3, 1, 0)]
    plan_a = _sparse(rng.standard_normal(dims), rng=rng)
    plan_b = _sparse(rng.standard_normal(dims), rng=rng)

    def sparse_on(S):
        return lambda Xc: S.with_values(rng.standard_normal(S.nnz))

    alternating = itertools.cycle([plan_a, plan_b])
    for make_grad in (sparse_on(plan_a), lambda Xc: rng.standard_normal(dims),
                      lambda Xc: sparse_on(next(alternating))(Xc)):
        served, fresh = _served_patterns(X, cands, make_grad, r)
        _assert_close_patterns(served, fresh)
    # the zero-width candidates really are rank 0 in a mode
    assert {C.anchor.rank for C in served} >= {(0, 0, 0)}
