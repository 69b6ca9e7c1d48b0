"""Brute-force reference implementations for small-scale verification.

Everything here recomputes quantities by naive dense formulas (explicit
Kronecker products, full densification) so that the structured fast paths can
be checked against an independent computational path.  This includes the
dense geometry that only verification needs: the embedding of a tangent
vector, normal-cone sampling and the angle-condition constants.  The exact
tangent-cone projection, intractable in general, is approached by
multi-start alternating maximization and reported as a certified lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .completion import completion_objective, gen_synthetic, random_tucker
from .geometry import (
    Contractions,
    TangentVector,
    approx_project,
    choose_singular_complement,
    partial_project,
    stationarity_measure,
    tangent_norm,
)
from .tensor_core import (
    DEFAULT_RANK_TOL,
    SparseCooTensor,
    cutoff_rank,
    fold,
    unfold,
)
from .tucker import TuckerTensor, check_bound, hosvd, to_dense

_ORACLE_MAX_DIM = 6
_ORACLE_MAX_ORDER = 3


@dataclass(frozen=True)
class OracleReport:
    """Outcome of one verification suite."""

    name: str
    instances_run: int
    max_violation: float
    tolerance: float
    margins: tuple

    @property
    def passed(self) -> bool:
        return self.max_violation <= self.tolerance

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "instances_run": self.instances_run,
            "max_violation": self.max_violation,
            "tolerance": self.tolerance,
            "pass": bool(self.passed),
            "margins": list(self.margins),
        }


# ---------------------------------------------------------------------------
# Naive dense helpers (independent of the structured fast paths)

def _kron_desc(mats) -> np.ndarray:
    """Kronecker product in descending mode order (matches mode-1-fastest
    vectorization: (X x_j A_j)_(k) = A_k X_(k) (A_d kron ... kron A_1)^T)."""
    mats = list(mats)
    if not mats:
        return np.eye(1)
    return reduce(np.kron, reversed(mats))


def _naive_multi_contract(A: np.ndarray, mats, k: int) -> np.ndarray:
    """(A x_{j != k} mats[j]^T)_(k) by one explicit Kronecker product."""
    others = [np.eye(A.shape[j]) if mats[j] is None else mats[j]
              for j in range(A.ndim) if j != k - 1]
    return unfold(A, k) @ _kron_desc(others)


def _naive_apply_all(A: np.ndarray, mats) -> np.ndarray:
    """A x_k mats[k] over all modes (dense, via the mode-1 unfolding)."""
    out_dims = tuple(M.shape[0] for M in mats)
    M1 = mats[0] @ unfold(A, 1) @ _kron_desc(mats[1:]).T
    return fold(M1, 1, out_dims)


def _best_rank_approx(M: np.ndarray, r: int) -> np.ndarray:
    """Best rank-r approximation of a matrix (Eckart-Young)."""
    if not 0 <= r <= min(M.shape):
        raise ValueError(f"rank {r} out of range for {M.shape} matrix")
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    return (U[:, :r] * s[:r]) @ Vt[:r]


def _dense_tucker(T: TuckerTensor) -> np.ndarray:
    return _naive_apply_all(T.core, list(T.factors))


def _dense(A) -> np.ndarray:
    return A.to_dense() if isinstance(A, SparseCooTensor) else np.asarray(A)


def _widen(X: TuckerTensor, complements) -> list:
    """The per-mode bases [U_k | Ucomp_k]."""
    return [np.hstack([U, c]) for U, c in zip(X.factors, complements)]


def tucker_rank(A: np.ndarray, tau: float = DEFAULT_RANK_TOL) -> tuple:
    """Numerical rank of every unfolding A_(k): the count of its singular
    values above tau * sigma_1 (:func:`~tuckeropt.tensor_core.cutoff_rank`)."""
    if not 0 < tau < 1:
        raise ValueError("tau must lie in (0, 1)")
    return tuple(cutoff_rank(np.linalg.svd(unfold(A, k), compute_uv=False),
                             tau) for k in range(1, A.ndim + 1))


def _perp(U: np.ndarray) -> np.ndarray:
    """Orthonormal basis of span(U)^perp (U has orthonormal columns)."""
    n, r = U.shape
    return np.linalg.svd(U, full_matrices=True)[0][:, r:] if r else np.eye(n)


def _row_space_terms(X: TuckerTensor, A: np.ndarray) -> list:
    """D_k pinv(G_(k)) G_(k) per mode k, where D_k is the mode-k unfolding of
    the mode term A x_{j != k} U_j^T at X."""
    out = []
    for k in range(X.ndim):
        D = _naive_multi_contract(A, [None if j == k else U for j, U
                                      in enumerate(X.factors)], k + 1)
        Gk = unfold(X.core, k + 1)
        out.append(D @ np.linalg.pinv(Gk) @ Gk)
    return out


def _projection_terms(X: TuckerTensor, A: np.ndarray, S, B) -> list:
    """The d + 1 terms of a tangent-cone projection of A at X.

    The core term A x_k S_k S_k^T, then for each mode k the factor term:
    (I - B_k B_k^T) D_k pinv(G_(k)) G_(k) in mode k, U_j in the others.  The
    approximate projection is their sum with B = S = [U | Ucomp]; the
    partial projection keeps the largest of them with B_k = U_k.
    """
    terms = [_naive_apply_all(A, [Sk @ Sk.T for Sk in S])]
    for k, (E, Bk) in enumerate(zip(_row_space_terms(X, A), B)):
        M = E - Bk @ (Bk.T @ E)
        others = [U for j, U in enumerate(X.factors) if j != k]
        terms.append(fold(M @ _kron_desc(others).T, k + 1, X.dims))
    return terms


# ---------------------------------------------------------------------------
# Dense geometry: embedding, the tangent space, the normal cone

def embed(V: TangentVector) -> np.ndarray:
    """Ambient (dense) tensor represented by V."""
    X = V.anchor
    out = _naive_apply_all(V.C, _widen(X, V.Ucomp))
    for k, Ud in enumerate(V.Udot):
        out = out + _naive_apply_all(X.core, [Ud if j == k else U for j, U
                                              in enumerate(X.factors)])
    return out


def inner(X: np.ndarray, Y: np.ndarray) -> float:
    if X.shape != Y.shape:
        raise ValueError(f"shape mismatch {X.shape} vs {Y.shape}")
    return float(np.dot(X.ravel(), Y.ravel()))


def ambient_inner(A, V: TangentVector) -> float:
    """<A, embed(V)> for dense or sparse A."""
    return inner(_dense(A), embed(V))


def sample_normal(X: TuckerTensor, r, seed) -> np.ndarray:
    """Random element of the normal cone at X for rank bound r.

    Builds the block parametrization over {span(U_k), span(U_k)^perp}: blocks
    supported purely on deficient modes vanish, and single-complement blocks
    are constrained to the null space of the matching core unfolding.
    """
    rlow = X.rank
    d = X.ndim
    deficient = {k for k in range(d) if rlow[k] < int(r[k])}
    rng = np.random.default_rng(seed)
    perp = [_perp(U) for U in X.factors]
    W = np.zeros(X.dims)
    for bits in np.ndindex(*([2] * d)):
        if not any(bits[k] for k in range(d) if k not in deficient):
            continue
        bases = [perp[k] if bits[k] else X.factors[k] for k in range(d)]
        shape = tuple(B.shape[1] for B in bases)
        if 0 in shape:
            continue
        C = rng.standard_normal(shape)
        if sum(bits) == 1:
            k = bits.index(1)
            Gk = unfold(X.core, k + 1)
            Ck = unfold(C, k + 1)
            C = fold(Ck - Ck @ np.linalg.pinv(Gk) @ Gk, k + 1, shape)
        W += _naive_apply_all(C, bases)
    return W


def _deficiency(dims, r, rlow) -> float:
    """Product over the deficient modes k of (r_k - rlow_k) / min(n_k, N/n_k),
    with N the number of entries."""
    total = int(np.prod(dims, dtype=np.int64))
    return float(np.prod([(rk - rl) / min(n, total // n)
                          for n, rk, rl in zip(dims, r, rlow) if rl < rk]))


def angle_constants(dims, r, rlow):
    """(omega_tilde, omega_hat) lower bounds for the two angle conditions."""
    dims = tuple(int(n) for n in dims)
    r = check_bound(r, dims)
    rlow = tuple(int(x) for x in rlow)
    c = _deficiency(dims, r, rlow)
    n_deficient = sum(a < b for a, b in zip(rlow, r))
    return (float(np.sqrt(c / (n_deficient + 1))),
            float(np.sqrt(c / (len(dims) + 1))))


# ---------------------------------------------------------------------------
# Exact tangent-cone projection (lower bound by alternating maximization)

def _projection_value_sq(A, S, E):
    """||P_T(A)||^2 for the tangent space spanned by complements inside S."""
    total = float(np.sum(_naive_apply_all(A, [Sk.T for Sk in S]) ** 2))
    for Ek, Sk in zip(E, S):
        M = Ek - Sk @ (Sk.T @ Ek)
        total += float(np.sum(M * M))
    return total


def exact_tangent_projection_oracle(X: TuckerTensor, A: np.ndarray, r,
                                    restarts: int, seed):
    """Best-found exact projection of A onto the tangent cone at X.

    Maximizes the projection norm over the free orthonormal complements by
    multi-start alternating per-mode eigenvector updates.  The returned value
    is a certified lower bound on the true projection norm; the returned
    tensor is the embedded projection achieving it.
    """
    d = X.ndim
    dims = X.dims
    r = check_bound(r, dims)
    if d > _ORACLE_MAX_ORDER or any(n > _ORACLE_MAX_DIM for n in dims):
        raise ValueError(f"oracle limited to order {_ORACLE_MAX_ORDER}, "
                         f"mode size {_ORACLE_MAX_DIM}; got dims {dims}")
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    rlow = X.rank
    rng = np.random.default_rng(seed)
    U = list(X.factors)
    E = _row_space_terms(X, A)      # independent of the complements
    qs = [r[k] - rlow[k] for k in range(d)]
    perp = [_perp(Uk) for Uk in U]

    best_val = -np.inf
    best_W = None
    for _restart in range(restarts):
        W = []
        for k in range(d):
            if qs[k] == 0:
                W.append(np.zeros((dims[k], 0)))
                continue
            M = rng.standard_normal((dims[k], qs[k]))
            M = M - U[k] @ (U[k].T @ M)
            Q, _ = np.linalg.qr(M)
            W.append(Q[:, :qs[k]])
        val = _projection_value_sq(A, _widen(X, W), E)
        for _sweep in range(50):
            for k in range(d):
                if qs[k] == 0:
                    continue
                S = _widen(X, W)
                Bmats = [None if j == k else Sj @ Sj.T
                         for j, Sj in enumerate(S)]
                B = _naive_multi_contract(A, Bmats, k + 1)
                Q = perp[k]
                M = Q.T @ (B @ B.T - E[k] @ E[k].T) @ Q
                evals, evecs = np.linalg.eigh((M + M.T) / 2)
                top = evecs[:, ::-1][:, :qs[k]]
                W[k] = Q @ top
            new_val = _projection_value_sq(A, _widen(X, W), E)
            if new_val - val <= 1e-12 * max(1.0, abs(val)):
                val = new_val
                break
            val = new_val
        if val > best_val:
            best_val = val
            best_W = [w.copy() for w in W]

    V = _ref_approx_project(X, A, best_W)
    return V, float(np.linalg.norm(V.ravel()))


# ---------------------------------------------------------------------------
# Finite differences

def finite_diff_gradient(f, X, coords, h: float):
    """Central differences of f on ambient coordinates of a dense copy of X."""
    if h <= 0:
        raise ValueError("h must be positive")
    dense = to_dense(X) if isinstance(X, TuckerTensor) else np.array(X, dtype=float)
    out = []
    for c in coords:
        at = tuple(int(i) - 1 for i in c)
        orig = dense[at]
        dense[at] = orig + h
        fp = f(dense)
        dense[at] = orig - h
        fm = f(dense)
        dense[at] = orig
        out.append((fp - fm) / (2 * h))
    return out


# ---------------------------------------------------------------------------
# Dense references for the structured operations: _ref_<op> recomputes <op>
# by naive dense formulas and is the source of truth its tests compare with.

def _check_small(dims):
    if int(np.prod(dims, dtype=np.int64)) > 20000:
        raise ValueError(f"instance too large for dense reference: {dims}")


def _ref_approx_project(X: TuckerTensor, A, complements) -> np.ndarray:
    _check_small(X.dims)
    S = _widen(X, complements)
    return sum(_projection_terms(X, _dense(A), S, S))


def _ref_partial_project(X: TuckerTensor, A, complements):
    _check_small(X.dims)
    cands = _projection_terms(X, _dense(A), _widen(X, complements), X.factors)
    norms = [float(np.linalg.norm(c.ravel())) for c in cands]
    branch = int(np.argmax(norms))
    return cands[branch], branch


def _ref_stationarity(X: TuckerTensor, grad, r) -> float:
    _check_small(X.dims)
    G = _dense(grad)
    d = X.ndim
    rlow = X.rank
    r = tuple(int(x) for x in r)
    U = list(X.factors)
    deficient = [k for k in range(d) if rlow[k] < r[k]]
    proj = [None if k in deficient else U[k] @ U[k].T for k in range(d)]
    core_part = _naive_apply_all(
        G, [np.eye(X.dims[k]) if proj[k] is None else proj[k]
            for k in range(d)])
    total = float(np.sum(core_part ** 2))
    for k in range(d):
        if k in deficient:
            continue
        D = _naive_multi_contract(G, [None if j == k else U[j]
                                      for j in range(d)], k + 1)
        M = (D - U[k] @ (U[k].T @ D)) @ unfold(X.core, k + 1).T
        total += float(np.sum(M * M))
    return float(np.sqrt(total))


def _ref_hosvd_truncate(T: TuckerTensor, r) -> np.ndarray:
    _check_small(T.dims)
    A = _dense_tucker(T)
    core = A
    factors = []
    for k in range(1, A.ndim + 1):
        M = unfold(core, k)
        Uk, sig, _ = np.linalg.svd(M, full_matrices=False)
        rk = min(int(r[k - 1]), int(np.sum(sig > 1e-12 * sig[0])) if sig.size and sig[0] > 0 else 0)
        Uk = Uk[:, :rk]
        dims = tuple(rk if j == k - 1 else core.shape[j] for j in range(A.ndim))
        core = fold(Uk.T @ M, k, dims)
        factors.append(Uk)
    return _naive_apply_all(core, factors) if core.size else np.zeros(T.dims)


def _ref_multi_mode_contract(S: SparseCooTensor, factors, skip: int) -> np.ndarray:
    _check_small(S.dims)
    return _naive_multi_contract(S.to_dense(), list(factors), skip)


def _ref_projected_unfolding_r(S: SparseCooTensor, U: np.ndarray,
                               k: int) -> np.ndarray:
    """R factor of ((I - U U^T) S_(k))^T by QR of the dense transpose."""
    _check_small(S.dims)
    M = unfold(S.to_dense(), k)
    return np.linalg.qr((M - U @ (U.T @ M)).T, mode="r")


def _ref_contract(A, mats) -> np.ndarray:
    """A x_k mats[k]^T over every mode (None: identity), fully dense."""
    sparse = isinstance(A, SparseCooTensor)
    _check_small(A.dims if sparse else A.shape)
    A = A.to_dense() if sparse else A
    return _naive_apply_all(A, [np.eye(n) if M is None else M.T
                                for n, M in zip(A.shape, mats)])


def _ref_add_scaled_tangent(T: TuckerTensor, s: float, V: TangentVector) -> np.ndarray:
    _check_small(T.dims)
    return _dense_tucker(T) + s * embed(V)


def _ref_entries_at(T: TuckerTensor, idx) -> np.ndarray:
    _check_small(T.dims)
    dense = _dense_tucker(T)
    idx = np.atleast_2d(np.asarray(idx, dtype=np.int64))
    return np.array([dense[tuple(row - 1)] for row in idx])


def _ref_tangent_entries_at(V: TangentVector, idx) -> np.ndarray:
    _check_small(V.anchor.dims)
    dense = embed(V)
    idx = np.atleast_2d(np.asarray(idx, dtype=np.int64))
    return np.array([dense[tuple(row - 1)] for row in idx])


# ---------------------------------------------------------------------------
# Verification suites (shared by the `check` command and the test suite)

def _random_deficient_instance(rng, dims=(4, 4, 4), rmax=2,
                               ensure_deficient=False):
    d = len(dims)
    r = tuple(int(rng.integers(1, rmax + 1)) for _ in range(d))
    rlow = [int(rng.integers(1, rk + 1)) for rk in r]
    if ensure_deficient and all(a == b for a, b in zip(rlow, r)):
        # force strict deficiency so the angle constants are < 1 (the
        # equality case r_low = r is exercised by the identity checks)
        r = tuple(max(rk, 2) if k == 0 else rk for k, rk in enumerate(r))
        rlow[0] = r[0] - 1
    rlow = tuple(rlow)
    X = random_tucker(dims, rlow, rng)
    A = rng.standard_normal(dims)
    return X, A, r


def suite_angle(seed=0, instances=20, restarts=100) -> OracleReport:
    """Angle conditions of both projections against the oracle lower bound."""
    rng = np.random.default_rng(seed)
    margins = []
    worst = -np.inf
    for i in range(instances):
        X, A, r = _random_deficient_instance(rng, ensure_deficient=True)
        _, value = exact_tangent_projection_oracle(
            X, A, r, restarts=restarts, seed=rng.integers(2 ** 31))
        wt, wh = angle_constants(X.dims, r, X.rank)
        Vt = approx_project(Contractions(X, A, r))
        Vh, _ = partial_project(Contractions(X, A, r))
        nt = tangent_norm(Vt)
        nh = tangent_norm(Vh)
        v1 = wt * value - nt                       # must be <= 0
        v2 = wh * value * nh - ambient_inner(A, Vh)  # must be <= 0
        worst = max(worst, v1, v2)
        margins.append(max(v1, v2))
    return OracleReport("angle", instances, float(worst), 0.0, tuple(margins))


def suite_complement(seed=0, instances=50) -> OracleReport:
    """Lower bound satisfied by the constructed singular complements."""
    rng = np.random.default_rng(seed)
    margins = []
    worst = -np.inf
    for i in range(instances):
        X, A, r = _random_deficient_instance(rng, dims=(5, 4, 6), rmax=3)
        comps = choose_singular_complement(Contractions(X, A, r))
        d = X.ndim
        S = _widen(X, comps)
        deficient = [k for k in range(d) if X.rank[k] < r[k]]
        lhs_mats = [S[k] @ S[k].T if k in deficient
                    else X.factors[k] @ X.factors[k].T for k in range(d)]
        rhs_mats = [np.eye(X.dims[k]) if k in deficient
                    else X.factors[k] @ X.factors[k].T for k in range(d)]
        lhs = float(np.linalg.norm(_naive_apply_all(A, lhs_mats).ravel()))
        base = float(np.linalg.norm(_naive_apply_all(A, rhs_mats).ravel()))
        factor = np.sqrt(_deficiency(X.dims, r, X.rank))
        viol = base * factor - lhs - 1e-12 * max(1.0, base)
        worst = max(worst, viol)
        margins.append(viol)
    return OracleReport("complement", instances, float(worst), 0.0, tuple(margins))


def suite_normal(seed=0, instances=50) -> OracleReport:
    """Sampled normal-cone elements are orthogonal to sampled tangent vectors."""
    rng = np.random.default_rng(seed)
    margins = []
    worst = -np.inf
    for i in range(instances):
        X, A, r = _random_deficient_instance(rng, dims=(5, 5, 5), rmax=3)
        W = sample_normal(X, r, seed=rng.integers(2 ** 31))
        V = approx_project(Contractions(X, A, r))
        nw = float(np.linalg.norm(W.ravel()))
        nv = tangent_norm(V)
        if nw == 0 or nv == 0:
            margins.append(0.0)
            continue
        rel = abs(ambient_inner(W, V)) / (nw * nv)
        stat = stationarity_measure(Contractions(X, -W, r))
        viol = max(rel - 1e-10, stat - 1e-10 * nw)
        worst = max(worst, viol)
        margins.append(viol)
    return OracleReport("normal", instances, float(worst), 0.0, tuple(margins))


def suite_hosvd(seed=0, instances=50) -> OracleReport:
    """Quasi-optimality-style bounds of the sequentially truncated HOSVD."""
    rng = np.random.default_rng(seed)
    margins = []
    worst = -np.inf
    for i in range(instances):
        dims = (6, 5, 6)
        r = tuple(int(rng.integers(1, 4)) for _ in range(3))
        A = rng.standard_normal(dims)
        Y = to_dense(random_tucker(dims, r, rng))
        H = to_dense(hosvd(A, r))
        d = 3
        ref = float(np.linalg.norm((A - Y).ravel()))
        v1 = float(np.linalg.norm((H - Y).ravel())) - (np.sqrt(d) + 1) * ref
        v2 = float(np.linalg.norm((A - H).ravel())) - np.sqrt(d) * ref
        viol = max(v1, v2) - 1e-10
        worst = max(worst, viol)
        margins.append(viol)
    return OracleReport("hosvd", instances, float(worst), 0.0, tuple(margins))


def euclidean_gradient(P, X: TuckerTensor) -> SparseCooTensor:
    """Gradient of the completion objective on Omega, as its solvers see it."""
    return completion_objective(P).grad(X)


def suite_gradient(seed=0, instances=5) -> OracleReport:
    """Completion gradient vs central finite differences."""
    rng = np.random.default_rng(seed)
    margins = []
    worst = -np.inf
    for i in range(instances):
        P, truth = gen_synthetic((5, 4, 5), (2, 2, 2), 0.4,
                                 seed=int(rng.integers(2 ** 31)))
        X = random_tucker(P.dims, (2, 2, 2), rng)
        g = euclidean_gradient(P, X).to_dense()
        pick = rng.permutation(P.omega.nnz)[:10]
        coords = P.omega.idx[pick]
        dense_X = to_dense(X)
        h = 1e-6 * (1 + float(np.abs(dense_X).max()))

        def f(T):
            vals = np.array([T[tuple(row - 1)] for row in P.omega.idx])
            return 0.5 * float(np.sum((vals - P.omega.vals) ** 2))

        fd = finite_diff_gradient(f, X, coords, h)
        scale = max(1.0, float(np.abs(g).max()))
        rel = max(abs(g[tuple(c - 1)] - v) for c, v in zip(coords, fd)) / scale
        viol = rel - 1e-6
        worst = max(worst, viol)
        margins.append(viol)
    return OracleReport("gradient", instances, float(worst), 0.0, tuple(margins))


CHECK_SUITES = {
    "angle": suite_angle,
    "complement": suite_complement,
    "normal": suite_normal,
    "hosvd": suite_hosvd,
    "gradient": suite_gradient,
}


def run_check_suites(names=None, seed=0, restarts=100):
    """Run the named verification suites (all by default); returns reports."""
    if names is None:
        names = list(CHECK_SUITES)
    reports = []
    for name in names:
        if name not in CHECK_SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from "
                             f"{sorted(CHECK_SUITES)}")
        fn = CHECK_SUITES[name]
        if name == "angle":
            reports.append(fn(seed=seed, restarts=restarts))
        else:
            reports.append(fn(seed=seed))
    return reports
