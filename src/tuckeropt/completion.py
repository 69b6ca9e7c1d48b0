"""Tucker tensor completion: objective, sparse gradient, synthetic instances.

``criterion8`` and ``criterion9`` build the two completion experiments the
acceptance suite and the trace gate run: one at the true rank, and one over
it, where the rank-decreasing solvers must lower the rank.

The training objective is the half squared error over the observed entries,
f(X) = 1/2 ||P_Omega(X) - P_Omega(A)||_F^2, and performance is tracked by the
relative test error over a disjoint held-out index set.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import geometry
from .geometry import tangent_norm
from .solvers import SOLVERS, ObjectiveHandle, SolverConfig
from .tensor_core import (
    SparseCooTensor,
    index_plan,
    load_coo,
    save_coo,
    thin_svd,
)
from .tucker import TuckerTensor, entries_at, hosvd

_SPECTRAL_INIT_LIMIT = 20_000_000  # densifying above this is refused


@dataclass(frozen=True)
class CompletionProblem:
    """Training observations P_Omega(A) and test observations P_Gamma(A)."""

    dims: tuple
    omega: SparseCooTensor
    gamma: SparseCooTensor
    p: float

    def __post_init__(self):
        dims = tuple(int(n) for n in self.dims)
        if self.omega.dims != dims or self.gamma.dims != dims:
            raise ValueError("observation dims disagree with problem dims")
        if not 0 < self.p <= 1:
            raise ValueError("sampling rate must lie in (0, 1]")
        for name, S in (("training set Omega", self.omega),
                        ("test set Gamma", self.gamma)):
            if not np.isfinite(S.vals).all():
                raise ValueError(f"non-finite values in the {name}")
        if self.omega.nnz and self.gamma.nnz:
            # Omega's tuples are sorted, so each of Gamma's is looked up in
            # them by binary search
            omega, gamma = _row_keys(self.omega.idx), _row_keys(self.gamma.idx)
            at = np.searchsorted(omega, gamma).clip(max=omega.size - 1)
            if (omega[at] == gamma).any():
                raise ValueError("training and test index sets overlap")
        object.__setattr__(self, "dims", dims)


def _row_keys(idx: np.ndarray) -> np.ndarray:
    """One opaque key per row of an (m, d) array of positive indices.

    A key holds the row's big-endian bytes, so keys compare bytewise in
    the rows' lexicographic order; no linear index is formed, so large dims
    cannot overflow one.
    """
    rows = np.ascontiguousarray(idx, dtype=">i8")
    return rows.view(np.dtype((np.void, rows.itemsize * idx.shape[1]))).ravel()


def _residual(P: CompletionProblem, X: TuckerTensor) -> np.ndarray:
    """P_Omega(X) - P_Omega(A) as a vector over Omega."""
    if X.dims != P.dims:
        raise ValueError(f"iterate dims {X.dims} do not match problem dims {P.dims}")
    return entries_at(X, P.omega.plan) - P.omega.vals


def euclidean_gradient(P: CompletionProblem, X: TuckerTensor) -> SparseCooTensor:
    """Gradient of the training objective; supported on Omega."""
    return P.omega.with_values(_residual(P, X))


def test_error(P: CompletionProblem, X: TuckerTensor) -> float:
    """Relative error over the held-out entries."""
    ref = float(np.linalg.norm(P.gamma.vals))
    if P.gamma.nnz == 0 or ref == 0:
        raise ValueError("test set is empty or identically zero")
    resid = entries_at(X, P.gamma.plan) - P.gamma.vals
    return float(np.linalg.norm(resid)) / ref


def random_tucker(dims, r, rng) -> TuckerTensor:
    """Random Tucker tensor: standard normal core, orthonormalized factors."""
    dims = tuple(int(n) for n in dims)
    r = tuple(int(x) for x in r)
    if len(r) != len(dims):
        raise ValueError(f"rank {r} has {len(r)} entries, dims {dims} have "
                         f"{len(dims)}")
    core = rng.standard_normal(r)
    factors = []
    for n, rk in zip(dims, r):
        U, _, _ = thin_svd(rng.standard_normal((n, rk)))
        factors.append(U[:, :rk])
    return TuckerTensor(core, tuple(factors))


def _sample_disjoint(total: int, m: int, rng) -> np.ndarray:
    """Draw 2m distinct linear indices from range(total) without materializing it."""
    if total <= 4 * 2 * m:
        perm = rng.permutation(total)
        return perm[:2 * m]
    chosen = np.empty(0, dtype=np.int64)
    need = 2 * m
    while chosen.size < need:
        cand = rng.integers(0, total, size=2 * (need - chosen.size))
        chosen = np.unique(np.concatenate([chosen, cand]))
    # unique() sorts; re-shuffle deterministically before splitting
    chosen = chosen[rng.permutation(chosen.size)][:need]
    return chosen


def gen_synthetic(n, r_true, p: float, seed: int):
    """Synthetic completion instance with a known low-rank ground truth.

    Returns (CompletionProblem, ground_truth).  Omega and Gamma are disjoint
    uniform samples of round(p * prod n) tuples each.
    """
    dims = tuple(int(x) for x in n)
    if not 0 < p <= 1:
        raise ValueError("sampling rate must lie in (0, 1]")
    total = int(np.prod(dims, dtype=np.int64))
    m = int(round(p * total))
    if 2 * m > total:
        raise ValueError("sampling rate too large for disjoint train/test sets")
    rng = np.random.default_rng(seed)
    truth = random_tucker(dims, r_true, rng)
    lin = _sample_disjoint(total, m, rng)
    idx = np.column_stack(np.unravel_index(lin, dims, order="F")) + 1
    omega_idx = idx[:m]
    gamma_idx = idx[m:2 * m]
    omega = SparseCooTensor(dims, omega_idx,
                            entries_at(truth, index_plan(omega_idx, dims)))
    gamma = SparseCooTensor(dims, gamma_idx,
                            entries_at(truth, index_plan(gamma_idx, dims)))
    return CompletionProblem(dims, omega, gamma, p), truth


def check_spectral_fits(dims) -> None:
    """Refuse spectral initialization of a tensor of more entries than
    ``_SPECTRAL_INIT_LIMIT``, which it would densify."""
    if int(np.prod(dims, dtype=np.int64)) > _SPECTRAL_INIT_LIMIT:
        raise ValueError("problem too large for spectral initialization; "
                         "use --init random")


def spectral_init(P: CompletionProblem, r) -> TuckerTensor:
    """HOSVD of the zero-filled observations rescaled by 1/p."""
    check_spectral_fits(P.dims)
    return hosvd(P.omega.to_dense() / P.p, r)


class Experiment(NamedTuple):
    """A completion problem, the start point and rank bound every solver
    runs from, and each solver's configuration (keyed as ``SOLVERS``)."""

    problem: CompletionProblem
    X0: TuckerTensor
    rank: tuple
    configs: dict


def criterion8() -> Experiment:
    """Completion at the true rank: 40^3, rank (4,4,4), p = 0.1, from the
    spectral start."""
    P, _ = gen_synthetic((40, 40, 40), (4, 4, 4), 0.1, seed=0)
    return Experiment(P, spectral_init(P, (4, 4, 4)), (4, 4, 4),
                      dict.fromkeys(SOLVERS, SolverConfig(max_iters=300)))


def criterion9() -> Experiment:
    """Completion over the true rank: 30^3, true rank (2,2,2), bound
    (4,4,4), p = 0.3, from a random rank-(4,4,4) start.  The plain solvers
    keep the default tolerances; the rank-decreasing ones run to
    stationarity 1e-14 with threshold delta = 0.2."""
    P, _ = gen_synthetic((30, 30, 30), (2, 2, 2), 0.3, seed=29)
    X0 = random_tucker(P.dims, (4, 4, 4), np.random.default_rng(1029))
    plain = SolverConfig(max_iters=90)
    decreasing = SolverConfig(max_iters=90, stat_tol=1e-14, delta=0.2,
                              candidate_cap=150)
    return Experiment(P, X0, (4, 4, 4), {
        "grap": plain, "rfgrap": plain,
        "grap-r": decreasing, "rfgrap-r": decreasing})


def completion_objective(P: CompletionProblem):
    """ObjectiveHandle for P with the exact quadratic initial stepsize.

    Along a tangent direction V the objective is an exactly known parabola,
    so the proposed stepsize is its minimizer ||V||^2 / ||P_Omega(V)||^2
    (None when the direction leaves the observed entries unchanged).

    f, grad f and (f, grad f) share the residual on Omega of the point they
    were last called with (matched by identity), so the gradient at the
    point a line search accepted does not gather its entries again.
    """
    def initial_step(X, V):
        # looked up on the module, so that a wrapper installed there sees it
        masked = geometry.tangent_entries_at(V, P.omega.plan)
        denom = float(masked @ masked)
        if denom == 0.0:
            return None
        return tangent_norm(V) ** 2 / denom

    # the latest point evaluated and its residual: the line search
    # evaluates f last at the point it accepts, whose gradient comes next
    last = [None, None]

    def residual(X):
        if last[0] is not X:
            last[:] = X, _residual(P, X)
        return last[1]

    def eval_f(X):
        resid = residual(X)
        return 0.5 * float(resid @ resid)

    def grad(X):
        return P.omega.with_values(residual(X))

    return ObjectiveHandle(
        eval=eval_f,
        grad=grad,
        initial_step=initial_step,
        test_metric=(lambda X: test_error(P, X)) if P.gamma.nnz else None,
        eval_grad=lambda X: (eval_f(X), grad(X)),
    )


# ---------------------------------------------------------------------------
# Problem bundle directory layout: omega.coo, gamma.coo, meta.json

def save_problem(P: CompletionProblem, directory, seed=None, r_true=None) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    save_coo(P.omega, directory / "omega.coo")
    save_coo(P.gamma, directory / "gamma.coo")
    meta = {"dims": list(P.dims), "p": P.p}
    if seed is not None:
        meta["seed"] = seed
    if r_true is not None:
        meta["r_true"] = list(r_true)
    (directory / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")


def load_problem(directory) -> CompletionProblem:
    """Read a bundle that :func:`save_problem` wrote; a meta.json without
    integer ``dims`` and a numeric ``p``, or data that a
    :class:`CompletionProblem` rejects, raises a ``ValueError`` that names
    the bundle."""
    directory = Path(directory)
    omega = load_coo(directory / "omega.coo")
    gamma = load_coo(directory / "gamma.coo")
    try:
        meta = json.loads((directory / "meta.json").read_text())
        if not (isinstance(meta, dict) and isinstance(meta.get("dims"), list)
                and all(type(n) is int for n in meta["dims"])
                and type(meta.get("p")) in (int, float)):
            raise ValueError(f"meta.json needs integer dims and a number p, "
                             f"not {meta!r}")
        return CompletionProblem(tuple(meta["dims"]), omega, gamma, meta["p"])
    except ValueError as e:
        raise ValueError(f"{directory}: {e}") from e
