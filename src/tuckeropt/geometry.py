"""Variational geometry of the bounded-Tucker-rank set, as the solvers use it.

Provides tangent-cone vectors in the parametrization (C, Udot_k, Ucomp_k),
the per-iterate contractions they are built from, the SVD-based approximate
projection and the retraction-free partial projection, and the normal-cone
stationarity measure.  Everything here is on the solver path; the dense
geometry that only verifies it (embedding, normal-cone sampling, the angle
constants) is in :mod:`tuckeropt.oracles`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor_core import (
    IndexPlan,
    SparseCooTensor,
    cutoff_rank,
    fold,
    fro_norm,
    mixed_eval,
    mode_product,
    multi_mode_contract,
    projected_unfolding_r,
    thin_svd,
    unfold,
)
from .tucker import TuckerTensor, check_bound


@dataclass(frozen=True)
class TangentVector:
    """Tangent-cone element at ``anchor`` under the rank bound ``C.shape``.

    Represents C x_k [U_k Ucomp_k] + sum_k G x_k Udot_k x_{j!=k} U_j with the
    orthogonality constraints U_k^T [Ucomp_k Udot_k] = 0, Ucomp_k^T Udot_k = 0.
    Each Ucomp_k has exactly C.shape[k] - rank_k columns, so that
    [U_k Ucomp_k] spans mode k of C.
    """

    anchor: TuckerTensor
    C: np.ndarray
    Udot: tuple
    Ucomp: tuple

    def __post_init__(self):
        rlow = self.anchor.rank
        for k, (Ud, Uc) in enumerate(zip(self.Udot, self.Ucomp)):
            n = self.anchor.dims[k]
            if Ud.shape != (n, rlow[k]):
                raise ValueError(f"Udot_{k + 1} has shape {Ud.shape}")
            if Uc.shape != (n, self.C.shape[k] - rlow[k]):
                raise ValueError(f"Ucomp_{k + 1} has shape {Uc.shape}")
        object.__setattr__(self, "Udot", tuple(self.Udot))
        object.__setattr__(self, "Ucomp", tuple(self.Ucomp))


def _widen(U: np.ndarray, comp: np.ndarray) -> np.ndarray:
    """[U | comp], or U itself when comp has no columns."""
    return np.hstack([U, comp]) if comp.shape[1] else U


def tangent_norm(V: TangentVector) -> float:
    """Frobenius norm of the ambient tensor that V represents, from the
    orthogonal decomposition of the parametrization."""
    G = V.anchor.core
    total = float(np.dot(V.C.ravel(), V.C.ravel()))
    for k, Ud in enumerate(V.Udot, start=1):
        M = Ud @ unfold(G, k)
        total += float(np.dot(M.ravel(), M.ravel()))
    return float(np.sqrt(total))


def tangent_entries_at(V: TangentVector, plan: IndexPlan) -> np.ndarray:
    """Entries of the ambient tensor that V represents at the tuples of
    ``plan``, without densifying (see :func:`~tuckeropt.tucker.entries_at`).
    """
    X = V.anchor
    if V.C.any():
        vals = mixed_eval(V.C, [_widen(U, Uc) for U, Uc
                                in zip(X.factors, V.Ucomp)], plan)
    else:       # partial_project's single-factor branches have C = 0
        vals = np.zeros(len(plan))
    for k in range(X.ndim):
        if not V.Udot[k].any():
            continue
        mats = [V.Udot[j] if j == k else X.factors[j] for j in range(X.ndim)]
        vals = vals + mixed_eval(X.core, mats, plan)
    return vals


class Contractions:
    """The partial contractions of one ambient tensor A at one point X.

    The stationarity measure and both tangent-cone projections at X are
    built from contractions A x_j B_j^T of the same A (at an iterate, the
    gradient), where each mode's B_j is the identity, the factor U_j of X
    or the widened basis [U_j | Ucomp_j].  :meth:`contract` forms each of
    them on first request and keeps it under its mode pattern, so that
    :func:`stationarity_measure`, :func:`choose_singular_complement`,
    :func:`approx_project` and :func:`partial_project`, which all take this
    object, compute each contraction once between them.  They read X, the
    rank bound r and the Ucomp_j (empty until the complement choice fills
    them) as its ``anchor``, ``bound`` and ``complements``.  The object
    belongs to one (X, A, r): a solver makes one per iterate and per rank
    candidate and drops it with the point.  It is the only place the solver
    path forms such a contraction.

    Layout rule: hand out the very array formed, never a re-laid-out
    copy.  GEMM rounding depends on operand layout, so a C-order copy of a
    shared contraction would move the iterates in their last bits.  For the
    same reason a pattern derived from a formed one reads that one's own
    array.

    A sparse A reaches :func:`~tuckeropt.tensor_core.multi_mode_contract`,
    which takes exactly one matrix mode, at most once per such pattern.
    Every pattern with more is derived from one with fewer (see
    :meth:`_direct`), so that at a full-rank point in d = 3 the d mode
    terms and the core term all come from the two patterns (I, I, U) and
    (I, U, I), and a rank candidate's complement patterns are the ones its
    mode terms come from.  Nothing on the solver path asks for the
    all-identity pattern, which a sparse A would densify to form.

    A rank candidate X_c of an iterate X, whose factors are U_j W_j with
    U_j those of X (see :func:`~tuckeropt.tucker.hosvd_truncations`), may
    be served from X's basis instead: ``basis`` is then the pair
    (Contractions(X, A, r), ws).
    A pattern is read off that object's X-basis pattern (U_j on the "U"
    modes, the identity elsewhere) by dense mode products: W_j^T on "U"
    modes and [U_j W_j | Ucomp_j]^T on "W" modes.  That equals
    contracting A directly, (A x_j U_j^T) x_j W_j^T = A x_j (U_j W_j)^T, up
    to rounding.  At a point deficient in every mode, whose patterns with
    a "W" have no "U", the basis would serve those from its all-identity
    pattern; with a sparse A they are formed directly instead.
    """

    __slots__ = ("anchor", "tensor", "bound", "complements", "_memo",
                 "_basis", "_residuals")

    def __init__(self, X: TuckerTensor, A, r, basis=None):
        r = check_bound(r, X.dims)
        check_bound(X.rank, r, "anchor rank", 0)
        self.anchor = X
        self.tensor = A
        self.bound = r
        self.complements = [np.zeros((n, 0)) for n in X.dims]
        self._memo = {}
        self._basis = basis
        self._residuals = {}

    def contract(self, modes) -> np.ndarray:
        """A x_j B_j^T over every mode j, where modes[j] names B_j, formed
        on first request: served from the basis when there is one, else
        formed directly.

        ``"I"`` leaves mode j as it is, ``"U"`` takes U_j and ``"W"`` takes
        [U_j | Ucomp_j].  A "W" on a mode at its bound is "U"; on a
        deficient mode it needs the complement chosen first.
        """
        if len(modes) != self.anchor.ndim or not all(
                isinstance(m, str) and m in ("I", "U", "W") for m in modes):
            raise ValueError(f"mode tags 'I', 'U' or 'W' expected: {modes}")
        key = tuple("U" if m == "W" and rl == rk else m
                    for m, rl, rk in zip(modes, self.anchor.rank, self.bound))
        D = self._memo.get(key)
        if D is None:
            mats = [self._mode_matrix(j, m) for j, m in enumerate(key)]
            if self._basis is None or _all_w(key, self.tensor):
                D = self._direct(key, mats)
            else:
                D = self._served(key, mats)
            self._memo[key] = D
        return D

    def mode_residual(self, k: int, widen: bool = False) -> np.ndarray:
        """D - B (B^T D) for D the mode-(k+1) unfolding of the mode term
        A x_{j != k} U_j^T and B = [U_k | Ucomp_k] if ``widen``, else U_k.
        The U_k-only residual, which the stationarity measure and both
        projections read, is formed once per mode."""
        U = self.anchor.factors[k]
        B = self._mode_matrix(k, "W") if widen else U
        R = self._residuals.get(k) if B is U else None
        if R is None:
            modes = ["I" if j == k else "U" for j in range(self.anchor.ndim)]
            D = unfold(self.contract(modes), k + 1)
            R = D - B @ (B.T @ D)
            if B is U:
                self._residuals[k] = R
        return R

    def _mode_matrix(self, j: int, m: str):
        """B_j for the mode tag m (None: the identity)."""
        if m == "I":
            return None
        U, comp = self.anchor.factors[j], self.complements[j]
        if m == "W" and comp.shape[1] < self.bound[j] - self.anchor.rank[j]:
            raise ValueError(f"mode {j + 1} has no complement chosen yet")
        return U if m == "U" else _widen(U, comp)

    def _direct(self, modes: tuple, mats) -> np.ndarray:
        """A x_j B_j^T for B_j = mats[j] (None: identity) from A itself.

        A pattern with two or more matrix modes, or with no identity mode,
        is B_s^T applied to the pattern with its first matrix mode s left
        as it is, which is formed (once) first.  A sparse A's pattern whose
        matrix modes are all "W" takes s as its last matrix mode instead,
        so that at a point deficient in every mode the complement patterns
        and the C block all grow from (W, I, ..., I).  A pattern with one matrix
        mode is that mode's product with a dense A, or one kernel call on a
        sparse A; the kernel skips the last identity mode when it follows
        the matrix mode, else the first one, so that its partial is
        already the unfolding it returns.
        """
        A = self.tensor
        matrix = [j for j, M in enumerate(mats) if M is not None]
        eye = [j for j, M in enumerate(mats) if M is None]
        if len(matrix) > 1 or not eye:
            s = matrix[-1] if _all_w(modes, A) else matrix[0]
            parent = self.contract(modes[:s] + ("I",) + modes[s + 1:])
            return mode_product(parent, s + 1, mats[s].T)
        sparse = isinstance(A, SparseCooTensor)
        if not matrix:
            return A.to_dense() if sparse else np.asarray(A)
        m = matrix[0]
        if not sparse:
            return mode_product(np.asarray(A), m + 1, mats[m].T)
        skip = eye[-1] if eye[-1] > m else eye[0]
        sizes = tuple(n if M is None else M.shape[1]
                      for n, M in zip(self.anchor.dims, mats))
        # the module global, so that a wrapper installed on it sees the call
        return fold(multi_mode_contract(A, mats, skip + 1), skip + 1, sizes)

    def _served(self, key: tuple, mats) -> np.ndarray:
        """A x_j B_j^T for B_j = mats[j] (None: identity) from the X-basis
        pattern: U_j of X on the modes keyed "U", the identity elsewhere."""
        base, ws = self._basis
        xmodes = tuple("U" if m == "U" else "I" for m in key)
        P = base.contract(xmodes)
        for j, (B, m) in enumerate(zip(mats, xmodes)):
            if B is not None:
                P = mode_product(P, j + 1, (ws[j] if m == "U" else B).T)
        return P


def _all_w(modes, A) -> bool:
    """Whether A is sparse and every matrix mode of the pattern ``modes`` is
    a "W": at a point deficient in every mode, a complement pattern or the
    C block, which grow from (W, I, ..., I) (see :meth:`Contractions._direct`).
    """
    return isinstance(A, SparseCooTensor) and "W" in modes and "U" not in modes


def _pad_complement(existing: np.ndarray, q: int) -> np.ndarray:
    """Deterministically extend ``existing`` (orthonormal columns) by q more
    orthonormal columns drawn from projected identity columns."""
    n = existing.shape[0]
    basis = existing
    added = []
    for i in range(n):
        if len(added) == q:
            break
        v = np.zeros(n)
        v[i] = 1.0
        v = v - basis @ (basis.T @ v)
        v = v - basis @ (basis.T @ v)      # re-orthogonalize for stability
        nv = np.linalg.norm(v)
        if nv > 1e-8:
            v /= nv
            added.append(v)
            basis = np.column_stack([basis] + [v])
    if len(added) != q:
        raise ValueError("cannot pad orthonormal complement")
    return np.column_stack(added) if added else np.zeros((n, 0))


def choose_singular_complement(G: Contractions):
    """Per-mode complements Ucomp_k spanning dominant left singular directions
    of the tensor A of G at X = G.anchor, under the bound r = G.bound.

    Deficient modes are processed in ascending order; each complement takes
    the leading left singular vectors of the mode-k unfolding of A after the
    previously chosen subspaces have been applied, projected orthogonal to
    U_k.  Rank-deficient cases are padded with a deterministic orthonormal
    complement.  Fills ``G.complements`` in mode order and returns them.

    Only U and sigma of each projected unfolding M are used, so a wide M
    (more than twice as wide as tall) hands its SVD the R factor of M^T,
    which has both, instead.  At a point deficient in every mode, the
    first M is the projected unfolding of A itself; a sparse A gives its R
    factor from its entries (:func:`~tuckeropt.tensor_core.projected_unfolding_r`).
    """
    X = G.anchor
    rlow, r = X.rank, G.bound
    d = X.ndim
    deficient = [k for k in range(d) if rlow[k] < r[k]]
    for k in deficient:
        # earlier deficient modes take their widened basis, later ones none
        modes = [("I" if j >= k else "W") if j in deficient else "U"
                 for j in range(d)]
        U = X.factors[k]
        if set(modes) == {"I"} and isinstance(G.tensor, SparseCooTensor):
            # deficient in every mode: M would be A's own unfolding
            M = projected_unfolding_r(G.tensor, U, k + 1).T
        else:
            B = unfold(G.contract(modes), k + 1)
            M = B - U @ (U.T @ B)
            if M.shape[1] > 2 * M.shape[0]:
                M = np.linalg.qr(M.T, mode="r").T
        q = r[k] - rlow[k]
        Q, sigma, _ = thin_svd(M)
        keep = min(cutoff_rank(sigma), q)
        chosen = Q[:, :keep]
        if keep < q:
            pad = _pad_complement(np.hstack([U, chosen]), q - keep)
            chosen = np.hstack([chosen, pad])
        G.complements[k] = chosen
    return list(G.complements)


def _core_pinv(X: TuckerTensor, k: int) -> np.ndarray:
    """Pseudo-inverse of the mode-k core unfolding via thin SVD with cutoff."""
    U, sigma, V = thin_svd(unfold(X.core, k))
    q = cutoff_rank(sigma)
    return (V[:, :q] / sigma[:q]) @ U[:, :q].T


def _project(G: Contractions, widen: bool):
    """The per-iterate core of both tangent-cone projections of the tensor A
    of G at X = G.anchor.

    Returns (C, Udot, complements) with the complements chosen by
    :func:`choose_singular_complement`, C = A x_k [U_k Ucomp_k]^T and
    Udot_k = (D_k - B_k B_k^T D_k) pinv(X.core_(k)), where B_k is
    [U_k Ucomp_k] when ``widen`` (:func:`approx_project`) and U_k otherwise
    (:func:`partial_project`).

    Both projections are odd in A: -A has the same complements as A
    (thin_svd gives -M the same U as M), and its C, Udot and single-factor
    branch terms are those of A times -1.  That holds bit for bit, except
    that LAPACK may round the QR or SVD of -M differently when an exact
    zero of M lands on a pivot, as an unobserved entry of a sparse gradient
    can where U_k has no columns to project it off.
    """
    X = G.anchor
    choose_singular_complement(G)
    C = G.contract(["W"] * X.ndim)
    udots = [G.mode_residual(k, widen) @ _core_pinv(X, k + 1)
             for k in range(X.ndim)]
    return C, tuple(udots), tuple(G.complements)


def approx_project(G: Contractions) -> TangentVector:
    """SVD-based approximate projection of the tensor A of G onto the
    tangent cone at G.anchor."""
    return TangentVector(G.anchor, *_project(G, widen=True))


def partial_project(G: Contractions):
    """Retraction-free partial projection of the tensor A of G at
    X = G.anchor: the largest of d+1 partial terms.

    Returns (TangentVector, branch) where branch 0 is the multilinear-space
    term and branch k keeps only the mode-k factor term; ties go to the
    lowest branch index.
    """
    X = G.anchor
    C, udots, complements = _project(G, widen=False)
    d = X.ndim
    rlow = X.rank
    norms = [float(np.linalg.norm(C.ravel()))]
    norms += [float(np.linalg.norm(M @ unfold(X.core, k + 1)))
              for k, M in enumerate(udots)]
    branch = int(np.argmax(norms))
    zero_udot = tuple(np.zeros((X.dims[k], rlow[k])) for k in range(d))
    if branch == 0:
        return TangentVector(X, C, zero_udot, complements), 0
    k = branch - 1
    udot = tuple(udots[k] if j == k else zero_udot[j] for j in range(d))
    empty = tuple(np.zeros((X.dims[j], 0)) for j in range(d))
    return TangentVector(X, np.zeros(rlow), udot, empty), branch


def stationarity_measure(G: Contractions) -> float:
    """Norm of the component of the gradient, the tensor of G, that
    violates the normal-cone condition at X = G.anchor.

    Modes where the rank of X is below G.bound contribute no mode term, and
    leave the core term uncontracted in that mode: deficient in every mode,
    the core term is the norm of the tensor itself, read off its values.
    """
    X = G.anchor
    deficient = [rl < rk for rl, rk in zip(X.rank, G.bound)]
    modes = ["I" if dk else "U" for dk in deficient]
    core_resid = (fro_norm(G.tensor) if all(deficient) else
                  float(np.linalg.norm(G.contract(modes).ravel())))
    mode_resid = [0.0 if dk else float(np.linalg.norm(
        G.mode_residual(k) @ unfold(X.core, k + 1).T))
        for k, dk in enumerate(deficient)]
    return float(np.sqrt(core_resid ** 2 + np.sum(np.square(mode_resid))))
