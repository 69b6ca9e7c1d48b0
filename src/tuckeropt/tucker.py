"""Tucker-format iterates: HOSVD, recompression, and structural queries.

A :class:`TuckerTensor` stores a core tensor together with one orthonormal
factor matrix per mode.  The core unfoldings are kept at full row rank, so the
core dimensions always equal the Tucker rank of the represented tensor.
"""

from __future__ import annotations

import math
import operator
import struct
from dataclasses import dataclass

import numpy as np

from .tensor_core import (
    IndexPlan,
    SparseCooTensor,
    cutoff_rank,
    fold,
    mixed_eval,
    mode_product,
    multi_mode_contract,
    projected_unfolding_r,
    read_binary_header,
    read_binary_values,
    thin_svd,
    unfold,
)


@dataclass(frozen=True)
class TuckerTensor:
    """Core tensor plus orthonormal factors; represents core x_k factors[k]."""

    core: np.ndarray
    factors: tuple

    def __post_init__(self):
        factors = tuple(np.asarray(U, dtype=np.float64) for U in self.factors)
        core = np.asarray(self.core, dtype=np.float64)
        if core.ndim != len(factors):
            raise ValueError("core order and factor count disagree")
        for k, U in enumerate(factors):
            if U.shape[1] != core.shape[k]:
                raise ValueError(f"factor {k + 1} has {U.shape[1]} columns, "
                                 f"core mode has size {core.shape[k]}")
        object.__setattr__(self, "core", core)
        object.__setattr__(self, "factors", factors)

    @property
    def dims(self) -> tuple:
        return tuple(U.shape[0] for U in self.factors)

    @property
    def ndim(self) -> int:
        return self.core.ndim

    @property
    def rank(self) -> tuple:
        return self.core.shape


def check_count(value, what, least, most=math.inf) -> int:
    """``value`` as an int, checked to be an integer in least..most; any
    other value (2.5 too, rather than truncating it to 2) raises a
    ``ValueError`` that names ``what``."""
    try:
        if least <= operator.index(value) <= most:
            return operator.index(value)
    except TypeError:
        pass
    span = f"in {least}..{most}" if most < math.inf else f">= {least}"
    raise ValueError(f"{what} is {value}; it must be an integer {span}")


def check_threshold(delta_eff, what="threshold") -> None:
    """Refuse a rank-decrease threshold that is neither None nor positive
    and finite, with a ``ValueError`` that names ``what``."""
    if delta_eff is not None and not 0 < delta_eff < math.inf:
        raise ValueError(f"{what} {delta_eff} is not positive and finite")


def check_bound(r, dims, what="rank bound", least=1) -> tuple:
    """The Tucker rank r as a tuple of ints, one integer r_k per mode with
    least <= r_k <= n_k for the dims (or the bound) n.  Every function that
    takes a rank bound, or a rank under a bound (least 0), applies it where
    that enters, and a breach raises a ``ValueError`` naming ``what`` and
    the mode."""
    r = tuple(r)
    if len(r) != len(dims):
        raise ValueError(f"{what} {r} has {len(r)} entries for "
                         f"{len(dims)} modes")
    return tuple(check_count(rk, f"{what} of mode {k}", least, n)
                 for k, (rk, n) in enumerate(zip(r, dims), start=1))


class _Node:
    """A node of a truncation tree, keyed by the counts kept in modes
    1..k: the core after those k steps, the W_j that made them, and, once
    formed, the SVD step of mode k+1 and the factor U_k W_k."""

    __slots__ = ("core", "ws", "svd", "factor")

    def __init__(self, core, ws):
        self.core, self.ws = core, ws
        self.svd = self.factor = None


def _st_hosvd(A: np.ndarray, r, tree=None):
    """Sequentially truncated HOSVD in ascending mode order; returns
    (core, ws, kept).

    Each mode-k step applies the best rank-r_k approximation to the current
    tensor, so the composition equals proj^d(...proj^1(A)).  The requested
    rank is additionally capped at the numerical rank so core unfoldings stay
    at full row rank; ``kept`` is the tuple of the counts actually kept.  A
    rank with a zero mode keeps nothing in any mode: it truncates to the
    zero tensor of rank (0, ..., 0).

    The tensor a mode-k step works on depends only on the counts kept in
    modes 1..k-1.  ``tree`` (a dict) keeps every step under that prefix, so
    that truncations of the same A to other ranks run each mode's SVD once
    per distinct prefix and get the very arrays they would get alone.
    """
    r = (0,) * A.ndim if 0 in r else r
    tree = {} if tree is None else tree
    node = tree.setdefault((), _Node(A, ()))
    if node.core is not A:
        raise ValueError("truncation tree belongs to another tensor")
    key = ()
    for k in range(1, A.ndim + 1):
        if node.svd is None:
            M = unfold(node.core, k)
            U, sigma, _ = thin_svd(M)
            node.svd = (M, U, cutoff_rank(sigma))
        M, U, nrank = node.svd
        rk = min(int(r[k - 1]), nrank)
        key = key + (rk,)
        if key not in tree:
            W = U[:, :rk]
            new_dims = tuple(rk if j == k - 1 else n
                             for j, n in enumerate(node.core.shape))
            tree[key] = _Node(fold(W.T @ M, k, new_dims), node.ws + (W,))
        node = tree[key]
    return node.core, list(node.ws), key


def hosvd(A, r) -> TuckerTensor:
    """Truncated HOSVD onto Tucker rank at most r of a dense array, or of a
    SparseCooTensor S without densifying it: U_1 from S_(1)^T's R factor,
    then :func:`_st_hosvd` of the dense partial S x_1 U_1^T."""
    if isinstance(A, SparseCooTensor):
        r, d = check_bound(r, A.dims), len(A.dims)
        R = projected_unfolding_r(A, np.zeros((A.dims[0], 0)), 1)
        U, sigma, _ = thin_svd(R.T)
        U = U[:, :min(r[0], cutoff_rank(sigma))]
        partial = (U.take(A.plan.cols[0], axis=0).T @ A.vals if d == 1 else
                   fold(multi_mode_contract(A, (U,) + (None,) * (d - 1), 2),
                        2, U.shape[1:] + A.dims[1:]))
        core, ws, _ = _st_hosvd(partial, r)
        return TuckerTensor(core, (U @ ws[0],) + tuple(ws[1:]))
    core, factors, _ = _st_hosvd(A, check_bound(r, A.shape))
    return TuckerTensor(core, tuple(factors))


def hosvd_truncate(T: TuckerTensor, r, tree=None) -> TuckerTensor:
    """Core-only recompression; equals hosvd(to_dense(T), r) without densifying.

    The target r has one integer per mode, from 0 up to T's rank there
    (:func:`check_bound`); an entry 0 truncates to the zero tensor.
    ``tree`` is a dict shared by truncations of the same T, which then
    share their SVD steps (see :func:`hosvd_truncations`).
    """
    r = check_bound(r, T.rank, "target rank", 0)
    tree = {} if tree is None else tree
    core, ws, kept = _st_hosvd(T.core, r, tree)
    factors = []
    for k, (U, W) in enumerate(zip(T.factors, ws)):
        node = tree[kept[:k + 1]]
        if node.factor is None:
            node.factor = U @ W
        factors.append(node.factor)
    return TuckerTensor(core, tuple(factors))


def hosvd_truncations(T: TuckerTensor, ranks) -> list:
    """:func:`hosvd_truncate` of T to every rank in ``ranks``, through one
    truncation tree; returns one (truncated tensor, ws) per rank.

    The truncation's mode-k factor is T's U_k times ws[k], which has
    orthonormal columns.  Each mode's SVD runs once per distinct set of
    counts kept in the modes before it, and each result is bit-identical
    to truncating T to that rank alone.
    """
    tree = {}
    out = []
    for r in ranks:
        Y = hosvd_truncate(T, r, tree)
        out.append((Y, tree[Y.rank].ws))
    return out


def to_dense(T: TuckerTensor) -> np.ndarray:
    X = T.core
    for k, U in enumerate(T.factors, start=1):
        X = mode_product(X, k, U)
    return X


def entries_at(T: TuckerTensor, plan: IndexPlan) -> np.ndarray:
    """Evaluate T at the 1-based index tuples of ``plan`` without densifying.

    The plan's tuples are not bounds-checked here: they were validated
    where they entered, as an observation set's are, or by
    :func:`~tuckeropt.tensor_core.index_plan`.  Only their count of modes
    is checked against T.
    """
    if len(plan.cols) != T.ndim:
        raise ValueError("index tuples have wrong length")
    return mixed_eval(T.core, T.factors, plan)


def mode_singular_values(T: TuckerTensor):
    """Singular values of every unfolding X_(k), computed from the small core."""
    return [np.linalg.svd(unfold(T.core, k), compute_uv=False)
            for k in range(1, T.ndim + 1)]


def _orthonormalize(M: np.ndarray):
    """Deterministic orthonormal basis of span(M) (thin SVD sign convention).

    Returns (Q, R) with M = Q R and Q possibly having fewer columns than M.
    """
    if not M.any():
        return np.zeros((M.shape[0], 0)), np.zeros((0, M.shape[1]))
    U, sigma, _ = thin_svd(M)
    Q = U[:, :cutoff_rank(sigma)]
    return Q, Q.T @ M


def add_scaled_tangent(T: TuckerTensor, s: float, V) -> TuckerTensor:
    """Exact Tucker representation of T + s * V for a tangent vector V.

    The mode-k factor is [U_k, Ucomp_k, Q_k] with Q_k an orthonormal basis of
    span(Udot_k); the augmented core collects the core, the scaled coefficient
    block and the scaled Udot contributions.  The result is recompressed at
    its numerical rank (:func:`hosvd_truncate` caps every mode there) so the
    full-row-rank core invariant is restored.
    """
    if V.anchor is not T:
        if V.anchor.dims != T.dims or V.anchor.rank != T.rank:
            raise ValueError("tangent vector is anchored at a different point")
    d = T.ndim
    rlow = T.rank
    bound = V.C.shape
    qs, rs = [], []
    for Ud in V.Udot:
        Q, R = _orthonormalize(Ud)
        qs.append(Q)
        rs.append(R)
    blocks = [np.hstack([T.factors[k], V.Ucomp[k], qs[k]]) for k in range(d)]
    aug = tuple(B.shape[1] for B in blocks)
    core = np.zeros(aug)
    # existing point
    core[tuple(slice(0, rlow[k]) for k in range(d))] += T.core
    # coefficient block spans [U_k, Ucomp_k]
    core[tuple(slice(0, bound[k]) for k in range(d))] += s * V.C
    # Udot contributions: G x_k R_k lands in the Q_k block of mode k
    for k in range(d):
        if rs[k].shape[0] == 0:
            continue
        contrib = mode_product(T.core, k + 1, rs[k])
        sl = [slice(0, rlow[j]) for j in range(d)]
        sl[k] = slice(bound[k], bound[k] + rs[k].shape[0])
        core[tuple(sl)] += s * contrib
    out = TuckerTensor(core, tuple(blocks))
    return hosvd_truncate(out, aug)


# ---------------------------------------------------------------------------
# Checkpoint format

_CKPT_MAGIC = b"TTKR2"
# the format before the run state: it resumes as a new run from its point
_CKPT_MAGIC_V1 = b"TTKR1"


def save_checkpoint(T: TuckerTensor, path, iteration: int = 0,
                    delta_eff: float | None = None) -> None:
    """Binary checkpoint: magic, dims, core dims, the run state, core
    values, factors.

    The run state is the u64 iteration index of T and the f64
    rank-decrease threshold delta_eff the run used (NaN for none), so that
    a solver resumed from T continues the same iterate sequence.  Both
    are checked, as :func:`load_checkpoint` reads them, before the file is
    opened.
    """
    check_count(iteration, "checkpoint iteration", 0, 2 ** 64 - 1)
    check_threshold(delta_eff, "checkpoint threshold")
    with open(path, "wb") as f:
        f.write(_CKPT_MAGIC)
        f.write(struct.pack("<I", T.ndim))
        f.write(struct.pack(f"<{T.ndim}I", *T.dims))
        f.write(struct.pack(f"<{T.ndim}I", *T.rank))
        f.write(struct.pack("<Qd", iteration,
                            math.nan if delta_eff is None else delta_eff))
        f.write(np.asarray(T.core, dtype="<f8").ravel(order="F").tobytes())
        for U in T.factors:
            f.write(np.asarray(U, dtype="<f8").ravel(order="F").tobytes())


def load_checkpoint(path):
    """Read a checkpoint that :func:`save_checkpoint` wrote; returns
    (T, iteration, delta_eff), with delta_eff None when the run had none.

    A checkpoint in the format before the run state reads as iteration 0
    with no delta_eff.  A header of order 0, with a rank above its mode
    size or with a delta_eff that is neither NaN nor positive and finite,
    and a file shorter or longer than its header declares, raise a
    ``ValueError`` that names the file.
    """
    what = "Tucker checkpoint"
    data, header, head = read_binary_header(
        path, (_CKPT_MAGIC, _CKPT_MAGIC_V1), what, 2)
    dims, rank = header[:len(header) // 2], header[len(header) // 2:]
    check_bound(rank, dims, f"{path}: checkpoint rank", 0)
    iteration, delta_eff = 0, None
    if data[:5] == _CKPT_MAGIC:
        if len(data) < head + 16:
            raise ValueError(f"{path}: truncated {what} header")
        iteration, delta_eff = struct.unpack_from("<Qd", data, head)
        head += 16
        delta_eff = None if math.isnan(delta_eff) else delta_eff
        check_threshold(delta_eff, f"{path}: checkpoint threshold")
    sizes = [math.prod(rank)] + [n * r for n, r in zip(dims, rank)]
    vals = read_binary_values(path, data, head, sum(sizes), what)
    core, *factors = np.split(vals, np.cumsum(sizes)[:-1])
    T = TuckerTensor(core.reshape(rank, order="F").copy(),
                     tuple(U.reshape((n, r), order="F").copy()
                           for U, n, r in zip(factors, dims, rank)))
    return T, iteration, delta_eff
