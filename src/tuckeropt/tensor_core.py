"""Dense/sparse tensor containers and the low-level multilinear kernels.

Conventions used throughout the package:

* Dense tensors are plain numpy arrays.  Their vectorization order is
  mode-1-fastest (Fortran order), so ``unfold(X, 1)`` is a cheap reshape.
* Modes are 1-based, matching the usual multilinear-algebra notation.
* The mode-k unfolding places entry ``(i_1, ..., i_d)`` at row ``i_k`` and
  column ``1 + sum_{l != k} (i_l - 1) J_l`` with ``J_l = prod_{m < l, m != k} n_m``.
"""

from __future__ import annotations

import io
import math
import struct
import warnings
from dataclasses import dataclass, field

import numpy as np

DEFAULT_RANK_TOL = 1e-12


class IndexPlan:
    """0-based per-mode index columns of m index tuples, built once.

    ``idx`` is the (m, d) array of 1-based tuples; ``cols[k]`` is the
    contiguous int64 column ``idx[:, k] - 1``.  Kernels gather the mode-k
    rows of a factor with ``U.take(cols[k], axis=0)``, which gives the same
    values in the same C-order layout as ``U[idx[:, k] - 1]`` without
    re-deriving the column on every call.  A plan does no bounds check:
    build it from indices that were validated where they entered, as a
    :class:`SparseCooTensor` does, or through :func:`index_plan`.
    ``len(plan)`` is the number of tuples.
    """

    __slots__ = ("idx", "cols", "_segments", "_chunks", "_fibres")

    def __init__(self, idx: np.ndarray):
        self.idx = idx
        self.cols = tuple(idx[:, k] - 1 for k in range(idx.shape[1]))
        self._segments = {}
        self._chunks = {}
        self._fibres = {}

    def __len__(self) -> int:
        return self.idx.shape[0]

    def segments(self, k: int):
        """(order, starts, keys) of the tuples grouped by their mode-k index.

        ``order`` is the stable sort of ``cols[k]``; in that order the
        tuples with 0-based mode-k index keys[s] fill positions
        starts[s]:starts[s + 1] (the last starts is len(self)).  Built on
        first request and kept.
        """
        if k not in self._segments:
            order = np.argsort(self.cols[k], kind="stable")
            c = self.cols[k].take(order)
            first = np.flatnonzero(c[1:] != c[:-1]) + 1
            starts = np.concatenate([[0], first, [c.size]]) if c.size else \
                np.zeros(1, dtype=np.int64)
            self._segments[k] = (order, starts, c.take(starts[:-1]))
        return self._segments[k]

    def fibres(self, lead) -> np.ndarray:
        """Index of each tuple's fibre in a tensor whose leading modes have
        the sizes ``lead``: sum_{k < s} cols[k] * prod_{j < k} lead[j],
        with s = len(lead), mode 1 fastest.  Built on first request per
        ``lead`` and kept."""
        lead = tuple(lead)
        if lead not in self._fibres:
            fib = np.zeros(len(self), dtype=np.int64)
            stride = 1
            for c, n in zip(self.cols, lead):
                fib += c * stride
                stride *= n
            self._fibres[lead] = fib
        return self._fibres[lead]

    def chunks(self, k: int, step: int):
        """Padded slot layout of the mode-k segments, in chunks of about
        ``step`` slots; built on first request per (k, step) and kept
        (once for all steps that give a single chunk).

        Each chunk is (keys, n, width, sel, pads, gathered): its n whole
        segments, with 0-based mode-k indices ``keys``, each padded to the
        longest of them, ``width`` tuples, so that segment t fills slots
        t * width ... t * width + its length - 1.  A chunk holds at most
        ``step`` slots unless one segment alone is longer.  ``sel[i]`` is
        the tuple in slot i; a pad slot selects tuple len(self) - 1, and
        ``pads`` lists the pad slots, whose weight a kernel sets to 0.
        ``gathered`` holds ``cols[j].take(sel)`` for every mode j != k in
        order, or for mode k alone when it is the only mode.
        """
        order, starts, keys = self.segments(k)
        lens = np.diff(starts)
        # every step from the one that holds all segments at their longest
        # length up gives one chunk of them all: keep that layout once
        step = min(step, keys.size * int(lens.max(initial=0)))
        key = (k, step)
        if key not in self._chunks:
            m = len(self)
            modes = [j for j in range(len(self.cols)) if j != k] or [k]
            out = []
            s = 0
            while s < len(keys):
                # whole segments s..e-1, each padded to the longest of them
                widths = np.maximum.accumulate(lens[s:s + step])
                e = s + max(1, int(np.searchsorted(
                    widths * np.arange(1, widths.size + 1), step,
                    side="right")))
                n, width = e - s, int(widths[e - s - 1])
                a, b, slots = int(starts[s]), int(starts[e]), n * width
                sel = np.full(slots, m)
                sel[np.arange(a, b) + np.repeat(
                    np.arange(0, slots, width) - starts[s:e],
                    lens[s:e])] = order[a:b]
                pads = np.flatnonzero(sel == m)
                sel[pads] = m - 1
                out.append((keys[s:e], n, width, sel, pads,
                            tuple(self.cols[j].take(sel) for j in modes)))
                s = e
            self._chunks[key] = out
        return self._chunks[key]


def strictly_increasing(idx: np.ndarray) -> bool:
    """Whether the rows of an (m, d) index array rise in strict
    lexicographic order, which also rules out a repeated row.

    A row follows the one before it when its first differing column is
    larger; no linear index is formed.
    """
    step = idx[1:] - idx[:-1]
    moved = step != 0
    first = moved.argmax(axis=1)
    return bool(moved.any(axis=1).all()
                and (np.take_along_axis(step, first[:, None], 1) > 0).all())


def _checked_index(idx, dims, m=None) -> np.ndarray:
    """``idx`` as an (m, len(dims)) int64 array of 1-based index tuples.

    Raises ValueError unless every tuple has length len(dims), with
    1 <= idx[:, k] <= dims[k], and, when ``m`` is given, there are m of
    them (one per value).
    """
    idx = np.atleast_2d(np.asarray(idx, dtype=np.int64))
    if idx.size == 0:
        idx = idx.reshape(0, len(dims))
    if m is not None and idx.shape != (m, len(dims)):
        raise ValueError(f"index array shape {idx.shape} inconsistent with "
                         f"{m} values over {len(dims)} modes")
    if idx.ndim != 2 or idx.shape[1] != len(dims):
        raise ValueError("index tuples have wrong length")
    if idx.size and (idx.min() < 1 or (idx > np.array(dims)).any()):
        raise ValueError("index out of range")
    return idx


@dataclass(frozen=True)
class SparseCooTensor:
    """Coordinate-list tensor with 1-based indices, canonically sorted.

    ``idx`` has shape (nnz, d); ``vals`` has shape (nnz,).  Entries are unique
    and sorted lexicographically so equality and hashing of observation sets
    are deterministic.  ``plan`` is the :class:`IndexPlan` of ``idx``, built
    here once and shared by every tensor that :meth:`with_values` makes.
    """

    dims: tuple
    idx: np.ndarray
    vals: np.ndarray
    plan: IndexPlan = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        dims = tuple(int(n) for n in self.dims)
        vals = np.asarray(self.vals, dtype=np.float64).ravel()
        idx = _checked_index(self.idx, dims, vals.size)
        if strictly_increasing(idx):
            # already in canonical order, as save_coo writes it: skip the
            # sort, and copy as the sort's gather did (contiguous, unshared)
            idx = idx.copy()
            vals = vals.copy()
        else:
            order = np.lexsort(idx.T[::-1])
            idx = idx[order]
            vals = vals[order]
            # sorted rows rise strictly unless one repeats
            if not strictly_increasing(idx):
                raise ValueError("duplicate sparse indices")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "idx", idx)
        object.__setattr__(self, "vals", vals)
        object.__setattr__(self, "plan", IndexPlan(idx))
        self.idx.setflags(write=False)
        self.vals.setflags(write=False)

    @property
    def nnz(self) -> int:
        return self.vals.size

    def with_values(self, vals: np.ndarray) -> "SparseCooTensor":
        """Same sparsity pattern, new values; skips re-validation/re-sorting."""
        vals = np.asarray(vals, dtype=np.float64).ravel()
        if vals.size != self.nnz:
            raise ValueError(f"expected {self.nnz} values, got {vals.size}")
        out = object.__new__(SparseCooTensor)
        object.__setattr__(out, "dims", self.dims)
        object.__setattr__(out, "idx", self.idx)
        object.__setattr__(out, "vals", vals)
        object.__setattr__(out, "plan", self.plan)
        out.vals.setflags(write=False)
        return out

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.dims)
        if self.nnz:
            out[tuple(self.idx.T - 1)] = self.vals
        return out


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD with a deterministic sign convention.

    In each left singular vector the entry of largest absolute value (ties
    broken by lowest row index) is non-negative; V is adjusted accordingly.
    """

    U: np.ndarray
    sigma: np.ndarray
    V: np.ndarray


def unfold(X: np.ndarray, k: int) -> np.ndarray:
    """Mode-k unfolding of X into an (n_k, n_{-k}) matrix."""
    if not 1 <= k <= X.ndim:
        raise ValueError(f"mode {k} out of range for order-{X.ndim} tensor")
    n = X.shape[k - 1]
    # explicit column count: reshape(n_k, -1) cannot infer it when n_k == 0
    cols = X.size // n if n else math.prod(X.shape[:k - 1] + X.shape[k:])
    # mode k first, the others in order (what np.moveaxis(X, k - 1, 0) does)
    axes = (k - 1,) + tuple(range(k - 1)) + tuple(range(k, X.ndim))
    return X.transpose(axes).reshape(n, cols, order="F")


def fold(M: np.ndarray, k: int, dims) -> np.ndarray:
    """Inverse of :func:`unfold`; bit-identical reordering."""
    dims = tuple(dims)
    if not 1 <= k <= len(dims):
        raise ValueError(f"mode {k} out of range for dims {dims}")
    rest = dims[:k - 1] + dims[k:]
    if M.shape != (dims[k - 1], math.prod(rest)):
        raise ValueError(f"matrix shape {M.shape} inconsistent with dims {dims} at mode {k}")
    # axis 0 back to position k - 1 (what np.moveaxis(., 0, k - 1) does)
    axes = tuple(range(1, k)) + (0,) + tuple(range(k, len(dims)))
    return M.reshape((dims[k - 1],) + rest, order="F").transpose(axes)


def mode_product(X: np.ndarray, k: int, A: np.ndarray) -> np.ndarray:
    """k-mode product X x_k A, satisfying (X x_k A)_(k) = A X_(k)."""
    if A.shape[1] != X.shape[k - 1]:
        raise ValueError(f"matrix with {A.shape[1]} columns cannot multiply mode "
                         f"{k} of size {X.shape[k - 1]}")
    dims = list(X.shape)
    dims[k - 1] = A.shape[0]
    return fold(A @ unfold(X, k), k, dims)


def inner(X: np.ndarray, Y: np.ndarray) -> float:
    if X.shape != Y.shape:
        raise ValueError(f"shape mismatch {X.shape} vs {Y.shape}")
    return float(np.dot(X.ravel(), Y.ravel()))


def fro_norm(X) -> float:
    if isinstance(X, SparseCooTensor):
        return float(np.linalg.norm(X.vals))
    return float(np.linalg.norm(np.asarray(X).ravel()))


def thin_svd(M: np.ndarray) -> SvdResult:
    """Thin SVD with the deterministic sign convention of :class:`SvdResult`.

    M is not scanned for non-finite entries: data is checked where it
    enters (:class:`~tuckeropt.completion.CompletionProblem`,
    :func:`load_dense`), and a solver stops with termination
    ``"non_finite"`` before a non-finite f or gradient reaches an SVD.
    """
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    V = Vt.T
    if U.shape[1]:
        lead = np.argmax(np.abs(U), axis=0)
        signs = np.sign(U[lead, np.arange(U.shape[1])])
        signs[signs == 0] = 1.0
        U = U * signs
        V = V * signs
    return SvdResult(U=U, sigma=s, V=V)


def delta_rank(sigma, delta: float) -> int:
    """min{i >= 0 : sigma_{i+1} <= delta}, with sigma past the end read as 0."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    sigma = np.asarray(sigma, dtype=np.float64)
    below = np.nonzero(sigma <= delta)[0]
    return int(below[0]) if below.size else int(sigma.size)


def cutoff_rank(sigma: np.ndarray, tau: float = DEFAULT_RANK_TOL) -> int:
    """Count of the descending singular values sigma above tau * sigma_1;
    0 when there are none or sigma_1 = 0."""
    if sigma.size == 0 or sigma[0] == 0:
        return 0
    return int(np.count_nonzero(sigma > tau * sigma[0]))


def numerical_rank(M: np.ndarray, tau: float = DEFAULT_RANK_TOL) -> int:
    if not 0 < tau < 1:
        raise ValueError("tau must lie in (0, 1)")
    return cutoff_rank(np.linalg.svd(M, compute_uv=False), tau)


# ---------------------------------------------------------------------------
# Sparse contraction engine: kernels that work on the IndexPlan of a set of
# index tuples and never densify the ambient tensor.

# Elements per block of the sparse contraction kernels, and so the length of
# their largest per-entry temporaries.
_SCATTER_BLOCK = 1 << 15


def index_plan(idx, dims) -> IndexPlan:
    """Checked :class:`IndexPlan` of plain 1-based index tuples over ``dims``
    (see :func:`_checked_index`)."""
    return IndexPlan(_checked_index(idx, dims))


def mixed_eval(core: np.ndarray, mats, plan: IndexPlan) -> np.ndarray:
    """Entries of core x_k mats[k] at the tuples of ``plan``, not densified.

    The leading s modes are contracted densely, T = core x_1 mats[0] ...
    x_s mats[s - 1]; each tuple reads its fibre of T (the row at
    :meth:`IndexPlan.fibres`) and contracts it with its rows of mats[s:].
    s is the largest value <= d - 1 with n_1 ... n_s <= len(plan), and at
    least 1 (for d = 1 nothing is left per tuple).  So T has no more
    fibres than there are tuples unless s = 1, and no temporary exceeds
    max(n_1, len(plan)) * r_2 ... r_d elements.  The per-tuple stage walks
    the tuples in blocks of about ``_SCATTER_BLOCK`` gathered elements.  It
    contracts each mode by one multiply and one in-place add per column of
    the mode's rows, so each entry's sum runs in the same order whatever
    the block size, and the result does not depend on it.
    """
    m, d = len(plan), core.ndim
    if core.size == 0 or m == 0:
        return np.zeros(m)
    dims = [M.shape[0] for M in mats]
    s = 1
    while s < d - 1 and math.prod(dims[:s + 1]) <= m:
        s += 1
    # mode k + 1 of the partial is contracted while it is the fastest axis
    # of T in C order: T goes from (n_k, ..., n_1, r_d, ..., r_{k+1}) to
    # (n_{k+1}, ..., n_1, r_d, ..., r_{k+2}), so that at the end each fibre
    # (mode 1 fastest) is one contiguous row with mode s + 1 fastest
    T = core.transpose()
    for k in range(s):
        T = mats[k] @ T.reshape(-1, core.shape[k]).T
    T = T.reshape(math.prod(dims[:s]), -1)
    fib = plan.fibres(dims[:s])
    out = np.empty(m)
    step = max(1, _SCATTER_BLOCK // T.shape[1])
    for a in range(0, m, step):
        b = min(a + step, m)
        W = T.take(fib[a:b], axis=0)
        # the slowest of the remaining modes first
        for k in range(d - 1, s - 1, -1):
            rows = mats[k].take(plan.cols[k][a:b], axis=0)
            W = W.reshape(b - a, core.shape[k], -1)
            acc = W[:, 0] * rows[:, 0, None]
            for q in range(1, core.shape[k]):
                acc += W[:, q] * rows[:, q, None]
            W = acc
        out[a:b] = W[:, 0]
    return out


def multi_mode_contract(S: SparseCooTensor, factors, skip: int) -> np.ndarray:
    """Compute (S x_{j != skip} U_j^T)_(skip) exploiting sparsity.

    ``factors`` holds one matrix per mode (entry for the skipped mode is
    ignored, and None means the identity).  A matrix mode j contributes
    q_j columns, an identity mode n_j, the first listed mode fastest.

    With a matrix on every mode but ``skip``, the result is slab 0 of
    :func:`batched_mode_contract` for the one vector ``S.vals``, bit for
    bit: single and batched contractions are one code path.

    A pattern with an identity mode (a deficient mode of the iterate) is
    scattered instead.  An entry reaches only the columns of its own
    identity indices, so the scatter adds its prod q_j products once (q_j
    over the matrix modes), where a per-slice GEMM would multiply by n_j-wide
    identity blocks.  An identity mode j enters the scatter index at column
    offset (i_j - 1) * stride_j and never widens the per-entry Kronecker
    rows.  The entries are walked in blocks of about ``_SCATTER_BLOCK``
    Kronecker elements, each held entry-fastest as (Kronecker column,
    entry); ``np.add.at`` adds unbuffered and in order, so the result is
    bit-identical to one flat ``bincount`` over all entries.
    """
    d = len(S.dims)
    if not 1 <= skip <= d:
        raise ValueError(f"mode {skip} out of range")
    for j, U in enumerate(factors):
        if j != skip - 1 and U is not None and U.shape[0] != S.dims[j]:
            raise ValueError(f"factor {j + 1} has {U.shape[0]} rows, mode has "
                             f"size {S.dims[j]}")
    if all(factors[j] is not None for j in range(d) if j != skip - 1):
        return batched_mode_contract(S.plan, S.dims, [S.vals], factors,
                                     skip)[0]
    cols = S.plan.cols
    mats_t, mat_cols = [], []
    ncols = 1
    # output column of each Kronecker column, and each entry's identity offset
    kron_cols = np.zeros(1, dtype=np.int64)
    offset = np.zeros(S.nnz, dtype=np.int64)
    for j in range(d):
        if j == skip - 1:
            continue
        U = factors[j]
        if U is None:
            offset += cols[j] * ncols
            ncols *= S.dims[j]
            continue
        mats_t.append(np.ascontiguousarray(U.T))
        mat_cols.append(cols[j])
        kron_cols = (np.arange(U.shape[1])[:, None] * ncols
                     + kron_cols[None, :]).ravel()
        ncols *= U.shape[1]
    nrows = S.dims[skip - 1]
    out = np.zeros(nrows * ncols)
    if S.nnz == 0 or kron_cols.size == 0:
        return out.reshape(nrows, ncols)
    base = cols[skip - 1] * ncols + offset
    step = max(1, _SCATTER_BLOCK // kron_cols.size)
    for a in range(0, S.nnz, step):
        b = min(a + step, S.nnz)
        # (Kronecker column, entry) block, entries fastest and the first
        # listed mode's column fastest among the Kronecker columns
        kron = np.ones((1, b - a))
        for Ut, c in zip(mats_t, mat_cols):
            rows = Ut.take(c[a:b], axis=1)
            kron = (rows[:, None, :] * kron[None, :, :]).reshape(-1, b - a)
        flat = kron_cols[:, None] + base[None, a:b]
        np.add.at(out, flat.ravel(), (kron * S.vals[None, a:b]).ravel())
    return out.reshape(nrows, ncols)


def batched_mode_contract(plan: IndexPlan, dims, vals, factors,
                          skip: int) -> np.ndarray:
    """(S_c x_{j != skip} U_j^T)_(skip) for every vector c of ``vals``.

    ``vals`` is a sequence of n_c value vectors; S_c has the values vals[c]
    on the tuples of ``plan``, and every mode but ``skip`` carries a matrix
    (``factors[skip - 1]`` is ignored).  The result is (n_c, n_skip,
    prod q_j), laid out as :func:`multi_mode_contract`'s, which returns
    slab 0 of this kernel for one vector.

    The tuples that share a mode-skip index (one segment of
    :meth:`IndexPlan.segments`) reduce to one row of the result by one
    small GEMM per vector: the last matrix mode's rows on the segment,
    weighted by the values, times the Kronecker rows of the other matrix
    modes.  A chunk of whole segments pads each with zero weights to its
    longest one, so that one ``np.matmul`` call per vector makes the GEMMs
    of all its segments.  The gathered operands of a chunk hold at most
    about ``_SCATTER_BLOCK`` elements, however the segment lengths vary,
    unless one segment alone is longer; a chunk's GEMM result has one row
    per segment, so it is bounded by the output's rows.  No temporary
    grows with len(plan) or n_c.
    Vector c's GEMMs read the same operand shapes and strides whatever n_c
    is, so its slab does not depend on the other vectors: a slab is
    bit-identical to the kernel's result for that vector alone.
    """
    d = len(plan.cols)
    if not 1 <= skip <= d:
        raise ValueError(f"mode {skip} out of range")
    mats = [U for j, U in enumerate(factors) if j != skip - 1]
    q = math.prod(U.shape[1] for U in mats)
    # with no other mode, each slice's values are summed: a column of ones
    *rest, Ul = mats or [np.ones((dims[skip - 1], 1))]
    ql = Ul.shape[1]
    nv, m = len(vals), len(plan)
    out = np.zeros((nv, dims[skip - 1], q))
    if not (q and nv and m):
        return out
    Ult = np.ascontiguousarray(Ul.T)
    step = max(1, _SCATTER_BLOCK // max(ql, q // ql))
    for keys, n, width, sel, pads, gathered in plan.chunks(skip - 1, step):
        # (last mode's column, slot), slots fastest for the products, and
        # (slot, Kronecker column) rows of the other modes, the first listed
        # mode's column fastest; a column of ones when there are none
        *rest_cols, cl = gathered
        slots = sel.size
        L = Ult.take(cl, axis=1)
        K = np.ones((slots, 1))
        for i, (U, c) in enumerate(zip(rest, rest_cols)):
            rows = U.take(c, axis=0)
            K = rows if i == 0 else (rows[:, :, None]
                                     * K[:, None, :]).reshape(slots, -1)
        K = K.reshape(n, width, -1)
        for c, v in enumerate(vals):
            g = v.take(sel)
            g[pads] = 0.0
            A = (L * g).reshape(ql, n, width).transpose(1, 0, 2)
            out[c, keys] = np.matmul(A, K).reshape(n, q)
    return out


# ---------------------------------------------------------------------------
# File formats

_DENSE_MAGIC = b"TDNS1"


def save_dense(X: np.ndarray, path) -> None:
    """Binary dense format: magic, u32 d, u32 dims[d], float64 LE values."""
    with open(path, "wb") as f:
        f.write(_DENSE_MAGIC)
        f.write(struct.pack("<I", X.ndim))
        f.write(struct.pack(f"<{X.ndim}I", *X.shape))
        f.write(np.asarray(X, dtype="<f8").ravel(order="F").tobytes())


def read_binary_header(path, magic: bytes, what: str, fields: int):
    """(data, header, head) of a binary file: ``magic``, a u32 order d and
    fields * d u32 values (``header``) that end at byte ``head``.

    A wrong magic, a truncated header and order 0 raise a ``ValueError``
    that names the file.  ``what`` names the format in the message.
    """
    with open(path, "rb") as f:
        data = f.read()
    if data[:5] != magic:
        raise ValueError(f"{path}: not a {what} file")
    d = struct.unpack_from("<I", data, 5)[0] if len(data) >= 9 else 0
    head = 9 + 4 * fields * d
    if len(data) < head:
        raise ValueError(f"{path}: truncated {what} header")
    if d == 0:
        raise ValueError(f"{path}: {what} of order 0")
    return data, struct.unpack_from(f"<{fields * d}I", data, 9), head


def read_binary_values(path, data, head: int, count: int,
                       what: str) -> np.ndarray:
    """The ``count`` float64 values after the header that ends at ``head``;
    a file shorter or longer than that raises a ``ValueError``."""
    end = head + 8 * count
    if len(data) != end:
        how = "truncated" if len(data) < end else "trailing bytes after"
        raise ValueError(f"{path}: {how} {what} ({len(data)} bytes, "
                         f"its header declares {end})")
    return np.frombuffer(data, dtype="<f8", offset=head)


def load_dense(path) -> np.ndarray:
    """Read a tensor that :func:`save_dense` wrote; a malformed file or a
    non-finite value raises a ``ValueError`` that names it."""
    data, dims, head = read_binary_header(path, _DENSE_MAGIC, "dense tensor", 1)
    vals = read_binary_values(path, data, head, math.prod(dims), "dense tensor")
    if not np.isfinite(vals).all():
        raise ValueError(f"{path}: non-finite values in the dense tensor")
    return vals.reshape(dims, order="F").copy()


def save_coo(S: SparseCooTensor, path) -> None:
    """Text COO format: header 'd n_1 ... n_d', then 'i_1 ... i_d value' lines.

    Each value is written as ``repr(float(v))``, the shortest text that
    reads back to the same double.
    """
    line = "%d " * len(S.dims) + "%r\n"
    with open(path, "w") as f:
        f.write(" ".join([str(len(S.dims))] + [str(n) for n in S.dims]) + "\n")
        f.writelines(line % (*row, v)
                     for row, v in zip(S.idx.tolist(), S.vals.tolist()))


def load_coo(path) -> SparseCooTensor:
    """Read the text COO format that :func:`save_coo` writes.

    The header must hold an order d >= 1 and d mode sizes >= 1.  Blank lines
    are skipped; every other line must hold d base-10 integer indices and
    one decimal value (``inf`` and ``nan`` included), and nothing else:
    ``1.0`` indices, hex, ``#`` and digit-group underscores are rejected.
    The body is parsed in one pass of numpy's C reader, whose floats round
    correctly, as ``float()`` does.  A malformed header or line and an
    out-of-range or repeated tuple raise a ``ValueError`` that names the file.
    """
    with open(path) as f:
        line = f.readline()
        header = line.split()
        if not header:
            raise ValueError(f"{path}: empty COO file")
        try:
            d, *dims = (int(t) for t in header)
        except ValueError:
            d, dims = 0, []
        if d < 1 or len(dims) != d or min(dims) < 1:
            raise ValueError(f"{path}: malformed COO header {line!r}")
        rows = np.dtype([("idx", np.int64, (d,)), ("val", np.float64)])
        with warnings.catch_warnings():
            # a header-only file is an empty tensor, not a warning
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            # numpy releases that still read '1.0' as an integer warn so
            warnings.filterwarnings("error", ".*integer via a float",
                                    DeprecationWarning)
            try:
                body = np.loadtxt(f, dtype=rows, comments=None, ndmin=1)
            except ValueError as e:
                raise ValueError(f"{path}: malformed COO entry: {e}") from e
    try:
        return SparseCooTensor(tuple(dims), body["idx"], body["val"])
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from e
