"""Dense/sparse tensor containers and the low-level multilinear kernels.

Conventions used throughout the package:

* Dense tensors are plain numpy arrays.  Their vectorization order is
  mode-1-fastest (Fortran order), so ``unfold(X, 1)`` is a cheap reshape.
* Modes are 1-based, matching the usual multilinear-algebra notation.
* The mode-k unfolding places entry ``(i_1, ..., i_d)`` at row ``i_k`` and
  column ``1 + sum_{l != k} (i_l - 1) J_l`` with ``J_l = prod_{m < l, m != k} n_m``.
"""

from __future__ import annotations

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

    __slots__ = ("idx", "cols", "_fibres")

    def __init__(self, idx: np.ndarray):
        self.idx = idx
        self.cols = tuple(idx[:, k] - 1 for k in range(idx.shape[1]))
        self._fibres = {}

    def __len__(self) -> int:
        return self.idx.shape[0]

    def fibres(self, modes, sizes) -> np.ndarray:
        """Index of each tuple's fibre in a tensor over the 0-based modes
        ``modes``, of sizes ``sizes``, the first listed mode fastest:
        sum_i cols[modes[i]] * prod_{j < i} sizes[j].  Built on first
        request per (modes, sizes) and kept."""
        key = (tuple(modes), tuple(sizes))
        if key not in self._fibres:
            fib = np.zeros(len(self), dtype=np.int64)
            stride = 1
            for k, n in zip(*key):
                fib += self.cols[k] * stride
                stride *= n
            self._fibres[key] = fib
        return self._fibres[key]


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


def fro_norm(X) -> float:
    if isinstance(X, SparseCooTensor):
        return float(np.linalg.norm(X.vals))
    return float(np.linalg.norm(np.asarray(X).ravel()))


def thin_svd(M: np.ndarray):
    """Thin SVD M = U diag(sigma) V^T, returned as the triple (U, sigma, V).

    The signs are deterministic: in each left singular vector the entry of
    largest absolute value (ties broken by lowest row index) is
    non-negative, and V is adjusted accordingly.

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
    return U, s, V


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


# ---------------------------------------------------------------------------
# Sparse contraction engine: kernels that work on the IndexPlan of a set of
# index tuples and never densify the ambient tensor.

# Elements per block of mixed_eval's per-tuple stage, and so the length of
# its largest per-entry temporaries.
_SCATTER_BLOCK = 1 << 15


def index_plan(idx, dims) -> IndexPlan:
    """Checked :class:`IndexPlan` of plain 1-based index tuples over ``dims``
    (see :func:`_checked_index`)."""
    return IndexPlan(_checked_index(idx, dims))


def mixed_eval(core: np.ndarray, mats, plan: IndexPlan) -> np.ndarray:
    """Entries of core x_k mats[k] at the tuples of ``plan``, not densified.

    The leading s modes are contracted densely, T = core x_1 mats[0] ...
    x_s mats[s - 1]; each tuple reads its fibre of T (the row at
    :meth:`IndexPlan.fibres` of modes 1..s) and contracts it with its rows
    of mats[s:].  s is the largest value <= d - 1 with n_1 ... n_s <=
    len(plan), and at least 1 (for d = 1 nothing is left per tuple).  So T
    has no more fibres than there are tuples unless s = 1, and no temporary
    exceeds max(n_1, len(plan)) * r_2 ... r_d elements.  The per-tuple stage
    walks the tuples in blocks of about ``_SCATTER_BLOCK`` gathered
    elements.  It contracts each mode by one multiply and one in-place add
    per column of the mode's rows, so each entry's sum runs in the same
    order whatever the block size, and the result does not depend on it.
    :func:`multi_mode_contract` is the adjoint of this kernel.
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
    fib = plan.fibres(range(s), dims[:s])
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
    """Compute (S x_m U_m^T)_(skip) exploiting sparsity.

    ``factors`` holds one entry per mode: U_m on exactly one mode m other
    than ``skip`` and None (the identity) on the others, the skipped mode's
    entry ignored; no such m, or two or more, raise a ``ValueError``.
    :class:`~tuckeropt.geometry.Contractions` derives every other pattern.

    The kernel is the adjoint of :func:`mixed_eval`.  Each value, times its
    row of U_m, goes into the dense partial over the other modes, which is
    the output, at the tuple's fibre (:meth:`IndexPlan.fibres`, the skipped
    mode first), by one ``np.bincount`` per column of U_m.  ``bincount``
    adds the tuples in their order, so each sum runs in a fixed order.
    """
    d = len(S.dims)
    if not 1 <= skip <= d:
        raise ValueError(f"mode {skip} out of range")
    matrix = [j for j, U in enumerate(factors)
              if j != skip - 1 and U is not None]
    if len(matrix) != 1:
        raise ValueError(f"expected one matrix mode besides mode {skip}, "
                         f"got {len(matrix)}")
    m = matrix[0]
    U = factors[m]
    if U.shape[0] != S.dims[m]:
        raise ValueError(f"factor {m + 1} has {U.shape[0]} rows, mode has "
                         f"size {S.dims[m]}")
    q = U.shape[1]
    lead = [skip - 1] + [j for j in range(d) if j not in (skip - 1, m)]
    nfib = math.prod(S.dims[j] for j in lead)
    if S.nnz == 0 or q == 0:
        return np.zeros((S.dims[skip - 1], q * nfib // S.dims[skip - 1]))
    fib = S.plan.fibres(lead, [S.dims[j] for j in lead])
    Ut = np.ascontiguousarray(U.T)
    # (column of U_m, fibre); each column's weights are formed in place, one
    # len(S) temporary at a time, which the allocator reuses
    part = np.empty((q, nfib))
    for a in range(q):
        w = Ut[a].take(S.plan.cols[m])
        w *= S.vals
        part[a] = np.bincount(fib, weights=w, minlength=nfib)
    # part in Fortran order is the tensor over lead + [m]; its axes in mode
    # order
    P = part.reshape([q] + [S.dims[j] for j in lead[::-1]]).transpose()
    P = P.transpose(np.argsort(lead + [m]))
    return unfold(P, skip)


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


def read_binary_header(path, magics, what: str, fields: int):
    """(data, header, head) of a binary file: one of the 5-byte ``magics``,
    a u32 order d and fields * d u32 values (``header``) that end at byte
    ``head``.

    A wrong magic, a truncated header and order 0 raise a ``ValueError``
    that names the file.  ``what`` names the format in the message.
    """
    with open(path, "rb") as f:
        data = f.read()
    if data[:5] not in magics:
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
    data, dims, head = read_binary_header(path, (_DENSE_MAGIC,),
                                           "dense tensor", 1)
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
