"""Unit tests for dense/sparse containers and multilinear kernels."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tuckeropt import geometry, tensor_core
from tuckeropt.geometry import Contractions
from tuckeropt.oracles import (
    _ref_contract,
    _ref_entries_at,
    _ref_multi_mode_contract,
    inner,
    tucker_rank,
)
from tuckeropt.tensor_core import (
    DEFAULT_RANK_TOL,
    IndexPlan,
    SparseCooTensor,
    cutoff_rank,
    delta_rank,
    fold,
    fro_norm,
    index_plan,
    load_coo,
    load_dense,
    mixed_eval,
    mode_product,
    multi_mode_contract,
    save_coo,
    save_dense,
    strictly_increasing,
    thin_svd,
    unfold,
)
from tuckeropt.tucker import TuckerTensor

RNG = np.random.default_rng(1234)


def test_unfold_column_formula():
    # entry (i1,...,id) must land at row i_k, column 1 + sum (i_l-1) J_l
    dims = (3, 4, 2, 5)
    X = RNG.standard_normal(dims)
    for k in range(1, 5):
        M = unfold(X, k)
        assert M.shape == (dims[k - 1], X.size // dims[k - 1])
        for _ in range(20):
            i = tuple(int(RNG.integers(1, n + 1)) for n in dims)
            col = 0
            stride = 1
            for l in range(4):
                if l == k - 1:
                    continue
                col += (i[l] - 1) * stride
                stride *= dims[l]
            assert M[i[k - 1] - 1, col] == X[tuple(x - 1 for x in i)]


def test_fold_inverts_unfold():
    dims = (4, 3, 5)
    X = RNG.standard_normal(dims)
    for k in range(1, 4):
        assert np.array_equal(fold(unfold(X, k), k, dims), X)


def test_unfold_zero_sized_modes():
    Z = np.zeros((0, 3, 2))
    assert unfold(Z, 1).shape == (0, 6)
    assert unfold(Z, 2).shape == (3, 0)
    assert unfold(Z, 3).shape == (2, 0)


def test_unfold_mode_range():
    X = RNG.standard_normal((2, 2))
    with pytest.raises(ValueError):
        unfold(X, 0)
    with pytest.raises(ValueError):
        unfold(X, 3)


def test_mode_product_unfolding_identity():
    X = RNG.standard_normal((4, 5, 3))
    A = RNG.standard_normal((6, 5))
    Y = mode_product(X, 2, A)
    assert np.allclose(unfold(Y, 2), A @ unfold(X, 2))


def test_mode_product_shape_check():
    X = RNG.standard_normal((4, 5, 3))
    with pytest.raises(ValueError):
        mode_product(X, 1, RNG.standard_normal((2, 5)))


def test_mode_products_commute():
    X = RNG.standard_normal((3, 4, 5))
    A = RNG.standard_normal((2, 3))
    B = RNG.standard_normal((6, 5))
    Y1 = mode_product(mode_product(X, 1, A), 3, B)
    Y2 = mode_product(mode_product(X, 3, B), 1, A)
    assert np.allclose(Y1, Y2)


def test_inner_and_norm():
    X = RNG.standard_normal((3, 3, 3))
    assert inner(X, X) == pytest.approx(fro_norm(X) ** 2)
    with pytest.raises(ValueError):
        inner(X, RNG.standard_normal((3, 3)))


def test_thin_svd_reconstruction_and_signs():
    M = RNG.standard_normal((7, 4))
    U, sigma, V = thin_svd(M)
    assert np.allclose((U * sigma) @ V.T, M)
    assert np.allclose(U.T @ U, np.eye(4), atol=1e-12)
    lead = np.argmax(np.abs(U), axis=0)
    assert (U[lead, np.arange(4)] >= 0).all()
    # the sign convention makes thin_svd odd in V alone, bit for bit, which
    # the solvers rely on when they negate the projection of grad f: -M has
    # the same U and sigma as M.  Cases include the rank-deficient
    # (I - U U^T) B that choose_singular_complement decomposes.  (LAPACK
    # may round -M differently when M has exact zeros, so none has any.)
    rng = np.random.default_rng(5)
    cases = [M, M.T]
    for n in (900, 90, 9):
        U = np.linalg.qr(rng.standard_normal((30, 2)))[0]
        B = rng.standard_normal((30, n))
        cases.append(B - U @ (U.T @ B))
    for M in cases:
        (U, sigma, V), (Un, sigman, Vn) = thin_svd(M), thin_svd(-M)
        assert np.array_equal(Un, U)
        assert np.array_equal(sigman, sigma)
        assert np.array_equal(Vn, -V)


def test_delta_rank():
    sigma = np.array([5.0, 1.0, 0.5, 0.01])
    assert delta_rank(sigma, 0.001) == 4
    assert delta_rank(sigma, 0.01) == 3
    assert delta_rank(sigma, 0.6) == 2
    assert delta_rank(sigma, 10.0) == 0
    with pytest.raises(ValueError):
        delta_rank(sigma, 0.0)


def test_numerical_rank():
    U = np.linalg.qr(RNG.standard_normal((8, 8)))[0]
    M = U[:, :3] @ np.diag([1.0, 1e-3, 1e-14]) @ U[:, 3:6].T
    # a matrix is an order-2 tensor whose two unfoldings share its rank
    assert tucker_rank(M) == (2, 2)
    assert tucker_rank(M, 1e-4) == (2, 2)
    assert tucker_rank(M, 1e-2) == (1, 1)
    assert tucker_rank(np.zeros((3, 3))) == (0, 0)
    for tau in (0.0, 1.0):
        with pytest.raises(ValueError):
            tucker_rank(M, tau)


def test_sparse_coo_sorting_and_dense():
    idx = np.array([[2, 1], [1, 2], [1, 1]])
    vals = np.array([3.0, 2.0, 1.0])
    S = SparseCooTensor((2, 2), idx, vals)
    assert np.array_equal(S.idx, [[1, 1], [1, 2], [2, 1]])
    assert np.allclose(S.to_dense(), [[1.0, 2.0], [3.0, 0.0]])
    assert fro_norm(S) == pytest.approx(np.sqrt(14.0))


def test_sorted_coo_input_skips_the_sort(monkeypatch):
    # tuples that already rise strictly are kept as given (copied, not
    # sorted); any other order is sorted, and a repeat is still rejected
    rng = np.random.default_rng(3)
    dims = (5, 4, 6)
    idx = np.argwhere(rng.random(dims) < 0.4) + 1      # lexicographic order
    vals = rng.standard_normal(idx.shape[0])
    sorts = []
    lexsort = np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda k: sorts.append(1) or lexsort(k))
    S = SparseCooTensor(dims, idx, vals)
    assert sorts == []
    assert S.idx is not idx and S.idx.flags.c_contiguous and idx.flags.writeable
    perm = rng.permutation(idx.shape[0])
    T = SparseCooTensor(dims, idx[perm], vals[perm])
    assert sorts == [1]
    for a, b in ((S.idx, T.idx), (S.vals, T.vals)):
        assert a.tobytes() == b.tobytes()
    # a structured-array view, as load_coo hands over, comes out contiguous
    rows = np.zeros(idx.shape[0], dtype=[("idx", np.int64, (3,)),
                                         ("val", np.float64)])
    rows["idx"], rows["val"] = idx, vals
    V = SparseCooTensor(dims, rows["idx"], rows["val"])
    assert V.idx.flags.c_contiguous and V.vals.flags.c_contiguous
    assert V.idx.tobytes() == S.idx.tobytes()
    with pytest.raises(ValueError, match="duplicate"):
        SparseCooTensor(dims, np.vstack([idx[:3], idx[2:3]]), np.ones(4))


def test_strictly_increasing():
    assert strictly_increasing(np.zeros((0, 3), dtype=np.int64))
    assert strictly_increasing(np.array([[2, 1]]))
    assert strictly_increasing(np.array([[1, 9, 9], [2, 1, 1], [2, 1, 2]]))
    assert not strictly_increasing(np.array([[1, 2], [1, 2]]))
    assert not strictly_increasing(np.array([[1, 2], [1, 1]]))
    assert not strictly_increasing(np.array([[2, 1], [1, 9]]))


def test_sparse_coo_validation():
    with pytest.raises(ValueError):
        SparseCooTensor((2, 2), np.array([[1, 1], [1, 1]]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        SparseCooTensor((2, 2), np.array([[0, 1]]), np.array([1.0]))
    with pytest.raises(ValueError):
        SparseCooTensor((2, 2), np.array([[3, 1]]), np.array([1.0]))


def test_dense_roundtrip(tmp_path):
    X = RNG.standard_normal((3, 4, 2))
    path = tmp_path / "x.tdns"
    save_dense(X, path)
    assert np.array_equal(load_dense(path), X)


def test_dense_rejects_garbage(tmp_path):
    path = tmp_path / "bad.tdns"
    path.write_bytes(b"NOTIT" + b"\x00" * 16)
    with pytest.raises(ValueError):
        load_dense(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_load_dense_rejects_non_finite_values(tmp_path, bad):
    X = RNG.standard_normal((3, 4, 2))
    X[2, 1, 1] = bad
    path = tmp_path / "x.tdns"
    save_dense(X, path)
    with pytest.raises(ValueError, match=re.escape(f"{path}: non-finite")):
        load_dense(path)


def _dense_bytes(X):
    return b"TDNS1" + np.array([X.ndim, *X.shape], dtype="<u4").tobytes() + \
        np.asarray(X, dtype="<f8").ravel(order="F").tobytes()


@pytest.mark.parametrize("cut, message", [
    (lambda b: b[:7], "truncated dense tensor header"),
    (lambda b: b[:13], "truncated dense tensor header"),
    (lambda b: b[:-8], "truncated dense tensor"),
    (lambda b: b + b"\x00", "trailing bytes after dense tensor"),
    (lambda b: b"TDNS1" + b"\x00" * 4, "dense tensor of order 0"),
    (lambda b: b"TDNS1" + b"\x00" * 12, "dense tensor of order 0"),
], ids=["magic only", "short dims", "short body", "trailing byte", "order 0",
        "order 0 with a body"])
def test_load_dense_rejects_malformed_files(tmp_path, cut, message):
    path = tmp_path / "bad.tdns"
    path.write_bytes(cut(_dense_bytes(RNG.standard_normal((3, 4, 2)))))
    with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
        load_dense(path)


def _inline_cutoff(s):
    """The cutoff rule as it was written out inline before it had a helper."""
    return int(np.count_nonzero(s > DEFAULT_RANK_TOL * s[0])) \
        if s.size and s[0] > 0 else 0


@pytest.mark.parametrize("sigma", [
    [], [0.0], [0.0, 0.0], [3.0], [2.0, 1.0, 0.0],
    [1.0, DEFAULT_RANK_TOL, DEFAULT_RANK_TOL / 2],      # at the threshold
    [4.0, 4.0 * DEFAULT_RANK_TOL, np.nextafter(4.0 * DEFAULT_RANK_TOL, 1)],
    [1e-300, 1e-312, 0.0],
])
def test_cutoff_rank_matches_the_inline_rule(sigma):
    sigma = np.array(sigma, dtype=np.float64)
    assert cutoff_rank(sigma) == _inline_cutoff(sigma)


def test_cutoff_rank_at_the_threshold():
    # a value equal to tau * sigma_1 is cut, the next double above it kept
    assert cutoff_rank(np.array([1.0, DEFAULT_RANK_TOL])) == 1
    assert cutoff_rank(np.array([1.0, np.nextafter(DEFAULT_RANK_TOL, 1)])) == 2


def _reference_coo_text(S):
    """The per-row formatter that save_coo's output is checked against."""
    lines = [" ".join([str(len(S.dims))] + [str(n) for n in S.dims]) + "\n"]
    for row, v in zip(S.idx, S.vals):
        lines.append(" ".join(str(int(i)) for i in row) + f" {float(v)!r}\n")
    return "".join(lines)


# -0.0, nan, +-inf, the smallest subnormal, a value near the top of the
# range and values that need 17 significant digits to read back exactly
_AWKWARD_VALUES = [-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, 2.2e-310,
                   1e308, -1.7976931348623157e308, 0.1 + 0.2, 1 / 3,
                   -2 / 3 * 1e-100, 123456789.12345679]


def test_coo_roundtrip(tmp_path):
    for dims in [(50,), (7, 9), (4, 4, 4), (3, 4, 2, 5)]:
        total = int(np.prod(dims))
        lin = RNG.choice(total, size=30, replace=False)
        idx = np.column_stack(np.unravel_index(lin, dims)) + 1
        vals = RNG.standard_normal(idx.shape[0])
        vals[:len(_AWKWARD_VALUES)] = _AWKWARD_VALUES
        S = SparseCooTensor(dims, idx, vals)
        path = tmp_path / f"s{len(dims)}.coo"
        save_coo(S, path)
        assert path.read_bytes() == _reference_coo_text(S).encode()
        T = load_coo(path)
        assert T.dims == S.dims
        assert np.array_equal(T.idx, S.idx)
        # repr() round-trips floats exactly: compare bits, signed zeros too
        assert np.array_equal(T.vals.view(np.int64), S.vals.view(np.int64))


_COO_HEADER = "3 4 4 4\n"


@pytest.mark.parametrize("text", [
    "",                                         # no header
    "3 4 4\n",                                  # header: too few sizes
    "3 4 4 4 4\n",                              # header: too many sizes
    "x 4 4 4\n",                                # header: not an integer
    "3 4 4.0 4\n",
    "0\n",                                      # header: order 0
    "3 4 -4 4\n",                               # header: negative size
    _COO_HEADER + "1 1 2.5\n",                  # too few tokens
    _COO_HEADER + "1 1 1 2.5 7\n",              # too many tokens
    _COO_HEADER + "1 1 1 2.5\n2 2 2\n",        # ... on a later line
    _COO_HEADER + "1.0 1 1 2.5\n",              # float index
    _COO_HEADER + "0x1 1 1 2.5\n",              # hex index
    _COO_HEADER + "1 1 1 0x1p3\n",              # hex value
    _COO_HEADER + "1 1 1 #\n",                  # comment token as value
    _COO_HEADER + "# 1 1 2.5\n",                # comment token as index
    _COO_HEADER + "1 1 1 2.5 # note\n",         # trailing comment
    _COO_HEADER + "0 1 1 2.5\n",                # index 0
    _COO_HEADER + "1 5 1 2.5\n",                # index above n_2
    _COO_HEADER + "1 1 1 2.5\n2 2 2 1\n1 1 1 3\n",  # duplicate tuple
])
def test_load_coo_rejects_malformed_files(tmp_path, text):
    path = tmp_path / "bad.coo"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(str(path))):
        load_coo(path)


def test_load_coo_skips_blank_lines_and_reads_header_only_files(tmp_path):
    path = tmp_path / "s.coo"
    path.write_text(_COO_HEADER + "\n2 1 3 -1.5\n   \n\n1 4 4 2.5\n\n")
    S = load_coo(path)
    assert S.dims == (4, 4, 4)
    assert np.array_equal(S.idx, [[1, 4, 4], [2, 1, 3]])
    assert np.array_equal(S.vals, [2.5, -1.5])
    for text in (_COO_HEADER, _COO_HEADER + "\n  \n"):
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            S = load_coo(path)
        assert S.dims == (4, 4, 4) and S.nnz == 0 and S.idx.shape == (0, 3)


def _moveaxis_unfold(X, k):
    """The np.moveaxis formula that unfold replaces; layout reference."""
    cols = int(np.prod([n for i, n in enumerate(X.shape) if i != k - 1],
                       dtype=np.int64))
    return np.moveaxis(X, k - 1, 0).reshape(X.shape[k - 1], cols, order="F")


def _moveaxis_fold(M, k, dims):
    rest = tuple(dims[:k - 1]) + tuple(dims[k:])
    return np.moveaxis(M.reshape((dims[k - 1],) + rest, order="F"), 0, k - 1)


def _same_layout(a, b):
    return (a.shape == b.shape and a.strides == b.strides
            and np.array_equal(a, b))


@pytest.mark.parametrize("dims", [(5,), (3, 4), (2, 3, 4), (2, 3, 1, 4),
                                  (3, 0, 2), (0, 2)])
def test_unfold_fold_match_moveaxis_layout(dims):
    # GEMM rounding depends on layout, so the views must keep their strides
    rng = np.random.default_rng(len(dims))
    X = rng.standard_normal(dims)
    for base in (X, np.asfortranarray(X), X.transpose()[..., ::-1]):
        for k in range(1, base.ndim + 1):
            M = unfold(base, k)
            assert _same_layout(M, _moveaxis_unfold(base, k))
            assert _same_layout(fold(M, k, base.shape),
                                _moveaxis_fold(M, k, base.shape))
            assert np.array_equal(fold(M, k, base.shape), base)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 5), st.integers(2, 5), st.integers(2, 4),
       st.integers(0, 2 ** 31 - 1))
def test_unfold_norm_invariant(n1, n2, n3, seed):
    X = np.random.default_rng(seed).standard_normal((n1, n2, n3))
    for k in (1, 2, 3):
        assert np.isclose(np.linalg.norm(unfold(X, k)), fro_norm(X))


# ---------------------------------------------------------------------------
# Sparse contraction engine

def _bincount_contract(S, factors, skip):
    """One flat bincount over all entries and their Kronecker rows at
    once: the reference for the scatter's bit-equality."""
    cols = [S.idx[:, j] - 1 for j in range(len(S.dims))]
    kron = np.ones((S.nnz, 1))
    kron_cols = np.zeros(1, dtype=np.int64)
    offset = np.zeros(S.nnz, dtype=np.int64)
    ncols = 1
    for j, U in enumerate(factors):
        if j == skip - 1:
            continue
        if U is None:
            offset += cols[j] * ncols
            ncols *= S.dims[j]
            continue
        rows = U[cols[j]]
        kron = (rows[:, :, None] * kron[:, None, :]).reshape(
            S.nnz, rows.shape[1] * kron.shape[1])
        kron_cols = (np.arange(U.shape[1])[:, None] * ncols
                     + kron_cols[None, :]).ravel()
        ncols *= U.shape[1]
    flat = ((cols[skip - 1] * ncols + offset)[:, None]
            + kron_cols[None, :]).ravel()
    nrows = S.dims[skip - 1]
    out = np.bincount(flat, weights=(S.vals[:, None] * kron).ravel(),
                      minlength=nrows * ncols)
    return out.reshape(nrows, ncols)


def _random_coo(dims, frac, rng):
    idx = np.argwhere(rng.random(dims) < frac) + 1
    return SparseCooTensor(dims, idx, rng.standard_normal(idx.shape[0]))


@pytest.mark.parametrize("block", [1, 7, None])
def test_blocked_scatter_is_bit_identical_to_one_bincount(monkeypatch, block):
    # a pattern with one matrix mode is one bincount per column in tuple
    # order: the same sums, in the same order, as one flat bincount over
    # all entries, whatever the skipped mode, the matrix mode and the
    # factor layout.
    # The scatter walks all tuples at once: mixed_eval's block of 1, 7 or
    # the default number of elements leaves its bits as they are
    if block is not None:
        monkeypatch.setattr(tensor_core, "_SCATTER_BLOCK", block)
    rng = np.random.default_rng(5)
    dims = (4, 3, 5, 2)
    S = _random_coo(dims, 0.5, rng)
    empty = SparseCooTensor(dims, np.zeros((0, 4), dtype=np.int64),
                            np.zeros(0))
    U = [rng.standard_normal((n, q)) for n, q in zip(dims, (2, 3, 2, 2))]
    for skip in range(1, 5):
        for m in [j for j in range(4) if j != skip - 1]:
            for M in (U, [np.asfortranarray(M) for M in U],
                      [np.hstack([M, M])[:, :M.shape[1]] for M in U]):
                mats = [M[j] if j == m else None for j in range(4)]
                for T in (S, empty):
                    assert np.array_equal(multi_mode_contract(T, mats, skip),
                                          _bincount_contract(T, mats, skip))
    # a zero-column factor gives an empty unfolding
    mats = [None, np.zeros((3, 0)), None, None]
    got = multi_mode_contract(S, mats, 1)
    assert got.shape == (dims[0], 0)
    assert np.array_equal(got, _bincount_contract(S, mats, 1))


def _all_matrix_cases(rng):
    """(S, factors) at d = 2, 3 and 4, with slice 2 of every mode but the
    last unobserved and one factor of rank 1."""
    for dims, qs in (((7, 5), (3, 2)), ((6, 9, 4), (2, 3, 1)),
                     ((4, 3, 5, 3), (2, 2, 3, 1))):
        S = _random_coo(dims, 0.5, rng)
        keep = (S.idx[:, :-1] != 2).all(axis=1)
        S = SparseCooTensor(dims, S.idx[keep], S.vals[keep])
        yield S, [rng.standard_normal((n, q)) for n, q in zip(dims, qs)]


def test_multi_mode_contract_takes_one_matrix_mode():
    # no matrix mode besides the skipped one, or two or more, is refused:
    # Contractions derives those patterns from one-matrix ones
    rng = np.random.default_rng(6)
    dims = (4, 3, 5, 2)
    S = _random_coo(dims, 0.5, rng)
    U = [rng.standard_normal((n, 2)) for n in dims]
    for skip in range(1, 5):
        with pytest.raises(ValueError, match="got 0"):
            multi_mode_contract(S, [None] * 4, skip)
        # the skipped mode's entry is ignored
        only = [U[j] if j == skip - 1 else None for j in range(4)]
        with pytest.raises(ValueError, match="got 0"):
            multi_mode_contract(S, only, skip)
        with pytest.raises(ValueError, match="got 3"):
            multi_mode_contract(S, U, skip)
        two = [U[j] if j in (skip % 4, (skip + 1) % 4) else None
               for j in range(4)]
        with pytest.raises(ValueError, match="got 2"):
            multi_mode_contract(S, two, skip)


@pytest.mark.parametrize("block", [1, 7, None])
def test_all_matrix_contraction_matches_dense(monkeypatch, block):
    # the pattern with every mode but the skipped one a matrix mode, formed
    # by Contractions, checked against the dense oracle, and as the adjoint
    # of mixed_eval: <mixed_eval(G, U, Omega), v> = <G, S_v x_k U_k^T> for
    # S_v the values v on Omega, with mixed_eval's per-tuple stage in
    # blocks of 1, 7 or the default number of elements
    if block is not None:
        monkeypatch.setattr(tensor_core, "_SCATTER_BLOCK", block)
    rng = np.random.default_rng(31)
    for S, U in _all_matrix_cases(rng):
        d = len(S.dims)
        empty = SparseCooTensor(S.dims, np.zeros((0, d), dtype=np.int64),
                                np.zeros(0))
        for skip in range(1, d + 1):
            modes = ["I" if j == skip - 1 else "U" for j in range(d)]
            D = _contractions(U, S).contract(modes)
            got = unfold(D, skip)
            ref = _ref_multi_mode_contract(S, U, skip)
            assert got.shape == ref.shape
            assert np.allclose(got, ref, rtol=0,
                               atol=1e-13 * np.abs(ref).max())
            if skip < d:
                assert not got[1].any()         # the unobserved slice
            assert np.array_equal(
                _contractions(U, empty).contract(modes),
                np.zeros(D.shape))
            # a zero-column factor on another mode gives an empty unfolding
            zero = [np.zeros((n, 0)) if j == skip % d else M
                    for j, (n, M) in enumerate(zip(S.dims, U))]
            assert unfold(_contractions(zero, S).contract(modes),
                          skip).shape == (S.dims[skip - 1], 0)
            G = rng.standard_normal(tuple(M.shape[1] for M in U))
            full = mode_product(D, skip, U[skip - 1].T)
            lhs = float(mixed_eval(G, U, S.plan) @ S.vals)
            rhs = float(np.dot(G.ravel(), full.ravel()))
            assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def _patterns(d):
    """Every identity/matrix pattern over d modes, as bits (1: identity)."""
    return list(np.ndindex(*(2,) * d))


def test_multi_mode_contract_matches_dense_for_every_pattern():
    # every identity/matrix pattern at d = 2, 3 and 4, formed by
    # Contractions, with slice 2 of every mode but the last unobserved,
    # against the dense oracle at every identity mode's unfolding; an empty
    # tensor gives zeros, a zero-width factor an empty contraction
    rng = np.random.default_rng(34)
    for S, U in _all_matrix_cases(rng):
        d = len(S.dims)
        empty = SparseCooTensor(S.dims, np.zeros((0, d), dtype=np.int64),
                                np.zeros(0))
        for bits in _patterns(d):
            mats = [None if b else M for b, M in zip(bits, U)]
            modes = ["I" if b else "U" for b in bits]
            got = _contractions(U, S).contract(modes)
            for skip in (j + 1 for j in range(d) if bits[j]):
                ref = _ref_multi_mode_contract(S, mats, skip)
                unfolded = unfold(got, skip)
                assert unfolded.shape == ref.shape
                assert np.allclose(unfolded, ref, rtol=0,
                                   atol=1e-13 * np.abs(ref).max())
                if skip < d:
                    assert not unfolded[1].any()    # the unobserved slice
            assert np.array_equal(
                _contractions(U, empty).contract(modes),
                np.zeros(got.shape))
            for j in range(d):
                if not bits[j]:
                    zero = list(U)
                    zero[j] = np.zeros((S.dims[j], 0))
                    assert _contractions(zero, S).contract(
                        modes).shape[j] == 0


def test_no_all_matrix_pattern_reaches_the_scatter(monkeypatch):
    # Contractions sends the kernel only patterns with one matrix mode and
    # derives every other one, at d = 2, 3 and 4
    calls = []
    contract = geometry.multi_mode_contract
    monkeypatch.setattr(geometry, "multi_mode_contract",
                        lambda S, mats, skip: calls.append(
                            [j for j, M in enumerate(mats)
                             if M is not None and j != skip - 1])
                        or contract(S, mats, skip))
    rng = np.random.default_rng(32)
    for S, U in _all_matrix_cases(rng):
        d = len(S.dims)
        calls.clear()
        shared = _contractions(U, S)
        for bits in _patterns(d):
            got = shared.contract(["I" if b else "U" for b in bits])
            ref = _ref_contract(S, [None if b else M
                                    for b, M in zip(bits, U)])
            assert np.allclose(got, ref, rtol=0,
                               atol=1e-13 * np.abs(ref).max())
        # one call per one-matrix pattern, none for the others
        assert sorted(calls) == [[j] for j in range(d)]


def _anchored(U):
    """A point whose factors are the matrices U (the core is not read)."""
    return TuckerTensor(np.zeros(tuple(M.shape[1] for M in U)), tuple(U))


def _contractions(U, A):
    """The Contractions of A at ``_anchored(U)``, bounded by its rank
    (1 on a zero-width factor's mode, which its "I" and "U" patterns do
    not read)."""
    X = _anchored(U)
    return Contractions(X, A, [max(rk, 1) for rk in X.rank])


def test_contract_matches_dense_reference():
    # every identity/factor pattern, from one memo, with a full mode (5 of 5)
    rng = np.random.default_rng(8)
    dims = (4, 5, 3)
    S = _random_coo(dims, 0.4, rng)
    U = [rng.standard_normal((n, q)) for n, q in zip(dims, (2, 5, 3))]
    for A in (S, S.to_dense()):
        shared = _contractions(U, A)
        for bits in np.ndindex(2, 2, 2):
            got = shared.contract(["I" if b else "U" for b in bits])
            ref = _ref_contract(A, [None if bits[j] else U[j]
                                    for j in range(3)])
            assert got.shape == ref.shape
            assert np.allclose(got, ref, atol=1e-12)


def test_contract_with_a_formed_parent_is_bit_identical():
    # a pattern with two or more matrix modes goes through B_s^T, s its
    # first matrix mode, on the pattern that leaves mode s, formed fresh or
    # read from a memo; the kernel skips the last identity mode when it
    # follows the matrix mode, else the first, and its result is the pattern
    rng = np.random.default_rng(9)
    dims = (6, 5, 7)
    S = _random_coo(dims, 0.4, rng)
    U = [rng.standard_normal((n, 3)) for n in dims]
    X = _anchored(U)
    for A in (S, S.to_dense()):
        parent = Contractions(X, A, X.rank).contract(("I", "U", "U"))
        got = Contractions(X, A, X.rank).contract(("U", "U", "U"))
        assert np.array_equal(got, mode_product(parent, 1, U[0].T))
    shared = Contractions(X, S, X.rank)
    last = multi_mode_contract(S, [None, None, U[2]], 1)
    middle = multi_mode_contract(S, [None, U[1], None], 3)
    assert np.array_equal(shared.contract(("I", "I", "U")),
                          fold(last, 1, (6, 5, 3)))
    assert np.array_equal(shared.contract(("I", "U", "I")),
                          fold(middle, 3, (6, 3, 7)))
    assert np.array_equal(shared.contract(("I", "U", "U")),
                          mode_product(fold(last, 1, (6, 5, 3)), 2, U[1].T))
    assert np.array_equal(shared.contract(("U", "U", "I")),
                          mode_product(fold(middle, 3, (6, 3, 7)), 1,
                                       U[0].T))


def _sampled_coo(dims, m, rng, unobserved=True):
    """m distinct random tuples over ``dims``; with ``unobserved``, none in
    slice 2 of mode 1."""
    lin = rng.choice(math.prod(dims), m, replace=False)
    idx = np.column_stack(np.unravel_index(lin, dims)) + 1
    if unobserved:
        idx = idx[idx[:, 0] != 2]
    return SparseCooTensor(dims, idx, rng.standard_normal(len(idx)))


def _leading_modes(monkeypatch):
    """List that receives the leading dims of every fibre index requested."""
    leads = []
    fibres = IndexPlan.fibres
    monkeypatch.setattr(IndexPlan, "fibres",
                        lambda plan, modes, sizes: leads.append(
                            (tuple(modes), tuple(sizes)))
                        or fibres(plan, modes, sizes))
    return leads


# (dims, core shape, number of tuples drawn, modes contracted densely): s is
# the largest s <= d - 1 with n_1 ... n_s <= len(plan), and at least 1
_MIXED_EVAL_CASES = [
    ((7,), (3,), 5, 1),
    ((6, 5), (3, 2), 20, 1),
    ((6, 5, 4), (3, 2, 2), 80, 2),       # 30 fibres for about 66 tuples
    ((6, 5, 4), (3, 2, 2), 20, 1),       # too few tuples for 30 fibres
    ((4, 3, 5, 3), (2, 2, 3, 1), 120, 3),
    ((4, 3, 5, 3), (2, 2, 3, 1), 30, 2),
]


@pytest.mark.parametrize("dims, shape, m, s", _MIXED_EVAL_CASES)
def test_mixed_eval_matches_dense(monkeypatch, dims, shape, m, s):
    # the dense partial of the leading s modes, its fibres gathered and the
    # other modes contracted per tuple, against the dense oracle, with
    # slice 2 of mode 1 unobserved
    rng = np.random.default_rng(41)
    S = _sampled_coo(dims, m, rng)
    core = rng.standard_normal(shape)
    mats = [rng.standard_normal((n, r)) for n, r in zip(dims, shape)]
    leads = _leading_modes(monkeypatch)
    got = mixed_eval(core, mats, S.plan)
    assert leads == [(tuple(range(s)), dims[:s])]
    ref = _ref_entries_at(TuckerTensor(core, mats), S.idx)
    assert np.allclose(got, ref, rtol=0, atol=1e-13 * np.abs(ref).max())
    # a plan that shares the pattern shares its fibre index
    shared = S.with_values(np.zeros(S.nnz)).plan
    assert shared.fibres(range(s), dims[:s]) is S.plan.fibres(range(s),
                                                               dims[:s])


@pytest.mark.parametrize("dims, shape, m, s", _MIXED_EVAL_CASES)
def test_mixed_eval_blocks_are_bit_identical(monkeypatch, dims, shape, m, s):
    # each tuple's sum runs in the same order whatever its block: blocks of
    # 7 tuples (the last one shorter) give the same bits as one block
    rng = np.random.default_rng(42)
    S = _sampled_coo(dims, m, rng, unobserved=False)
    core = rng.standard_normal(shape)
    mats = [rng.standard_normal((n, r)) for n, r in zip(dims, shape)]
    whole = mixed_eval(core, mats, S.plan)
    assert S.nnz * math.prod(shape[s:]) <= tensor_core._SCATTER_BLOCK
    monkeypatch.setattr(tensor_core, "_SCATTER_BLOCK",
                        7 * math.prod(shape[s:]))
    assert S.nnz % 7
    assert np.array_equal(mixed_eval(core, mats, S.plan), whole)


def test_mixed_eval_of_empty_operands_is_zero():
    rng = np.random.default_rng(43)
    dims = (6, 5, 4)
    S = _sampled_coo(dims, 40, rng)
    mats = [rng.standard_normal((n, 2)) for n in dims]
    # a core with a zero mode, which meets a zero-column factor
    zero = [M if k != 1 else np.zeros((5, 0)) for k, M in enumerate(mats)]
    got = mixed_eval(np.zeros((2, 0, 2)), zero, S.plan)
    assert np.array_equal(got, np.zeros(S.nnz))
    # an empty plan
    empty = index_plan(np.zeros((0, 3)), dims)
    got = mixed_eval(rng.standard_normal((2, 2, 2)), mats, empty)
    assert got.shape == (0,)


def test_index_plan_fibres_index_any_mode_subset():
    plan = index_plan([[2, 1, 3], [1, 2, 1], [4, 2, 2]], (4, 2, 3))
    # modes 3 and 1, mode 3 fastest: i_3 - 1 + 3 (i_1 - 1)
    assert plan.fibres((2, 0), (3, 4)).tolist() == [5, 0, 10]
    assert plan.fibres([0, 1], [4, 2]).tolist() == [1, 4, 7]
    # built once per (modes, sizes) and kept
    assert plan.fibres((2, 0), (3, 4)) is plan.fibres([2, 0], [3, 4])
    assert len(plan.fibres((), ())) == 3 and not plan.fibres((), ()).any()


def test_index_plan_checks_its_tuples():
    plan = index_plan([[1, 2, 3], [4, 1, 1]], (4, 2, 3))
    assert len(plan) == 2
    assert np.array_equal(plan.cols[0], [0, 3])
    assert len(index_plan(np.zeros((0, 3)), (4, 2, 3))) == 0
    for bad in ([[0, 1, 1]], [[5, 1, 1]], [[1, 3, 1]], [[1, 1]],
                [[1, 1, 1, 1]]):
        with pytest.raises(ValueError):
            index_plan(bad, (4, 2, 3))
    # the bounds cases that entries_at (over 3^3) and tangent_entries_at
    # (over 4^3) checked when they took plain tuples
    for cases, n in ((([[0, 1, 1]], [[4, 1, 1]], [[1, 1]]), 3),
                     (([[0, 1, 1]], [[5, 1, 1]], [[1, 1]], [[1, 1, 1, 1]]),
                      4)):
        for bad in cases:
            with pytest.raises(ValueError):
                index_plan(np.array(bad), (n,) * 3)
