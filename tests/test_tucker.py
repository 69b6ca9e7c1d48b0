"""Unit tests for the Tucker representation, HOSVD, and the exact step."""

import itertools
import math
import re
import struct

import numpy as np
import pytest

from tuckeropt import tucker
from tuckeropt.completion import random_tucker
from tuckeropt.geometry import Contractions, approx_project
from tuckeropt.oracles import _best_rank_approx, embed, tucker_rank
from tuckeropt.tensor_core import (
    SparseCooTensor,
    fold,
    fro_norm,
    index_plan,
    thin_svd,
    unfold,
)
from tuckeropt.tucker import (
    TuckerTensor,
    add_scaled_tangent,
    entries_at,
    hosvd,
    hosvd_truncate,
    hosvd_truncations,
    load_checkpoint,
    mode_singular_values,
    save_checkpoint,
    to_dense,
)

RNG = np.random.default_rng(99)


def _rand_low_rank(dims, r, rng=RNG):
    return to_dense(random_tucker(dims, r, rng))


def test_tucker_validation():
    core = RNG.standard_normal((2, 3))
    with pytest.raises(ValueError):
        TuckerTensor(core, (np.eye(4)[:, :2],))
    with pytest.raises(ValueError):
        TuckerTensor(core, (np.eye(4)[:, :3], np.eye(5)[:, :3]))


def test_hosvd_exact_recovery():
    A = _rand_low_rank((6, 7, 5), (2, 3, 2))
    T = hosvd(A, (2, 3, 2))
    assert T.rank == (2, 3, 2)
    assert np.allclose(to_dense(T), A, atol=1e-12)


def test_hosvd_caps_at_numerical_rank():
    A = _rand_low_rank((6, 6, 6), (2, 2, 2))
    T = hosvd(A, (4, 4, 4))
    assert T.rank == (2, 2, 2)


def test_hosvd_quasi_optimality():
    # each mode-k singular tail lower-bounds the best rank-r error, and the
    # truncation error is sandwiched: max_k tail_k <= err <= sqrt(sum tails^2)
    A = RNG.standard_normal((6, 6, 6))
    r = (3, 3, 3)
    T = hosvd(A, r)
    err = fro_norm(A - to_dense(T))
    tails = [np.sqrt(np.sum(
        np.linalg.svd(unfold(A, k), compute_uv=False)[r[k - 1]:] ** 2))
        for k in (1, 2, 3)]
    assert max(tails) - 1e-12 <= err <= np.sqrt(np.sum(np.square(tails))) + 1e-12
    # so err <= sqrt(d) * max tail <= sqrt(d) * best possible error
    assert err <= np.sqrt(3) * max(tails) + 1e-12


def test_hosvd_matches_sequential_best_approx():
    # ascending sweep: mode-k step is the best rank-r_k matrix approximation
    A = RNG.standard_normal((5, 4, 6))
    r = (2, 2, 3)
    cur = A
    for k in (1, 2, 3):
        cur = fold(_best_rank_approx(unfold(cur, k), r[k - 1]), k, cur.shape)
    T = hosvd(A, r)
    assert np.allclose(to_dense(T), cur, atol=1e-10)


def test_hosvd_truncate_equals_dense_hosvd():
    A = RNG.standard_normal((6, 5, 4))
    T = hosvd(A, (4, 4, 4))
    small = hosvd_truncate(T, (2, 2, 2))
    ref = hosvd(to_dense(T), (2, 2, 2))
    assert np.allclose(to_dense(small), to_dense(ref), atol=1e-10)


def test_hosvd_truncate_rejects_growth():
    T = random_tucker((5, 5, 5), (2, 2, 2), RNG)
    with pytest.raises(ValueError):
        hosvd_truncate(T, (3, 2, 2))


def _sequential_truncate(T, r):
    """Truncation of T to r, one mode after another: the loop that the
    truncation tree shares between ranks."""
    r = (0,) * T.ndim if 0 in r else r
    core, ws = T.core, []
    for k in range(1, T.ndim + 1):
        M = unfold(core, k)
        U, s, _ = thin_svd(M)
        keep = min(r[k - 1], int(np.count_nonzero(s > 1e-12 * s[0]))
                   if s.size and s[0] > 0 else 0)
        ws.append(U[:, :keep])
        dims = tuple(keep if j == k - 1 else n for j, n in enumerate(core.shape))
        core = fold(U[:, :keep].T @ M, k, dims)
    return core, [U @ W for U, W in zip(T.factors, ws)], ws


# every rank with a zero mode truncates along the prefixes (0,) and (0, 0),
# so the zero ranks share one mode-2 and one mode-3 SVD
@pytest.mark.parametrize("sets, svds", [(((2, 3),) * 3, 1 + 2 + 4),
                                        ((range(4),) * 3, 1 + 4 + 1 + 3 * 3),
                                        (((1, 2, 3), (3,), (2, 3)), 1 + 3 + 3)])
def test_truncation_tree_runs_one_svd_per_kept_prefix(monkeypatch, sets, svds):
    # each mode's SVD runs once per distinct set of counts kept in the
    # modes before it (rank-0 prefixes included), and every candidate is
    # bit-identical to truncating to its rank alone
    T = random_tucker((7, 6, 5), (3, 3, 3), RNG)
    ranks = list(itertools.product(*sets))
    calls = []
    monkeypatch.setattr(tucker, "thin_svd",
                        lambda M: calls.append(M.shape) or thin_svd(M))
    out = hosvd_truncations(T, ranks)
    assert len(calls) == svds < len(ranks) * T.ndim
    for r, (Y, ws) in zip(ranks, out):
        core, factors, ref_ws = _sequential_truncate(T, r)
        assert Y.core.tobytes() == core.tobytes()
        for a, b in zip(Y.factors + tuple(ws), factors + ref_ws):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert all(a <= b for a, b in zip(Y.rank, r))
    # a target above T's rank, or without one entry per mode
    for bad in ((4, 2, 2), (2, 2), (2, 2, 2, 2)):
        with pytest.raises(ValueError):
            hosvd_truncations(T, [(2, 2, 2), bad])


@pytest.mark.parametrize("r", [(3, 1, 0), (3, 0, 3), (0, 3, 3), (0, 0, 0)])
def test_truncation_with_a_zero_mode_is_rank_zero(r):
    T = random_tucker((7, 6, 5), (3, 3, 3), RNG)
    Y = hosvd_truncate(T, r)
    assert Y.rank == (0, 0, 0)
    assert [U.shape for U in Y.factors] == [(7, 0), (6, 0), (5, 0)]
    assert not to_dense(Y).any()


def test_entries_at_matches_dense():
    T = random_tucker((5, 6, 4), (2, 3, 2), RNG)
    A = to_dense(T)
    idx = np.column_stack([RNG.integers(1, n + 1, size=30) for n in T.dims])
    vals = entries_at(T, index_plan(idx, T.dims))
    ref = A[tuple(idx.T - 1)]
    assert np.allclose(vals, ref, atol=1e-12)


def test_entries_at_index_plan_matches_tuples():
    T = random_tucker((5, 6, 4), (2, 3, 2), RNG)
    idx = np.column_stack([RNG.integers(1, n + 1, size=30) for n in T.dims])
    S = SparseCooTensor(T.dims, np.unique(idx, axis=0),
                        np.ones(np.unique(idx, axis=0).shape[0]))
    assert np.array_equal(entries_at(T, S.plan),
                          entries_at(T, index_plan(S.idx, T.dims)))
    for k, U in enumerate(T.factors):
        assert np.array_equal(U.take(S.plan.cols[k], axis=0),
                              U[S.idx[:, k] - 1])
    assert S.with_values(2.0 * S.vals).plan is S.plan


def test_entries_at_bounds_check():
    # index_plan checks each tuple's bounds; entries_at checks the plan's
    # count of modes against T
    T = random_tucker((3, 3, 3), (2, 2, 2), RNG)
    with pytest.raises(ValueError):
        entries_at(T, index_plan(np.array([[1, 1]]), (3, 3)))


def test_tucker_rank_and_mode_singular_values():
    T = random_tucker((6, 6, 6), (2, 3, 2), RNG)
    A = to_dense(T)
    assert tucker_rank(A) == (2, 3, 2)
    for k, sig in enumerate(mode_singular_values(T), start=1):
        ref = np.linalg.svd(unfold(A, k), compute_uv=False)
        assert np.allclose(sig, ref[:sig.size], atol=1e-10)


def test_add_scaled_tangent_exact():
    X = random_tucker((6, 6, 6), (2, 2, 2), RNG)
    A = RNG.standard_normal((6, 6, 6))
    V = approx_project(Contractions(X, A, (3, 3, 3)))
    for s in (0.3, 1.7):
        Y = add_scaled_tangent(X, s, V)
        assert np.allclose(to_dense(Y), to_dense(X) + s * embed(V), atol=1e-10)
        # exact representation: each mode stacks at most r + r_low directions
        assert all(a <= 5 for a in Y.rank)


def test_add_scaled_tangent_full_bound():
    # no complement columns: the step stays inside rank <= r_low in each mode
    X = random_tucker((5, 5, 5), (3, 3, 3), RNG)
    A = RNG.standard_normal((5, 5, 5))
    V = approx_project(Contractions(X, A, (3, 3, 3)))
    Y = add_scaled_tangent(X, 0.5, V)
    assert np.allclose(to_dense(Y), to_dense(X) + 0.5 * embed(V), atol=1e-10)


def test_add_scaled_tangent_checks_the_anchor():
    # a V anchored at an equal copy of T steps from T as from the copy; one
    # anchored at a point of another rank is refused
    X = random_tucker((6, 6, 6), (2, 2, 2), RNG)
    A = RNG.standard_normal((6, 6, 6))
    V = approx_project(Contractions(X, A, (3, 3, 3)))
    copy = TuckerTensor(X.core.copy(), tuple(U.copy() for U in X.factors))
    Y, Z = add_scaled_tangent(X, 0.5, V), add_scaled_tangent(copy, 0.5, V)
    assert np.array_equal(Y.core, Z.core)
    assert all(np.array_equal(a, b) for a, b in zip(Y.factors, Z.factors))
    other = random_tucker((6, 6, 6), (2, 3, 2), RNG)
    with pytest.raises(ValueError, match="anchored at a different point"):
        add_scaled_tangent(other, 0.5, V)


def test_checkpoint_roundtrip(tmp_path):
    T = random_tucker((5, 4, 6), (2, 3, 2), RNG)
    path = tmp_path / "x.ttkr"
    for state in ((0, None), (7, 0.125)):
        save_checkpoint(T, path, *state)
        S, *got = load_checkpoint(path)
        assert S.dims == T.dims and S.rank == T.rank
        assert np.array_equal(S.core, T.core)
        for a, b in zip(S.factors, T.factors):
            assert np.array_equal(a, b)
        assert tuple(got) == state
    # the format before the run state reads as a new run from its point
    data = path.read_bytes()
    head = 9 + 8 * 3
    path.write_bytes(b"TTKR1" + data[5:head] + data[head + 16:])
    S, *got = load_checkpoint(path)
    assert np.array_equal(S.core, T.core) and tuple(got) == (0, None)


@pytest.mark.parametrize("state, message", [
    ((-1, None), "iteration is -1"), ((2.5, None), "iteration is 2.5"),
    ((2 ** 64, None), "iteration is 18446744073709551616"),
    ((0, -1.0), "threshold -1.0"), ((0, 0.0), "threshold 0.0"),
    ((0, math.nan), "threshold nan"), ((0, math.inf), "threshold inf")])
def test_save_checkpoint_refuses_what_load_refuses(tmp_path, state, message):
    # an iteration that is not a u64 count and a threshold that is not
    # positive and finite are refused before the file is opened
    T = random_tucker((5, 4, 6), (2, 3, 2), RNG)
    path = tmp_path / "x.ttkr"
    with pytest.raises(ValueError, match=message):
        save_checkpoint(T, path, *state)
    assert not path.exists()


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ttkr"
    path.write_bytes(b"WRONG" + b"\x00" * 32)
    with pytest.raises(ValueError):
        load_checkpoint(path)


def test_checkpoint_rejects_malformed_files(tmp_path):
    T = random_tucker((5, 4, 6), (2, 3, 2), RNG)
    good = tmp_path / "x.ttkr"
    save_checkpoint(T, good, 3, 0.5)
    data = good.read_bytes()
    head = 5 + 4 + 8 * 3
    order0 = data[:5] + struct.pack("<I", 0)
    # rank 5 above n_2 = 4, with as many values as that header declares
    over = (data[:9] + struct.pack("<6I", 5, 4, 6, 2, 5, 2)
            + data[head:head + 16] + bytes(8 * 62))
    # a threshold that is neither NaN nor positive and finite
    delta = [data[:head + 8] + struct.pack("<d", x) + data[head + 16:]
             for x in (0.0, -1.0, math.inf)]
    bad = [data[:7], data[:head - 2], data[:head], data[:head + 12],
           data[:-8], data[:-3], data + b"\x00", data + data[-8:], order0,
           order0 + data[9:], over, *delta]
    for i, blob in enumerate(bad):
        path = tmp_path / f"bad{i}.ttkr"
        path.write_bytes(blob)
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load_checkpoint(path)
