"""Unit tests for the brute-force verification suites."""

import numpy as np
import pytest

from tuckeropt.completion import random_tucker
from tuckeropt.geometry import Contractions, approx_project, tangent_norm
from tuckeropt.oracles import (
    CHECK_SUITES,
    _best_rank_approx,
    _ref_approx_project,
    embed,
    exact_tangent_projection_oracle,
    finite_diff_gradient,
    run_check_suites,
)
from tuckeropt.tensor_core import fro_norm

RNG = np.random.default_rng(5)


def test_exact_projection_oracle_dominates_heuristic():
    # the certified value is a lower bound on the exact projection norm and
    # must be at least the norm of the cheap approximate projection
    for seed in range(5):
        rng = np.random.default_rng(seed)
        X = random_tucker((4, 4, 4), (1, 1, 1), rng)
        A = rng.standard_normal((4, 4, 4))
        V = approx_project(Contractions(X, A, (2, 2, 2)))
        _, val = exact_tangent_projection_oracle(X, A, (2, 2, 2), restarts=20,
                                                 seed=seed)
        assert val >= tangent_norm(V) - 1e-10
        assert val <= fro_norm(A) + 1e-10


def test_oracle_exact_at_full_bound():
    # with no deficiency the tangent cone is a linear space and the oracle
    # must match the closed-form projection
    X = random_tucker((4, 4, 4), (2, 2, 2), RNG)
    A = RNG.standard_normal((4, 4, 4))
    V = approx_project(Contractions(X, A, (2, 2, 2)))
    W, val = exact_tangent_projection_oracle(X, A, (2, 2, 2), restarts=5,
                                             seed=0)
    assert val == pytest.approx(tangent_norm(V), rel=1e-10)
    assert np.allclose(W, embed(V), atol=1e-10)


def test_finite_diff_gradient():
    A = RNG.standard_normal((4, 4, 4))

    def f(X):
        return 0.5 * float(np.sum((X - A) ** 2))

    X = RNG.standard_normal((4, 4, 4))
    coords = [tuple(int(c) for c in RNG.integers(1, 5, size=3))
              for _ in range(5)]
    g = finite_diff_gradient(f, X, coords, h=1e-6)
    for c, val in zip(coords, g):
        at = tuple(i - 1 for i in c)
        assert val == pytest.approx(X[at] - A[at], abs=1e-8)


def test_dense_reference_approx_project():
    from tuckeropt.geometry import choose_singular_complement

    X = random_tucker((4, 4, 4), (2, 2, 2), RNG)
    A = RNG.standard_normal((4, 4, 4))
    comps = choose_singular_complement(Contractions(X, A, (3, 3, 3)))
    V = approx_project(Contractions(X, A, (3, 3, 3)))
    assert all(np.array_equal(a, b) for a, b in zip(V.Ucomp, comps))
    ref = _ref_approx_project(X, A, comps)
    assert np.allclose(embed(V), ref, atol=1e-10)


def test_check_suites_all_pass():
    reports = run_check_suites(None, seed=0, restarts=20)
    assert {r.name for r in reports} == set(CHECK_SUITES)
    for rep in reports:
        assert rep.passed, f"{rep.name}: max violation {rep.max_violation}"
        assert rep.instances_run > 0


def test_check_suite_selection():
    reports = run_check_suites(["hosvd"], seed=1, restarts=5)
    assert len(reports) == 1
    assert reports[0].name == "hosvd"
    d = reports[0].to_dict()
    assert d["pass"] is True
    assert "max_violation" in d and "tolerance" in d


def test_best_rank_approx_is_eckart_young():
    M = RNG.standard_normal((6, 8))
    s = np.linalg.svd(M, compute_uv=False)
    for r in range(0, 4):
        err = np.linalg.norm(M - _best_rank_approx(M, r))
        assert err == pytest.approx(np.sqrt(np.sum(s[r:] ** 2)), rel=1e-12)
    with pytest.raises(ValueError):
        _best_rank_approx(M, 7)
