"""Acceptance suite: ten headline properties, one printed verdict line each.

Each test prints ``PASS``/``FAIL`` with its headline property so the suite
doubles as a human-readable report (run with ``pytest -s`` to see every line
even on success).
"""

import itertools
import json
import time
from pathlib import Path

import numpy as np

from tuckeropt.completion import (
    completion_objective,
    criterion8,
    criterion9,
    euclidean_gradient,
    gen_synthetic,
    random_tucker,
    spectral_init,
)
from tuckeropt.geometry import (
    Contractions,
    approx_project,
    choose_singular_complement,
    partial_project,
    stationarity_measure,
    tangent_norm,
)
from tuckeropt.oracles import (
    _ref_add_scaled_tangent,
    _ref_approx_project,
    _ref_entries_at,
    _ref_hosvd_truncate,
    _ref_multi_mode_contract,
    _ref_partial_project,
    _ref_stationarity,
    ambient_inner,
    embed,
    finite_diff_gradient,
    sample_normal,
    suite_angle,
    suite_complement,
    suite_hosvd,
)
from tuckeropt.solvers import SOLVERS, SolverConfig
from tuckeropt.tensor_core import (
    SparseCooTensor,
    fro_norm,
    index_plan,
    unfold,
)
from tuckeropt.tucker import (
    TuckerTensor,
    add_scaled_tangent,
    entries_at,
    hosvd_truncate,
    to_dense,
)


PINNED = json.loads(
    (Path(__file__).parent / "gated_trajectories.json").read_text())


def _verdict(num, ok, title, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num}: {title}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num}: {title} {detail}"


def _deficiency_patterns():
    return [p for bits in itertools.product((0, 1), repeat=3)
            for p in [tuple(k + 1 for k in range(3) if bits[k])]]


def _instance_with_pattern(rng, pattern, dims=(6, 6, 6), r=(3, 3, 3)):
    rlow = tuple(r[k] - 1 if (k + 1) in pattern else r[k] for k in range(3))
    X = random_tucker(dims, rlow, rng)
    A = rng.standard_normal(dims)
    return X, A


def test_criterion_1_projection_identity():
    # <A, P(A)> = ||P(A)||^2 for both projections, every deficiency pattern
    rng = np.random.default_rng(10)
    patterns = _deficiency_patterns()
    worst = 0.0
    count = 0
    t0 = time.time()
    while count < 200:
        pattern = patterns[count % len(patterns)]
        X, A = _instance_with_pattern(rng, pattern)
        for V in (approx_project(Contractions(X, A), (3, 3, 3)),
                  partial_project(Contractions(X, A), (3, 3, 3))[0]):
            n2 = tangent_norm(V) ** 2
            if n2 == 0.0:
                continue
            worst = max(worst, abs(ambient_inner(A, V) - n2) / n2)
        count += 1
    elapsed = time.time() - t0
    _verdict(1, worst <= 1e-10 and elapsed < 30,
             "projection inner-product identity",
             f"max rel dev {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_angle_lower_bounds():
    t0 = time.time()
    rep = suite_angle(seed=20, instances=50, restarts=200)
    elapsed = time.time() - t0
    _verdict(2, rep.passed and elapsed < 120,
             "angle lower bounds vs exact-projection oracle",
             f"max violation {rep.max_violation:.2e}, {elapsed:.1f}s")


def test_criterion_3_complement_inequality():
    rep = suite_complement(seed=30, instances=100)
    _verdict(3, rep.passed, "singular-complement norm inequality",
             f"max violation {rep.max_violation:.2e}")


def test_criterion_4_hosvd_bounds():
    rep = suite_hosvd(seed=40, instances=100)
    _verdict(4, rep.passed, "HOSVD quasi-optimality bounds",
             f"max violation {rep.max_violation:.2e}")


def test_criterion_5_normal_cone():
    rng = np.random.default_rng(50)
    worst = 0.0
    for pattern in _deficiency_patterns():
        for i in range(50):
            X, A = _instance_with_pattern(rng, pattern)
            W = sample_normal(X, (3, 3, 3), seed=int(rng.integers(2 ** 31)))
            nw = fro_norm(W)
            if nw == 0.0:
                # full-bound pattern: normal cone may be trivial for some
                # draws; orthogonality holds vacuously
                continue
            V = approx_project(Contractions(X, A), (3, 3, 3))
            nv = tangent_norm(V)
            if nv > 0:
                worst = max(worst, abs(ambient_inner(W, V)) / (nw * nv))
            # constructed stationary point: gradient = -W lies in the
            # normal cone, so the measure must vanish
            stat = stationarity_measure(Contractions(X, -W), (3, 3, 3))
            worst = max(worst, stat / nw)
    # all-deficient edge case: measure equals the gradient norm
    X = random_tucker((6, 6, 6), (2, 2, 2), rng)
    G = rng.standard_normal((6, 6, 6))
    stat = stationarity_measure(Contractions(X, G), (3, 3, 3))
    edge = abs(stat - fro_norm(np.asarray(G))) \
        if all(rl < 3 for rl in X.rank) else np.inf
    # the measure contracts the gradient on no mode only when every mode is
    # deficient; then it reduces to the full gradient norm
    edge_ok = edge <= 1e-10 * fro_norm(G)
    _verdict(5, worst <= 1e-10 and edge_ok,
             "normal-cone orthogonality and stationarity edge cases",
             f"max rel dev {worst:.2e}")


def test_criterion_6_descent_certificates():
    rng = np.random.default_rng(60)
    cfg = SolverConfig(max_iters=40)
    ok = True
    detail = ""
    for i in range(10):
        P, _ = gen_synthetic((8, 8, 8), (2, 2, 2), 0.3,
                             seed=int(rng.integers(2 ** 31)))
        obj = completion_objective(P)
        X0 = spectral_init(P, (2, 2, 2))
        solve = list(SOLVERS.values())[i % 4]
        _, trace = solve(obj, X0, (2, 2, 2), cfg)
        fs = [rec.f_value for rec in trace.records]
        if not all(b <= a + 1e-15 * max(1.0, a) for a, b in zip(fs, fs[1:])):
            ok, detail = False, f"non-monotone trace on instance {i}"
            break
        for prev, cur in zip(trace.records, trace.records[1:]):
            if cur.stepsize == 0.0:
                continue
            lhs = prev.f_value - cur.f_value
            rhs = cur.stepsize * cfg.armijo_a * cur.direction_norm ** 2
            if lhs < rhs - 1e-12 * max(1.0, prev.f_value):
                ok, detail = False, f"Armijo recheck failed on instance {i}"
                break
        if not ok:
            break
    _verdict(6, ok, "monotone descent and re-verified Armijo certificates",
             detail)


def test_criterion_7_gradient_finite_difference():
    rng = np.random.default_rng(70)
    P, _ = gen_synthetic((6, 6, 6), (2, 2, 2), 0.4, seed=7)
    X = random_tucker(P.dims, (2, 2, 2), rng)
    g = euclidean_gradient(P, X).to_dense()
    dense_X = to_dense(X)
    h = 1e-6 * (1 + float(np.abs(dense_X).max()))
    pick = rng.permutation(P.omega.nnz)[:20]
    coords = P.omega.idx[pick]

    def f(T):
        vals = np.array([T[tuple(row - 1)] for row in P.omega.idx])
        return 0.5 * float(np.sum((vals - P.omega.vals) ** 2))

    fd = finite_diff_gradient(f, X, coords, h)
    scale = max(1.0, float(np.abs(g).max()))
    worst = max(abs(g[tuple(c - 1)] - v) for c, v in zip(coords, fd)) / scale
    _verdict(7, worst <= 1e-6, "completion gradient vs finite differences",
             f"max rel dev {worst:.2e}")


def _moved_from_pin(key, trace) -> list:
    """Where a criterion 8 or 9 run left its pinned trajectory.

    ``gated_trajectories.json`` pins the integer half of the trace gate:
    for each criterion8/criterion9 run, its termination and each record's
    [iter, rank, n_candidates, backtracks].  It was written from a
    ``tools/trace_gate.py record`` recording by keeping those fields of
    those eight runs, plus ``numpy.__version__`` and the name and version of
    the BLAS that ``numpy.show_config(mode="dicts")`` reports.  f values,
    which move with rounding, stay with the trace gate's tolerances.
    """
    pin = PINNED["runs"][key]
    ran = {"termination": trace.termination,
           "records": [[rec.iter, list(rec.rank), rec.n_candidates,
                        rec.backtracks] for rec in trace.records]}
    if ran == pin:
        return []
    where = next((f"iteration {old[0]}: pinned {old}, ran {new}"
                  for old, new in zip(pin["records"], ran["records"])
                  if old != new),
                 f"the end: pinned {pin['termination']} after "
                 f"{len(pin['records'])} records, ran {trace.termination} "
                 f"after {len(ran['records'])}")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return [f"{key} left its pinned trajectory at {where} (pinned with "
            f"numpy {PINNED['numpy']}, {PINNED['blas']}; running numpy "
            f"{np.__version__}, {blas['name']} {blas['version']})"]


def _run_gated(criterion, experiment):
    """{solver: (trace, seconds)} of an experiment's four runs, and where
    they left their pinned trajectories."""
    obj = completion_objective(experiment.problem)
    runs, moved = {}, []
    for name, cfg in experiment.configs.items():
        t0 = time.time()
        _, trace = SOLVERS[name](obj, experiment.X0, experiment.rank, cfg)
        runs[name] = trace, time.time() - t0
        moved += _moved_from_pin(f"{criterion}/{name}", trace)
    return runs, moved


def test_criterion_8_true_rank_benchmark():
    t0 = time.time()
    runs, moved = _run_gated("criterion8", criterion8())
    iters = {}
    ok = True
    details = []
    for name, (trace, dt) in runs.items():
        hit = next((rec.iter for rec in trace.records
                    if rec.test_error is not None
                    and rec.test_error <= 1e-6), None)
        iters[name] = hit
        details.append(f"{name}: eps<=1e-6 at iter {hit} [{dt:.0f}s]")
        if hit is None or dt >= 60:
            ok = False
    if ok and iters["grap-r"] > 1.5 * iters["grap"]:
        ok = False
        details.append("grap-r more than 1.5x grap iterations")
    _verdict(8, ok, "true-rank completion benchmark (scaled)",
             "; ".join(details) + f"; total {time.time() - t0:.0f}s")
    assert not moved, moved


def test_criterion_9_over_rank_benchmark():
    t0 = time.time()
    runs, moved = _run_gated("criterion9", criterion9())
    ok = True
    details = []
    for name, (trace, dt) in runs.items():
        rec = trace.final()
        if name.endswith("-r"):
            # rank-decreasing solvers must recover the truth and end
            # rank-deficient
            ok = ok and rec.test_error <= 1e-6 and rec.rank == (2, 2, 2)
            details.append(f"{name}: eps={rec.test_error:.1e} "
                           f"rank={rec.rank} [{dt:.0f}s]")
        else:
            # plain solvers stagnate at the over-parametrized rank
            ok = ok and rec.test_error >= 1e-3
            details.append(f"{name}: eps={rec.test_error:.1e} [{dt:.0f}s]")
    elapsed = time.time() - t0
    ok = ok and elapsed < 120
    _verdict(9, ok, "over-rank recovery benchmark (scaled)",
             "; ".join(details) + f"; total {elapsed:.0f}s")
    assert not moved, moved


def test_criterion_10_structured_vs_dense():
    rng = np.random.default_rng(100)
    worst = 0.0

    def rel(err, ref):
        return err / max(ref, 1e-300)

    for i in range(20):
        dims = (5, 4, 5)
        r = tuple(int(rng.integers(2, 4)) for _ in range(3))
        rlow = tuple(int(rng.integers(1, rk + 1)) for rk in r)
        X = random_tucker(dims, rlow, rng)
        A = rng.standard_normal(dims)
        mask = rng.random(dims) < 0.4
        S = SparseCooTensor(dims, np.argwhere(mask) + 1, A[mask])
        comps = choose_singular_complement(Contractions(X, A), r)

        V = approx_project(Contractions(X, A), r)
        ref = _ref_approx_project(X, A, r, comps)
        worst = max(worst, rel(fro_norm(embed(V) - ref), fro_norm(ref)))

        Vp, branch = partial_project(Contractions(X, A), r)
        refp, refbranch = _ref_partial_project(X, A, r, comps)
        assert branch == refbranch
        worst = max(worst, rel(fro_norm(embed(Vp) - refp), fro_norm(refp)))

        stat = stationarity_measure(Contractions(X, S), r)
        refs = _ref_stationarity(X, S, r)
        worst = max(worst, rel(abs(stat - refs), max(refs, fro_norm(S))))

        T = random_tucker(dims, r, rng)
        rt = tuple(max(1, rk - 1) for rk in r)
        got = to_dense(hosvd_truncate(T, rt))
        reft = _ref_hosvd_truncate(T, rt)
        worst = max(worst, rel(fro_norm(got - reft), T.fro_norm()))

        U = [rng.standard_normal((n, 2)) for n in dims]
        shared = Contractions(TuckerTensor(np.zeros((2, 2, 2)), tuple(U)), S)
        for skip in (1, 2, 3):
            got = unfold(shared.contract(["I" if j == skip - 1 else "U"
                                          for j in range(3)]), skip)
            refm = _ref_multi_mode_contract(S, U, skip)
            worst = max(worst, rel(fro_norm(got - refm),
                                   max(fro_norm(refm), fro_norm(S))))

        Y = add_scaled_tangent(X, 0.7, V)
        refy = _ref_add_scaled_tangent(X, 0.7, V)
        worst = max(worst, rel(fro_norm(to_dense(Y) - refy), fro_norm(refy)))

        idx = np.column_stack([rng.integers(1, n + 1, size=15) for n in dims])
        got = entries_at(T, index_plan(idx, dims))
        refe = _ref_entries_at(T, idx)
        worst = max(worst, rel(float(np.linalg.norm(got - refe)),
                               T.fro_norm()))
    _verdict(10, worst <= 1e-10, "structured ops match dense references",
             f"max rel dev {worst:.2e}")
