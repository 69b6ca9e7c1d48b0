#!/usr/bin/env python3
"""End-to-end library tour: build a synthetic completion problem and solve it.

Generates a rank-(4,4,4) ground truth on a 40x40x40 grid, observes 10% of its
entries, and runs all four solvers from the same spectral starting point.
Prints one summary line per solver; writes per-iteration traces to
``demo_out/``.
"""

from pathlib import Path

from tuckeropt import (
    SOLVERS,
    SolverConfig,
    completion_objective,
    gen_synthetic,
    spectral_init,
    write_trace_csv,
)

OUT = Path(__file__).resolve().parent / "demo_out"
OUT.mkdir(exist_ok=True)

dims, r = (40, 40, 40), (4, 4, 4)
problem, truth = gen_synthetic(dims, r, p=0.1, seed=7)
print(f"problem: dims={dims}, true rank={r}, |train|={problem.omega.nnz}, "
      f"|test|={problem.gamma.nnz}")

obj = completion_objective(problem)
# spectral initialization: HOSVD of the zero-filled, 1/p-rescaled observations
X0 = spectral_init(problem, r)
cfg = SolverConfig(max_iters=300, stat_tol=1e-8)

for name, solve in SOLVERS.items():
    X, trace = solve(obj, X0, r, cfg)
    rec = trace.final()
    write_trace_csv(trace, OUT / f"completion_{name}.csv")
    print(f"{name:9s} {trace.termination:10s} iters={rec.iter:4d} "
          f"f={rec.f_value:.3e} test_error={rec.test_error:.3e} "
          f"rank={rec.rank}")

print(f"traces written to {OUT}/")
