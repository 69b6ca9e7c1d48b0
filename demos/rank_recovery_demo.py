#!/usr/bin/env python3
"""Rank recovery under an over-estimated rank bound.

This is acceptance criterion 9's experiment.  The ground truth has Tucker
rank (2,2,2) but the solvers are given the loose bound (4,4,4).  The plain methods drive the training objective down yet
stagnate in test error: the surplus rank soaks up spurious components that
the sampling operator barely sees.  The rank-decreasing variants repeatedly
truncate to candidate ranks whose trailing singular values fall below the
threshold, escape those traps, and finish at the true rank with test error
near machine precision.  (At this small problem size the retracted variant's
success is instance-sensitive: on many draws its retraction keeps
re-depositing a tiny spurious component that the sampling operator barely
sees, freezing the stored rank at the bound even as the test error keeps
falling.  The retraction-free variant is far more robust here because its
truncated candidates step along a single partial-projection branch and
deposit no such component.)
"""

import time

from tuckeropt import SOLVERS, completion_objective, criterion9, test_error

problem, X0, r_bound, configs = criterion9()
obj = completion_objective(problem)

print(f"truth rank (2, 2, 2), solver bound {r_bound}, "
      f"|train|={problem.omega.nnz}, random rank-{r_bound[0]} start\n")
print(f"{'solver':9s} {'termination':12s} {'iters':>5s} {'test error':>11s} "
      f"{'final rank':>11s} {'time':>7s}")

for name, cfg in configs.items():
    t0 = time.perf_counter()
    X, trace = SOLVERS[name](obj, X0, r_bound, cfg)
    el = time.perf_counter() - t0
    print(f"{name:9s} {trace.termination:12s} {trace.final().iter:5d} "
          f"{test_error(problem, X):11.3e} {str(X.rank):>11s} {el:6.1f}s")
