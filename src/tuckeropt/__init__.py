"""tuckeropt: first-order optimization on Tucker tensor varieties.

Library + CLI for provably convergent optimization over tensors of bounded
Tucker rank, with rank-decreasing solver variants, a tensor-completion
application, and brute-force verification oracles.

The package exports what a script needs to set up and run a solve;
everything else is imported from its module (``tuckeropt.tensor_core``,
``tuckeropt.tucker``, ``tuckeropt.geometry``, ...).
"""

from .completion import (
    completion_objective,
    criterion9,
    gen_synthetic,
    random_tucker,
    spectral_init,
    test_error,
)
from .solvers import (
    SOLVERS,
    ObjectiveHandle,
    SolverConfig,
    solve_grap,
    solve_grap_r,
    write_trace_csv,
)

__version__ = "0.1.0"
