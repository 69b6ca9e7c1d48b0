"""tuckeropt: first-order optimization on Tucker tensor varieties.

Library + CLI for provably convergent optimization over tensors of bounded
Tucker rank, with rank-decreasing solver variants, a tensor-completion
application, and brute-force verification oracles.
"""

from .completion import (
    CompletionProblem,
    completion_objective,
    euclidean_gradient,
    gen_synthetic,
    load_problem,
    objective,
    random_tucker,
    save_problem,
    test_error,
)
from .geometry import (
    Contractions,
    StationarityReport,
    TangentVector,
    approx_project,
    choose_singular_complement,
    partial_project,
    stationarity_measure,
    tangent_entries_at,
    tangent_norm,
)
from .oracles import (
    OracleReport,
    ambient_inner,
    angle_constants,
    dense_reference,
    embed,
    exact_tangent_projection_oracle,
    finite_diff_gradient,
    run_check_suites,
    sample_normal,
    tangent_space_project,
)
from .solvers import (
    CandidateExhaustion,
    IterRecord,
    LineSearchFailure,
    ObjectiveHandle,
    SolverConfig,
    SolverTrace,
    armijo_search,
    grap_r_index_sets,
    grap_step,
    rfgrap_r_index_sets,
    rfgrap_step,
    solve_grap,
    solve_grap_r,
    solve_rfgrap,
    solve_rfgrap_r,
    write_summary_json,
    write_trace_csv,
)
from .tensor_core import (
    IndexPlan,
    SparseCooTensor,
    SvdResult,
    best_rank_approx,
    delta_rank,
    fold,
    fro_norm,
    inner,
    load_coo,
    load_dense,
    mode_product,
    multi_mode_contract,
    numerical_rank,
    save_coo,
    save_dense,
    thin_svd,
    unfold,
)
from .tucker import (
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
    tucker_rank,
)

__version__ = "0.1.0"
