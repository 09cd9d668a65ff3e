"""Parallel randomized block-coordinate descent for composite convex problems.

Library layout:

* blocks        -- block partitions and weighted norms
* smooth        -- the smooth part as one sparse operator M with per-row
                   families (residual, logistic, dual)
* regularizers  -- per-coordinate l1-plus-box prox and value
* problem       -- composite problems: block incidence, separability and
                   step weights read off M; one value, gradient and objective
* sampling      -- random block-subset generation
* solver        -- the sampled descent iteration and reference modes
* analysis      -- rate bounds and generalized error bound diagnostics
* generators    -- problems from coordinate data, and reproducible instances
* matrixio      -- coordinate matrix / vector text files
* experiment    -- orchestration and CSV output
* cli           -- command-line entry point
"""

from .analysis import (ErrorBoundFit, RateBundle, bundle_from_reference,
                       error_bound_chain, estimate_strong_convexity,
                       fit_error_bound_constants,
                       iters_to_confidence_error_bound,
                       iters_to_confidence_sublinear, linear_rate_error_bound,
                       linear_rate_strongly_convex, sublinear_gap_bound)
from .blocks import BlockPartition, weighted_norm, weighted_norm_inv
from .errors import (CacheConsistencyError, DescentViolationError,
                     ErrorBoundWitnessError, InputError, InternalError,
                     StructureError)
from .experiment import (ExperimentConfig, build_problem, load_config,
                         reference_and_start, reference_solution, run_cell,
                         run_experiment, write_trace)
from .generators import (GeneratedProblem, dual_from_data, generate_dual,
                         generate_lasso, generate_logistic,
                         lasso_from_matrix, logistic_from_matrix)
from .matrixio import (MatrixFile, load_matrix, load_vector, save_matrix,
                       save_vector)
from .problem import CompositeProblem
from .sampling import BlockSampler, SamplerConfig
from .smooth import SmoothOperator, coordinatewise_constants, spectral_norm_sq
from .solver import (SolveResult, SolverConfig, SolverState, Trace,
                     coordwise_weights, init_solver_state, run, step,
                     verify_and_refresh_caches)

__version__ = "0.1.0"
