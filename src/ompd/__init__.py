"""Inexact online proximal mirror descent with regret instrumentation."""

from .bregman import (DistanceGenerator, check_pythagorean, check_three_point,
                      divergence, divergence_gradient, euclidean_generator,
                      negative_entropy_generator)
from .errors import (CompositionError, DimensionMismatchError,
                     InnerSolverError, MissingOptimaError, OmpdError,
                     OptimumError, RegimeMismatchError, SolverRunError,
                     StepSizeError, SvdError)
from .experiments import (ExperimentResult, GaussMarkovConfig,
                          SeparationConfig, background_spectrum,
                          coefficient_paths, gauss_markov_constants,
                          generate_gauss_markov, generate_separation,
                          lasso_optima_batch, lasso_stream, run_example1,
                          run_example2, separation_blocks,
                          separation_constants, separation_f1,
                          separation_optima, separation_smoothness,
                          tracking_stream)
from .losses import (CompositeLossStep, ConstantsReport, Domain, ErrorModel,
                     ProblemStream, ball, box, simplex, validate_constants,
                     whole_space, zero_error_model)
from .prox import (BlockRule, ProxRule, block_rule, composed_prox,
                   inexact_mirror_prox, l1_rule, nuclear_rule,
                   singular_value_threshold, soft_threshold, subproblem_solver,
                   zero_rule)
from .regret import (certified_margin, dynamic_regret, fill_optima,
                     ledger_from_trace, offline_optimum, recursion_bound,
                     stream_optima, theorem_rhs, write_bound_csv)
from .solver import (RunTrace, SolverConfig, run, run_proximal_gradient,
                     write_trace_csv)

__version__ = "0.1.0"
