"""Posterior sampling for Bayesian inverse problems by maximizing
randomized objectives with Bayesian optimization over random embeddings."""

from .problems import (
    NEG_INF,
    BoxPrior,
    GaussianSpec,
    LikelihoodSpec,
    ProblemSpec,
    SimulatorError,
    SimulatorHandle,
    log_likelihood,
    log_prior,
)
from .rml import (
    RMLInstance,
    draw_randomizations,
    linear_gaussian_posterior,
    objective,
    oracle_linear_rml,
)
from .gp import GPModel, KernelParams, fit, log_marginal_likelihood, predict, rbf_kernel, ucb
from .embeddings import Embedding, lift, sample_embedding
from .hdbo import (
    ConfigError,
    HDBOConfig,
    RMLResult,
    RunAborted,
    SimulationRecord,
    acquisition_maximize,
    local_prior_refine,
    run_hdbo_rml,
    select_maximizers,
)
from .baselines import per_objective_local_search, random_design
from .bench import (
    ExperimentReport,
    budget_curve,
    make_problem,
    mean_return,
    oracle_rml_result,
    prior_landscape,
    project_active,
)

__version__ = "0.1.0"
