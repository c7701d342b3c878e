"""Budget-matched comparison methods.

Both baselines emit the same trace format as the main optimizer and reuse
its final-selection logic, so comparisons isolate search quality.
"""

import numpy as np

from .hdbo import (
    RMLResult,
    RunAborted,
    SimulationRecord,
    _check_instances,
    select_maximizers,
)
from .problems import ConfigError, ProblemSpec, SimulatorError, require_integer
from .rml import objective


def random_design(problem: ProblemSpec, instances, budget_N: int,
                  rng: np.random.Generator) -> RMLResult:
    """Evaluate ``budget_N`` (a positive integer) independent prior draws and
    select per-objective maximizers over the shared pool."""
    require_integer("budget_N", budget_N)
    _check_instances(instances, problem)
    n_rml = len(instances)
    records = []
    try:
        for i in range(1, budget_N + 1):
            x = problem.prior.sample(rng)
            fx = problem.simulator(x)
            records.append(SimulationRecord(
                emb_index=-1, y=None, x=x, fx=fx, refined_z=None, f_refined=None,
                iteration=i, objective_index=((i - 1) % n_rml) + 1))
    except SimulatorError as exc:
        raise RunAborted(f"simulator failed mid-run: {exc}", records) from exc
    return select_maximizers(records, instances, problem)


class _BudgetExhausted(Exception):
    pass


def check_local_search_budget(budget_N: int, n_rml: int) -> None:
    """Raise ConfigError unless both counts are positive integers and the
    budget gives every objective at least one evaluation."""
    require_integer("budget_N", budget_N)
    require_integer("n_rml", n_rml)
    if budget_N < n_rml:
        raise ConfigError(f"budget_N={budget_N} cannot cover {n_rml} objectives")


def per_objective_local_search(problem: ProblemSpec, instances, budget_N: int,
                               rng: np.random.Generator) -> RMLResult:
    """Independent simplex search per objective on an even budget split.

    Each objective gets ``budget_N // n_rml`` evaluations of a Nelder-Mead
    search started from a prior draw; no information flows between the
    searches.  Box-prior candidates are clipped into the support before
    simulation.  Selection then scans the combined trace with the shared
    argmax logic.
    """
    # imported here, not at module level: no sampler run needs it, and it
    # adds ~0.06 s of set-up and ~11 MiB to every process that imports rmlbo
    from scipy.optimize import minimize

    _check_instances(instances, problem)
    n_rml = len(instances)
    check_local_search_budget(budget_N, n_rml)
    per_objective = budget_N // n_rml
    streams = rng.spawn(n_rml)
    records = []
    iteration = 0
    for inst, stream in zip(instances, streams):
        used = 0

        def run_one(x):
            nonlocal used, iteration
            if used >= per_objective:
                raise _BudgetExhausted
            x = problem.prior.clip(x)
            fx = problem.simulator(x)
            used += 1
            iteration += 1
            records.append(SimulationRecord(
                emb_index=-1, y=None, x=x, fx=fx, refined_z=None, f_refined=None,
                iteration=iteration, objective_index=inst.index))
            return -objective(inst, x, problem, fx=fx)

        x0 = problem.prior.sample(stream)
        try:
            minimize(run_one, x0, method="Nelder-Mead",
                     options={"maxiter": 10 * per_objective, "maxfev": 10 * per_objective,
                              "xatol": 1e-12, "fatol": 1e-12})
        except _BudgetExhausted:
            pass
        except SimulatorError as exc:
            raise RunAborted(f"simulator failed mid-run: {exc}", records) from exc
    return select_maximizers(records, instances, problem)
