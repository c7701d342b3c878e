"""Budget-matched comparison methods.

Both baselines simulate and record through one helper (:func:`_record`, on the
sampler's abort rule), emit the sampler's trace format and reuse its
final-selection logic, so comparisons isolate search quality.
"""

from contextlib import suppress

import numpy as np

from .hdbo import (
    RMLResult,
    SimulationRecord,
    _check_instances,
    _simulate,
    select_maximizers,
)
from .problems import ConfigError, ProblemSpec, require_integer
from .rml import objective


def _record(problem: ProblemSpec, x, records: list, objective_index: int) -> np.ndarray:
    """Simulate ``x`` and append it to ``records`` as record ``len(records) + 1``,
    with no embedding and no refined point; returns its forward value."""
    fx = _simulate(problem, x, records)
    # the fields in declaration order (emb_index, y, x, fx, refined_z,
    # f_refined, iteration, objective_index): parsing eight keywords costs
    # about 0.6 us, more than the record itself
    records.append(SimulationRecord(-1, None, x, fx, None, None, len(records) + 1,
                                    objective_index))
    return fx


def random_design(problem: ProblemSpec, instances, budget_N: int,
                  rng: np.random.Generator) -> RMLResult:
    """Evaluate ``budget_N`` (a positive integer) independent prior draws and
    select per-objective maximizers over the shared pool; record ``i`` is
    attributed to objective ``((i - 1) mod n_rml) + 1``."""
    require_integer("budget_N", budget_N)
    _check_instances(instances, problem)
    n_rml = len(instances)
    records = []
    # the draws do not depend on any result: the whole design as one block
    # (one generator call on a box prior), each record's x a row of it
    for x in problem.prior.sample(rng, budget_N):
        _record(problem, x, records, len(records) % n_rml + 1)
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
    """Independent simplex search per objective on an even budget split:
    each objective gets ``budget_N // n_rml`` evaluations of a Nelder-Mead
    search started from a prior draw, its points clipped into the prior's
    support before simulation; no information flows between the searches.
    Selection then scans the combined trace with the shared argmax logic."""
    # imported here, not at module level: no sampler run needs it, and it
    # adds ~0.06 s of set-up and ~11 MiB to every process that imports rmlbo
    from scipy.optimize import minimize

    _check_instances(instances, problem)
    n_rml = len(instances)
    check_local_search_budget(budget_N, n_rml)
    per_objective = budget_N // n_rml
    records = []
    for inst, stream in zip(instances, rng.spawn(n_rml)):
        stop = len(records) + per_objective   # inst's share ends at this trace length

        def run_one(x):
            if len(records) >= stop:
                raise _BudgetExhausted
            x = problem.prior.clip(x)
            return -objective(inst, x, problem, fx=_record(problem, x, records, inst.index))

        with suppress(_BudgetExhausted):
            minimize(run_one, problem.prior.sample(stream), method="Nelder-Mead",
                     options={"maxiter": 10 * per_objective, "maxfev": 10 * per_objective,
                              "xatol": 1e-12, "fatol": 1e-12})
    return select_maximizers(records, instances, problem)
