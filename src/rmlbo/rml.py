"""Randomized objectives for posterior sampling.

Posterior samples are obtained by maximizing ``n_rml`` randomized
log-posteriors: each instance perturbs the data (and, for Gaussian priors,
the prior mean) with a fresh draw from the corresponding distribution, then
treats the perturbed log posterior as an objective to maximize.  For a
linear simulator with a Gaussian prior each maximizer has a closed form,
which doubles as the exactness oracle in the tests.
"""

from dataclasses import dataclass

import numpy as np

from .problems import NEG_INF, GaussianSpec, ProblemSpec, chol_spd, require_integer, solve_spd


@dataclass(frozen=True)
class RMLInstance:
    """One randomized objective: perturbed data, and perturbed prior mean
    when the prior is Gaussian (``prior_mean_n`` is None for box priors).
    The fields, in order, are the keys of report.json's instances."""

    index: int
    data_n: np.ndarray
    prior_mean_n: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "data_n", np.atleast_1d(np.asarray(self.data_n, dtype=float)))
        if self.prior_mean_n is not None:
            object.__setattr__(self, "prior_mean_n",
                               np.atleast_1d(np.asarray(self.prior_mean_n, dtype=float)))


def draw_randomizations(problem: ProblemSpec, n_rml: int,
                        rng: np.random.Generator) -> list[RMLInstance]:
    """Draw the ``n_rml`` (a positive integer) randomized instances for a problem.

    Data perturbations use the lower-Cholesky convention
    ``data + L xi`` with ``xi`` standard normal drawn coordinate-ascending;
    Gaussian prior means are perturbed the same way.  No simulator
    evaluations are consumed and the output is fully determined by ``rng``.
    """
    require_integer("n_rml", n_rml)
    gaussian = problem.has_gaussian_prior
    instances = []
    for n in range(1, n_rml + 1):
        data_n = problem.likelihood.data + problem.likelihood.gaussian.chol @ \
            rng.standard_normal(problem.output_dim)
        mean_n = None
        if gaussian:
            mean_n = problem.prior.sample(rng)
        instances.append(RMLInstance(index=n, data_n=data_n, prior_mean_n=mean_n))
    return instances


def objective(instance: RMLInstance, x, problem: ProblemSpec, fx) -> float | np.ndarray:
    """The randomized objective O_n at ``x``, whose forward value ``fx``
    was recorded when ``x`` was simulated.

    Gaussian prior: perturbed log likelihood plus the log prior density
    recentered on the perturbed mean.  Box prior: perturbed log likelihood
    inside the box, -inf outside; a prior term of -inf is returned without
    reading ``fx``.  With ``x`` a ``(k, dim)`` array of points and ``fx``
    their ``(k, m)`` forward values, the result is the array of the ``k``
    one-point values, bit for bit, each -inf prior term's row unread.
    """
    if instance.prior_mean_n is None and problem.has_gaussian_prior:
        raise ValueError(f"instance {instance.index} lacks a perturbed prior mean")
    prior_term = problem.prior.logpdf(x, mean=instance.prior_mean_n)
    # the likelihood term with the data as the mean, so that a stack of
    # forward values is one call
    likelihood = problem.likelihood.gaussian
    if isinstance(prior_term, float):
        if prior_term == NEG_INF:
            return NEG_INF
        return likelihood.logpdf(fx, mean=instance.data_n) + prior_term
    rows = prior_term != NEG_INF
    values = np.full(rows.shape, NEG_INF)
    values[rows] = likelihood.logpdf(fx[rows], mean=instance.data_n) + prior_term[rows]
    return values


def _solve_normal(B, problem: ProblemSpec, data: np.ndarray, mean: np.ndarray):
    """Maximizer of the linear-Gaussian log posterior with data ``data`` and
    prior mean ``mean``, and the lower Cholesky factor of its normal matrix.

    Solves ``(B^T S^-1 B + P^-1) x = B^T S^-1 data + P^-1 mean``.  A normal
    matrix that fails to factor raises ValueError (from :func:`chol_spd`).
    """
    B = np.asarray(B, dtype=float)
    prior: GaussianSpec = problem.prior
    lik_chol = problem.likelihood.gaussian.chol
    Pinv = solve_spd(prior.chol, np.eye(prior.dim))
    chol = chol_spd(B.T @ solve_spd(lik_chol, B) + Pinv, name="normal matrix")
    rhs = B.T @ solve_spd(lik_chol, data) + Pinv @ mean
    return solve_spd(chol, rhs), chol


def oracle_linear_rml(B: np.ndarray, instance: RMLInstance, problem: ProblemSpec) -> np.ndarray:
    """Closed-form maximizer of O_n when the simulator is ``x -> B x`` and
    the prior is Gaussian: the posterior mean of the problem whose data and
    prior mean are the instance's perturbed ones (Oliver, He & Reynolds
    1996), from the one normal system :func:`linear_gaussian_posterior`
    solves."""
    if not problem.has_gaussian_prior:
        raise ValueError("linear RML oracle requires a Gaussian prior")
    if instance.prior_mean_n is None:
        raise ValueError(f"instance {instance.index} lacks a perturbed prior mean")
    return _solve_normal(B, problem, instance.data_n, instance.prior_mean_n)[0]


def linear_gaussian_posterior(B: np.ndarray,
                              problem: ProblemSpec) -> tuple[np.ndarray, np.ndarray]:
    """Analytic posterior mean and covariance for ``x -> B x`` with a
    Gaussian prior (conjugate update; used by exactness checks)."""
    if not problem.has_gaussian_prior:
        raise ValueError("analytic posterior requires a Gaussian prior")
    mean, chol = _solve_normal(B, problem, problem.likelihood.data, problem.prior.mean)
    return mean, solve_spd(chol, np.eye(problem.input_dim))
