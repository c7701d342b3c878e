"""Exact Gaussian-process surrogate with a squared-exponential kernel.

Covariance between two points is ``o^2 * exp(-||y1 - y2||^2 / (2 l^2))``
with trainable outputscale ``o`` and lengthscale ``l``.  Inference is exact
through a Cholesky factor of ``K + noise * I``; hyperparameters maximize
the log marginal likelihood of standardized targets with analytic
gradients and L-BFGS-B.  Simulators are deterministic, so the noise term is
a jitter floor rather than real observation noise.

The fitter searches ``theta = (log o, log l, log(noise / o^2))``.  The
noise is boxed relative to the signal variance, between NOISE_FLOOR and
1e-1, so ``cond(K + noise * I) <= 1 + n / NOISE_FLOOR`` at any outputscale.
An absolute floor would let exact (noise-free) targets drive the outputscale
to its upper bound and the ratio to 1e-14, where the evidence carries
roundoff of a few hundredths of a nat between nearby points and L-BFGS-B
spends most of its evaluations in line searches that cannot succeed.  The evidence gradient
is computed in the natural ``(log o, log l, log noise)`` coordinates and
mapped by the chain rule.

Restart policy: a cold fit runs FIT_RESTARTS log-uniform starts.  A fit
given ``init`` (the sampler passes each embedding's previous
hyperparameters, so only its first fit is cold) starts from ``init``,
clipped into the current bounds, plus one log-uniform restart.  When every
start fails to factor, the fit falls back to ``init``.

Each evidence gradient takes one LAPACK pass over the factor: ``dpotrf``
factors, ``dpotrs`` solves for ``alpha`` and ``dpotri`` forms the inverse.
A fitted model caches the inverse factor, so a prediction is one GEMM.
These paths run tens of thousands of times per run on small matrices, so
they build their arrays in place: the kernel in one new array, the noise
added on the diagonal, the inverse symmetrized by adding its transpose.
Each gives the same bits as the plain expression (``o^2 exp(-d / 2 l^2)``,
``K + noise * np.eye(n)``, ``K + np.tril(K, -1).T``), which the tests keep
as their reference.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack
from scipy.optimize import minimize
from scipy.spatial.distance import cdist

NOISE_FLOOR = 1e-8
TARGET_SD_FLOOR = 1e-8
DUPLICATE_TOL = 1e-10
FIT_RESTARTS = 5
FIT_MAXITER = 100
FAILED_LML = 1e25   # negative evidence reported for a start that fails to factor


@dataclass(frozen=True)
class KernelParams:
    """Kernel hyperparameters, stored in log space."""

    log_outputscale: float
    log_lengthscale: float
    log_noise_var: float

    @classmethod
    def from_natural(cls, outputscale: float, lengthscale: float,
                     noise_var: float = NOISE_FLOOR) -> "KernelParams":
        """Parameters from natural values; the noise is clamped at
        ``NOISE_FLOOR * outputscale**2``, the floor :func:`fit` searches above."""
        if outputscale <= 0 or lengthscale <= 0:
            raise ValueError("outputscale and lengthscale must be strictly positive")
        noise_var = max(float(noise_var), NOISE_FLOOR * outputscale ** 2)
        return cls(math.log(outputscale), math.log(lengthscale), math.log(noise_var))

    @property
    def outputscale(self) -> float:
        return math.exp(self.log_outputscale)

    @property
    def lengthscale(self) -> float:
        return math.exp(self.log_lengthscale)

    @property
    def noise_var(self) -> float:
        return math.exp(self.log_noise_var)


@dataclass
class GPModel:
    """Fitted surrogate: training pairs, hyperparameters, cached factors.

    ``chol_factor`` is the lower Cholesky of ``K + noise * I + jitter * I``,
    ``chol_inv`` its inverse, and ``alpha`` solves that system for the
    standardized targets ``z``.  ``jitter`` is what the factorization ladder
    added to the diagonal (0 when the plain matrix factored).  ``nfev`` and
    ``failed_starts`` describe the hyperparameter search of :func:`fit`:
    evidence evaluations over all starts, and starts that ended without
    success or failed to factor (both 0 for :func:`fit_with_params`).
    Empty models (n = 0) revert to the prior: mean ``target_mean``, sd equal
    to the outputscale.
    """

    inputs: np.ndarray
    raw_targets: np.ndarray
    target_mean: float
    target_sd: float
    params: KernelParams
    chol_factor: np.ndarray | None
    alpha: np.ndarray | None
    chol_inv: np.ndarray | None
    jitter: float = 0.0
    nfev: int = 0
    failed_starts: int = 0

    @property
    def n_train(self) -> int:
        return self.inputs.shape[0]


def rbf_kernel(y1, y2, params: KernelParams) -> float:
    """Squared-exponential covariance between two points."""
    y1 = np.atleast_1d(np.asarray(y1, dtype=float))
    y2 = np.atleast_1d(np.asarray(y2, dtype=float))
    if y1.shape != y2.shape:
        raise ValueError(f"kernel arguments must match, got {y1.shape} and {y2.shape}")
    sq = float(np.sum((y1 - y2) ** 2))
    return params.outputscale ** 2 * math.exp(-sq / (2.0 * params.lengthscale ** 2))


def _sqdist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return cdist(a, b, metric="sqeuclidean")


def _kernel_matrix(sqdist: np.ndarray, params: KernelParams) -> np.ndarray:
    """Kernel values for squared distances, built in one new array
    (``sqdist`` is left untouched)."""
    k = np.divide(sqdist, -2.0 * params.lengthscale ** 2)
    np.exp(k, out=k)
    np.multiply(k, params.outputscale ** 2, out=k)
    return k


def _cholesky(kn: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of ``kn`` (zero above the diagonal)."""
    chol, info = lapack.dpotrf(kn, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"dpotrf failed with info={info}")
    return chol


def _chol_with_ladder(kn: np.ndarray) -> tuple[np.ndarray, float]:
    """Factor ``kn``; escalate diagonal jitter from 1e-8 to 1e-4 before
    giving up.  Returns the factor and the jitter added."""
    try:
        return _cholesky(kn), 0.0
    except np.linalg.LinAlgError:
        pass
    base = float(np.mean(np.diag(kn)))
    jitter = 1e-8
    while jitter <= 1e-4:
        try:
            return _cholesky(kn + jitter * base * np.eye(kn.shape[0])), jitter * base
        except np.linalg.LinAlgError:
            jitter *= 10.0
    raise ValueError("kernel matrix factorization failed even with jitter 1e-4")


def _lml_terms(sqdist: np.ndarray, z: np.ndarray, params: KernelParams):
    n = z.size
    k_rbf = _kernel_matrix(sqdist, params)
    kn = k_rbf.copy()
    kn.flat[::n + 1] += params.noise_var
    chol = _cholesky(kn)
    alpha, _ = lapack.dpotrs(chol, z, lower=1)
    lml = -0.5 * float(z @ alpha) - float(np.sum(np.log(np.diag(chol)))) \
        - 0.5 * n * math.log(2.0 * math.pi)
    return lml, k_rbf, chol, alpha


def log_marginal_likelihood(inputs, targets, params: KernelParams) -> float:
    """Gaussian evidence of the given targets under ``K + noise * I``.

    Targets are used as supplied; :func:`fit` standardizes before calling.
    """
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    z = np.atleast_1d(np.asarray(targets, dtype=float))
    if inputs.shape[0] != z.size:
        raise ValueError("inputs and targets disagree on the number of points")
    try:
        lml, _, _, _ = _lml_terms(_sqdist(inputs, inputs), z, params)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"kernel matrix factorization failed: {exc}") from exc
    return lml


def log_marginal_likelihood_grad(inputs, targets,
                                 params: KernelParams) -> tuple[float, np.ndarray]:
    """Evidence and its gradient in (log outputscale, log lengthscale,
    log noise) order.  :func:`fit` searches ``log(noise / outputscale**2)``
    in place of ``log noise`` and maps this gradient by the chain rule."""
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    z = np.atleast_1d(np.asarray(targets, dtype=float))
    return _grad_from(_sqdist(inputs, inputs), z, params)


def _dedup_average(inputs: np.ndarray, targets: np.ndarray):
    """Average targets of rows closer than DUPLICATE_TOL (Euclidean)."""
    n = inputs.shape[0]
    if n < 2:
        return inputs, targets
    d = _sqdist(inputs, inputs) <= DUPLICATE_TOL ** 2
    if np.count_nonzero(d) == n:   # only the diagonal: no duplicates
        return inputs, targets
    assigned = np.full(n, -1, dtype=int)
    groups = []
    for i in range(n):
        if assigned[i] >= 0:
            continue
        members = np.where((assigned < 0) & d[i])[0]
        assigned[members] = len(groups)
        groups.append(members)
    if len(groups) == n:
        return inputs, targets
    out_x = np.stack([inputs[g].mean(axis=0) for g in groups])
    out_z = np.array([targets[g].mean() for g in groups])
    return out_x, out_z


def _input_diameter(inputs: np.ndarray) -> float:
    span = inputs.max(axis=0) - inputs.min(axis=0)
    diam = float(np.sqrt(np.sum(span ** 2)))
    return diam if diam > 1e-12 else 1.0


def _standardize(targets: np.ndarray):
    mean = float(np.mean(targets))
    sd = max(float(np.std(targets)), TARGET_SD_FLOOR)
    return (targets - mean) / sd, mean, sd


def _assemble(inputs, raw_targets, mean, sd, z, params: KernelParams) -> GPModel:
    kn = _kernel_matrix(_sqdist(inputs, inputs), params)
    kn.flat[::inputs.shape[0] + 1] += params.noise_var
    chol, jitter = _chol_with_ladder(kn)
    alpha, _ = lapack.dpotrs(chol, z, lower=1)
    chol_inv, _ = lapack.dtrtri(chol, lower=1)
    return GPModel(inputs=inputs, raw_targets=raw_targets, target_mean=mean,
                   target_sd=sd, params=params, chol_factor=chol, alpha=alpha,
                   chol_inv=chol_inv, jitter=jitter)


def empty_model(params: KernelParams, dim: int) -> GPModel:
    """Prior-only model: predicts (0, outputscale) everywhere."""
    return GPModel(inputs=np.zeros((0, dim)), raw_targets=np.zeros(0),
                   target_mean=0.0, target_sd=1.0, params=params,
                   chol_factor=None, alpha=None, chol_inv=None)


def fit_with_params(inputs, targets, params: KernelParams) -> GPModel:
    """Standardize targets and cache factors at fixed hyperparameters."""
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    targets = np.atleast_1d(np.asarray(targets, dtype=float))
    inputs, targets = _dedup_average(inputs, targets)
    z, mean, sd = _standardize(targets)
    return _assemble(inputs, targets, mean, sd, z, params)


def fit(inputs, targets, rng: np.random.Generator,
        init: KernelParams | None = None) -> GPModel:
    """Fit hyperparameters by maximizing the evidence of standardized
    targets with L-BFGS-B.

    The search runs over ``(log o, log l, log(noise / o^2))``, the noise
    ratio boxed to ``[NOISE_FLOOR, 1e-1]``.  Without ``init`` it runs
    FIT_RESTARTS log-uniform starts.  With ``init`` it starts from ``init``
    mapped to those coordinates and clipped into this fit's bounds, plus one
    log-uniform start; if every start fails to factor, the model keeps
    ``init``.  The model records the search's ``nfev`` and
    ``failed_starts``.
    """
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    targets = np.atleast_1d(np.asarray(targets, dtype=float))
    if inputs.shape[0] < 1:
        raise ValueError("fit requires at least one training point")
    if not np.all(np.isfinite(targets)):
        raise ValueError("fit requires finite targets")
    inputs, targets = _dedup_average(inputs, targets)
    z, mean, sd = _standardize(targets)
    diam = _input_diameter(inputs)
    sqdist = _sqdist(inputs, inputs)

    def params_at(theta):
        return KernelParams(theta[0], theta[1], theta[2] + 2.0 * theta[0])

    def neg_lml(theta):
        try:
            lml, grad = _grad_from(sqdist, z, params_at(theta))
        except np.linalg.LinAlgError:
            return FAILED_LML, np.zeros(3)
        # log noise = theta[2] + 2 theta[0], so d/dtheta[0] gains 2 d/dlog noise
        grad[0] += 2.0 * grad[2]
        return -lml, -grad

    bounds = [
        (math.log(1e-3), math.log(1e3)),
        (math.log(1e-3 * diam), math.log(1e3 * diam)),
        (math.log(NOISE_FLOOR), math.log(1e-1)),
    ]

    def random_start():
        return np.array([
            rng.uniform(math.log(0.1), math.log(10.0)),
            rng.uniform(math.log(0.05 * diam), math.log(2.0 * diam)),
            rng.uniform(math.log(1e-6), math.log(1e-2)),
        ])

    if init is None:
        starts = [random_start() for _ in range(FIT_RESTARTS)]
    else:
        lo, hi = np.array(bounds).T
        theta_init = [init.log_outputscale, init.log_lengthscale,
                      init.log_noise_var - 2.0 * init.log_outputscale]
        starts = [np.clip(theta_init, lo, hi), random_start()]
    best = None
    nfev = failed = 0
    for theta0 in starts:
        res = minimize(neg_lml, theta0, jac=True, method="L-BFGS-B",
                       bounds=bounds, options={"maxiter": FIT_MAXITER})
        nfev += int(res.nfev)
        failed += int(not res.success or not res.fun < FAILED_LML)
        if best is None or res.fun < best.fun:
            best = res
    if best.fun >= FAILED_LML and init is not None:
        params = init
    else:
        params = params_at(best.x)
    model = _assemble(inputs, targets, mean, sd, z, params)
    model.nfev, model.failed_starts = nfev, failed
    return model


def _grad_from(sqdist, z, params: KernelParams):
    lml, k_rbf, chol, alpha = _lml_terms(sqdist, z, params)
    k_inv, _ = lapack.dpotri(chol, lower=1)
    # dpotri fills the lower triangle and leaves the upper one zero, so
    # adding the transpose symmetrizes; halving the doubled diagonal is exact
    k_inv = k_inv + k_inv.T
    k_inv.flat[::z.size + 1] *= 0.5
    w = np.outer(alpha, alpha) - k_inv
    wk = w * k_rbf
    grad = np.array([
        float(np.sum(wk)),
        0.5 * float(np.sum(wk * sqdist)) / params.lengthscale ** 2,
        0.5 * params.noise_var * float(np.trace(w)),
    ])
    return lml, grad


def predict(model: GPModel, y) -> tuple[np.ndarray, np.ndarray] | tuple[float, float]:
    """Posterior mean and sd at ``y`` in raw target units.

    Accepts a single point or a matrix of points; sd is clamped at zero.
    """
    y = np.asarray(y, dtype=float)
    single = y.ndim == 1
    pts = np.atleast_2d(y)
    o = model.params.outputscale
    if model.n_train == 0:
        mean = np.full(pts.shape[0], model.target_mean)
        sd = np.full(pts.shape[0], model.target_sd * o)
    else:
        if pts.shape[1] != model.inputs.shape[1]:
            raise ValueError(
                f"query dimension {pts.shape[1]} does not match model "
                f"dimension {model.inputs.shape[1]}")
        k_star = _kernel_matrix(_sqdist(model.inputs, pts), model.params)
        mean_norm = k_star.T @ model.alpha
        v = model.chol_inv @ k_star
        np.square(v, out=v)
        var_norm = o ** 2 - np.sum(v, axis=0)
        np.maximum(var_norm, 0.0, out=var_norm)
        mean = model.target_mean + model.target_sd * mean_norm
        sd = model.target_sd * np.sqrt(var_norm)
    if single:
        return float(mean[0]), float(sd[0])
    return mean, sd


def ucb(model: GPModel, y, beta: float):
    """Upper confidence bound ``mean + beta * sd``."""
    if beta < 0:
        raise ValueError("beta must be non-negative")
    mean, sd = predict(model, y)
    return mean + beta * sd
