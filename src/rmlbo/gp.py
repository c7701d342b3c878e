"""Exact Gaussian-process surrogate with a squared-exponential kernel.

Covariance between two points is ``o^2 * exp(-||y1 - y2||^2 / (2 l^2))``
with trainable outputscale ``o`` and lengthscale ``l``.  Inference is exact
through a Cholesky factor of ``K + noise * I``; hyperparameters maximize
the log marginal likelihood of standardized targets with analytic
gradients and L-BFGS-B.  Simulators are deterministic, so the noise term is
a jitter floor rather than real observation noise.

Both fits, :func:`fit` and :func:`fit_with_params`, train on one checked,
deduplicated and standardized training set and its one squared-distance
matrix.  Both evidence functions raise ValueError on a count mismatch.
Every factorization goes through one Cholesky call, which raises the one
``ValueError("kernel matrix factorization failed: ...")`` that both
evidence functions and both fits let through.

The fitter concentrates the outputscale out of the evidence (the
"concentrated likelihood" of kriging: Jones, Schonlau & Welch, J. Global
Optim. 1998; Rasmussen & Williams 2006, sec. 5.4).  With the noise written
as a ratio ``r = noise / o^2``, ``K + noise * I = o^2 A`` where
``A = K_l + r * I`` and ``K_l`` is the kernel at unit outputscale.  The
evidence ``-q / (2 o^2) - log|A| / 2 - n log o - (n / 2) log 2 pi``, with
``q = z^T A^-1 z``, is strictly concave in ``log o`` and peaks at
``o^2 = q / n``; clamped into OUTPUTSCALE_BOUNDS, that value is the exact
maximizer over ``o``.  L-BFGS-B therefore searches only
``theta = (log l, log r)`` and ``o`` follows in closed form.  By the envelope
theorem, which also holds at the clamp (where ``o`` is constant), the
gradient in ``theta`` is the evidence's partial derivative at fixed ``o``:
with ``a = A^-1 z`` and ``M = a a^T / o^2 - A^-1``, ``d/dlog l =
sum(M * K_l * D) / (2 l^2)`` over squared distances ``D`` and ``d/dlog r =
r tr(M) / 2``.

The ratio is boxed between NOISE_FLOOR and 1e-1, so
``cond(K + noise * I) <= 1 + n / NOISE_FLOOR`` at any outputscale.  An
absolute floor would let exact (noise-free) targets drive the outputscale
to its upper bound and the ratio to 1e-14, where the evidence carries
roundoff of a few hundredths of a nat between nearby points and L-BFGS-B
spends most of its evaluations in line searches that cannot succeed.  The
bound also satisfies Higham's condition for Cholesky to complete,
``20 n^1.5 cond u < 1`` (2002, ch. 10), up to ~460 points, so nothing
stands behind the factorization: no jitter fallback, no sentinel evidence
for a start that fails to factor, and no fallback hyperparameters.  A
factorization that fails anyway raises out of the fit.

Restart policy: a cold fit runs FIT_RESTARTS log-uniform starts.  A fit
given ``init`` (the sampler passes each embedding's previous
hyperparameters, so only its first fit is cold) starts from ``init``,
clipped into the current bounds, plus one log-uniform restart.

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
OUTPUTSCALE_BOUNDS = (1e-3, 1e3)


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

    ``chol_factor`` is the lower Cholesky of ``K + noise * I``, ``chol_inv``
    its inverse, and ``alpha`` solves that system for the standardized
    targets ``z``.  ``nfev`` and ``failed_starts`` describe the
    hyperparameter search of :func:`fit`: evidence evaluations over all
    starts, and starts that L-BFGS-B ended without success (both 0 for
    :func:`fit_with_params`).
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
    """Lower Cholesky factor of ``kn`` (zero above the diagonal).  A matrix
    that fails to factor raises the module's one factorization ValueError."""
    chol, info = lapack.dpotrf(kn, lower=1)
    if info != 0:
        raise ValueError(f"kernel matrix factorization failed: dpotrf failed with info={info}")
    return chol


def _factor(sqdist: np.ndarray, z: np.ndarray, params: KernelParams):
    """Kernel matrix, lower factor of ``K + noise * I`` and ``alpha``."""
    k_rbf = _kernel_matrix(sqdist, params)
    kn = k_rbf.copy()
    kn.flat[::z.size + 1] += params.noise_var
    chol = _cholesky(kn)
    alpha, _ = lapack.dpotrs(chol, z, lower=1)
    return k_rbf, chol, alpha


def _inverse(chol: np.ndarray) -> np.ndarray:
    """Inverse of the matrix whose lower factor is ``chol``."""
    inv, _ = lapack.dpotri(chol, lower=1)
    # dpotri fills the lower triangle and leaves the upper one zero, so
    # adding the transpose symmetrizes; halving the doubled diagonal is exact
    inv = inv + inv.T
    inv.flat[::chol.shape[0] + 1] *= 0.5
    return inv


def log_marginal_likelihood(inputs, targets, params: KernelParams) -> float:
    """Gaussian evidence of the given targets under ``K + noise * I``.

    Targets are used as supplied; :func:`fit` standardizes before calling.
    """
    return log_marginal_likelihood_grad(inputs, targets, params)[0]


def log_marginal_likelihood_grad(inputs, targets,
                                 params: KernelParams) -> tuple[float, np.ndarray]:
    """Evidence and its gradient in (log outputscale, log lengthscale,
    log noise) order.  :func:`fit` does not call it: it maximizes the
    evidence over the outputscale in closed form and searches the other
    two coordinates (see the module docstring).  This three-parameter form
    is the reference the concentrated evidence is tested against."""
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    z = np.atleast_1d(np.asarray(targets, dtype=float))
    if inputs.shape[0] != z.size:
        raise ValueError("inputs and targets disagree on the number of points")
    return _grad_from(_sqdist(inputs, inputs), z, params)


def _dedup_average(inputs: np.ndarray, targets: np.ndarray):
    """Average targets of rows closer than DUPLICATE_TOL (Euclidean); also
    return the squared distances of the rows returned, recomputed only on a merge."""
    n = inputs.shape[0]
    sqdist = _sqdist(inputs, inputs)
    d = sqdist <= DUPLICATE_TOL ** 2
    if np.count_nonzero(d) == n:   # only the diagonal: no duplicates
        return inputs, targets, sqdist
    assigned = np.full(n, -1, dtype=int)
    groups = []
    for i in range(n):
        if assigned[i] >= 0:
            continue
        members = np.where((assigned < 0) & d[i])[0]
        assigned[members] = len(groups)
        groups.append(members)
    out_x = np.stack([inputs[g].mean(axis=0) for g in groups])
    out_z = np.array([targets[g].mean() for g in groups])
    return out_x, out_z, _sqdist(out_x, out_x)


def _input_diameter(inputs: np.ndarray) -> float:
    span = inputs.max(axis=0) - inputs.min(axis=0)
    diam = float(np.sqrt(np.sum(span ** 2)))
    return diam if diam > 1e-12 else 1.0


def _standardize(targets: np.ndarray):
    mean = float(np.mean(targets))
    sd = max(float(np.std(targets)), TARGET_SD_FLOOR)
    return (targets - mean) / sd, mean, sd


def _training_set(inputs, targets):
    """Checked, deduplicated inputs and raw targets, their squared-distance
    matrix, and the standardized targets with their mean and sd: what both
    fits train on."""
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    targets = np.atleast_1d(np.asarray(targets, dtype=float))
    if inputs.shape[0] < 1 or targets.size < 1:
        raise ValueError("fit requires at least one training point")
    if not np.all(np.isfinite(targets)):
        raise ValueError("fit requires finite targets")
    inputs, targets, sqdist = _dedup_average(inputs, targets)
    return (inputs, targets, sqdist, *_standardize(targets))


def _assemble(inputs, raw_targets, sqdist, z, mean, sd, params: KernelParams) -> GPModel:
    _, chol, alpha = _factor(sqdist, z, params)
    chol_inv, _ = lapack.dtrtri(chol, lower=1)
    return GPModel(inputs=inputs, raw_targets=raw_targets, target_mean=mean,
                   target_sd=sd, params=params, chol_factor=chol, alpha=alpha,
                   chol_inv=chol_inv)


def empty_model(params: KernelParams, dim: int) -> GPModel:
    """Prior-only model: predicts (0, outputscale) everywhere."""
    return GPModel(inputs=np.zeros((0, dim)), raw_targets=np.zeros(0),
                   target_mean=0.0, target_sd=1.0, params=params,
                   chol_factor=None, alpha=None, chol_inv=None)


def fit_with_params(inputs, targets, params: KernelParams) -> GPModel:
    """Cache factors at fixed hyperparameters on :func:`fit`'s training set."""
    return _assemble(*_training_set(inputs, targets), params)


def fit(inputs, targets, rng: np.random.Generator,
        init: KernelParams | None = None) -> GPModel:
    """Fit hyperparameters by maximizing the evidence of standardized
    targets with L-BFGS-B.

    The outputscale is concentrated out (see the module docstring): the
    search runs over ``(log l, log(noise / o^2))``, the noise ratio boxed to
    ``[NOISE_FLOOR, 1e-1]``, and ``o`` takes its closed-form maximizer.
    Without ``init`` it runs FIT_RESTARTS log-uniform starts.  With ``init``
    it starts from ``init`` mapped to those coordinates and clipped into
    this fit's bounds, plus one log-uniform start.  The model records the
    search's ``nfev`` and ``failed_starts``.  A kernel matrix that fails to
    factor at any evaluation raises the factorization ValueError.
    """
    inputs, targets, sqdist, z, mean, sd = _training_set(inputs, targets)
    diam = _input_diameter(inputs)

    def neg_lml(theta):
        lml, grad, _ = _concentrated(sqdist, z, theta)
        return -lml, -grad

    bounds = [
        (math.log(1e-3 * diam), math.log(1e3 * diam)),
        (math.log(NOISE_FLOOR), math.log(1e-1)),
    ]

    def random_start():
        return np.array([
            rng.uniform(math.log(0.05 * diam), math.log(2.0 * diam)),
            rng.uniform(math.log(1e-6), math.log(1e-2)),
        ])

    if init is None:
        starts = [random_start() for _ in range(FIT_RESTARTS)]
    else:
        lo, hi = np.array(bounds).T
        theta_init = [init.log_lengthscale, init.log_noise_var - 2.0 * init.log_outputscale]
        starts = [np.clip(theta_init, lo, hi), random_start()]
    best = None
    nfev = failed = 0
    for theta0 in starts:
        res = minimize(neg_lml, theta0, jac=True, method="L-BFGS-B",
                       bounds=bounds, options={"maxiter": FIT_MAXITER})
        nfev += int(res.nfev)
        failed += int(not res.success)
        if best is None or res.fun < best.fun:
            best = res
    log_l, log_ratio = best.x
    log_o = _concentrated(sqdist, z, best.x)[2]
    params = KernelParams(log_o, log_l, log_ratio + 2.0 * log_o)
    model = _assemble(inputs, targets, sqdist, z, mean, sd, params)
    model.nfev, model.failed_starts = nfev, failed
    return model


def _concentrated(sqdist, z, theta):
    """Evidence maximized over the outputscale at ``theta = (log l,
    log(noise / o^2))``, its gradient in ``theta`` and the maximizing
    ``log o``, clamped into OUTPUTSCALE_BOUNDS."""
    unit = KernelParams(0.0, theta[0], theta[1])   # factors A = K_l + r I
    k_unit, chol, alpha = _factor(sqdist, z, unit)
    n = z.size
    q = float(z @ alpha)
    lo, hi = OUTPUTSCALE_BOUNDS
    o2 = min(max(q / n, lo ** 2), hi ** 2)
    lml = -0.5 * q / o2 - float(np.sum(np.log(np.diag(chol)))) \
        - 0.5 * n * math.log(2.0 * math.pi * o2)
    w = np.outer(alpha, alpha)
    w /= o2
    w -= _inverse(chol)
    grad = np.array([
        0.5 * float(np.sum(w * k_unit * sqdist)) / unit.lengthscale ** 2,
        0.5 * unit.noise_var * float(np.trace(w)),
    ])
    return lml, grad, 0.5 * math.log(o2)


def _grad_from(sqdist, z, params: KernelParams):
    k_rbf, chol, alpha = _factor(sqdist, z, params)
    lml = -0.5 * float(z @ alpha) - float(np.sum(np.log(np.diag(chol)))) \
        - 0.5 * z.size * math.log(2.0 * math.pi)
    w = np.outer(alpha, alpha) - _inverse(chol)
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
