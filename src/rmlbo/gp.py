"""Exact Gaussian-process surrogate with a squared-exponential kernel.

Covariance between two points is ``o^2 * exp(-||y1 - y2||^2 / (2 l^2))``
with trainable outputscale ``o`` and lengthscale ``l``.  Inference is exact
through a Cholesky factor of ``K + noise * I``; hyperparameters maximize
the log marginal likelihood of standardized targets with analytic
gradients and a projected BFGS search.  Simulators are deterministic, so
the noise term is a jitter floor rather than real observation noise.

Both fits, :func:`fit` and :func:`fit_with_params`, train on exactly the
rows they are given: one checked and standardized training set and its one
squared-distance matrix.  Both fits and both evidence functions raise the
same ValueError on a count mismatch.
Every factorization goes through the package's one Cholesky,
:func:`rmlbo.problems.chol_spd`, whose ``ValueError("kernel matrix
factorization failed: ...")`` both evidence functions and both fits let through.

The fitter concentrates the outputscale out of the evidence (the
"concentrated likelihood" of kriging: Jones, Schonlau & Welch, J. Global
Optim. 1998; Rasmussen & Williams 2006, sec. 5.4).  With the noise written
as a ratio ``r = noise / o^2``, ``K + noise * I = o^2 A`` where
``A = K_l + r * I`` and ``K_l`` is the kernel at unit outputscale.  The
evidence ``-q / (2 o^2) - log|A| / 2 - n log o - (n / 2) log 2 pi``, with
``q = z^T A^-1 z``, is strictly concave in ``log o`` and peaks at
``o^2 = q / n``; clamped into OUTPUTSCALE_BOUNDS, that value is the exact
maximizer over ``o``.  The search therefore runs over only
``theta = (log l, log r)`` and ``o`` follows in closed form.  By the envelope
theorem, which also holds at the clamp (where ``o`` is constant), the
gradient in ``theta`` is the evidence's partial derivative at fixed ``o``:
with ``a = A^-1 z`` and ``M = a a^T / o^2 - A^-1``, ``d/dlog l =
sum(M * K_l * D) / (2 l^2)`` over squared distances ``D`` and ``d/dlog r =
r tr(M) / 2``.  Neither ``M`` nor the symmetric ``A^-1`` is formed: ``D``
has an exactly zero diagonal, so ``sum(A^-1 * K_l * D)`` is twice its sum
over the lower triangle that ``dpotri`` returns, and
``d/dlog l = (a^T (K_l * D) a / o^2 - 2 <tril(A^-1), K_l * D>) / (2 l^2)``
with ``tr(M) = a^T a / o^2 - tr(A^-1)``.

The ratio is boxed between NOISE_FLOOR and 1e-1, so
``cond(K + noise * I) <= 1 + n / NOISE_FLOOR`` at any outputscale.  An
absolute floor would let exact (noise-free) targets drive the outputscale
to its upper bound and the ratio to 1e-14, where the evidence carries
roundoff of a few hundredths of a nat between nearby points and the search
spends most of its evaluations in line searches that cannot succeed.  The
bound also satisfies Higham's condition for Cholesky to complete,
``20 n^1.5 cond u < 1`` (2002, ch. 10), up to ~460 points, so nothing
stands behind the factorization: no jitter fallback, no merging of
coincident rows, no sentinel evidence for a start that fails to factor, and
no fallback hyperparameters.  A factorization that fails anyway raises out
of the fit.

Restart policy: a cold fit runs FIT_RESTARTS log-uniform starts.  A fit
given ``init`` (the sampler passes each embedding's previous
hyperparameters, so only its first fit is cold) starts from ``init``,
clipped into the current bounds, plus one log-uniform restart.

Each start runs :func:`_search`, the projected form of L-BFGS-B (Byrd, Lu,
Nocedal & Zhu, SIAM J. Sci. Comput. 1995) on two coordinates, with the
BFGS inverse update and its initial scaling ``(s^T y / y^T y) I`` from
Nocedal & Wright, Numerical Optimization, 2nd ed., sec. 6.1.  A coordinate
on a bound whose gradient pushes outward is held; the direction is ``-H g``
in the free coordinates, and ``H`` resets to ``I`` when that is not a
descent direction.  While ``H = I`` a step moves at most one log unit, so a
rough evidence's steep first gradient cannot throw theta into a corner of
the box, where the projected gradient vanishes and the search would stop.
Armijo backtracking runs along the projected path ``clip(theta + t d)``;
each shrink takes the minimizer of the quadratic through ``f(0)``, the
slope and ``f(t)``, kept within ``[0.1 t, 0.5 t]``.  A start succeeds at a
projected gradient of at most 1e-5 or a relative decrease of at most
``1e7 eps`` (scipy's defaults), which includes a step too small to move
theta, as at the noise floor, where the evidence carries roundoff.  It
fails when 30 backtracks find no decrease or after FIT_MAXITER steps.  The
search keeps its state in Python floats: on numpy ``(2,)`` arrays its
bookkeeping cost as much per evaluation as scipy's L-BFGS-B wrapper, about
as much as the evidence itself.

Each concentrated-evidence gradient takes one LAPACK pass over the
factor: ``dpotrf`` factors, ``dpotrs`` solves for ``alpha`` and ``dpotri``
overwrites the factor with the lower triangle of the inverse.  A fitted
model stacks ``alpha`` over the inverse factor in one ``(n + 1, n)`` array,
so a prediction is one GEMM of that array with the unit-outputscale kernel:
row 0 gives the mean and the other rows give ``v``, whose column sums give
the variance.  The outputscale and the target mean and sd scale those ``(m,)``
results, not the ``(n, m)`` kernel.  The model holds the scalars they take,
``-2 l^2``, ``o^2``, ``target_sd * o^2`` and ``-o^2 * o^2``, computed once
when it is built (see :class:`GPModel`), so :func:`predict` takes no
``exp`` of a log hyperparameter and forms no product of them.  These
paths, and :func:`predict` behind every UCB call, run tens of thousands of
times per run on small matrices, so they build their arrays in place: the
evidence's ``K + noise * I`` in one new array, its diagonal reached through
a ``reshape(-1)`` view, which then becomes ``K_l * D`` (equal, since
``D``'s diagonal is zero), and :func:`predict`'s kernel in its fresh
distance matrix, and :func:`ucb` scales and adds :func:`predict`'s fresh
``sd`` into its fresh ``mean``.  Each gives the same bits as the plain
fresh-array expression, which the tests keep as their reference.  Their
products go through ``ndarray.dot`` rather than ``@``: the evidence's
``z^T alpha``, ``alpha^T (K_l * D) alpha`` and ``alpha^T alpha``, and
:func:`predict`'s GEMM.  Both spellings call the same BLAS routine
(``ddot``, ``dgemv``, ``dgemm``) and give the same bits, but ``@`` pays
about 0.3-0.5 us more dispatch per call on these small operands.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack
from scipy.spatial.distance import cdist

from .problems import chol_spd

NOISE_FLOOR = 1e-8
TARGET_SD_FLOOR = 1e-8
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

    ``chol_factor`` is the lower Cholesky of ``K + noise * I``.
    ``alpha_chol_inv`` stacks, in one ``(n + 1, n)`` array, the row
    ``alpha`` that solves that system for the standardized targets ``z``
    over the factor's inverse ``chol_inv``; the ``alpha`` and ``chol_inv``
    properties are views of it.  ``nfev`` and ``failed_starts`` describe the
    hyperparameter search of :func:`fit`: evidence evaluations over all
    starts, and starts that :func:`_search` ended without success, by a
    line search that failed or at FIT_MAXITER steps (both 0 for
    :func:`fit_with_params`).
    An empty model (n = 0) has a (0, 0) factor and a (1, 0) stack; on it
    :func:`predict` gives mean ``target_mean`` and sd ``target_sd * o``.
    Building a model, or assigning its ``params`` or ``target_sd``, sets the
    scalars :func:`predict` scales by, so no prediction recomputes them:
    ``_neg_two_l2 = -2 l^2``, ``_o2 = o^2``, ``_mean_scale = target_sd * o^2``
    and ``_var_scale = -o^2 * o^2``.
    """

    inputs: np.ndarray
    raw_targets: np.ndarray
    target_mean: float
    target_sd: float
    params: KernelParams
    chol_factor: np.ndarray
    alpha_chol_inv: np.ndarray
    nfev: int = 0
    failed_starts: int = 0

    def __setattr__(self, name, value):
        object.__setattr__(self, name, value)
        # __init__ assigns target_sd before params, so the scales are first
        # set once params is
        if name == "params" or name == "target_sd" and "params" in self.__dict__:
            o2 = self.params.outputscale ** 2
            self._neg_two_l2 = -2.0 * self.params.lengthscale ** 2
            self._o2 = o2
            self._mean_scale = self.target_sd * o2
            self._var_scale = -o2 * o2

    @property
    def n_train(self) -> int:
        return self.inputs.shape[0]

    @property
    def alpha(self) -> np.ndarray:
        return self.alpha_chol_inv[0]

    @property
    def chol_inv(self) -> np.ndarray:
        return self.alpha_chol_inv[1:]


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


def _kernel_matrix(sqdist: np.ndarray, lengthscale: float,
                   outputscale: float | None = None, out: np.ndarray | None = None):
    """Kernel values ``o^2 exp(-d / 2 l^2)`` for squared distances ``d``,
    built in ``out``: a new array by default, or ``sqdist`` itself when the
    caller owns a fresh one.  ``outputscale=None`` is the unit outputscale
    of the concentrated evidence, which needs no multiply.  :func:`predict`
    runs the same two ufuncs with its model's ``-2 l^2``."""
    k = np.divide(sqdist, -2.0 * lengthscale ** 2, out=out)
    np.exp(k, out=k)
    if outputscale is not None:
        np.multiply(k, outputscale ** 2, out=k)
    return k


def _factor(sqdist: np.ndarray, z: np.ndarray, lengthscale: float, noise_var: float,
            outputscale: float | None = None):
    """``K + noise * I`` in a new array, its lower factor and ``alpha``."""
    kn = _kernel_matrix(sqdist, lengthscale, outputscale)
    kn.reshape(-1)[::z.size + 1] += noise_var   # a view: kn is fresh and contiguous
    chol = chol_spd(kn, "kernel matrix")
    alpha, _ = lapack.dpotrs(chol, z, lower=1)
    return kn, chol, alpha


def _inverse(chol: np.ndarray) -> np.ndarray:
    """Inverse of the matrix whose lower factor is ``chol``, for the
    three-parameter evidence."""
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
    inputs, z = _points(inputs, targets)
    return _grad_from(_sqdist(inputs, inputs), z, params)


def _points(inputs, targets):
    """Inputs as a matrix and targets as a vector, with one row per target."""
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    targets = np.atleast_1d(np.asarray(targets, dtype=float))
    if inputs.shape[0] != targets.size:
        raise ValueError("inputs and targets disagree on the number of points")
    return inputs, targets


def _input_diameter(inputs: np.ndarray) -> float:
    span = inputs.max(axis=0) - inputs.min(axis=0)
    diam = float(np.sqrt(np.sum(span ** 2)))
    return diam if diam > 1e-12 else 1.0


def _standardize(targets: np.ndarray):
    """``(targets - mean) / sd`` with the mean and the sd, floored at
    TARGET_SD_FLOOR.  The mean and sd are ``np.mean``'s and ``np.std``'s
    bit for bit: the same ufuncs in the same order (a pairwise
    ``add.reduce`` divided by the count, the deviations squared, their
    ``add.reduce`` divided by the count, a square root), without numpy's
    Python-level wrappers."""
    n = targets.size
    mean = np.add.reduce(targets) / n
    z = targets - mean
    var = np.add.reduce(np.square(z)) / n
    sd = max(math.sqrt(var), TARGET_SD_FLOOR)
    z /= sd
    return z, float(mean), sd


def _training_set(inputs, targets):
    """Checked inputs and raw targets, their squared-distance matrix, and
    the standardized targets with their mean and sd: what both fits train on."""
    inputs, targets = _points(inputs, targets)
    if targets.size < 1:
        raise ValueError("fit requires at least one training point")
    if not np.all(np.isfinite(targets)):
        raise ValueError("fit requires finite targets")
    return (inputs, targets, _sqdist(inputs, inputs), *_standardize(targets))


def _assemble(inputs, raw_targets, sqdist, z, mean, sd, params: KernelParams) -> GPModel:
    _, chol, alpha = _factor(sqdist, z, params.lengthscale, params.noise_var,
                             params.outputscale)
    alpha_chol_inv = np.vstack((alpha, lapack.dtrtri(chol, lower=1)[0]))
    return GPModel(inputs=inputs, raw_targets=raw_targets, target_mean=mean,
                   target_sd=sd, params=params, chol_factor=chol,
                   alpha_chol_inv=alpha_chol_inv)


def empty_model(params: KernelParams, dim: int) -> GPModel:
    """Prior-only model of no training points: predicts (0, outputscale)."""
    return GPModel(inputs=np.zeros((0, dim)), raw_targets=np.zeros(0),
                   target_mean=0.0, target_sd=1.0, params=params,
                   chol_factor=np.zeros((0, 0)), alpha_chol_inv=np.zeros((1, 0)))


def fit_with_params(inputs, targets, params: KernelParams) -> GPModel:
    """Cache factors at fixed hyperparameters on :func:`fit`'s training set."""
    return _assemble(*_training_set(inputs, targets), params)


def fit(inputs, targets, rng: np.random.Generator,
        init: KernelParams | None = None) -> GPModel:
    """Fit hyperparameters by maximizing the evidence of standardized
    targets with the projected BFGS search :func:`_search`.

    The outputscale is concentrated out (see the module docstring): the
    search runs over ``(log l, log(noise / o^2))``, the noise ratio boxed to
    ``[NOISE_FLOOR, 1e-1]``, and ``o`` takes its closed-form maximizer.
    Without ``init`` it runs FIT_RESTARTS log-uniform starts.  With ``init``
    it starts from ``init`` mapped to those coordinates and clipped into
    this fit's bounds, plus one log-uniform start.  The model records the
    search's ``nfev`` and ``failed_starts``; the evidence is evaluated
    exactly ``nfev`` times, since the winner's ``o`` comes from its own
    evaluation.  A kernel matrix that fails to factor at any evaluation
    raises the factorization ValueError.
    """
    inputs, targets, sqdist, z, mean, sd = _training_set(inputs, targets)
    diam = _input_diameter(inputs)
    log_o_at = {}   # the maximizing log o at every theta the search evaluates

    def neg_lml(theta):
        lml, (g0, g1), log_o_at[tuple(theta)] = _concentrated(sqdist, z, theta)
        return -lml, (-g0, -g1)

    bounds = (
        (math.log(1e-3 * diam), math.log(1e3 * diam)),
        (math.log(NOISE_FLOOR), math.log(1e-1)),
    )

    def random_start():
        return (rng.uniform(math.log(0.05 * diam), math.log(2.0 * diam)),
                rng.uniform(math.log(1e-6), math.log(1e-2)))

    if init is None:
        starts = [random_start() for _ in range(FIT_RESTARTS)]
    else:
        theta_init = (init.log_lengthscale, init.log_noise_var - 2.0 * init.log_outputscale)
        starts = [tuple(min(max(v, lo), hi) for v, (lo, hi) in zip(theta_init, bounds)),
                  random_start()]
    results = [_search(neg_lml, theta0, bounds, FIT_MAXITER) for theta0 in starts]
    best = min(results, key=lambda res: res[1])[0]
    log_l, log_ratio = best
    log_o = log_o_at[best]   # the winner was evaluated, so no further pass
    params = KernelParams(log_o, log_l, log_ratio + 2.0 * log_o)
    model = _assemble(inputs, targets, sqdist, z, mean, sd, params)
    model.nfev = sum(res[2] for res in results)
    model.failed_starts = sum(not res[3] for res in results)
    return model


def _search(fun, x, bounds, maxiter):
    """Minimize ``fun`` over the box ``bounds`` = ``((lo0, hi0), (lo1, hi1))``
    from ``x`` by projected BFGS on two coordinates.

    ``fun(x)`` returns ``f`` and its gradient as two floats.  Returns the
    last iterate, its ``f``, the evaluations spent and whether the search
    converged: a projected gradient of at most 1e-5, or a relative decrease
    of at most ``1e7 * eps`` in one step (scipy's L-BFGS-B defaults).  A
    line search that fails, or ``maxiter`` steps, end it without success.
    """
    (lo0, hi0), (lo1, hi1) = bounds
    x0, x1 = x
    f, (g0, g1) = fun((x0, x1))
    nfev, steps = 1, 0
    h00, h01, h11, unscaled = 1.0, 0.0, 1.0, True
    while True:
        # a coordinate on a bound with the gradient pushing outward is held there
        free0 = not (x0 <= lo0 and g0 > 0.0 or x0 >= hi0 and g0 < 0.0)
        free1 = not (x1 <= lo1 and g1 > 0.0 or x1 >= hi1 and g1 < 0.0)
        if max(abs(g0) * free0, abs(g1) * free1) <= 1e-5:
            return (x0, x1), f, nfev, True
        if steps == maxiter:
            return (x0, x1), f, nfev, False
        steps += 1
        if free0 and free1:
            d0, d1 = -(h00 * g0 + h01 * g1), -(h01 * g0 + h11 * g1)
        else:   # Newton step of the model restricted to the free coordinate
            det = h00 * h11 - h01 * h01
            d0, d1 = (-det / h11 * g0, 0.0) if free0 else (0.0, -det / h00 * g1)
        if not g0 * d0 + g1 * d1 < 0.0:
            h00, h01, h11, unscaled = 1.0, 0.0, 1.0, True
            d0, d1 = -g0 * free0, -g1 * free1
        # with H = I the step is the raw gradient: move at most one log unit
        t = min(1.0, 1.0 / max(abs(d0), abs(d1))) if unscaled else 1.0
        for _ in range(31):   # Armijo along the projected path, 30 backtracks
            u0, u1 = min(max(x0 + t * d0, lo0), hi0), min(max(x1 + t * d1, lo1), hi1)
            s0, s1 = u0 - x0, u1 - x1
            if s0 == s1 == 0.0:   # a step that no longer moves x decreases nothing
                return (x0, x1), f, nfev, True
            ft, (gt0, gt1) = fun((u0, u1))
            nfev += 1
            decrease = g0 * s0 + g1 * s1
            if ft <= f + 1e-4 * min(decrease, 0.0):
                break
            # minimizer of the quadratic through f, the slope and ft
            curv = ft - f - decrease
            t = min(max(-0.5 * decrease * t / curv, 0.1 * t), 0.5 * t) if curv > 0.0 \
                else 0.5 * t
        else:
            return (x0, x1), f, nfev, False
        relative = (f - ft) / max(abs(f), abs(ft), 1.0)
        y0, y1 = gt0 - g0, gt1 - g1
        x0, x1, f, g0, g1 = u0, u1, ft, gt0, gt1
        if relative <= 1e7 * 2.0 ** -52:
            return (x0, x1), f, nfev, True
        sy = s0 * y0 + s1 * y1
        if sy <= 1e-10 * math.hypot(s0, s1) * math.hypot(y0, y1):
            continue
        if unscaled:   # H = (s^T y / y^T y) I before the first update
            h00 = h11 = sy / (y0 * y0 + y1 * y1)
            h01, unscaled = 0.0, False
        rho = 1.0 / sy
        hy0, hy1 = h00 * y0 + h01 * y1, h01 * y0 + h11 * y1
        c = rho * (1.0 + rho * (y0 * hy0 + y1 * hy1))
        h00 += c * s0 * s0 - 2.0 * rho * hy0 * s0
        h01 += c * s0 * s1 - rho * (hy0 * s1 + s0 * hy1)
        h11 += c * s1 * s1 - 2.0 * rho * hy1 * s1


def _concentrated(sqdist, z, theta):
    """Evidence maximized over the outputscale at ``theta = (log l,
    log(noise / o^2))``, its gradient in ``theta`` as two floats and the
    maximizing ``log o``, clamped into OUTPUTSCALE_BOUNDS."""
    lengthscale, ratio = math.exp(theta[0]), math.exp(theta[1])
    a, chol, alpha = _factor(sqdist, z, lengthscale, ratio)   # A = K_l + r I
    n = z.size
    q = float(z.dot(alpha))
    lo, hi = OUTPUTSCALE_BOUNDS
    o2 = min(max(q / n, lo ** 2), hi ** 2)
    lml = -0.5 * q / o2 - float(np.log(chol.diagonal()).sum()) \
        - 0.5 * n * math.log(2.0 * math.pi * o2)
    inv_lower, _ = lapack.dpotri(chol, lower=1, overwrite_c=1)
    kd = np.multiply(a, sqdist, out=a)   # A * D = K_l * D: D's diagonal is zero
    grad = (
        (float(alpha.dot(kd.dot(alpha))) / o2 - 2.0 * float(np.vdot(inv_lower.T, kd)))
        / (2.0 * lengthscale ** 2),
        0.5 * ratio * (float(alpha.dot(alpha)) / o2 - float(inv_lower.trace())),
    )
    return lml, grad, 0.5 * math.log(o2)


def _grad_from(sqdist, z, params: KernelParams):
    kn, chol, alpha = _factor(sqdist, z, params.lengthscale, params.noise_var,
                              params.outputscale)
    lml = -0.5 * float(z @ alpha) - float(np.sum(np.log(np.diag(chol)))) \
        - 0.5 * z.size * math.log(2.0 * math.pi)
    w = np.outer(alpha, alpha) - _inverse(chol)
    trace_w = float(np.trace(w))
    wk = w * kn   # sum(w * K) = sum(w * kn) - noise tr(w)
    grad = np.array([
        float(np.sum(wk)) - params.noise_var * trace_w,
        0.5 * float(np.sum(wk * sqdist)) / params.lengthscale ** 2,
        0.5 * params.noise_var * trace_w,
    ])
    return lml, grad


def predict(model: GPModel, y) -> tuple[np.ndarray, np.ndarray] | tuple[float, float]:
    """Posterior mean and sd at ``y`` in raw target units.

    Accepts a single point or a matrix of points; sd is clamped at zero.
    An empty model's zero-row products leave the prior.
    """
    y = np.asarray(y, dtype=float)
    single = y.ndim == 1
    pts = y if y.ndim == 2 else np.atleast_2d(y)
    if pts.shape[1] != model.inputs.shape[1]:
        raise ValueError(
            f"query dimension {pts.shape[1]} does not match model "
            f"dimension {model.inputs.shape[1]}")
    # the unit-outputscale kernel, as _kernel_matrix builds it, in the
    # fresh distance matrix
    k_unit = _sqdist(model.inputs, pts)
    np.divide(k_unit, model._neg_two_l2, out=k_unit)
    np.exp(k_unit, out=k_unit)
    # row 0 is alpha^T k_unit and rows 1.. are v = chol_inv k_unit; the
    # kernel is o^2 k_unit, so the mean is o^2 alpha^T k_unit and the
    # variance o^2 - o^4 sum(v^2)
    rows = model.alpha_chol_inv.dot(k_unit)
    mean = rows[0]
    mean *= model._mean_scale
    mean += model.target_mean
    v = rows[1:]
    np.square(v, out=v)
    sd = np.add.reduce(v, axis=0)
    sd *= model._var_scale
    sd += model._o2
    np.maximum(sd, 0.0, out=sd)
    np.sqrt(sd, out=sd)
    sd *= model.target_sd
    if single:
        return float(mean[0]), float(sd[0])
    return mean, sd


def ucb(model: GPModel, y, beta: float):
    """Upper confidence bound ``mean + beta * sd``; ``beta`` must be finite
    and non-negative."""
    if not 0.0 <= beta < math.inf:   # NaN fails both comparisons
        raise ValueError(f"beta must be finite and non-negative, got {beta!r}")
    mean, sd = predict(model, y)
    # predict's arrays are fresh, so the combine reuses them; on a single
    # point's floats the same lines give mean + sd * beta
    sd *= beta
    mean += sd
    return mean
