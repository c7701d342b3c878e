"""Inverse-problem ingredients.

Defines simulators, Gaussian and box priors, the Gaussian likelihood, and
the dense SPD algebra (Cholesky factors, solves and the one Gaussian log
density, ``GaussianSpec.logpdf``) that every other module builds on.

Each prior owns its rules: ``logpdf(x, mean=None)`` (a box's is 0 inside
and -inf outside, with no mean to recenter), ``clip(x)`` into its support
(all of R^D for a Gaussian) and ``sample(rng, size=None)``.  ``sample``
draws one point, or with ``size`` a ``(size, dim)`` block whose row ``i``
is bit for bit the ``i``-th of ``size`` successive one-point draws and
after which the generator is in the same state.  A box block is one
generator call; a Gaussian block stacks one-point draws.
``logpdf`` and ``clip`` of either prior, and ``BoxPrior.contains``, reject
a point (``GaussianSpec.logpdf`` also a mean) whose shape is not
``(dim,)``.  ``logpdf`` also scores a ``(k, dim)`` stack of points, each
entry bit for bit its one-point value (``GaussianSpec``'s against a given
mean), so ``rml.objective`` scores a stack of candidates in one call.  No
other module branches on the prior's kind to evaluate, clip or draw.

The log density's square norm is ``w.dot(w)``, not ``w @ w``: both call
BLAS ``ddot`` and give the same bits, but on one short vector ``@`` costs
about 0.3-0.5 us more dispatch, paid once per scored row.  Every product on
a budgeted evaluation's path follows the same rule: the catalog forward
maps (``bench``), ``lift``'s ``R y`` and the proximal step's ``Sigma x0``.
:class:`SimulatorHandle` tests an output's finiteness by counting its finite
entries, where ``ndarray.all()`` would run numpy's ``_methods`` wrapper and
a ufunc reduce.

Conventions:
  * :func:`chol_spd` factors every SPD matrix, the GP's kernel matrix
    included, and a failed factorization raises: there is no jitter retry;
  * solves go through lower factors (:func:`solve_spd`); ``rml`` alone
    solves against the identity, for a prior precision and a covariance;
  * out-of-support log densities are the IEEE ``-inf`` sentinel, which
    propagates through sums (``-inf + finite == -inf``) so an infeasible
    point can never win an argmax.
"""

import numbers
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack

NEG_INF = float("-inf")

LOG_2PI = float(np.log(2.0 * np.pi))


class SimulatorError(RuntimeError):
    """Simulator evaluation failed; carries the offending input."""

    def __init__(self, message, x):
        super().__init__(message)
        self.x = np.asarray(x, dtype=float)


class ConfigError(ValueError):
    """Invalid run configuration."""


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


_AT_LEAST = {0: "a non-negative integer", 1: "a positive integer"}


def require_integer(name: str, value, minimum: int = 1) -> None:
    """Raise ConfigError naming ``name`` unless ``value`` is a Python or numpy
    integer (not a bool) of at least ``minimum`` (0 or 1)."""
    if not _is_integer(value) or value < minimum:
        raise ConfigError(f"{name}: expected {_AT_LEAST[minimum]}, got {value!r}")


def _point(x, dim: int, name: str) -> np.ndarray:
    """``x`` as a float vector (a scalar counts as a 1-vector); ValueError
    unless its shape is ``(dim,)``."""
    x = np.asarray(x, dtype=float)
    if x.shape == (dim,):
        return x
    if x.ndim == 0:   # np.atleast_1d's rule, kept off the hot path
        return _point(x.reshape(1), dim, name)
    raise ValueError(f"point of shape {x.shape} against {name} of dimension {dim}")


def chol_spd(mat: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Lower, Fortran-ordered Cholesky factor of an SPD matrix (``dpotrf``).
    A failed factorization raises ``ValueError("<name> factorization failed:
    dpotrf failed with info=<info>")``; no jitter rescues a semidefinite one."""
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{name} must be square, got shape {mat.shape}")
    chol, info = lapack.dpotrf(mat, lower=1)
    if info != 0:
        raise ValueError(f"{name} factorization failed: dpotrf failed with info={info}")
    return chol


class GaussianSpec:
    """Dense multivariate Gaussian with a cached Cholesky factor, and a
    cached factor of each proximal system ``cov + eta * I`` it is asked for.

    The mean must be a finite vector, and ``covariance`` finite, symmetric
    within 1e-12 relative tolerance and positive definite.
    """

    def __init__(self, mean, covariance, name: str = "covariance"):
        self.mean = np.atleast_1d(np.asarray(mean, dtype=float))
        if self.mean.ndim != 1:
            raise ValueError(f"{name}: the mean must be a vector, got shape {self.mean.shape}")
        cov = np.asarray(covariance, dtype=float)
        if cov.ndim == 0:
            cov = cov.reshape(1, 1)
        if cov.shape != (self.mean.size, self.mean.size):
            raise ValueError(
                f"{name} shape {cov.shape} does not match mean of length {self.mean.size}")
        if not (np.isfinite(self.mean).all() and np.isfinite(cov).all()):
            raise ValueError(f"{name}: the mean and the covariance must be finite")
        scale = max(float(np.max(np.abs(cov))), 1e-300)
        if float(np.max(np.abs(cov - cov.T))) > 1e-12 * scale:
            raise ValueError(f"{name} is not symmetric within 1e-12 relative tolerance")
        self.cov = cov
        # C-ordered, as sample's GEMV and logpdf's transposed dtrtrs expect
        self.chol = np.ascontiguousarray(chol_spd(cov, name=name))
        self.name = name
        self._log_det = 2.0 * float(np.sum(np.log(np.diag(self.chol))))
        # logpdf's constants: the point shape, the normalizer (the first two
        # terms of its left-to-right sum) and the factor's Fortran view
        self._shape = self.mean.shape
        self._norm = self.dim * LOG_2PI + self._log_det
        self._chol_f = self.chol.T
        self._proximal = {}

    @property
    def dim(self) -> int:
        return self.mean.size

    def log_det(self) -> float:
        return self._log_det

    def proximal_chol(self, eta: float) -> np.ndarray:
        """Read-only lower Cholesky factor of ``cov + eta * I``, factored
        once per ``eta`` (finite and strictly positive, else ValueError, so
        no NaN key grows the cache) and kept for the life of this prior."""
        if not 0.0 < eta < np.inf:   # NaN fails both comparisons
            raise ValueError(f"eta must be finite and strictly positive, got {eta!r}")
        chol = self._proximal.get(eta)
        if chol is None:
            chol = chol_spd(self.cov + eta * np.eye(self.dim), name="proximal system")
            chol.flags.writeable = False
            self._proximal[eta] = chol
        return chol

    def logpdf(self, x, mean=None) -> float | np.ndarray:
        """Log density at the point ``x``; ``mean`` recenters the density
        while keeping this covariance and its factor; a mean that is not a
        point of this dimension raises instead of broadcasting.

        Against a given ``mean``, ``x`` may also be a ``(k, dim)`` stack of
        points: the result is then an array of their ``k`` log densities,
        entry ``i`` equal to ``logpdf(x[i], mean)`` bit for bit."""
        x = np.asarray(x, dtype=float)
        # _point's own test for both: an array of the right shape is used as is
        if mean is not None and getattr(mean, "shape", None) != self._shape:
            mean = _point(mean, self.dim, self.name)
        if x.shape != self._shape:
            if x.ndim == 2 and mean is not None:
                return self._logpdf_rows(x, mean)
            x = _point(x, self.dim, self.name)
        r = x - (self.mean if mean is None else mean)
        # solve L w = r as L^T's transposed system: the Fortran-ordered view
        # of this C-ordered factor, exactly what solve_triangular runs.  The
        # flags (lower=0, trans=1) are positional: the wrapper's keyword
        # parsing costs more than the copy of r that overwrite_b would save
        w, info = lapack.dtrtrs(self._chol_f, r, 0, 1)
        if info != 0:
            raise np.linalg.LinAlgError(f"dtrtrs failed with info={info}")
        return -0.5 * (self._norm + float(w.dot(w)))

    def _logpdf_rows(self, x, mean) -> np.ndarray:
        """The stack form of :meth:`logpdf`, one solve per row.  A single
        multi-column dtrtrs would multiply by reciprocal pivots where the
        one-column solve divides, and so move the last bits; the normalizer
        add and the scaling are the scalar form's IEEE operations, taken
        elementwise.  Each row's solution is squared by its own ``ddot``,
        as in the scalar form.  Squaring the stacked solutions in one
        ``matmul`` gives the same bits at about 0.5 us a row less, but
        waits for the benchmark's peak memory to stop growing with the
        number of calls that fit its window (ROADMAP item 5)."""
        if x.shape[1] != self.dim:
            raise ValueError(f"points of shape {x.shape} against {self.name} "
                             f"of dimension {self.dim}")
        r = x - mean
        sq = np.empty(len(r))
        for i, row in enumerate(r):
            w, info = lapack.dtrtrs(self._chol_f, row, 0, 1)
            if info != 0:
                raise np.linalg.LinAlgError(f"dtrtrs failed with info={info}")
            sq[i] = w.dot(w)
        return -0.5 * (self._norm + sq)

    def clip(self, x) -> np.ndarray:
        """The support is all of R^D: ``x`` as a float array, unchanged."""
        return _point(x, self.dim, self.name)

    def sample(self, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
        # lower-Cholesky convention: mean + L @ xi, xi drawn coordinate-ascending
        if size is None:
            return self.mean + self.chol @ rng.standard_normal(self.dim)
        block = np.empty((size, self.dim))   # (0, dim) when size is 0
        for row in block:
            row[:] = self.sample(rng)
        return block


@dataclass(frozen=True)
class BoxPrior:
    """Uniform prior on a finite axis-aligned box [lower_i, upper_i]."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lower", np.atleast_1d(np.asarray(self.lower, dtype=float)))
        object.__setattr__(self, "upper", np.atleast_1d(np.asarray(self.upper, dtype=float)))
        if self.lower.ndim != 1 or self.lower.shape != self.upper.shape:
            raise ValueError(f"box bounds must be vectors of one shape, got "
                             f"{self.lower.shape} and {self.upper.shape}")
        if not (np.isfinite(self.lower).all() and np.isfinite(self.upper).all()):
            raise ValueError("box prior requires finite bounds")
        if not np.all(self.lower < self.upper):
            raise ValueError("box prior requires lower < upper in every coordinate")

    @property
    def dim(self) -> int:
        return self.lower.size

    def contains(self, x) -> bool:
        """Whether every coordinate of the point ``x`` lies in its closed
        interval; a NaN coordinate lies in none."""
        x = _point(x, self.dim, "box prior")
        # count_nonzero is one direct C call: ndarray.all() runs through
        # numpy's Python-level _methods wrapper and a ufunc reduce pays for
        # its set-up.  A NaN compares False, so it is not counted.
        return bool(np.count_nonzero(x >= self.lower) == x.size
                    and np.count_nonzero(x <= self.upper) == x.size)

    def logpdf(self, x, mean=None) -> float | np.ndarray:
        """Unnormalized log density: 0 inside the box, -inf outside.  A box
        has no mean to recenter, so ``mean`` is ignored.  A ``(k, dim)``
        array of points gets an array of their ``k`` values, entry ``i``
        ``logpdf(x[i])``; any other shape but ``(dim,)`` raises."""
        # no asarray, so the one-point path costs what contains costs
        if getattr(x, "ndim", None) == 2 and x.shape[1] == self.dim:
            # a NaN compares False, as in contains
            inside = (x >= self.lower).all(axis=1) & (x <= self.upper).all(axis=1)
            return np.where(inside, 0.0, NEG_INF)
        return 0.0 if self.contains(x) else NEG_INF

    def clip(self, x) -> np.ndarray:
        # np.clip's bits, NaN and signed zeros included, without the cost of
        # its Python-level wrapper
        return np.minimum(np.maximum(_point(x, self.dim, "box prior"), self.lower), self.upper)

    def sample(self, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
        return rng.uniform(self.lower, self.upper,
                           None if size is None else (size, self.dim))


class SimulatorHandle:
    """Deterministic forward map R^D -> R^m with an evaluation counter.

    The counter increments by exactly one per evaluation and is never reset;
    increments are lock-protected so concurrent callers stay consistent.
    A call whose function raises or returns a non-finite value raises
    :class:`SimulatorError` and is not counted.
    Calls made inside the :meth:`analysis` context, by the thread that
    entered it, are tallied separately and do not count against an
    optimization budget.
    """

    def __init__(self, fn, input_dim: int, output_dim: int, name: str = "simulator"):
        require_integer("input_dim", input_dim)
        require_integer("output_dim", output_dim)
        self._fn = fn
        self.input_dim = int(input_dim)
        self.output_dim = int(output_dim)
        self.name = name
        self.eval_counter = 0
        self.analysis_counter = 0
        self._local = threading.local()   # per-thread analysis depth
        self._lock = threading.Lock()

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.input_dim,):
            raise ValueError(
                f"{self.name} expects input of shape ({self.input_dim},), got {x.shape}")
        try:
            out = np.asarray(self._fn(x), dtype=float)
            # reshape would wrap even a (m,) array in a view that pins its base
            if out.shape != (self.output_dim,):
                out = out.reshape(self.output_dim)
        except Exception as exc:
            raise SimulatorError(f"{self.name} failed at input {x!r}: {exc}", x) from exc
        # np.count_nonzero passes straight to its C counter, where
        # ndarray.all() runs numpy's _methods wrapper and a ufunc reduce
        if np.count_nonzero(np.isfinite(out)) != out.size:
            raise SimulatorError(f"{self.name} returned a non-finite output {out!r} "
                                 f"at input {x!r}", x)
        in_analysis = getattr(self._local, "depth", 0) > 0
        with self._lock:
            if in_analysis:
                self.analysis_counter += 1
            else:
                self.eval_counter += 1
        return out

    @contextmanager
    def analysis(self):
        """Route this thread's evaluations to the analysis counter
        (budget-exempt)."""
        self._local.depth = getattr(self._local, "depth", 0) + 1
        try:
            yield self
        finally:
            self._local.depth -= 1


@dataclass(frozen=True)
class LikelihoodSpec:
    """Gaussian likelihood: data vector plus SPD observation covariance."""

    data: np.ndarray
    obs_cov: np.ndarray
    gaussian: GaussianSpec = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "data", np.atleast_1d(np.asarray(self.data, dtype=float)))
        object.__setattr__(self, "gaussian",
                           GaussianSpec(self.data, self.obs_cov, name="obs_cov"))
        object.__setattr__(self, "obs_cov", self.gaussian.cov)

    @property
    def dim(self) -> int:
        return self.data.size


@dataclass
class ProblemSpec:
    """One Bayesian inverse problem: simulator + prior + likelihood."""

    simulator: SimulatorHandle
    prior: "BoxPrior | GaussianSpec"
    likelihood: LikelihoodSpec

    def __post_init__(self):
        if self.prior.dim != self.simulator.input_dim:
            raise ValueError(
                f"prior dimension {self.prior.dim} does not match simulator "
                f"input_dim {self.simulator.input_dim}")
        if self.likelihood.dim != self.simulator.output_dim:
            raise ValueError(
                f"likelihood dimension {self.likelihood.dim} does not match simulator "
                f"output_dim {self.simulator.output_dim}")

    @property
    def input_dim(self) -> int:
        return self.simulator.input_dim

    @property
    def output_dim(self) -> int:
        return self.simulator.output_dim

    @property
    def has_gaussian_prior(self) -> bool:
        return isinstance(self.prior, GaussianSpec)


def prior_from_dict(d: dict) -> "BoxPrior | GaussianSpec":
    """Deserialize a prior from its JSON form (row-major dense arrays)."""
    kind = d.get("kind")
    if kind == "box":
        return BoxPrior(np.asarray(d["lower"], dtype=float),
                        np.asarray(d["upper"], dtype=float))
    if kind == "gaussian":
        return GaussianSpec(np.asarray(d["mean"], dtype=float),
                            np.asarray(d["cov"], dtype=float), name="prior covariance")
    raise ValueError(f"unknown prior kind {kind!r}")


def solve_spd(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``A x = b`` given the lower Cholesky factor of A."""
    x, info = lapack.dpotrs(chol, np.asarray(b, dtype=float), lower=1)
    if info != 0:
        raise ValueError(f"dpotrs failed with info={info}")
    return x
