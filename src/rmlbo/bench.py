"""Synthetic inverse problems with known active subspaces, the mean-return
metric, budget curves, and landscape exports.

The catalog replaces expensive external simulators with ridge functions
``f(x) = g(A^T x)`` whose active subspace ``A`` is known exactly, so every
structural claim (data sharing, budget accounting, subspace projections)
stays testable at desk scale.

The forward maps run once per budgeted evaluation, so they take their
products through ``ndarray.dot``: ``A.T.dot(x)`` on the transposed view of
``A``, ``B.dot(x)`` and sine-ridge's ``W.dot(u)``, once.  At these shapes
``dot`` calls the same BLAS routine as ``@`` and gives its bits at less
dispatch cost; a C-ordered copy of ``A^T`` would run another kernel and move
the last bits.  The bowl writes ``u`` and ``u.dot(u)`` into one array.
"""

import math
import numbers
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .hdbo import (
    HDBOConfig,
    RMLResult,
    read_trace,
    run_hdbo_rml,
    select_maximizers,
    with_seed,
)
from .baselines import per_objective_local_search, random_design
from .problems import (
    BoxPrior,
    ConfigError,
    GaussianSpec,
    LikelihoodSpec,
    ProblemSpec,
    SimulatorHandle,
    _is_integer,
    prior_from_dict,
    require_integer,
)
from .rml import objective, oracle_linear_rml
from .seeding import STREAM_PROBLEM, STREAM_TRIAL, labeled_seed, labeled_stream


class SyntheticRidgeSimulator(SimulatorHandle):
    """Ridge forward map ``f(x) = g(A^T x)`` with semi-orthogonal ``A``."""

    def __init__(self, active_matrix: np.ndarray, link, link_name: str, output_dim: int):
        A = np.asarray(active_matrix, dtype=float)
        gram_err = float(np.max(np.abs(A.T @ A - np.eye(A.shape[1]))))
        if gram_err > 1e-10:
            raise ValueError(f"active matrix is not semi-orthogonal (error {gram_err:.2e})")
        self.active_matrix = A
        At = A.T   # the transposed view: a C-ordered copy would move the last bits
        super().__init__(lambda x: link(At.dot(x)), A.shape[0], output_dim,
                         name=f"ridge[{link_name}]")


class LinearSimulator(SimulatorHandle):
    """Linear forward map ``f(x) = B x``; its landscape projection basis is
    the identity because the Gaussian prior makes the log posterior vary in
    every direction."""

    def __init__(self, B: np.ndarray):
        B = np.asarray(B, dtype=float)
        self.matrix = B
        self.active_matrix = np.eye(B.shape[1])
        super().__init__(lambda x: B.dot(x), B.shape[1], B.shape[0], name="linear")


CATALOG = ("linear-gaussian", "quadratic-bowl", "rosenbrock-2d", "sine-ridge")

_DEFAULTS = {
    "linear-gaussian": dict(D=8, m=5, noise=dict(gaussian=0.2)),
    "quadratic-bowl": dict(D=100, d=2, half=1.0, noise=dict(uniform=0.05, gaussian=0.5)),
    "rosenbrock-2d": dict(D=20, d=2, half=2.0, noise=dict(uniform=0.05, gaussian=0.5)),
    "sine-ridge": dict(D=30, d=2, half=1.5, noise=dict(uniform=0.1, gaussian=0.5)),
}


def _orthonormal_columns(D: int, d: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((D, d)))
    return q * np.sign(np.diag(r))


def _make_link(name: str, d: int, rng: np.random.Generator):
    if name == "quadratic-bowl":
        def bowl(u):
            # u and its square norm written into one array: the bits of
            # np.concatenate([u, [u @ u]]) at half its cost
            out = np.empty(d + 1)
            out[:d] = u
            out[d] = u.dot(u)
            return out
        return bowl, d + 1
    if name == "rosenbrock-2d":
        if d != 2:
            raise ValueError(f"d: rosenbrock-2d requires d=2, got {d}")
        return (lambda u: np.array([1.0 - u[0], 10.0 * (u[1] - u[0] ** 2)])), 2
    if name == "sine-ridge":
        W = rng.standard_normal((2, d))
        phi = rng.uniform(0.0, 2.0 * np.pi, 2)

        def sine(u):
            wu = W.dot(u)
            return np.sin(wu + phi) + 0.3 * wu
        return sine, 2
    raise ValueError(f"name: unknown ridge link {name!r}")


def make_problem(name: str, D: int | None = None, d: int | None = None, seed: int = 0,
                 prior: str | None = None, noise_sd: float | None = None,
                 m: int | None = None) -> ProblemSpec:
    """Build a catalog problem, fully determined by ``seed``.

    ``prior`` selects "uniform" or "gaussian"; the linear-Gaussian problem
    always uses a Gaussian prior.  Observation noise is diagonal with a
    per-catalog default that may be overridden by ``noise_sd``.  Synthetic
    data is ``f(x_true) + noise`` for a seeded ``x_true`` (generated under
    the analysis counter, so fresh problems start at zero budget consumed).
    ``D``, ``d``, ``m`` (positive) and ``seed`` (non-negative) are Python
    or numpy integers, not bools; None keeps a catalog default.  ``d``
    applies only to the ridge entries and ``m`` only to linear-gaussian (a
    ridge link fixes its output length).  ``noise_sd`` is a real number, not
    a bool, whose square is a positive finite variance.  Any other value
    raises ValueError whose message starts with the argument's name and a
    colon.
    """
    if name not in _DEFAULTS:
        raise ValueError(f"name: unknown problem name {name!r}; "
                         f"catalog: {', '.join(CATALOG)}")
    defaults = _DEFAULTS[name]
    for key, value in (("D", D), ("d", d), ("m", m)):
        if value is not None:
            require_integer(key, value)
            if key not in defaults:
                raise ValueError(f"{key}: {name} takes no {key}, got {value!r}")
    require_integer("seed", seed, minimum=0)
    if noise_sd is not None:
        if isinstance(noise_sd, bool) or not isinstance(noise_sd, numbers.Real):
            raise ValueError(f"noise_sd: expected a positive number, got {noise_sd!r}")
        try:
            noise_sd = float(noise_sd)
        except OverflowError as exc:
            raise ValueError(f"noise_sd: {exc}") from None
    D = defaults["D"] if D is None else int(D)
    rng = labeled_stream(seed, STREAM_PROBLEM)

    if name == "linear-gaussian":
        m = defaults["m"] if m is None else int(m)
        if prior not in (None, "gaussian"):
            raise ValueError("prior: linear-gaussian supports only a Gaussian prior")
        prior = "gaussian"
        B = 0.5 * rng.standard_normal((m, D))
        simulator: SimulatorHandle = LinearSimulator(B)
        mu = 0.3 * rng.standard_normal(D)
        q = _orthonormal_columns(D, D, rng)
        cov = q @ np.diag(rng.uniform(0.5, 1.5, D)) @ q.T
        cov = 0.5 * (cov + cov.T)
        prior_spec: BoxPrior | GaussianSpec = GaussianSpec(mu, cov, name="prior covariance")
        sd = defaults["noise"]["gaussian"] if noise_sd is None else noise_sd
        x_true = prior_spec.sample(rng)
    else:
        d = defaults["d"] if d is None else int(d)
        if d > D:
            raise ValueError(f"d: active dimension {d} exceeds D={D}")
        prior = "uniform" if prior is None else prior
        if prior not in ("uniform", "gaussian"):
            raise ValueError(f"prior: unknown prior kind {prior!r}")
        A = _orthonormal_columns(D, d, rng)
        link, m = _make_link(name, d, rng)
        simulator = SyntheticRidgeSimulator(A, link, name, m)
        if prior == "uniform":
            half = defaults["half"]
            prior_spec = BoxPrior(-half * np.ones(D), half * np.ones(D))
            if name == "rosenbrock-2d":
                u_target = np.array([1.0, 1.0])
            elif name == "sine-ridge":
                u_target = rng.uniform(-0.8, 0.8, d)
            else:
                u_target = rng.uniform(-0.45, 0.45, d)
        else:
            prior_spec = GaussianSpec(np.zeros(D), np.eye(D), name="prior covariance")
            u_target = (np.array([1.0, 1.0]) if name == "rosenbrock-2d"
                        else 0.6 * rng.standard_normal(d))
        sd = defaults["noise"][prior] if noise_sd is None else noise_sd
        x_true = A @ u_target

    noise_var = _noise_variance(sd)
    with simulator.analysis():
        clean = simulator(x_true)
    data = clean + sd * rng.standard_normal(m)
    likelihood = LikelihoodSpec(data, noise_var * np.eye(m))
    return ProblemSpec(simulator=simulator, prior=prior_spec, likelihood=likelihood)


def _noise_variance(sd: float) -> float:
    """``sd * sd`` for a positive ``sd``; the square must be positive and
    finite: a noise sd beyond ~1e154 squares to inf, and one below ~1e-162
    to 0."""
    var = sd * sd
    if not (sd > 0.0 and 0.0 < var < math.inf):
        raise ValueError(f"noise_sd: {sd!r} squares to {var!r}; the noise sd must be "
                         f"positive and its square a positive finite variance")
    return var


def problem_from_config(cfg: dict) -> ProblemSpec:
    """Instantiate a problem from its JSON form.

    Catalog fields: name (required), D, d, m, seed, prior ("uniform" or
    "gaussian"), noise_sd.  ``prior`` may instead be an explicit object
    (kind + dense row-major arrays) and ``likelihood`` an explicit
    {data, obs_cov} pair; both override the generated ingredients.  name is
    a string, and a null field keeps its default; every other catalog field
    is checked by :func:`make_problem`, whose error becomes a ConfigError
    naming ``problem.<field>``.
    """
    if not isinstance(cfg, dict):
        raise ConfigError("problem: expected an object")
    if "name" not in cfg:
        raise ConfigError("problem.name: missing required field")
    known = {"name", "D", "d", "m", "seed", "prior", "noise_sd", "likelihood"}
    for key in cfg:
        if key not in known:
            raise ConfigError(f"problem.{key}: unknown field")
    if not isinstance(cfg["name"], str):
        raise ConfigError(f"problem.name: expected a catalog name, got {cfg['name']!r}")
    prior_cfg = cfg.get("prior")
    if not isinstance(prior_cfg, (str, dict, type(None))):
        raise ConfigError(f"problem.prior: expected a kind or an object, got {prior_cfg!r}")
    prior_kind = ("gaussian" if prior_cfg.get("kind") == "gaussian" else "uniform") \
        if isinstance(prior_cfg, dict) else prior_cfg
    try:
        problem = make_problem(cfg["name"], prior=prior_kind, **{
            key: cfg[key] for key in ("D", "d", "m", "seed", "noise_sd")
            if cfg.get(key) is not None})
    except ValueError as exc:
        raise ConfigError(f"problem.{exc}") from exc
    if isinstance(prior_cfg, dict):
        try:
            problem = ProblemSpec(problem.simulator, prior_from_dict(prior_cfg),
                                  problem.likelihood)
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"problem.prior: {exc}") from exc
    if "likelihood" in cfg:
        lik = cfg["likelihood"]
        if not isinstance(lik, dict):
            raise ConfigError(f"problem.likelihood: expected an object, got {lik!r}")
        try:
            problem = ProblemSpec(
                problem.simulator, problem.prior,
                LikelihoodSpec(np.asarray(lik["data"], dtype=float),
                               np.asarray(lik["obs_cov"], dtype=float)))
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"problem.likelihood: {exc}") from exc
    return problem


# ---------------------------------------------------------------------------
# Metrics and the comparison harness
# ---------------------------------------------------------------------------


def mean_return(result: RMLResult, instances, problem: ProblemSpec) -> float:
    """Average objective value at the selected maximizers (cached values,
    zero simulator calls)."""
    if result.values.size != len(instances):
        raise ValueError(
            f"result covers {result.values.size} objectives, expected {len(instances)}")
    if not np.all(np.isfinite(result.values)):
        missing = [i + 1 for i in range(len(instances)) if not np.isfinite(result.values[i])]
        raise ValueError(f"missing objective values for instances {missing}")
    return float(np.mean(result.values))


class Method(NamedTuple):
    """A named optimizer with the uniform signature
    ``run(problem, instances, seed) -> RMLResult``."""

    name: str
    run: Callable[..., RMLResult]


def hdbo_method(config: HDBOConfig) -> Method:
    return Method("hdbo-rml", lambda p, inst, s: run_hdbo_rml(p, inst, with_seed(config, s)))


def random_design_method(budget_N: int) -> Method:
    return Method("random-design", lambda p, inst, s: random_design(
        p, inst, budget_N, np.random.default_rng(np.random.SeedSequence(s))))


def local_search_method(budget_N: int) -> Method:
    return Method("local-search", lambda p, inst, s: per_objective_local_search(
        p, inst, budget_N, np.random.default_rng(np.random.SeedSequence(s))))


def trace_method(path, name: str) -> Method:
    """Method backed by a JSON-lines trace file (one simulation record per
    line, read against the problem); every trial replays the same recorded
    candidates.  The trace is adopted through the standard final selection,
    so third-party optimizers compare on equal footing."""

    return Method(name, lambda problem, instances, seed: select_maximizers(
        read_trace(path, problem), instances, problem))


def oracle_rml_result(problem: ProblemSpec, instances) -> RMLResult:
    """Exact per-objective maximizers for a linear simulator with a
    Gaussian prior.  Forward values come from the stored matrix, so no
    simulator evaluations are consumed: ``n_evals`` is 0 and the trace is
    empty."""
    B = getattr(problem.simulator, "matrix", None)
    if B is None:
        raise ValueError("oracle RML requires a linear simulator exposing its matrix")
    maximizers = np.zeros((len(instances), problem.input_dim))
    values = np.zeros(len(instances))
    for i, inst in enumerate(instances):
        x = oracle_linear_rml(B, inst, problem)
        maximizers[i] = x
        values[i] = objective(inst, x, problem, fx=B @ x)
    return RMLResult(maximizers=maximizers, values=values, records=[], n_evals=0)


def require_checkpoints(checkpoints) -> list[int]:
    """``checkpoints`` as a list of Python ints; raises ConfigError unless it
    is a non-empty, strictly increasing sequence of Python or numpy integers
    (not bools) of at least 1."""
    try:
        cps = list(checkpoints)
    except TypeError:
        cps = []
    if (not cps or any(not _is_integer(c) or c < 1 for c in cps)
            or any(b <= a for a, b in zip(cps, cps[1:]))):
        raise ConfigError(
            "checkpoints: expected a strictly increasing list of positive integers")
    return [int(c) for c in cps]


def default_checkpoints(budget_N: int) -> list[int]:
    """20 evenly spaced budgets ending at ``budget_N``."""
    pts = np.unique(np.linspace(budget_N / 20, budget_N, 20).astype(int))
    return [int(p) for p in pts if p >= 1]


def best_so_far_curve(result: RMLResult, checkpoints) -> tuple[list[int], list[float]]:
    """Negative mean return of the best-so-far selection at each checkpoint,
    replayed from the result's candidate-value table (no objective calls;
    a result without one raises ValueError).  Checkpoints that no complete
    record fits inside are skipped with a warning."""
    if result.candidate_values is None:
        raise ValueError("result has no candidate-value table: it was not built from a trace")
    checkpoints = list(checkpoints)
    if any(b <= a for a, b in zip(checkpoints, checkpoints[1:])):
        raise ValueError("checkpoints must be strictly increasing")
    spent = np.cumsum([rec.eval_cost for rec in result.records])
    total = int(spent[-1])
    best = np.maximum.accumulate(result.candidate_values, axis=0)
    budgets, values = [], []
    for c in checkpoints:
        if c > total:
            warnings.warn(f"checkpoint {c} exceeds the trace's {total} evaluations; skipped")
            continue
        n = int(np.searchsorted(spent, c, side="right"))   # records done within c
        if n == 0:
            warnings.warn(f"checkpoint {c} precedes the first completed evaluation; skipped")
            continue
        budgets.append(int(c))
        values.append(-float(np.mean(best[n - 1])))
    return budgets, values


@dataclass
class MethodCurve:
    """Per-method benchmark outcome averaged over trials."""

    name: str
    budgets: list[int]
    trial_curves: np.ndarray
    avg_curve: np.ndarray
    final_neg_mean_returns: np.ndarray
    maximizers: np.ndarray
    objective_values: np.ndarray
    n_evals: int
    wall_clock_s: float
    projections: np.ndarray | None = None

    def __post_init__(self):
        for t in range(self.trial_curves.shape[0]):
            deltas = np.diff(self.trial_curves[t])
            if deltas.size and float(np.max(deltas)) > 1e-9:
                raise AssertionError(
                    f"trial {t} curve for {self.name} is not non-increasing")


@dataclass(kw_only=True)
class ExperimentReport:
    """Seeded benchmark output: one curve block per method.  Field order
    (and ``MethodCurve``'s) is the key order of compare's report.json."""

    checkpoints: list[int]
    trials: int
    seed: int
    wall_clock_s: float
    config: dict = field(default_factory=dict)
    methods: list


def trial_seed(seed: int, trial: int) -> int:
    """Seed of trial ``trial`` in any harness run with master ``seed``."""
    return labeled_seed(seed, STREAM_TRIAL, trial)


def budget_curve(problem: ProblemSpec, instances, methods, checkpoints,
                 trials: int, seed: int) -> ExperimentReport:
    """Run every method for ``trials`` seeded trials and assemble negative
    mean-return curves at the given budgets.

    Each trial is one full-budget run; checkpoint values are replayed from
    its candidate-value table.  Only the first trial's result is kept, for
    the method's maximizers and their projections ``maximizers @ A``;
    nothing is simulated outside the methods' runs.  ``checkpoints`` and
    ``trials`` follow :func:`require_checkpoints` and ``require_integer``.
    """
    checkpoints = require_checkpoints(checkpoints)
    require_integer("trials", trials)
    t_start = time.perf_counter()
    entries = []
    for method in methods:
        m_start = time.perf_counter()
        first = budgets = None
        curves = []
        finals = []
        for t in range(trials):
            res = method.run(problem, instances, trial_seed(seed, t))
            b, v = best_so_far_curve(res, checkpoints)
            if first is None:
                first, budgets = res, b
            elif b != budgets:
                raise AssertionError(f"trials of {method.name} disagree on valid checkpoints")
            curves.append(v)
            finals.append(-mean_return(res, instances, problem))
        A = getattr(problem.simulator, "active_matrix", None)
        proj = None if A is None else first.maximizers @ A
        entries.append(MethodCurve(
            name=method.name, budgets=budgets, trial_curves=np.asarray(curves),
            avg_curve=np.mean(np.asarray(curves), axis=0),
            final_neg_mean_returns=np.asarray(finals),
            maximizers=first.maximizers, objective_values=first.values,
            n_evals=first.n_evals, wall_clock_s=time.perf_counter() - m_start,
            projections=proj))
    return ExperimentReport(methods=entries, checkpoints=checkpoints, trials=trials,
                            seed=seed, wall_clock_s=time.perf_counter() - t_start)


# ---------------------------------------------------------------------------
# Active-subspace projections
# ---------------------------------------------------------------------------


def project_active(samples, A, problem: ProblemSpec):
    """Project samples onto the active subspace and attach unnormalized
    log-posterior colors.

    Forward values are computed under the analysis counter, so these calls
    never count against an optimization budget.
    """
    if A is None:
        raise ValueError("active subspace matrix unavailable for this problem")
    xs = np.atleast_2d(np.asarray(samples, dtype=float))
    A = np.asarray(A, dtype=float)
    coords = xs @ A
    logpost = np.empty(xs.shape[0])
    with problem.simulator.analysis():
        for i, x in enumerate(xs):
            fx = problem.simulator(x)
            logpost[i] = (problem.likelihood.gaussian.logpdf(problem.likelihood.data, mean=fx)
                          + problem.prior.logpdf(x))
    return coords, logpost


def prior_landscape(problem: ProblemSpec, n_samples: int, rng: np.random.Generator):
    """``n_samples`` (a positive integer) fresh prior samples projected into
    the active subspace with log-posterior colors (offline analysis mode)."""
    require_integer("n_samples", n_samples)
    A = getattr(problem.simulator, "active_matrix", None)
    xs = problem.prior.sample(rng, n_samples)
    coords, logpost = project_active(xs, A, problem)
    return xs, coords, logpost


# ---------------------------------------------------------------------------
# CSV writers
# ---------------------------------------------------------------------------


def curves_csv_lines(report: ExperimentReport) -> list[str]:
    lines = ["method,budget,trial,neg_mean_return"]
    for m in report.methods:
        for t in range(report.trials):
            for b, v in zip(m.budgets, m.trial_curves[t]):
                lines.append(f"{m.name},{b},{t},{float(v)!r}")
    return lines


def projections_csv_lines(coords: np.ndarray, logpost: np.ndarray) -> list[str]:
    d = coords.shape[1]
    header = "sample_id," + ",".join(f"coord_{j + 1}" for j in range(d)) + ",log_post"
    lines = [header]
    for i in range(coords.shape[0]):
        row = ",".join(repr(float(c)) for c in coords[i])
        lines.append(f"{i},{row},{float(logpost[i])!r}")
    return lines
