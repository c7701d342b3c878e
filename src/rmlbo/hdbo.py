"""Posterior sampling by Bayesian optimization over interleaved random
embeddings with a shared simulation ensemble.

The run cycles through the randomized objectives: for embedding ``k`` and
slot ``m`` the active objective is ``n' = ((m - 1) mod n_rml) + 1``.  Every
simulation ``(y, f(R_k y))`` recorded for embedding ``k`` is reusable as a
training point for *every* objective, because the objectives differ only
in their data/prior-mean perturbations, which are free to apply to a cached
forward value.  A GP is fitted per step to the active objective's view of
the shared ensemble and its UCB acquisition proposes the next point.
Each objective's targets are computed once per record: an activation adds
only the records simulated since that objective's previous activation.
Within an embedding only the first fit searches hyperparameters cold; later
fits start from the previous fit's hyperparameters.

With a Gaussian prior each slot additionally takes a closed-form proximal
step toward the perturbed prior mean (one extra simulation at the refined
point), and the final per-objective selection considers refined points
only; with a box prior selection scans the lifted points.
"""

import json
import numbers
import os
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.stats import qmc

from . import gp
from .embeddings import Embedding, lift, sample_embedding
from .problems import (
    NEG_INF,
    GaussianSpec,
    ProblemSpec,
    SimulatorError,
    chol_spd,
    solve_spd,
)
from .rml import RMLInstance, objective
from .seeding import STREAM_ACQ, STREAM_EMBED, STREAM_GPFIT, STREAM_INIT, labeled_stream

REFIT_EVERY_UNTIL = 30   # full hyperparameter search while the ensemble is small
REFIT_PERIOD = 5         # afterwards, every 5th slot (factor-only updates between)
ACQ_PROBES = 512
ACQ_SWEEPS = 50


class ConfigError(ValueError):
    """Invalid run configuration."""


class RunAborted(RuntimeError):
    """Simulator failure mid-run; carries the partial trace."""

    def __init__(self, message, records):
        super().__init__(message)
        self.records = records


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


_AT_LEAST = {0: "a non-negative integer", 1: "a positive integer"}


def require_integer(name: str, value, minimum: int = 1) -> None:
    """Raise ConfigError naming ``name`` unless ``value`` is a Python or numpy
    integer (not a bool) of at least ``minimum`` (0 or 1)."""
    if not _is_integer(value) or value < minimum:
        raise ConfigError(f"{name}: expected {_AT_LEAST[minimum]}, got {value!r}")


@dataclass(frozen=True)
class HDBOConfig:
    """Run configuration.  ``budget_N`` caps total simulator evaluations;
    ``K`` embeddings of dimension ``d_e`` each get ``n0`` initial points."""

    n_rml: int = 20
    budget_N: int = 1000
    K: int = 10
    d_e: int = 3
    n0: int = 5
    beta: float = 2.0
    acq_restarts: int = 10
    prox_eta: float = 0.25
    seed: int = 0

    def validate(self) -> None:
        """Raise ConfigError naming the first invalid field.  Integer fields
        take Python or numpy integers but not bools, positive except ``seed``
        (non-negative); ``beta`` and ``prox_eta`` take any real number but a
        bool."""
        for name in ("n_rml", "budget_N", "K", "d_e", "n0", "acq_restarts"):
            require_integer(name, getattr(self, name))
        require_integer("seed", self.seed, minimum=0)
        for name in ("beta", "prox_eta"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real) or isinstance(value, bool):
                raise ConfigError(f"{name}: expected a number, got {value!r}")
        if self.beta < 0:
            raise ConfigError("beta: must be non-negative")
        if self.prox_eta <= 0:
            raise ConfigError("prox_eta: must be strictly positive")

    def slots_per_embedding(self, gaussian_prior: bool) -> int:
        per_slot = 2 if gaussian_prior else 1
        return self.budget_N // (per_slot * self.K)


@dataclass
class SimulationRecord:
    """One simulator evaluation in the shared ensemble.

    ``refined_z``/``f_refined`` are present exactly when the run has a
    Gaussian prior.  ``objective_index`` is the 1-based objective active
    when the point was selected.
    """

    emb_index: int
    y: np.ndarray | None
    x: np.ndarray
    fx: np.ndarray
    refined_z: np.ndarray | None
    f_refined: np.ndarray | None
    iteration: int
    objective_index: int

    @property
    def eval_cost(self) -> int:
        return 2 if self.refined_z is not None else 1

    def candidate(self) -> tuple[np.ndarray, np.ndarray]:
        """Point/forward-value pair used by final selection (refined when
        available)."""
        if self.refined_z is not None:
            return self.refined_z, self.f_refined
        return self.x, self.fx

    def to_dict(self) -> dict:
        return {
            "emb_index": self.emb_index,
            "y": None if self.y is None else self.y.tolist(),
            "x": self.x.tolist(),
            "fx": self.fx.tolist(),
            "refined_z": None if self.refined_z is None else self.refined_z.tolist(),
            "f_refined": None if self.f_refined is None else self.f_refined.tolist(),
            "iteration": self.iteration,
            "objective_index": self.objective_index,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SimulationRecord":
        arr = lambda v: None if v is None else np.asarray(v, dtype=float)
        return cls(emb_index=int(d["emb_index"]), y=arr(d["y"]),
                   x=np.asarray(d["x"], dtype=float), fx=np.asarray(d["fx"], dtype=float),
                   refined_z=arr(d["refined_z"]), f_refined=arr(d["f_refined"]),
                   iteration=int(d["iteration"]), objective_index=int(d["objective_index"]))


@dataclass
class RMLResult:
    """Per-objective maximizers and values, plus the full trace.

    ``candidate_values`` is the table :func:`select_maximizers` scored:
    entry ``[r, i]`` is objective ``i + 1`` at record ``r``'s candidate
    point, with NaN stored as -inf, and ``values`` are its column maxima.
    Budget curves replay the selection from it.  Results not built from a
    trace (the linear oracle) leave it None.
    """

    maximizers: np.ndarray
    values: np.ndarray
    records: list
    n_evals: int
    candidate_values: np.ndarray | None = None
    embeddings: list = field(default_factory=list)


def atomic_write(path, text: str) -> None:
    """Write ``text`` to a temp file beside ``path``, then rename it into
    place, so ``path`` never holds a partial file."""
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def write_trace(records, path) -> None:
    """Write a trace as JSON lines, one simulation record per line."""
    atomic_write(path, "".join(json.dumps(rec.to_dict()) + "\n" for rec in records))


def read_trace(path) -> list:
    """Read a JSON-lines trace.  A record whose ``fx`` or ``f_refined`` is
    not finite raises ValueError naming its line."""
    records = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if line:
                rec = SimulationRecord.from_dict(json.loads(line))
                for name in ("fx", "f_refined"):
                    value = getattr(rec, name)
                    if value is not None and not np.isfinite(value).all():
                        raise ValueError(f"{path}:{lineno}: {name} is not finite")
                records.append(rec)
    return records


def sobol_points(n: int, lower: np.ndarray, upper: np.ndarray,
                 rng: np.random.Generator) -> np.ndarray:
    """``n`` scrambled low-discrepancy points in a box (drawn as the next
    power of two and truncated, which keeps the sampler warning-free)."""
    d = lower.size
    m = max(1, int(np.ceil(np.log2(max(n, 2)))))
    sampler = qmc.Sobol(d, scramble=True, seed=rng)
    pts = sampler.random_base2(m)[:n]
    return qmc.scale(pts, lower, upper)


def acquisition_maximize(model: gp.GPModel, domain: tuple[np.ndarray, np.ndarray],
                         beta: float, rng: np.random.Generator,
                         restarts: int = 10) -> np.ndarray:
    """Approximate argmax of the UCB over a box.

    Ranks 512 scrambled quasi-random probes, then runs coordinate-wise
    refinement with adaptive step halving from the best ``restarts`` of
    them; returns the best point seen, always inside the box.  The restart
    points advance in lockstep so each sweep costs one batched UCB call.
    """
    lower = np.asarray(domain[0], dtype=float)
    upper = np.asarray(domain[1], dtype=float)
    d = lower.size
    probes = sobol_points(ACQ_PROBES, lower, upper, rng)
    vals = np.atleast_1d(gp.ucb(model, probes, beta))
    order = np.argsort(-vals)
    take = min(restarts, probes.shape[0])
    ys = probes[order[:take]]
    fys = vals[order[:take]].astype(float)
    width = upper - lower
    floor = 1e-12 * width
    steps = np.broadcast_to(0.25 * width, (take, d)).copy()
    rows = np.arange(take)
    # candidate 2j moves coordinate j up by its step, 2j + 1 down; the other
    # coordinates add a zero, and a move never crosses the far bound, so
    # clipping every coordinate equals clipping the moved one
    eye = np.eye(d)
    moves = np.stack([eye, -eye], axis=1).reshape(2 * d, d)
    for _ in range(ACQ_SWEEPS):
        cands = ys[:, None, :] + moves * steps[:, None, :]
        np.minimum(cands, upper, out=cands)
        np.maximum(cands, lower, out=cands)
        cv = np.atleast_1d(gp.ucb(model, cands.reshape(-1, d), beta)).reshape(take, 2 * d)
        pick = np.argmax(cv, axis=1)
        pick_val = cv[rows, pick]
        improved = pick_val > fys
        if improved.any():
            ys[improved] = cands[rows, pick][improved]
            fys[improved] = pick_val[improved]
        steps[~improved] *= 0.5
        if (steps < floor).all():
            break
    # refinement only ever improves on a start's probe value, so the argmax
    # over starts covers the probe champion as well
    return ys[int(np.argmax(fys))].copy()


def local_prior_refine(x0, instance: RMLInstance, prior: GaussianSpec,
                       eta: float) -> np.ndarray:
    """Proximal step toward the perturbed prior mean.

    Returns the unique maximizer of
    ``log N(x | mu_n, Sigma) - ||x - x0||^2 / (2 eta)``, which is
    ``(Sigma + eta I)^{-1} (eta mu_n + Sigma x0)``; consumes no simulator
    evaluations and never decreases the prior density relative to ``x0``.
    """
    if not isinstance(prior, GaussianSpec):
        raise ValueError("prior refinement requires a Gaussian prior")
    if instance.prior_mean_n is None:
        raise ValueError(f"instance {instance.index} lacks a perturbed prior mean")
    if eta <= 0:
        raise ValueError("eta must be strictly positive")
    x0 = np.asarray(x0, dtype=float)
    shifted = prior.cov + eta * np.eye(prior.dim)
    try:
        chol = chol_spd(shifted, name="proximal system")
    except ValueError as exc:
        raise RuntimeError(f"internal error: {exc}") from exc
    return solve_spd(chol, eta * instance.prior_mean_n + prior.cov @ x0)


def gp_target(instance: RMLInstance, record: SimulationRecord,
              problem: ProblemSpec) -> float:
    """Training target for one ensemble record under one objective: the
    randomized log likelihood of the lifted point.  With a box prior that is
    the full objective, since :func:`lift` clips into the box, where the
    prior term is 0; callers drop values that are not finite.
    """
    return problem.likelihood.gaussian.logpdf(instance.data_n, mean=record.fx)


def select_maximizers(records, instances, problem: ProblemSpec) -> RMLResult:
    """Per-objective argmax over a trace's candidate points.

    Candidates are refined points when present, lifted points otherwise;
    objective values come from cached forward values (no simulator calls).
    Each (record, objective) pair is scored once into the result's
    ``candidate_values``.  A NaN value never wins, and ties break toward
    the earliest record.
    """
    if not records:
        raise ValueError("cannot select maximizers from an empty trace")
    table = np.empty((len(records), len(instances)))
    for r, rec in enumerate(records):
        cand_x, cand_f = rec.candidate()
        for i, inst in enumerate(instances):
            table[r, i] = objective(inst, cand_x, problem, fx=cand_f)
    table[np.isnan(table)] = NEG_INF
    best = np.argmax(table, axis=0)
    values = table[best, np.arange(len(instances))]
    if not np.all(np.isfinite(values)):
        bad = [i + 1 for i in range(len(instances)) if not np.isfinite(values[i])]
        raise ValueError(f"no feasible candidate for objectives {bad}")
    maximizers = np.array([records[r].candidate()[0] for r in best], dtype=float)
    return RMLResult(maximizers=maximizers, values=values, records=list(records),
                     n_evals=sum(rec.eval_cost for rec in records), candidate_values=table)


def _check_instances(instances, problem: ProblemSpec) -> None:
    if not instances:
        raise ConfigError("at least one randomized instance is required")
    gaussian = problem.has_gaussian_prior
    for pos, inst in enumerate(instances):
        if inst.index != pos + 1:
            raise ConfigError(
                f"instance at position {pos} has index {inst.index}; instances must "
                f"be ordered 1..n_rml so trace objective indices stay replayable")
        if inst.data_n.size != problem.output_dim:
            raise ConfigError(
                f"instance {inst.index} data length {inst.data_n.size} does not match "
                f"simulator output_dim {problem.output_dim}")
        if gaussian and (inst.prior_mean_n is None
                         or inst.prior_mean_n.size != problem.input_dim):
            raise ConfigError(
                f"instance {inst.index} needs a perturbed prior mean of length "
                f"{problem.input_dim} for a Gaussian-prior problem")
        if not gaussian and inst.prior_mean_n is not None:
            raise ConfigError(
                f"instance {inst.index} carries a prior mean but the prior is uniform")


def run_hdbo_rml(problem: ProblemSpec, instances, config: HDBOConfig) -> RMLResult:
    """Run the full optimization and select one maximizer per objective.

    All randomness derives from ``config.seed`` through fixed-label
    substreams, so identical configs reproduce identical traces.
    """
    config.validate()
    _check_instances(instances, problem)
    if len(instances) != config.n_rml:
        raise ConfigError(
            f"config.n_rml={config.n_rml} but {len(instances)} instances supplied")
    gaussian = problem.has_gaussian_prior
    if config.d_e > problem.input_dim:
        raise ConfigError(
            f"d_e={config.d_e} exceeds the problem's input dimension {problem.input_dim}")
    slots = config.slots_per_embedding(gaussian)
    if slots < 1:
        raise ConfigError(
            f"budget_N={config.budget_N} admits no iterations for K={config.K}")
    if config.n0 >= slots:
        raise ConfigError(
            f"n0={config.n0} initial points exceed the {slots} per-embedding "
            f"iterations afforded by budget_N={config.budget_N}")

    emb_rng = labeled_stream(config.seed, STREAM_EMBED)
    embeddings = [
        sample_embedding(problem.input_dim, config.d_e, emb_rng, index=k + 1)
        for k in range(config.K)
    ]

    records: list[SimulationRecord] = []
    try:
        for k, emb in enumerate(embeddings):
            _run_embedding(problem, instances, config, emb, k, slots, gaussian, records)
    except SimulatorError as exc:
        raise RunAborted(f"simulator failed mid-run: {exc}", records) from exc

    result = select_maximizers(records, instances, problem)
    result.embeddings = embeddings
    return result


def _run_embedding(problem, instances, config, emb: Embedding, k: int, slots: int,
                   gaussian: bool, records: list) -> None:
    """Sequential pass over one embedding's slots, appending to the shared
    trace.  Streams are pre-split per embedding, so embeddings could run
    concurrently without changing any draw."""
    init_rng = labeled_stream(config.seed, STREAM_INIT, k)
    acq_rng = labeled_stream(config.seed, STREAM_ACQ, k)
    fit_rng = labeled_stream(config.seed, STREAM_GPFIT, k)
    init_pts = sobol_points(config.n0, emb.y_lower, emb.y_upper, init_rng)
    own: list[SimulationRecord] = []
    # per objective: training inputs and targets of the finite records so
    # far, and how many of ``own`` they cover
    columns = [([], []) for _ in instances]
    covered = [0] * len(instances)
    params = None
    last_full_fit = -REFIT_PERIOD
    for m in range(1, slots + 1):
        nprime = ((m - 1) % config.n_rml) + 1
        inst = instances[nprime - 1]
        if m <= config.n0:
            y = init_pts[m - 1]
        else:
            train_y, train_z = columns[nprime - 1]
            for rec in own[covered[nprime - 1]:]:
                z = gp_target(inst, rec, problem)
                if np.isfinite(z):
                    train_y.append(rec.y)
                    train_z.append(z)
            covered[nprime - 1] = len(own)
            full = len(train_z) < REFIT_EVERY_UNTIL or (m - last_full_fit) >= REFIT_PERIOD
            if full or params is None:
                model = gp.fit(np.asarray(train_y), np.asarray(train_z), fit_rng,
                               init=params)
                params = model.params
                last_full_fit = m
            else:
                model = gp.fit_with_params(np.asarray(train_y), np.asarray(train_z), params)
            y = acquisition_maximize(model, (emb.y_lower, emb.y_upper), config.beta,
                                     acq_rng, restarts=config.acq_restarts)
        x = lift(emb, y, problem.prior)
        fx = problem.simulator(x)
        refined_z = f_refined = None
        if gaussian:
            refined_z = local_prior_refine(x, inst, problem.prior, config.prox_eta)
            f_refined = problem.simulator(refined_z)
        rec = SimulationRecord(emb_index=emb.index, y=np.asarray(y, dtype=float), x=x,
                               fx=fx, refined_z=refined_z, f_refined=f_refined,
                               iteration=m, objective_index=nprime)
        own.append(rec)
        records.append(rec)


def with_seed(config: HDBOConfig, seed: int) -> HDBOConfig:
    return replace(config, seed=int(seed))
