"""Posterior sampling by Bayesian optimization over interleaved random
embeddings with a shared simulation ensemble.

The run cycles through the randomized objectives: for embedding ``k`` and
slot ``m`` the active objective is ``n' = ((m - 1) mod n_rml) + 1``.  Every
simulation ``(y, f(R_k y))`` recorded for embedding ``k`` is reusable as a
training point for *every* objective, because the objectives differ only
in their data/prior-mean perturbations, which are free to apply to a cached
forward value.  A GP is fitted per step to the active objective's view of
the shared ensemble and its UCB acquisition proposes the next point.
The run keeps one table of likelihood terms, a row per record and a column
per objective, each row filled in full, right after its record is simulated,
with either prior; a slot's GP targets are a column slice of its embedding's
rows, and on a box prior final selection adds each record's prior term to
the same table.  Otherwise selection (:func:`select_maximizers`, for the
sampler on a Gaussian prior, both baselines and external traces) stacks
the candidates once and scores them in one :func:`objective` call per
objective.
Within an embedding only the first fit searches hyperparameters cold; later
full searches start from the previous full search's hyperparameters.  A slot
searches once its count n of finite training targets has grown by a
1/REFIT_DIVISOR share since the embedding's latest search at n_s points
(6 n >= 7 n_s, in integers; n_s is 0 before the first search); the other
slots refactor at the latest searched hyperparameters.  Each acquisition
ranks ACQ_PROBES uniform probes by UCB and polishes the best ACQ_RESTARTS by
a compass search of ACQ_SWEEPS sweeps, one batched UCB call each.

With a Gaussian prior each slot additionally takes a closed-form proximal
step toward the perturbed prior mean (one extra simulation at the refined
point), and the final per-objective selection considers refined points
only; with a box prior it considers the lifted points.  A simulator
failure aborts the run, or a baseline, with its trace so far (:func:`_simulate`).
"""

import functools
import json
import math
import numbers
import os
from dataclasses import dataclass, field, fields, is_dataclass, replace

import numpy as np

from . import gp
from .embeddings import Embedding, lift, sample_embedding
from .problems import (
    NEG_INF,
    BoxPrior,
    ConfigError,
    GaussianSpec,
    ProblemSpec,
    SimulatorError,
    _is_integer,
    require_integer,
    solve_spd,
)
from .rml import RMLInstance, objective
from .seeding import STREAM_ACQ, STREAM_EMBED, STREAM_GPFIT, STREAM_INIT, labeled_stream

REFIT_DIVISOR = 6   # search once the training set has grown by 1/REFIT_DIVISOR
ACQ_PROBES = 64
ACQ_SWEEPS = 15
ACQ_RESTARTS = 10


class RunAborted(RuntimeError):
    """Simulator failure mid-run; carries the partial trace."""

    def __init__(self, message, records):
        super().__init__(message)
        self.records = records


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
    prox_eta: float = 0.25
    seed: int = 0

    def validate(self) -> None:
        """Raise ConfigError naming the first invalid field.  Integer fields
        take Python or numpy integers but not bools, positive except ``seed``
        (non-negative); ``beta`` and ``prox_eta`` take any finite real
        number but a bool."""
        for name in ("n_rml", "budget_N", "K", "d_e", "n0"):
            require_integer(name, getattr(self, name))
        require_integer("seed", self.seed, minimum=0)
        for name in ("beta", "prox_eta"):
            value = getattr(self, name)
            if (not isinstance(value, numbers.Real) or isinstance(value, bool)
                    or not math.isfinite(value)):
                raise ConfigError(f"{name}: expected a finite number, got {value!r}")
        if self.beta < 0:
            raise ConfigError("beta: must be non-negative")
        if self.prox_eta <= 0:
            raise ConfigError("prox_eta: must be strictly positive")


def embedding_slots(config: HDBOConfig, problem: ProblemSpec) -> int:
    """Slots per embedding that ``config`` affords on ``problem`` (a
    Gaussian-prior slot costs two evaluations).  Raises ConfigError when
    ``d_e`` exceeds the problem's dimension, when the budget affords no slot,
    or when the ``n0`` initial points leave no slot for the GP."""
    if config.d_e > problem.input_dim:
        raise ConfigError(
            f"d_e={config.d_e} exceeds the problem's input dimension {problem.input_dim}")
    per_slot = 2 if problem.has_gaussian_prior else 1
    slots = config.budget_N // (per_slot * config.K)
    if slots < 1:
        raise ConfigError(
            f"budget_N={config.budget_N} admits no iterations for K={config.K}")
    if config.n0 >= slots:
        raise ConfigError(
            f"n0={config.n0} initial points exceed the {slots} per-embedding "
            f"iterations afforded by budget_N={config.budget_N}")
    return slots


@dataclass(slots=True)
class SimulationRecord:
    """One simulator evaluation in the shared ensemble.

    ``refined_z``/``f_refined`` are present exactly when the run has a
    Gaussian prior (either alone raises ValueError: a refined point needs
    its forward value to be scored).  ``objective_index`` is the 1-based
    objective active when the point was selected.  The fields, in order,
    are the keys of a trace line.
    """

    emb_index: int
    y: np.ndarray | None
    x: np.ndarray
    fx: np.ndarray
    refined_z: np.ndarray | None
    f_refined: np.ndarray | None
    iteration: int
    objective_index: int

    def __post_init__(self):
        if (self.refined_z is None) != (self.f_refined is None):
            raise ValueError("refined_z and f_refined must be both null or both present")

    @property
    def eval_cost(self) -> int:
        return 2 if self.refined_z is not None else 1

    def candidate(self) -> tuple[np.ndarray, np.ndarray]:
        """Point/forward-value pair used by final selection (refined when
        available)."""
        if self.refined_z is not None:
            return self.refined_z, self.f_refined
        return self.x, self.fx

    @classmethod
    def from_dict(cls, d: dict) -> "SimulationRecord":
        """Record from its JSON form (a trace line); an index or iteration
        that is not an integer (a float or a bool) raises ValueError naming
        its key."""
        for key in ("emb_index", "iteration", "objective_index"):
            if not _is_integer(d[key]):
                raise ValueError(f"{key}: expected an integer, got {d[key]!r}")
        arr = lambda v: None if v is None else np.asarray(v, dtype=float)
        return cls(emb_index=int(d["emb_index"]), y=arr(d["y"]),
                   x=np.asarray(d["x"], dtype=float), fx=np.asarray(d["fx"], dtype=float),
                   refined_z=arr(d["refined_z"]), f_refined=arr(d["f_refined"]),
                   iteration=int(d["iteration"]), objective_index=int(d["objective_index"]))


@dataclass
class RMLResult:
    """Per-objective maximizers and values, plus the full trace.

    ``candidate_values`` is the table selection scored: entry ``[r, i]`` is
    objective ``i + 1`` at record ``r``'s candidate point, with NaN stored
    as -inf, and ``values`` are its column maxima.
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


def jsonable(obj):
    """``json.dumps`` default hook for every output: a dataclass becomes a
    dict of its fields in declaration order (unlike ``dataclasses.asdict``,
    arrays are not deep-copied first), and a numpy array or scalar becomes
    its ``tolist()``."""
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: getattr(obj, f.name) for f in fields(obj)}
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def write_trace(records, path) -> None:
    """Write a trace as JSON lines, one simulation record per line, its
    keys in ``SimulationRecord``'s field order."""
    atomic_write(path, "".join(json.dumps(rec, default=jsonable) + "\n" for rec in records))


def read_trace(path, problem: ProblemSpec) -> list:
    """Read a JSON-lines trace of simulations of ``problem``.  A line that
    is not a JSON object, lacks a record key, holds a value of the wrong
    type, has only one of ``refined_z`` and ``f_refined``, whose ``x`` or
    ``refined_z`` does not have the problem's input dimension, whose ``fx``
    or ``f_refined`` does not have its output length, or any of which is not
    finite, raises ValueError naming ``path:line``."""
    lengths = (("x", problem.input_dim), ("fx", problem.output_dim),
               ("refined_z", problem.input_dim), ("f_refined", problem.output_dim))
    records = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
                if not isinstance(row, dict):
                    raise TypeError(f"expected a JSON object, got {type(row).__name__}")
                rec = SimulationRecord.from_dict(row)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not JSON: {exc}") from None
            except KeyError as exc:
                raise ValueError(f"{path}:{lineno}: missing key {exc}") from None
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            for name, n in lengths:
                value = getattr(rec, name)
                if value is None:
                    continue
                if value.shape != (n,):
                    raise ValueError(f"{path}:{lineno}: {name} has shape {value.shape}, "
                                     f"expected ({n},)")
                if not np.isfinite(value).all():
                    raise ValueError(f"{path}:{lineno}: {name} is not finite")
            records.append(rec)
    return records


# a sweep's step update, indexed by whether each start improved: the
# starts that did not halve their steps (x * 1.0 is x, bit for bit)
_STEP_FACTOR = np.array([0.5, 1.0]).reshape(2, 1, 1)
_STEP_FACTOR.flags.writeable = False


@functools.lru_cache(maxsize=32)
def _compass(d: int, restarts: int) -> tuple[np.ndarray, np.ndarray]:
    """The compass search's unit moves, ``(2 d, d)``: candidate 2j moves
    coordinate j up, 2j + 1 down, and the others by a zero; and each of
    ``restarts`` starts' first row in the flattened ``(restarts * 2 d, d)``
    candidates.  Built once per ``(d, restarts)``, read-only."""
    eye = np.eye(d)
    moves = np.stack([eye, -eye], axis=1).reshape(2 * d, d)
    first = np.arange(0, restarts * 2 * d, 2 * d)
    moves.flags.writeable = first.flags.writeable = False
    return moves, first


def acquisition_maximize(model: gp.GPModel, domain: BoxPrior, beta: float,
                         rng: np.random.Generator) -> np.ndarray:
    """Approximate argmax of the UCB over the box ``domain``.

    Ranks ACQ_PROBES probes, one ``domain.sample(rng, ACQ_PROBES)`` block,
    then runs coordinate-wise refinement with adaptive step halving from the
    best ACQ_RESTARTS of them, for exactly ACQ_SWEEPS sweeps; returns the
    best point seen, always inside the box.  That is 1 + ACQ_SWEEPS UCB
    calls.  By the block contract of ``sample`` the probes are the first
    ACQ_PROBES rows of any larger draw from the same stream, so a search
    from more probes ranks every probe this one ranks, and one of more
    sweeps from the same probes passes through the point this one returns.
    A step starts at a quarter of the box width and halves at most once
    per sweep, so at ACQ_SWEEPS <= 37 no step falls below 1e-12 of the
    width and the search needs no step-floor exit.  The restart points
    advance in lockstep so each sweep costs one batched UCB call.  Each
    sweep writes its ``(starts, 2 d, d)`` candidates into one buffer
    allocated per call, clips them there (the box's clip, done in place),
    and updates the starts by mask: an improved start takes its best
    candidate and value (``np.copyto(..., where=improved)``) and keeps its
    steps, the others keep their point and value and halve their steps, by
    one lookup in ``_STEP_FACTOR``.  The unit moves come from
    :func:`_compass`, built once per dimension and restart count.
    """
    lower, upper, d = domain.lower, domain.upper, domain.dim
    probes = domain.sample(rng, ACQ_PROBES)
    vals = gp.ucb(model, probes, beta)
    order = np.argsort(-vals)
    ys = probes[order[:ACQ_RESTARTS]]
    fys = vals[order[:ACQ_RESTARTS]]
    width = upper - lower
    # a move never crosses the far bound and the other coordinates add a
    # zero, so clipping every coordinate equals clipping the moved one.
    # Each start keeps its moves scaled by its steps; halving them is exact,
    # so they stay the product of the unit moves and the halved steps, bit
    # for bit
    moves, first = _compass(d, ACQ_RESTARTS)
    deltas = np.empty((ACQ_RESTARTS, 2 * d, d))
    np.multiply(moves, 0.25 * width, out=deltas)   # broadcast over the starts
    cands = np.empty((ACQ_RESTARTS, 2 * d, d))
    flat = cands.reshape(-1, d)
    centers = ys[:, None, :]               # a view: follows the updates of ys
    for _ in range(ACQ_SWEEPS):
        np.add(deltas, centers, out=cands)
        np.minimum(cands, upper, out=cands)
        np.maximum(cands, lower, out=cands)
        cv = gp.ucb(model, flat, beta)
        pick = cv.reshape(ACQ_RESTARTS, 2 * d).argmax(axis=1)
        pick += first
        pick_val = cv[pick]
        improved = pick_val > fys
        # a start that improved moves and keeps its steps; the others stay
        # and halve theirs
        np.copyto(ys, flat[pick], where=improved[:, None])
        np.copyto(fys, pick_val, where=improved)
        deltas *= _STEP_FACTOR[improved.view(np.uint8)]
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
    return solve_spd(prior.proximal_chol(eta), eta * instance.prior_mean_n + prior.cov.dot(x0))


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
    The candidates are stacked once, and each objective scores them all in
    one :func:`objective` call into its column of the result's
    ``candidate_values``, each entry the one-point call's value bit for
    bit.  A NaN value never wins, and ties break toward the earliest record.
    """
    if not records:
        raise ValueError("cannot select maximizers from an empty trace")
    candidates = [rec.candidate() for rec in records]
    xs = np.array([x for x, _ in candidates])
    fxs = np.array([fx for _, fx in candidates])
    table = np.empty((len(records), len(instances)))
    for i, inst in enumerate(instances):
        table[:, i] = objective(inst, xs, problem, fx=fxs)
    return _select(records, table)


def _select(records, table: np.ndarray) -> RMLResult:
    """The result whose ``candidate_values`` is ``table``, entry ``[r, i]``
    objective ``i + 1`` at record ``r``'s candidate: NaN entries become -inf
    in place, and each column's first maximum is selected."""
    table[np.isnan(table)] = NEG_INF
    best = np.argmax(table, axis=0)
    values = table[best, np.arange(table.shape[1])]
    if not np.all(np.isfinite(values)):
        bad = [i + 1 for i in range(table.shape[1]) if not np.isfinite(values[i])]
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


def _simulate(problem: ProblemSpec, x: np.ndarray, records: list) -> np.ndarray:
    """``problem``'s forward value at ``x``; a simulator failure aborts the
    method as :class:`RunAborted`, carrying ``records``, its trace so far."""
    try:
        return problem.simulator(x)
    except SimulatorError as exc:
        raise RunAborted(f"simulator failed mid-run: {exc}", records) from exc


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
    slots = embedding_slots(config, problem)
    gaussian = problem.has_gaussian_prior

    emb_rng = labeled_stream(config.seed, STREAM_EMBED)
    embeddings = [
        sample_embedding(problem.input_dim, config.d_e, emb_rng, index=k + 1)
        for k in range(config.K)
    ]

    records: list[SimulationRecord] = []
    # row r: every objective's likelihood term at record r's lifted point
    likelihoods = np.empty((config.K * slots, len(instances)))
    for k, emb in enumerate(embeddings):
        _run_embedding(problem, instances, config, emb, k, gaussian, records,
                       likelihoods[k * slots:(k + 1) * slots])

    if gaussian:
        result = select_maximizers(records, instances, problem)
    else:
        # the table holds every likelihood term at the lifted points, which
        # are the candidates of a box run: adding each record's prior term
        # gives select_maximizers' table without scoring a pair again
        xs = np.array([rec.x for rec in records])
        result = _select(records, likelihoods + problem.prior.logpdf(xs)[:, None])
    result.embeddings = embeddings
    return result


def _run_embedding(problem, instances, config, emb: Embedding, k: int, gaussian: bool,
                   records: list, rows: np.ndarray) -> None:
    """Sequential pass over one embedding's slots, appending to the shared
    trace and filling row ``m - 1`` of ``rows``, the embedding's rows of the
    likelihood table, with every objective's target once slot ``m``'s record
    is simulated.  Every slot's GP trains on all earlier records of the
    embedding whose target under the active objective is finite (a finite
    simulator output can overflow it); an initial slot, or one with no such
    record, takes the next uniform draw of the embedding's initial-point
    stream and fits nothing."""
    init_rng = labeled_stream(config.seed, STREAM_INIT, k)
    acq_rng = labeled_stream(config.seed, STREAM_ACQ, k)
    fit_rng = labeled_stream(config.seed, STREAM_GPFIT, k)
    slots = rows.shape[0]
    ys = np.empty((slots, emb.embed_dim))   # the inputs, shared by every objective
    params = None
    searched_at = 0     # training points of the latest search; the first slot searches
    for m in range(1, slots + 1):
        nprime = ((m - 1) % config.n_rml) + 1
        inst = instances[nprime - 1]
        train_z = rows[:m - 1, nprime - 1]
        finite = np.isfinite(train_z)
        if m <= config.n0 or not finite.any():
            y = emb.domain.sample(init_rng)
        else:
            train_y = ys[:m - 1][finite]
            train_z = train_z[finite]
            if REFIT_DIVISOR * train_z.size >= (REFIT_DIVISOR + 1) * searched_at:
                model = gp.fit(train_y, train_z, fit_rng, init=params)
                params = model.params
                searched_at = train_z.size
            else:
                model = gp.fit_with_params(train_y, train_z, params)
            y = acquisition_maximize(model, emb.domain, config.beta, acq_rng)
        x = lift(emb, y, problem.prior)
        fx = _simulate(problem, x, records)
        refined_z = f_refined = None
        if gaussian:
            refined_z = local_prior_refine(x, inst, problem.prior, config.prox_eta)
            f_refined = _simulate(problem, refined_z, records)
        rec = SimulationRecord(emb_index=emb.index, y=np.asarray(y, dtype=float), x=x,
                               fx=fx, refined_z=refined_z, f_refined=f_refined,
                               iteration=m, objective_index=nprime)
        ys[m - 1] = rec.y
        rows[m - 1] = [gp_target(each, rec, problem) for each in instances]
        records.append(rec)


def with_seed(config: HDBOConfig, seed: int) -> HDBOConfig:
    return replace(config, seed=int(seed))
