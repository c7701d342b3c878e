"""The benchmark's workloads, their inputs, their timed calls and their checks.

Each workload is a closed loop with one caller: the benchmark calls one
public rmlbo entry point, waits for it, checks what came back and only then
calls again.  Inputs come from the public constructors
(``rmlbo.bench.make_problem``, ``rmlbo.rml.draw_randomizations``,
``rmlbo.bench.trial_seed``).  The hdbo workloads use the problem and the
randomized instances of acceptance criteria 3 and 4 (problem seed 0,
randomization stream 0) and take their trial seeds from the workload seed,
so quality numbers from different seeds measure the same posterior.

Nothing here imports rmlbo at module level: the child process times the
import as part of set-up.
"""

import csv
import math
import os
import shutil
import statistics
import time
import traceback
from contextlib import nullcontext

from tracing import patched

PROBLEM_SEED = 0
RANDOMIZE_SEED = 0
COMPARE_SEED = 0
D_E = 3
N0 = 5

# "full" is the benchmark; "tiny" runs the same code paths at test scale.
SCALES = {
    "full": {"n_rml": 20, "budget_N": 1000, "K": 10, "bowl_D": 100, "trials": 5},
    "tiny": {"n_rml": 4, "budget_N": 48, "K": 2, "bowl_D": 12, "trials": 2},
}


def objective_ceiling(problem) -> float:
    """Upper bound of every randomized objective O_n: the log normalizing
    constants of the likelihood and, for a Gaussian prior, of the prior.
    ``ceiling - O_n`` is half the Mahalanobis misfit, which is positive."""
    lik = problem.likelihood
    ceiling = -0.5 * (lik.dim * math.log(2.0 * math.pi) + lik.gaussian.log_det())
    if problem.has_gaussian_prior:
        prior = problem.prior
        ceiling -= 0.5 * (prior.dim * math.log(2.0 * math.pi) + prior.log_det())
    return ceiling


def stamp_simulator(sim, stamps: list, tracer=None) -> None:
    """Make ``sim`` append ``(start, end)`` to ``stamps`` for every budgeted
    call (one that advances ``eval_counter``) and, when traced, record a
    ``problems.simulator`` span for every call.  The handle keeps its class's
    behaviour and attributes; only ``__call__`` is wrapped."""
    base = type(sim)

    class Stamped(base):
        def __call__(self, x):
            before = self.eval_counter
            idx = tracer.open("problems.simulator") if tracer is not None else None
            start = time.perf_counter()
            try:
                return super().__call__(x)
            finally:
                end = time.perf_counter()
                if idx is not None:
                    tracer.close(idx)
                if self.eval_counter != before:
                    stamps.append((start, end))

    Stamped.__name__ = base.__name__
    sim.__class__ = Stamped


def traced(tracer, root: str):
    return nullcontext() if tracer is None else tracer.recording(root)


def proposal_gaps(stamps, calls_per_proposal: int) -> list:
    """Think time before each proposal of one trial, as ``(start, end)``:
    from the end of the previous proposal's last simulator call to the start
    of this one's first.  The trial's first proposal has no predecessor and
    is skipped."""
    return [(stamps[i - 1][1], stamps[i][0])
            for i in range(calls_per_proposal, len(stamps), calls_per_proposal)]


class Trial:
    """What one timed call produced, as the benchmark saw it: its start and
    end on ``time.perf_counter``, and the ``(start, end)`` of each think
    time.  ``attempted`` counts the sampler trials inside the call; any
    failure fails them all."""

    def __init__(self, start, end, gaps, failures, attempted, quality, details):
        self.start = start
        self.end = end
        self.gaps = gaps
        self.failures = failures
        self.attempted = attempted
        self.quality = quality
        self.details = details

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def failed(self) -> int:
        return self.attempted if self.failures else 0


class HdboWorkload:
    """``run_hdbo_rml`` on one catalog problem (K=10, d_e=3, n0=5).

    Every run makes at least ``calls`` timed calls, with trial seeds
    ``trial_seed(seed, 0 .. calls-1)``; quality numbers average over them.
    Further calls repeat those trial seeds and must reproduce their values.
    """

    trials_per_call = 1

    def __init__(self, name, problem_name, calls, scale, problem_kwargs):
        self.name = name
        self.problem_name = problem_name
        self.calls = calls
        self.scale = scale
        self.problem_kwargs = problem_kwargs
        self.stamps = []
        self._oracle = None
        self._seen = {}

    def setup(self, seed: int, out_dir: str, tracer=None) -> None:
        from rmlbo import bench
        from rmlbo.hdbo import HDBOConfig
        from rmlbo.rml import draw_randomizations
        from rmlbo.seeding import STREAM_RANDOMIZE, labeled_stream

        s = self.scale
        self.seed = seed
        self.problem = bench.make_problem(self.problem_name, seed=PROBLEM_SEED,
                                          **self.problem_kwargs)
        self.instances = draw_randomizations(
            self.problem, s["n_rml"], labeled_stream(RANDOMIZE_SEED, STREAM_RANDOMIZE))
        self.config = HDBOConfig(n_rml=s["n_rml"], budget_N=s["budget_N"], K=s["K"],
                                 d_e=D_E, n0=N0)
        self.config.validate()
        stamp_simulator(self.problem.simulator, self.stamps, tracer)

    @property
    def per_slot(self) -> int:
        return 2 if self.problem.has_gaussian_prior else 1

    def expected_counts(self) -> dict:
        """Exact per-trial counts fixed by the sampler's definition:
        K*floor(N/K) evaluations with a box prior, 2K*floor(N/2K) with a
        Gaussian one; one GP per slot after the n0 initial points."""
        K = self.scale["K"]
        slots = self.scale["budget_N"] // (self.per_slot * K)
        return {"n_evals": self.per_slot * K * slots,
                "gp_fits": K * (slots - N0),
                "lifts": K * slots}

    def trial(self, r: int, tracer=None) -> Trial:
        from rmlbo import bench, hdbo

        index = r % self.calls
        config = hdbo.with_seed(self.config, bench.trial_seed(self.seed, index))
        sim = self.problem.simulator
        before, analysis_before = sim.eval_counter, sim.analysis_counter
        first = len(self.stamps)
        start = time.perf_counter()
        with traced(tracer, "hdbo.run"):
            result = hdbo.run_hdbo_rml(self.problem, self.instances, config)
        end = time.perf_counter()
        evals = sim.eval_counter - before
        failures = self.check(result, evals, index)
        details = {"n_evals": result.n_evals, "simulator_calls": evals,
                   "analysis_calls": sim.analysis_counter - analysis_before}
        quality = None
        if not failures:
            neg = -bench.mean_return(result, self.instances, self.problem)
            quality = {"return_gap": neg + objective_ceiling(self.problem),
                       "neg_mean_return": neg}
            if self._oracle is not None:
                quality["oracle_gap"] = float((self._oracle.values - result.values).mean())
        return Trial(start, end, proposal_gaps(self.stamps[first:], self.per_slot),
                     failures, self.trials_per_call, quality, details)

    def check(self, result, evals: int, index: int) -> list:
        import numpy as np
        from rmlbo import bench

        failures = []
        expected = self.expected_counts()["n_evals"]
        if not evals == result.n_evals == expected:
            failures.append(f"budget: simulator counter moved {evals}, result reports "
                            f"{result.n_evals}, expected {expected}")
        if not np.all(np.isfinite(result.values)):
            failures.append("a selected objective value is not finite")
        if getattr(self.problem.simulator, "matrix", None) is not None:
            if self._oracle is None:
                self._oracle = bench.oracle_rml_result(self.problem, self.instances)
            worst = float(np.min(self._oracle.values - result.values))
            if not worst >= -1e-9:
                failures.append(f"an objective beats the exact oracle by {-worst:.3e}")
        if index in self._seen and not np.array_equal(self._seen[index], result.values):
            failures.append(f"trial seed {index} did not reproduce its values")
        self._seen.setdefault(index, result.values.copy())
        return failures


class CompareWorkload:
    """``rmlbo compare`` in-process via ``rmlbo.cli.main``: random design and
    per-objective local search, five trials each, on the bowl problem.

    ``compare`` draws its instances and its trial seeds from one config seed,
    and between config seeds the baselines' mean return moves by about 40 %,
    more than any bound the benchmark may set.  The config seed is therefore
    fixed at 0 and the workload seed does not change this workload's inputs;
    its work per call does not depend on the seed either.
    """

    methods = ("random-design", "local-search")
    # Proposal think time is taken from local search alone: it looks at each
    # result before it proposes the next point, while random design draws
    # points without looking, so its gaps are loop overhead of ~15 us.  The
    # two modes pooled put the median between them, where it jumps.
    proposing = "local-search"
    calls = 1   # a further call, when --seconds leaves room, must reproduce it
    per_slot = 1

    def __init__(self, name, scale):
        self.name = name
        self.scale = scale
        self._summary = None

    @property
    def trials_per_call(self) -> int:
        return len(self.methods) * self.scale["trials"]

    def setup(self, seed: int, out_dir: str, tracer=None) -> None:
        import json

        from rmlbo import bench, cli

        s = self.scale
        self.out_dir = out_dir
        self.config_path = os.path.join(out_dir, "compare-config.json")
        config = {
            "problem": {"name": "quadratic-bowl", "D": s["bowl_D"], "d": 2,
                        "seed": PROBLEM_SEED},
            "n_rml": s["n_rml"], "budget_N": s["budget_N"],
            "methods": list(self.methods), "trials": s["trials"], "seed": COMPARE_SEED,
        }
        with open(self.config_path, "w") as fh:
            json.dump(config, fh)
        resolved = cli.resolve_config(cli.load_config(self.config_path, [], None))
        self.problem = bench.problem_from_config(resolved["problem"])

    def expected_evals(self, method: str) -> int:
        n, budget = self.scale["n_rml"], self.scale["budget_N"]
        return budget if method == "random-design" else (budget // n) * n

    def expected_counts(self) -> dict:
        return {"n_evals": sum(self.expected_evals(m) for m in self.methods)
                * self.scale["trials"], "gp_fits": 0, "lifts": 0}

    def trial(self, r: int, tracer=None) -> Trial:
        from rmlbo import cli

        out = os.path.join(self.out_dir, "compare-out")
        shutil.rmtree(out, ignore_errors=True)
        seen = []   # (method, simulator calls, result) per baseline trial
        gaps = []
        stamps = []
        problems = []

        def stamped_problem(fn):
            def build(*args, **kwargs):
                problem = fn(*args, **kwargs)
                stamp_simulator(problem.simulator, stamps, tracer)
                problems.append(problem)
                return problem
            return build

        def marked(method, fn):
            def run(problem, *args, **kwargs):
                sim = problem.simulator
                before, first = sim.eval_counter, len(stamps)
                result = fn(problem, *args, **kwargs)
                seen.append((method, sim.eval_counter - before, result))
                if method == self.proposing:
                    gaps.extend(proposal_gaps(stamps[first:], self.per_slot))
                return result
            return run

        argv = ["compare", "--config", self.config_path, "--out", out]
        with patched("rmlbo.bench", "problem_from_config", stamped_problem), \
                patched("rmlbo.bench", "random_design",
                        lambda fn: marked("random-design", fn)), \
                patched("rmlbo.bench", "per_objective_local_search",
                        lambda fn: marked("local-search", fn)):
            start = time.perf_counter()
            with traced(tracer, "cli.main"):
                code = cli.main(argv)
            end = time.perf_counter()
        return self._finish(code, out, seen, gaps, problems, start, end)

    def _finish(self, code, out, seen, gaps, problems, start, end) -> Trial:
        import numpy as np

        failures = []
        if code != 0:
            failures.append(f"compare exited {code}")
        for method, evals, result in seen:
            expected = self.expected_evals(method)
            if not evals == result.n_evals == expected:
                failures.append(f"{method} budget: simulator counter moved {evals}, "
                                f"result reports {result.n_evals}, expected {expected}")
            if not np.all(np.isfinite(result.values)):
                failures.append(f"{method}: a selected objective value is not finite")
        if len(seen) != self.trials_per_call:
            failures.append(f"expected {self.trials_per_call} baseline trials, "
                            f"saw {len(seen)}")
        rows = []
        summary_path = os.path.join(out, "summary.csv")
        if os.path.exists(summary_path):
            with open(summary_path) as fh:
                summary = fh.read()
            rows = list(csv.DictReader(summary.splitlines()))
            if self._summary is None:
                self._summary = summary
            elif summary != self._summary:
                failures.append("summary.csv differs from the first repeat's")
        if sorted(row["method"] for row in rows) != sorted(self.methods):
            failures.append(f"summary.csv has rows {[row['method'] for row in rows]}, "
                            f"expected one per method {list(self.methods)}")
        bytes_written = 0
        if os.path.isdir(out):
            bytes_written = sum(os.path.getsize(os.path.join(out, f))
                                for f in os.listdir(out))
        # the CLI builds its problem inside the call, so its counters cover
        # exactly this call, including the data-generating analysis call
        details = {"bytes_written": bytes_written,
                   "n_evals": sum(result.n_evals for _, _, result in seen),
                   "simulator_calls": sum(p.simulator.eval_counter for p in problems),
                   "analysis_calls": sum(p.simulator.analysis_counter for p in problems)}
        quality = None
        if not failures:
            ceiling = objective_ceiling(self.problem)
            neg = {row["method"]: float(row["final_neg_mean_return_mean"]) for row in rows}
            quality = {"return_gap": statistics.fmean(v + ceiling for v in neg.values())}
            for method, v in neg.items():
                quality[f"neg_mean_return.{method}"] = v
        return Trial(start, end, gaps, failures, self.trials_per_call, quality, details)


WORKLOADS = ("bowl-uniform", "linear-gaussian", "compare-baselines")


def build(name: str, scale_name: str = "full"):
    scale = SCALES[scale_name]
    if name == "bowl-uniform":
        return HdboWorkload(name, "quadratic-bowl", 1, scale, {"D": scale["bowl_D"], "d": 2})
    if name == "linear-gaussian":
        return HdboWorkload(name, "linear-gaussian", 2, scale, {})
    if name == "compare-baselines":
        return CompareWorkload(name, scale)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")


def run_trial(workload, r: int, tracer=None) -> Trial:
    """One timed call; an exception fails the call's trials, not the run."""
    try:
        return workload.trial(r, tracer)
    except Exception:
        now = time.perf_counter()
        return Trial(now, now, [], [traceback.format_exc()], workload.trials_per_call, None,
                     {})
