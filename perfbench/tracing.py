"""In-memory span tracer for the benchmark's traced run.

The tracer replaces public callables at rmlbo's module boundaries, as the
calling module sees them (``rmlbo.hdbo.gp_target``, ``rmlbo.gp.fit``, ...),
with wrappers that record one span per call: name, start, end and the span
that was open when the call began.  Spans stay in memory until the run ends.
A layer's self time is its span's duration minus the duration of its direct
children; the workload runs in one thread, so children never overlap.

Only the benchmark patches these names, and only inside :func:`instrument`,
which restores every original on exit.  The program itself is unchanged.
"""

import gzip
import importlib
import json
import math
import time
from contextlib import ExitStack, contextmanager

# (module as the caller sees it, attribute, span name), for every boundary
# the workloads cross.  The workloads open the roots themselves: hdbo.run
# around run_hdbo_rml and cli.main around the CLI.  A name that a later
# version of rmlbo no longer has is skipped, and its layer then reports
# zero calls.
BOUNDARIES = (
    ("rmlbo.gp", "fit", "gp.fit"),
    ("rmlbo.gp", "fit_with_params", "gp.fit_with_params"),
    ("rmlbo.gp", "ucb", "gp.ucb"),
    ("rmlbo.hdbo", "acquisition_maximize", "hdbo.acquisition"),
    ("rmlbo.hdbo", "gp_target", "hdbo.target"),
    ("rmlbo.hdbo", "local_prior_refine", "hdbo.refine"),
    ("rmlbo.hdbo", "select_maximizers", "hdbo.select"),
    ("rmlbo.baselines", "select_maximizers", "hdbo.select"),
    ("rmlbo.hdbo", "lift", "embeddings.lift"),
    ("rmlbo.hdbo", "sample_embedding", "embeddings.sample"),
    # rml.objective covers both rml entry points the sampler calls
    ("rmlbo.hdbo", "objective", "rml.objective"),
    ("rmlbo.hdbo", "randomized_log_likelihood", "rml.objective"),
    ("rmlbo.bench", "objective", "rml.objective"),
    ("rmlbo.baselines", "objective", "rml.objective"),
    ("rmlbo.bench", "best_so_far_curve", "bench.curve"),
    ("rmlbo.bench", "budget_curve", "bench.budget_curve"),
    ("rmlbo.bench", "random_design", "baselines.random_design"),
    ("rmlbo.bench", "per_objective_local_search", "baselines.local_search"),
)


class LayerStats:
    """Per-layer numbers that come from results rather than spans."""

    def __init__(self):
        self.fit_nfev = 0
        self.fit_restarts_failed = 0
        self.train_points = []
        self.ucb_points = 0
        self.targets_finite = 0

    def counting_minimize(self, fn):
        """``fn`` (scipy's minimize as rmlbo.gp sees it) tallying the
        L-BFGS-B results of the hyperparameter restarts."""
        def minimize(*args, **kwargs):
            res = fn(*args, **kwargs)
            self.fit_nfev += int(res.nfev)
            # gp maps a failed factorization to an objective of 1e25
            if not res.success or not res.fun < 1e25:
                self.fit_restarts_failed += 1
            return res
        return minimize

    def model(self, m) -> None:
        self.train_points.append(m.n_train)

    def ucb(self, values) -> None:
        self.ucb_points += int(getattr(values, "size", 1))

    def target(self, z) -> None:
        self.targets_finite += math.isfinite(z)

    def observers(self) -> dict:
        return {"gp.fit": self.model, "gp.fit_with_params": self.model,
                "gp.ucb": self.ucb, "hdbo.target": self.target}


class Tracer:
    """Span recorder.  Spans are stored column-wise: ``names[i]``,
    ``starts[i]``, ``ends[i]`` and ``parents[i]`` (-1 for a root)."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self._stack = []
        self.stats = LayerStats()

    @contextmanager
    def recording(self, root: str):
        """Trace one timed call: every boundary wrapped, scipy's minimize
        counted as rmlbo.gp sees it, and a root span around the block.
        Work outside the block, such as the benchmark's checks, is not
        traced."""
        with instrument(self, self.stats.observers()), \
                patched("rmlbo.gp", "minimize", self.stats.counting_minimize), \
                self.span(root):
            yield self

    def open(self, name: str) -> int:
        idx = len(self.starts)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.names[idx]} closed out of order")

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, name: str, fn, observe=None):
        """``fn`` recording one span per call; ``observe(result)``, when
        given, sees each result after the span closes."""

        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if observe is not None:
                observe(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def __len__(self) -> int:
        return len(self.starts)

    def layer_totals(self) -> dict:
        """Per span name: ``calls``, inclusive ``total_s`` and ``self_s``."""
        child_time = [0.0] * len(self.starts)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child_time[p] += self.ends[i] - self.starts[i]
        out = {}
        for i, name in enumerate(self.names):
            dur = self.ends[i] - self.starts[i]
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child_time[i]
        return out

    def nesting_errors(self) -> list:
        """Spans that are not closed or do not lie inside their parent."""
        errors = []
        for i, p in enumerate(self.parents):
            if self.ends[i] < self.starts[i]:
                errors.append(f"span {i} ({self.names[i]}) ends before it starts")
            if p >= 0 and not (self.starts[p] <= self.starts[i]
                               and self.ends[i] <= self.ends[p]):
                errors.append(f"span {i} ({self.names[i]}) escapes parent {p} "
                              f"({self.names[p]})")
        return errors

    def write(self, path: str) -> None:
        """Write all spans as gzipped JSON lines ``[id, name, parent, start,
        end]``, times in seconds from the first span's start."""
        t0 = self.starts[0] if self.starts else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for i in range(len(self.starts)):
                fh.write(json.dumps([i, self.names[i], self.parents[i],
                                     round(self.starts[i] - t0, 9),
                                     round(self.ends[i] - t0, 9)]) + "\n")


@contextmanager
def patched(module_name: str, attr: str, replacement_for):
    """Replace ``module.attr`` by ``replacement_for(original)`` while the
    block runs; a missing attribute leaves the module untouched."""
    module = importlib.import_module(module_name)
    if not hasattr(module, attr):
        yield None
        return
    original = getattr(module, attr)
    setattr(module, attr, replacement_for(original))
    try:
        yield original
    finally:
        setattr(module, attr, original)


@contextmanager
def instrument(tracer: Tracer, observers=None, boundaries=BOUNDARIES):
    """Wrap every boundary callable with a span for the duration of the
    block; ``observers`` maps a span name to a callback on each result."""
    observers = observers or {}
    with ExitStack() as stack:
        for module_name, attr, span_name in boundaries:
            stack.enter_context(patched(
                module_name, attr,
                lambda fn, n=span_name: tracer.wrap(n, fn, observers.get(n))))
        yield tracer
