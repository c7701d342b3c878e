"""Command-line front end.

Three subcommands, all driven by a JSON config file plus repeatable
``--set key=value`` overrides:

  run               one method on one problem; writes trace.jsonl + report.json
  compare           budget curves for several methods; writes curves.csv,
                    summary.csv and report.json
  export-landscape  active-subspace projections; writes landscape.csv,
                    method_samples.csv and (linear problems) oracle_samples.csv

Exit codes: 0 success, 2 config validation failure, 3 runtime failure (with
whatever partial trace exists flushed to disk; an aborted ``run`` also
writes a partial report marked ``"aborted": true``).  Every output is written
atomically (temp file + rename) and every run is reconstructible from the
config snapshot and seed stored in its report.
"""

import argparse
import dataclasses
import json
import os
import sys
import time

import numpy as np

from . import bench
from .baselines import check_local_search_budget
from .hdbo import (
    HDBOConfig,
    RunAborted,
    atomic_write,
    embedding_slots,
    jsonable,
    write_trace,
)
from .problems import ConfigError, require_integer
from .rml import draw_randomizations
from .seeding import STREAM_LANDSCAPE, STREAM_RANDOMIZE, labeled_stream

METHOD_NAMES = ("hdbo-rml", "random-design", "local-search", "oracle-rml")

# The run fields take HDBOConfig's defaults, except n_rml, which is
# required.  Key order is the order of report.json's config snapshot.
_DEFAULTS = {
    "method": "hdbo-rml",
    "methods": ["hdbo-rml", "random-design", "local-search"],
    **{name: value for name, value in dataclasses.asdict(HDBOConfig()).items()
       if name != "n_rml"},
    "d_e": None,          # defaults to active dimension + 1 (capped at D)
    "trials": 5,
    "checkpoints": None,  # defaults to 20 evenly spaced budgets
    "prior_samples": 10000,
}


def _atomic_write_json(path: str, payload) -> None:
    atomic_write(path, json.dumps(payload, indent=2, default=jsonable) + "\n")


def _blas_threads() -> dict:
    """The BLAS thread-count variables as the environment sets them (None
    when unset): a rerun reproduces a trace byte for byte only at the same
    BLAS thread count."""
    return {name: os.environ.get(name)
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def _parse_override(raw: str):
    if "=" not in raw:
        raise ConfigError(f"--set expects key=value, got {raw!r}")
    key, value = raw.split("=", 1)
    try:
        parsed = json.loads(value)
    except json.JSONDecodeError:
        parsed = value
    return key.strip(), parsed


def _apply_override(cfg: dict, key: str, value) -> None:
    parts = key.split(".")
    node = cfg
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"{key}: cannot override inside non-object field")
    node[parts[-1]] = value


def load_config(path: str, overrides, seed_flag) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    for raw in overrides or []:
        key, value = _parse_override(raw)
        _apply_override(cfg, key, value)
    if seed_flag is not None:
        cfg["seed"] = int(seed_flag)
    return cfg


def resolve_config(cfg: dict) -> dict:
    """Validate and fill defaults; raises ConfigError naming the field."""
    known = set(_DEFAULTS) | {"problem", "n_rml"}
    for key in cfg:
        if key not in known:
            raise ConfigError(f"unknown field '{key}'")
    resolved = dict(_DEFAULTS)
    resolved.update(cfg)
    for field in ("problem", "n_rml"):
        if field not in cfg:
            raise ConfigError(f"missing required field '{field}'")
    if not isinstance(resolved["problem"], dict):
        raise ConfigError("problem: expected an object")
    # a null d_e is derived from the problem later; the dataclass default
    # stands in for it until then
    d_e = HDBOConfig.d_e if resolved["d_e"] is None else resolved["d_e"]
    _hdbo_config(resolved, d_e).validate()
    for field in ("trials", "prior_samples"):
        require_integer(field, resolved[field])
    if resolved["method"] not in METHOD_NAMES:
        raise ConfigError(
            f"method: unknown method {resolved['method']!r}; choose from {METHOD_NAMES}")
    if not isinstance(resolved["methods"], list) or not resolved["methods"]:
        raise ConfigError("methods: expected a non-empty list")
    names = set()
    for entry in resolved["methods"]:
        if isinstance(entry, dict):
            # external candidate trace in the JSON-lines record format
            if "trace" not in entry or "name" not in entry:
                raise ConfigError(
                    "methods: a trace entry needs both 'name' and 'trace' fields")
            for key in entry:
                if key not in ("name", "trace"):
                    raise ConfigError(f"methods: unknown field '{key}' in a trace entry; "
                                      f"it takes only 'name' and 'trace'")
            if not (isinstance(entry["name"], str) and isinstance(entry["trace"], str)):
                raise ConfigError(f"methods: a trace entry's name and trace must be strings, "
                                  f"got {entry!r}")
            if not os.path.isfile(entry["trace"]):
                raise ConfigError(f"methods: trace file not found: {entry['trace']}")
        elif entry not in METHOD_NAMES:
            raise ConfigError(
                f"methods: unknown method {entry!r}; choose from {METHOD_NAMES}")
        # curves.csv and summary.csv key their rows by method name
        name = entry["name"] if isinstance(entry, dict) else entry
        if name in names:
            raise ConfigError(f"methods: method name {name!r} appears more than once")
        names.add(name)
    if resolved["checkpoints"] is not None:
        bench.require_checkpoints(resolved["checkpoints"])
    return resolved


def _hdbo_config(resolved: dict, d_e) -> HDBOConfig:
    fields = {name: resolved[name] for name in HDBOConfig.__dataclass_fields__}
    fields["d_e"] = d_e
    return HDBOConfig(**fields)


def _embedding_dim(resolved: dict, problem) -> int:
    """``d_e``, or when it is null the problem's active dimension + 1,
    capped at D.  Every catalog simulator exposes its active subspace."""
    if resolved["d_e"] is not None:
        return resolved["d_e"]
    return min(problem.simulator.active_matrix.shape[1] + 1, problem.input_dim)


def _method(entry, resolved: dict, problem) -> bench.Method:
    """The method a ``method`` or ``methods`` entry names: a built-in
    budgeted method or an external trace.  A built-in method's config is
    checked against the problem here, before any method runs."""
    if isinstance(entry, dict):
        return bench.trace_method(entry["trace"], entry["name"])
    if entry == "hdbo-rml":
        config = _hdbo_config(resolved, _embedding_dim(resolved, problem))
        embedding_slots(config, problem)
        return bench.hdbo_method(config)
    if entry == "random-design":
        return bench.random_design_method(resolved["budget_N"])
    if entry == "local-search":
        check_local_search_budget(resolved["budget_N"], resolved["n_rml"])
        return bench.local_search_method(resolved["budget_N"])
    raise ConfigError(f"methods: {entry!r} is not a budgeted method")


def _single_method(resolved: dict, problem) -> bench.Method:
    """The ``method`` of ``run`` and ``export-landscape``, which run it with
    the config seed as its method seed, exactly as compare runs a trial with
    the trial seed."""
    if resolved["method"] != "oracle-rml":
        return _method(resolved["method"], resolved, problem)
    if getattr(problem.simulator, "matrix", None) is None:
        raise ConfigError("method: oracle RML requires a linear simulator exposing its matrix")
    return bench.Method("oracle-rml", lambda problem, instances, seed:
                        bench.oracle_rml_result(problem, instances))


def _draw_instances(problem, resolved: dict):
    rng = labeled_stream(resolved["seed"], STREAM_RANDOMIZE)
    return draw_randomizations(problem, resolved["n_rml"], rng)


def cmd_run(resolved: dict, out_dir: str) -> int:
    problem = bench.problem_from_config(resolved["problem"])
    method = _single_method(resolved, problem)
    instances = _draw_instances(problem, resolved)
    trace_path = os.path.join(out_dir, "trace.jsonl")
    report_path = os.path.join(out_dir, "report.json")
    started = time.perf_counter()
    try:
        result = method.run(problem, instances, resolved["seed"])
    except RunAborted as exc:
        write_trace(exc.records, trace_path)
        _atomic_write_json(report_path, {
            "config": resolved,
            "method": resolved["method"],
            "seed": resolved["seed"],
            # the simulator's count: a Gaussian-prior slot whose refined
            # call failed spent its lifted call but left no record
            "n_evals": problem.simulator.eval_counter,
            "analysis_evals": problem.simulator.analysis_counter,
            "aborted": True,
            "error": str(exc),
            "blas_threads": _blas_threads(),
        })
        print(f"runtime failure: {exc}", file=sys.stderr)
        print(f"partial trace ({len(exc.records)} records): {trace_path}", file=sys.stderr)
        print(f"partial report: {report_path}", file=sys.stderr)
        return 3
    elapsed = time.perf_counter() - started
    mean_ret = bench.mean_return(result, instances, problem)

    write_trace(result.records, trace_path)
    report = {
        "config": resolved,
        "method": resolved["method"],
        "seed": resolved["seed"],
        "mean_return": mean_ret,
        "n_evals": result.n_evals,
        "analysis_evals": problem.simulator.analysis_counter,
        "objective_values": result.values,
        "maximizers": result.maximizers,
        "instances": instances,
        "embeddings": result.embeddings,
        "wall_clock_s": elapsed,
        "blas_threads": _blas_threads(),
    }
    _atomic_write_json(report_path, report)
    print(f"method: {resolved['method']}")
    print(f"mean return: {mean_ret!r}")
    print(f"simulator evaluations: {result.n_evals} "
          f"(analysis: {problem.simulator.analysis_counter})")
    print(f"trace: {trace_path}")
    print(f"report: {report_path}")
    return 0


def cmd_compare(resolved: dict, out_dir: str) -> int:
    problem = bench.problem_from_config(resolved["problem"])
    instances = _draw_instances(problem, resolved)
    checkpoints = resolved["checkpoints"] or bench.default_checkpoints(resolved["budget_N"])
    methods = [_method(entry, resolved, problem) for entry in resolved["methods"]]
    report = bench.budget_curve(problem, instances, methods, checkpoints,
                                resolved["trials"], resolved["seed"])
    report.config = resolved

    curves_path = os.path.join(out_dir, "curves.csv")
    atomic_write(curves_path, "\n".join(bench.curves_csv_lines(report)) + "\n")
    summary_lines = ["method,final_neg_mean_return_mean,final_neg_mean_return_sd"]
    print(f"{'method':<16} final negative mean return (mean +/- sd over "
          f"{report.trials} trials)")
    for m in report.methods:
        mean = float(np.mean(m.final_neg_mean_returns))
        sd = float(np.std(m.final_neg_mean_returns))
        summary_lines.append(f"{m.name},{mean!r},{sd!r}")
        print(f"{m.name:<16} {mean:.6f} +/- {sd:.6f}")
    summary_path = os.path.join(out_dir, "summary.csv")
    atomic_write(summary_path, "\n".join(summary_lines) + "\n")
    report_path = os.path.join(out_dir, "report.json")
    _atomic_write_json(report_path, {**jsonable(report), "blas_threads": _blas_threads()})
    print(f"curves: {curves_path}")
    print(f"summary: {summary_path}")
    print(f"report: {report_path}")
    return 0


def cmd_export_landscape(resolved: dict, out_dir: str) -> int:
    """Write the prior landscape, the oracle's samples (linear simulators
    only) and the method's samples.  All three projections are computed
    before any file is written, so a failed oracle solve or method run
    leaves no partial output set."""
    problem = bench.problem_from_config(resolved["problem"])
    A = problem.simulator.active_matrix
    method = _single_method(resolved, problem)
    instances = _draw_instances(problem, resolved)

    rng = labeled_stream(resolved["seed"], STREAM_LANDSCAPE)
    _, coords, logpost = bench.prior_landscape(problem, resolved["prior_samples"], rng)
    oracle = None
    if getattr(problem.simulator, "matrix", None) is not None:
        oracle = bench.project_active(bench.oracle_rml_result(problem, instances).maximizers,
                                      A, problem)
    result = method.run(problem, instances, resolved["seed"])
    samples = bench.project_active(result.maximizers, A, problem)

    def write(name, projection):
        path = os.path.join(out_dir, name)
        atomic_write(path, "\n".join(bench.projections_csv_lines(*projection)) + "\n")
        return path

    print(f"landscape ({coords.shape[0]} prior samples): "
          f"{write('landscape.csv', (coords, logpost))}")
    if oracle is not None:
        print(f"oracle samples: {write('oracle_samples.csv', oracle)}")
    else:
        print("warning: oracle samples unavailable (nonlinear simulator)", file=sys.stderr)
    print(f"method samples ({resolved['method']}): {write('method_samples.csv', samples)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rmlbo",
        description="Posterior sampling by randomized-objective maximization "
                    "with embedding-based Bayesian optimization.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("run", "run one method on one problem"),
            ("compare", "budget-curve comparison of several methods"),
            ("export-landscape", "export active-subspace projections")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to a JSON config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config field (repeatable; dotted keys reach "
                            "into nested objects)")
        p.add_argument("--out", default="out", help="output directory (default: out)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.set, args.seed)
        resolved = resolve_config(cfg)
        os.makedirs(args.out, exist_ok=True)
        if args.command == "run":
            return cmd_run(resolved, args.out)
        if args.command == "compare":
            return cmd_compare(resolved, args.out)
        return cmd_export_landscape(resolved, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
