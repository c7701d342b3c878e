"""One workload in a fresh process: set-up, timed calls, checks, and in the
traced mode the per-layer numbers.  ``run.py`` starts this script with BLAS
pinned to one thread and reads the JSON object it prints last.

Set-up time runs from the first line of this script, before numpy or rmlbo
is imported, to the point where the workload's problem, instances and
configuration exist.  Set-up and the timed calls run under a ``pace.Pacer``:
each time is reported with the probes taken out and scaled to the reference
host speed, and the raw wall time is kept beside it.

Modes:
  setup  set up, report set-up time, exit
  run    set up, then make at least ``--repeats`` timed calls and go on while
         another call is predicted to end within ``--seconds``
  trace  set up, then one timed call with every module boundary traced
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
MAX_FAILURE_MESSAGES = 5


def percentile(values, q: int) -> float:
    """``q``-th percentile with linear interpolation between ranks."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def quality_mean(trials, count: int):
    """Mean of each quality number over the first ``count`` calls, which
    always run, so the figure does not depend on machine speed."""
    first = [t.quality for t in trials[:count]]
    if len(first) < count or any(q is None for q in first):
        return None
    return {key: statistics.fmean(q[key] for q in first) for key in first[0]}


def paced(pacer, trials) -> dict:
    """Call durations and think times with the probes taken out and scaled
    to the reference host speed by the probes around them; the raw wall
    times, the times with only the probes taken out, and each call's median
    slowdown are kept beside them."""
    durations, raw, net, slowdowns, gaps_ms, raw_gaps_ms = [], [], [], [], [], []
    for t in trials:
        durations.append(pacer.scaled(t.start, t.end))
        raw.append(t.duration)
        net.append(pacer.net(t.start, t.end))
        slowdowns.append(pacer.slowdown(t.start, t.end))
        for a, b in t.gaps:
            gaps_ms.append(1000.0 * pacer.scaled_local(a, b))
            raw_gaps_ms.append(1000.0 * (b - a))
    out = {"durations": durations, "raw_durations": raw, "net_durations": net,
           "slowdowns": slowdowns,
           "probes": len(pacer.starts)}
    if len(gaps_ms) >= 2:
        out["proposal_ms"] = {"p50": percentile(gaps_ms, 50), "p99": percentile(gaps_ms, 99),
                              "raw_p50": percentile(raw_gaps_ms, 50),
                              "raw_p99": percentile(raw_gaps_ms, 99),
                              "samples": len(gaps_ms)}
    return out


def per_layer(tracer, trial) -> dict:
    totals = tracer.layer_totals()
    stats = tracer.stats

    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    def total(name):
        return totals.get(name, {}).get("total_s", 0.0)

    def own(name):
        return totals.get(name, {}).get("self_s", 0.0)

    return {
        "gp.fit_calls": calls("gp.fit"),
        "gp.fit_s": total("gp.fit"),
        "gp.fit_nfev": stats.fit_nfev,
        "gp.fit_restarts_failed": stats.fit_restarts_failed,
        "gp.fit_train_points": statistics.fmean(stats.train_points)
        if stats.train_points else 0.0,
        "gp.fit_with_params_calls": calls("gp.fit_with_params"),
        "gp.fit_with_params_s": total("gp.fit_with_params"),
        "gp.ucb_calls": calls("gp.ucb"),
        "gp.ucb_points": stats.ucb_points,
        "gp.ucb_s": total("gp.ucb"),
        "hdbo.acquisition_calls": calls("hdbo.acquisition"),
        "hdbo.acquisition_self_s": own("hdbo.acquisition"),
        "hdbo.target_calls": calls("hdbo.target"),
        "hdbo.target_s": total("hdbo.target"),
        "hdbo.target_finite_ratio": stats.targets_finite / calls("hdbo.target")
        if calls("hdbo.target") else 0.0,
        "rml.objective_calls": calls("rml.objective"),
        "rml.objective_s": total("rml.objective"),
        "hdbo.select_calls": calls("hdbo.select"),
        "hdbo.select_s": total("hdbo.select"),
        "bench.curve_calls": calls("bench.curve"),
        "bench.curve_s": total("bench.curve"),
        "bench.budget_curve_self_s": own("bench.budget_curve"),
        "hdbo.refine_calls": calls("hdbo.refine"),
        "hdbo.refine_s": total("hdbo.refine"),
        "hdbo.self_s": own("hdbo.run"),
        "embeddings.lift_calls": calls("embeddings.lift"),
        "embeddings.lift_s": total("embeddings.lift"),
        "embeddings.sample_s": total("embeddings.sample"),
        "problems.simulator_calls": trial.details.get("simulator_calls", 0),
        "problems.analysis_calls": trial.details.get("analysis_calls", 0),
        "problems.simulator_s": total("problems.simulator"),
        "baselines.random_design_self_s": own("baselines.random_design"),
        "baselines.local_search_self_s": own("baselines.local_search"),
        "cli.self_s": own("cli.main"),
        "cli.bytes_written": trial.details.get("bytes_written", 0),
        "trace.spans": len(tracer),
    }


def identity_failures(layers: dict, expected: dict, trial, tracer) -> list:
    """Exact count identities of one traced call."""
    failures = list(tracer.nesting_errors()[:MAX_FAILURE_MESSAGES])
    fits = layers["gp.fit_calls"] + layers["gp.fit_with_params_calls"]
    if fits != expected["gp_fits"]:
        failures.append(f"gp fits {fits} != {expected['gp_fits']}")
    if layers["embeddings.lift_calls"] != expected["lifts"]:
        failures.append(f"lift calls {layers['embeddings.lift_calls']} != {expected['lifts']}")
    if not layers["problems.simulator_calls"] == trial.details.get("n_evals") \
            == expected["n_evals"]:
        failures.append(f"simulator calls {layers['problems.simulator_calls']}, n_evals "
                        f"{trial.details.get('n_evals')}, expected {expected['n_evals']}")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True, help="checkout holding src/rmlbo")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--repeats", type=int, default=0,
                        help="fewest timed calls (default: the workload's own)")
    parser.add_argument("--scale", default="full")
    parser.add_argument("--out", required=True, help="directory for run outputs")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(args.root, "src"))
    sys.path.insert(0, HERE)
    from pace import Pacer, PythonProbe

    with Pacer(PythonProbe()) as setup_pacer:
        import workloads
        from tracing import Tracer

        tracer = Tracer() if args.mode == "trace" else None
        workload = workloads.build(args.workload, args.scale)
        workload.setup(args.seed, args.out, tracer)
        setup_end = time.perf_counter()
    setup_factor = setup_pacer.slowdown(T0, setup_end)
    out = {"setup_s": setup_pacer.net(T0, setup_end) / setup_factor,
           "setup_raw_s": setup_end - T0, "setup_slowdown": setup_factor}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    import numpy
    import scipy

    out["versions"] = {"python": platform.python_version(), "numpy": numpy.__version__,
                       "scipy": scipy.__version__}
    if args.mode == "trace":
        trials = [workloads.run_trial(workload, 0, tracer)]
        layers = per_layer(tracer, trials[0])
        identities = identity_failures(layers, workload.expected_counts(), trials[0], tracer)
        tracer.write(os.path.join(args.out, f"spans-{args.workload}-seed{args.seed}.jsonl.gz"))
        out.update(layers=layers, identity_failures=identities,
                   durations=[t.duration for t in trials])
    else:
        repeats = args.repeats or workload.calls
        trials = []
        with Pacer() as pacer:
            start = time.perf_counter()
            while True:
                trials.append(workloads.run_trial(workload, len(trials)))
                elapsed = time.perf_counter() - start
                if len(trials) >= repeats and \
                        elapsed + elapsed / len(trials) > args.seconds:
                    break
        out.update(paced(pacer, trials))
        out["quality"] = quality_mean(trials, workload.calls)
    out.update(
        attempted=sum(t.attempted for t in trials),
        failed=sum(t.failed for t in trials),
        failures=[f for t in trials for f in t.failures][:MAX_FAILURE_MESSAGES],
        details=[t.details for t in trials],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
