"""rmlbo benchmark: one workload, measured end to end or traced per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload bowl-uniform --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: set-up time
(median of several fresh processes), the timed call's time, the think time
between budgeted simulator calls, and peak memory.  Times are paced
(``pace.py``): scaled to a reference host speed by a probe kernel that runs
on a timer in the measuring process.  The raw wall times and sample quality
are printed beside the metrics.
``--trace 1`` reports the per-layer metrics instead: one untraced and one
traced call of the same trial, the traced one with spans at every module
boundary, and the difference between the two as the tracing overhead.

Each workload runs in a fresh single-threaded child process (``child.py``)
with BLAS pinned to one thread.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  A full
record with the run environment goes to ``.perfbench_out/``.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 2          # set-up-only processes, besides the measured one
DEADLINE_S = 170.0        # the whole run, set-up probes included
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "RML_SAMPLER_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class RunFailed(RuntimeError):
    """A child process crashed or overran; no result is printed."""


def run_child(root: str, out_dir: str, args: list, deadline: float, scale: str) -> dict:
    env = dict(os.environ, **PINNED_ENV)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--root", root,
           "--out", out_dir, "--scale", scale] + args
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunFailed("no time left for another child process")
    try:
        proc = subprocess.run(cmd, env=env, cwd=root, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RunFailed(f"child {' '.join(args)} overran the {DEADLINE_S:.0f}s deadline")
    if proc.returncode != 0:
        raise RunFailed(f"child {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_digest(root: str) -> str:
    """SHA-256 over rmlbo's source files, which identifies the code measured
    when the checkout is not a git repository."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "rmlbo")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def git_commit(root: str):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def end_to_end(root, out_dir, workload, seed, seconds, deadline, scale) -> tuple:
    common = ["--workload", workload, "--seed", str(seed)]
    setups = [run_child(root, out_dir, common + ["--mode", "setup"], deadline, scale)
              for _ in range(SETUP_PROBES)]
    main = run_child(root, out_dir, common + ["--mode", "run", "--seconds", str(seconds)],
                     deadline, scale)
    setups.append(main)
    metrics = {"setup_s": statistics.median(s["setup_s"] for s in setups),
               "setup_raw_s": statistics.median(s["setup_raw_s"] for s in setups),
               "run_s": statistics.median(main["durations"]),
               "run_raw_s": statistics.median(main["raw_durations"]),
               "slowdown": statistics.median(main["slowdowns"]),
               "peak_rss_mb": main["peak_rss_mb"]}
    if "proposal_ms" in main:
        for key in ("p50", "p99", "raw_p50", "raw_p99"):
            metrics[f"proposal_ms_{key}"] = main["proposal_ms"][key]
    if main.get("quality"):
        metrics.update(main["quality"])
    record = {"setup_samples": [{k: s[k] for k in ("setup_s", "setup_raw_s", "setup_slowdown")}
                                for s in setups],
              "child": main}
    return metrics, main["attempted"], main["failed"], list(main["failures"]), record


def per_layer(root, out_dir, workload, seed, deadline, scale) -> tuple:
    common = ["--workload", workload, "--seed", str(seed)]
    plain = run_child(root, out_dir, common + ["--mode", "run", "--repeats", "1"],
                      deadline, scale)
    traced = run_child(root, out_dir, common + ["--mode", "trace"], deadline, scale)
    metrics = dict(traced["layers"])
    metrics["trace.overhead_pct"] = \
        100.0 * (traced["durations"][0] / plain["net_durations"][0] - 1.0)
    failures = plain["failures"] + traced["failures"] + traced["identity_failures"]
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    record = {"untraced": plain, "traced": traced}
    return metrics, attempted, failed, failures, record


def measure(root: str, workload: str, seed: int, seconds: float, trace: bool,
            scale: str = "full", out_dir: str | None = None) -> tuple:
    """Run one workload.  Return the result object, with the metrics that
    BENCHMARK.json lists for the mode and the units it gives them, and a
    report of the environment, the failures and the numbers printed besides
    the metrics.  Run records, spans and CLI outputs go to ``out_dir``
    (default ``<root>/.perfbench_out``)."""
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if trace else "end_to_end"]
    deadline = time.monotonic() + DEADLINE_S
    out_dir = out_dir or os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    env = {"nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
           "loadavg_before": os.getloadavg(), "blas_threads": PINNED_ENV,
           "commit": git_commit(root), "source_sha256": source_digest(root)}
    if trace:
        measured, attempted, failed, failures, record = per_layer(
            root, out_dir, workload, seed, deadline, scale)
    else:
        measured, attempted, failed, failures, record = end_to_end(
            root, out_dir, workload, seed, seconds, deadline, scale)
    env["loadavg_after"] = os.getloadavg()
    env["versions"] = (record.get("child") or record["traced"])["versions"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        failures.append(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in measured}
    if failures and not failed:
        failed = attempted   # a run-level failure: identities or missing metrics
    result = {"correct": not failures, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    report = {"env": env, "failures": failures,
              "extra": {k: v for k, v in measured.items() if k not in metrics}}
    with open(os.path.join(out_dir, f"{workload}-seed{seed}-trace{int(trace)}.json"),
              "w") as fh:
        json.dump({"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
                   "result": result, **report, "record": record}, fh, indent=1)
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="rmlbo benchmark (one workload)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    # SIGTERM exits through subprocess.run, which then kills and reaps the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "rmlbo", "__init__.py")):
        print(f"no rmlbo source under {os.path.join(root, 'src')}; run from the root "
              f"of a checkout", file=sys.stderr)
        return 2
    try:
        result, report = measure(root, args.workload, args.seed, args.seconds,
                                 bool(args.trace))
    except RunFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print("env: " + json.dumps(report["env"]))
    for name, m in result["metrics"].items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    for name, value in report["extra"].items():
        print(f"{name:32s} {value:.6g} (not a benchmark metric)")
    for failure in report["failures"]:
        print(f"FAILED: {failure}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
