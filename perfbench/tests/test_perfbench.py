"""Fast checks of the benchmark itself, at tiny scale (D=12, N=48, K=2).

Run from the root of a checkout:

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from pace import Pacer, PythonProbe  # noqa: E402
from tracing import Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_runs_and_emits_every_metric(name, trace, tmp_path):
    result, report = run.measure(ROOT, name, seed=3, seconds=0.0, trace=trace,
                                 scale="tiny", out_dir=str(tmp_path))
    assert report["failures"] == []
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_spans_nest(tmp_path):
    workload = workloads.build("linear-gaussian", "tiny")
    tracer = Tracer()
    workload.setup(0, str(tmp_path), tracer)
    import rmlbo.gp

    original_fit = rmlbo.gp.fit
    trial = workloads.run_trial(workload, 0, tracer)
    assert rmlbo.gp.fit is original_fit
    assert trial.failures == []
    assert tracer.nesting_errors() == []

    parents = {}
    for name, parent in zip(tracer.names, tracer.parents):
        parents.setdefault(name, set()).add(tracer.names[parent] if parent >= 0 else None)
    assert parents["hdbo.run"] == {None}
    assert parents["gp.ucb"] == {"hdbo.acquisition"}
    assert parents["hdbo.acquisition"] == {"hdbo.run"}
    assert parents["hdbo.target"] == {"hdbo.run"}
    assert parents["rml.objective"] <= {"hdbo.target", "hdbo.select"}
    assert parents["problems.simulator"] == {"hdbo.run"}

    totals = tracer.layer_totals()
    counts = workload.expected_counts()
    fits = sum(totals.get(name, {"calls": 0})["calls"]
               for name in ("gp.fit", "gp.fit_with_params"))
    assert fits == counts["gp_fits"]
    assert totals["embeddings.lift"]["calls"] == counts["lifts"]
    assert totals["problems.simulator"]["calls"] == counts["n_evals"]
    assert all(row["self_s"] >= -1e-9 for row in totals.values())


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    root = tracer.open("root")
    child = tracer.open("child")
    grandchild = tracer.open("grandchild")
    tracer.close(grandchild)
    tracer.close(child)
    tracer.close(root)
    tracer.starts[:] = [0.0, 1.0, 2.0]
    tracer.ends[:] = [10.0, 5.0, 4.0]
    totals = tracer.layer_totals()
    assert totals["root"]["self_s"] == pytest.approx(6.0)
    assert totals["child"]["self_s"] == pytest.approx(2.0)
    assert totals["grandchild"]["self_s"] == pytest.approx(2.0)
    tracer.ends[2] = 6.0
    assert tracer.nesting_errors()


def test_budget_mismatch_is_caught(tmp_path, monkeypatch):
    workload = workloads.build("bowl-uniform", "tiny")
    workload.setup(0, str(tmp_path))
    import rmlbo.hdbo

    lift = rmlbo.hdbo.lift

    def leaky_lift(emb, y, prior):
        x = lift(emb, y, prior)
        workload.problem.simulator(x)   # a budgeted call the sampler never reports
        return x

    monkeypatch.setattr(rmlbo.hdbo, "lift", leaky_lift)
    trial = workloads.run_trial(workload, 0)
    assert trial.failed == 1
    assert any(f.startswith("budget:") for f in trial.failures)
    assert trial.quality is None


def test_proposal_gaps_skip_the_refined_call():
    stamps = [(0.0, 1.0), (1.5, 2.0), (5.0, 6.0), (6.5, 7.0), (9.0, 9.5)]
    assert workloads.proposal_gaps(stamps, 1) == [(1.0, 1.5), (2.0, 5.0), (6.0, 6.5),
                                                  (7.0, 9.0)]
    assert workloads.proposal_gaps(stamps, 2) == [(2.0, 5.0), (7.0, 9.0)]


def test_pacer_takes_its_probes_out_and_scales():
    pacer = Pacer()
    ref = pacer.kernel.reference_s
    pacer.starts[:] = [1.0, 1.5, 2.0, 3.0]
    pacer.ends[:] = [1.0 + ref, 1.5 + ref, 2.0 + 2 * ref, 3.0 + 4 * ref]
    assert pacer.busy(0.5, 2.5) == pytest.approx(4 * ref)
    assert pacer.net(0.5, 2.5) == pytest.approx(2.0 - 4 * ref)
    assert pacer.slowdown(0.5, 3.5) == pytest.approx(1.5)
    assert pacer.slowdown(5.0, 6.0) == 1.0
    # each window is scaled by its own probes: [1, 2) at 1x, [2, 3) at 2x,
    # [3, 4) at 4x
    assert pacer.scaled(1.0, 4.0) == pytest.approx(
        (1.0 - 2 * ref) + (1.0 - 2 * ref) / 2 + (1.0 - 4 * ref) / 4)
    assert pacer.scaled_local(2.1, 2.2) == pytest.approx(0.1 / 2)
    with Pacer(PythonProbe()) as live:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert len(live.starts) >= 5
    assert live.net(live.starts[0], end) < end - live.starts[0]


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bowl-uniform", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
