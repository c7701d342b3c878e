"""Acceptance suite.

Each test exercises one release criterion end to end at its stated
tolerance and prints a single PASS/FAIL line (run with ``pytest -s`` to see
them as they complete).  Criteria 3 and 4 are full-scale seeded
experiments, marked ``slow``; everything else is fast.
"""

import json
import time

import numpy as np
import pytest
from scipy.optimize import minimize

from rmlbo import bench, gp
from rmlbo.baselines import per_objective_local_search, random_design
from rmlbo.cli import main
from rmlbo.hdbo import HDBOConfig, run_hdbo_rml, with_seed
from rmlbo.rml import (
    draw_randomizations,
    linear_gaussian_posterior,
    objective,
    oracle_linear_rml,
)
from rmlbo.seeding import STREAM_LANDSCAPE, STREAM_RANDOMIZE, labeled_stream


def _report(num, name, ok, elapsed, limit):
    status = "PASS" if ok else "FAIL"
    print(f"\n[acceptance] criterion {num} ({name}): {status} "
          f"[{elapsed:.1f}s / limit {limit:.0f}s]")
    assert ok, f"criterion {num} ({name}) failed"
    assert elapsed < limit, f"criterion {num} exceeded its {limit:.0f}s runtime limit"


def test_criterion_1_linear_gaussian_exactness():
    started = time.perf_counter()
    prob = bench.make_problem("linear-gaussian", D=8, m=5, seed=0)
    B = prob.simulator.matrix
    mean, cov = linear_gaussian_posterior(B, prob)
    n = 2000
    insts = draw_randomizations(prob, n, labeled_stream(202, STREAM_RANDOMIZE))
    xs = np.stack([oracle_linear_rml(B, inst, prob) for inst in insts])

    se_mean = np.sqrt(np.diag(cov) / n)
    mean_ok = bool(np.all(np.abs(xs.mean(axis=0) - mean) <= 3 * se_mean))
    sample_cov = np.cov(xs.T)
    se_cov = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov ** 2) / (n - 1))
    cov_ok = bool(np.all(np.abs(sample_cov - cov) <= 3 * se_cov))
    _report(1, "linear-Gaussian exactness", mean_ok and cov_ok,
            time.perf_counter() - started, 10.0)


def test_criterion_2_oracle_agreement():
    started = time.perf_counter()
    rng_master = np.random.default_rng(77)
    worst = 0.0
    for trial in range(4):
        prob = bench.make_problem("linear-gaussian", D=8, m=5,
                                  seed=int(rng_master.integers(2 ** 31)))
        B = prob.simulator.matrix
        insts = draw_randomizations(prob, 5, labeled_stream(trial, STREAM_RANDOMIZE))
        for inst in insts:
            closed = oracle_linear_rml(B, inst, prob)
            res = minimize(lambda x: -objective(inst, x, prob, fx=B @ x),
                           inst.prior_mean_n, method="L-BFGS-B", jac="3-point",
                           options={"maxiter": 500, "gtol": 1e-12, "ftol": 1e-16})
            worst = max(worst, float(np.max(np.abs(res.x - closed))))
    _report(2, "oracle vs finite-difference ascent, 20 instances", worst < 1e-6,
            time.perf_counter() - started, 30.0)


@pytest.mark.slow
def test_criterion_3_tight_budget_dominance():
    started = time.perf_counter()
    prob = bench.make_problem("quadratic-bowl", D=100, d=2, seed=0)
    insts = draw_randomizations(prob, 20, labeled_stream(0, STREAM_RANDOMIZE))
    cfg = HDBOConfig(n_rml=20, budget_N=1000, K=10, d_e=3, n0=5)
    wins = 0
    for t in range(5):
        s = bench.trial_seed(0, t)
        hd = run_hdbo_rml(prob, insts, with_seed(cfg, s))
        rd = random_design(prob, insts, 1000,
                           np.random.default_rng(np.random.SeedSequence(s)))
        ls = per_objective_local_search(prob, insts, 1000,
                                        np.random.default_rng(np.random.SeedSequence(s)))
        neg = {k: -bench.mean_return(r, insts, prob)
               for k, r in (("hd", hd), ("rd", rd), ("ls", ls))}
        if neg["hd"] <= neg["rd"] and neg["hd"] <= neg["ls"]:
            wins += 1
    _report(3, "tight-budget dominance on quadratic-bowl D=100", wins >= 4,
            time.perf_counter() - started, 600.0)


@pytest.mark.slow
def test_criterion_4_gaussian_prior_path():
    started = time.perf_counter()
    prob = bench.make_problem("quadratic-bowl", D=100, d=2, seed=0, prior="gaussian")
    insts = draw_randomizations(prob, 20, labeled_stream(0, STREAM_RANDOMIZE))
    cfg = HDBOConfig(n_rml=20, budget_N=1000, K=10, d_e=3, n0=5)
    expected = 2 * 10 * (1000 // 20)
    budget_ok = prox_ok = True
    wins = 0
    for t in range(5):
        s = bench.trial_seed(0, t)
        before = prob.simulator.eval_counter
        hd = run_hdbo_rml(prob, insts, with_seed(cfg, s))
        if prob.simulator.eval_counter - before != expected or hd.n_evals != expected:
            budget_ok = False
        for rec in hd.records:
            mean_n = insts[rec.objective_index - 1].prior_mean_n
            lp = lambda x: -0.5 * float(
                (x - mean_n) @ np.linalg.solve(prob.prior.cov, x - mean_n))
            if lp(rec.refined_z) < lp(rec.x) - 1e-10:
                prox_ok = False
        rd = random_design(prob, insts, 1000,
                           np.random.default_rng(np.random.SeedSequence(s)))
        if bench.mean_return(hd, insts, prob) >= bench.mean_return(rd, insts, prob):
            wins += 1
    _report(4, "Gaussian-prior budget/proximal/dominance",
            budget_ok and prox_ok and wins >= 4,
            time.perf_counter() - started, 600.0)


def test_criterion_5_gp_correctness():
    started = time.perf_counter()
    ok = True

    # kernel examples
    ok &= gp.rbf_kernel([0.0], [0.0], gp.KernelParams.from_natural(1.5, 1.0)) \
        == pytest.approx(2.25)
    ok &= gp.rbf_kernel([0.0], [0.7], gp.KernelParams.from_natural(1.0, 0.7)) \
        == pytest.approx(np.exp(-0.5))
    ok &= gp.rbf_kernel([0.0, 0.0], [3.0, 4.0], gp.KernelParams.from_natural(2.0, 5.0)) \
        == pytest.approx(4 * np.exp(-0.5))

    # UCB examples
    params = gp.KernelParams.from_natural(1.7, 1.0)
    empty = gp.empty_model(params, 2)
    ok &= gp.ucb(empty, np.zeros(2), 1.0) == pytest.approx(1.7)
    two = gp.fit_with_params([[0.0, 0.0], [1.0, 0.0]], [0.0, 2.0],
                             gp.KernelParams.from_natural(1.0, 0.5, 1e-6))
    y = np.array([0.3, 0.0])
    ok &= gp.ucb(two, y, 0.0) == gp.predict(two, y)[0]

    # marginal likelihood: closed form and dense oracle
    p1 = gp.KernelParams.from_natural(1.3, 0.8, 1e-4)
    z = 0.37
    var = 1.3 ** 2 + 1e-4
    ok &= gp.log_marginal_likelihood([[0.2]], [z], p1) == pytest.approx(
        -0.5 * (np.log(2 * np.pi) + np.log(var) + z ** 2 / var))
    rng = np.random.default_rng(3)
    X = rng.uniform(-1, 1, (5, 2))
    t = rng.standard_normal(5)
    p2 = gp.KernelParams.from_natural(1.1, 0.9, 1e-3)
    K = np.array([[gp.rbf_kernel(a, b, p2) for b in X] for a in X]) + 1e-3 * np.eye(5)
    dense = float(-0.5 * t @ np.linalg.inv(K) @ t
                  - 0.5 * np.linalg.slogdet(K)[1] - 2.5 * np.log(2 * np.pi))
    ok &= gp.log_marginal_likelihood(X, t, p2) == pytest.approx(dense, abs=1e-8)

    # analytic gradient vs finite differences at 10 random settings
    rng = np.random.default_rng(9)
    Xg = rng.uniform(-2, 2, (12, 2))
    zg = rng.standard_normal(12)
    eps = 1e-6
    for _ in range(10):
        theta = np.array([rng.uniform(-1, 1), rng.uniform(-1.5, 0.5),
                          rng.uniform(np.log(1e-6), np.log(1e-2))])
        _, grad = gp.log_marginal_likelihood_grad(Xg, zg, gp.KernelParams(*theta))
        for i in range(3):
            up, dn = theta.copy(), theta.copy()
            up[i] += eps
            dn[i] -= eps
            fd = (gp.log_marginal_likelihood(Xg, zg, gp.KernelParams(*up))
                  - gp.log_marginal_likelihood(Xg, zg, gp.KernelParams(*dn))) / (2 * eps)
            ok &= abs(grad[i] - fd) <= 1e-4 * max(abs(fd), 1e-8) + 1e-8

    # noiseless interpolation within 1e-4 normalized
    rng = np.random.default_rng(12)
    Xi = rng.uniform(-1, 1, (15, 2))
    zi = np.sin(Xi[:, 0]) + Xi[:, 1] ** 2
    model = gp.fit_with_params(Xi, zi, gp.KernelParams.from_natural(1.0, 0.8))
    mean, _ = gp.predict(model, Xi)
    ok &= float(np.max(np.abs(mean - zi))) / model.target_sd < 1e-4

    _report(5, "GP correctness suite", bool(ok), time.perf_counter() - started, 5.0)


def test_criterion_6_determinism_and_budget_invariants(tmp_path):
    started = time.perf_counter()
    cfg = {
        "problem": {"name": "quadratic-bowl", "D": 12, "d": 2, "seed": 3},
        "n_rml": 3, "budget_N": 48, "K": 2, "d_e": 3, "n0": 3, "seed": 7,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    outs = [tmp_path / "r1", tmp_path / "r2"]
    codes = [main(["run", "--config", str(path), "--seed", "7", "--out", str(o)])
             for o in outs]
    trace_ok = codes == [0, 0] and (
        (outs[0] / "trace.jsonl").read_bytes() == (outs[1] / "trace.jsonl").read_bytes())

    # budget identities, uniform and Gaussian, straight from the counter
    budget_ok = True
    for prior, per_slot in (("uniform", 1), ("gaussian", 2)):
        prob = bench.make_problem("quadratic-bowl", D=12, d=2, seed=3, prior=prior)
        insts = draw_randomizations(prob, 3, labeled_stream(1, STREAM_RANDOMIZE))
        run_cfg = HDBOConfig(n_rml=3, budget_N=50, K=2, d_e=3, n0=3, seed=5)
        before = prob.simulator.eval_counter
        res = run_hdbo_rml(prob, insts, run_cfg)
        consumed = prob.simulator.eval_counter - before
        expected = per_slot * 2 * (50 // (per_slot * 2))
        budget_ok &= consumed == expected == res.n_evals
        budget_ok &= res.n_evals <= run_cfg.budget_N
    _report(6, "trace determinism and exact budget accounting",
            trace_ok and budget_ok, time.perf_counter() - started, 60.0)


def test_criterion_7_ridge_structure_and_landscape(tmp_path):
    started = time.perf_counter()
    probe_ok = True
    rng = np.random.default_rng(0)
    for name in ("quadratic-bowl", "rosenbrock-2d", "sine-ridge", "linear-gaussian"):
        prob = bench.make_problem(name, seed=3)
        A = prob.simulator.active_matrix
        D = A.shape[0]
        for _ in range(100):
            v = rng.standard_normal(D)
            v -= A @ (A.T @ v)  # identity basis for the linear problem: v = 0
            x = rng.uniform(-0.5, 0.5, D)
            with prob.simulator.analysis():
                diff = np.max(np.abs(prob.simulator(x) - prob.simulator(x + v)))
            if diff >= 1e-10:
                probe_ok = False

    prob = bench.make_problem("linear-gaussian", seed=0)
    _, coords, logpost = bench.prior_landscape(
        prob, 2000, labeled_stream(0, STREAM_LANDSCAPE))
    n, d = coords.shape
    feats = [np.ones(n)]
    feats += [coords[:, i] for i in range(d)]
    feats += [coords[:, i] * coords[:, j] for i in range(d) for j in range(i, d)]
    F = np.stack(feats, axis=1)
    beta, *_ = np.linalg.lstsq(F, logpost, rcond=None)
    residual = float(np.max(np.abs(F @ beta - logpost)))
    _report(7, "ridge structure and exact quadratic landscape",
            probe_ok and residual < 1e-8, time.perf_counter() - started, 60.0)
