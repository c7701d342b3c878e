import numpy as np
import pytest

from rmlbo import bench
from rmlbo.baselines import per_objective_local_search, random_design
from rmlbo.hdbo import RunAborted
from rmlbo.rml import draw_randomizations
from rmlbo.seeding import STREAM_RANDOMIZE, labeled_stream


def drawn(problem, n_rml, seed=11):
    return draw_randomizations(problem, n_rml, labeled_stream(seed, STREAM_RANDOMIZE))


class TestRandomDesign:
    def test_single_candidate_shared_by_all_objectives(self):
        prob = bench.make_problem("quadratic-bowl", D=10, d=2, seed=0)
        insts = drawn(prob, 4)
        res = random_design(prob, insts, 1, np.random.default_rng(0))
        assert all(np.allclose(res.maximizers[i], res.maximizers[0]) for i in range(4))

    def test_consumes_exactly_budget(self):
        prob = bench.make_problem("quadratic-bowl", D=10, d=2, seed=0)
        insts = drawn(prob, 3)
        before = prob.simulator.eval_counter
        res = random_design(prob, insts, 37, np.random.default_rng(1))
        assert res.n_evals == 37
        assert prob.simulator.eval_counter - before == 37

    def test_never_beats_exact_oracle(self):
        prob = bench.make_problem("linear-gaussian", seed=0)
        insts = drawn(prob, 5, seed=1)
        oracle_mean = bench.mean_return(bench.oracle_rml_result(prob, insts), insts, prob)
        for seed in range(5):
            res = random_design(prob, insts, 200, np.random.default_rng(seed))
            assert bench.mean_return(res, insts, prob) <= oracle_mean

    def test_deterministic_per_seed(self):
        prob = bench.make_problem("quadratic-bowl", D=8, d=2, seed=0)
        insts = drawn(prob, 2)
        a = random_design(prob, insts, 20, np.random.default_rng(3))
        b = random_design(prob, insts, 20, np.random.default_rng(3))
        for r1, r2 in zip(a.records, b.records):
            assert r1.to_dict() == r2.to_dict()

    def test_gaussian_prior_draws_feasible_candidates(self):
        prob = bench.make_problem("quadratic-bowl", D=8, d=2, seed=0, prior="gaussian")
        insts = drawn(prob, 2)
        res = random_design(prob, insts, 15, np.random.default_rng(4))
        for x in res.maximizers:
            assert np.isfinite(prob.prior.logpdf(x))


class TestPerObjectiveLocalSearch:
    def test_budget_split_and_cap(self):
        prob = bench.make_problem("quadratic-bowl", D=15, d=2, seed=0)
        insts = drawn(prob, 4)
        before = prob.simulator.eval_counter
        res = per_objective_local_search(prob, insts, 103, np.random.default_rng(0))
        per = 103 // 4
        assert res.n_evals <= 103
        counts = {}
        for rec in res.records:
            counts[rec.objective_index] = counts.get(rec.objective_index, 0) + 1
        assert all(c <= per for c in counts.values())
        assert prob.simulator.eval_counter - before == res.n_evals

    def test_converges_on_2d_concave_quadratic(self):
        # linear simulator + Gaussian prior in D=2 makes every objective an
        # exact concave quadratic; with 200 evaluations the simplex search
        # must land within 1e-3 of a dense grid maximum
        prob = bench.make_problem("linear-gaussian", D=2, m=2, seed=3)
        insts = drawn(prob, 1, seed=5)
        res = per_objective_local_search(prob, insts, 200, np.random.default_rng(0))
        B = prob.simulator.matrix
        g = np.linspace(-4, 4, 1201)
        gx, gy = np.meshgrid(g, g)
        pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
        # dense-algebra oracle: explicit inverses, no shared code path
        r = insts[0].data_n - pts @ B.T
        dm = pts - insts[0].prior_mean_n
        s_inv = np.linalg.inv(prob.likelihood.obs_cov)
        p_inv = np.linalg.inv(prob.prior.cov)
        const = (-2.0 * np.log(2 * np.pi)
                 - 0.5 * np.linalg.slogdet(prob.likelihood.obs_cov)[1]
                 - 0.5 * np.linalg.slogdet(prob.prior.cov)[1])
        grid_vals = (-0.5 * np.einsum("ij,jk,ik->i", r, s_inv, r)
                     - 0.5 * np.einsum("ij,jk,ik->i", dm, p_inv, dm) + const)
        grid_max = float(np.max(grid_vals))
        assert abs(grid_max - res.values[0]) < 1e-3

    def test_deterministic_per_seed(self):
        prob = bench.make_problem("quadratic-bowl", D=8, d=2, seed=0)
        insts = drawn(prob, 2)
        a = per_objective_local_search(prob, insts, 40, np.random.default_rng(9))
        b = per_objective_local_search(prob, insts, 40, np.random.default_rng(9))
        for r1, r2 in zip(a.records, b.records):
            assert r1.to_dict() == r2.to_dict()

    def test_box_prior_candidates_always_feasible(self):
        prob = bench.make_problem("quadratic-bowl", D=8, d=2, seed=0)
        insts = drawn(prob, 2)
        res = per_objective_local_search(prob, insts, 30, np.random.default_rng(2))
        for rec in res.records:
            assert prob.prior.logpdf(rec.x) == 0.0

    def test_budget_below_objective_count_rejected(self):
        prob = bench.make_problem("quadratic-bowl", D=8, d=2, seed=0)
        insts = drawn(prob, 5)
        with pytest.raises(ValueError, match="cannot cover"):
            per_objective_local_search(prob, insts, 3, np.random.default_rng(0))


class TestAbort:
    def test_random_design_preserves_partial_trace(self, fail_after):
        prob = fail_after(bench.make_problem("quadratic-bowl", D=8, d=2, seed=0), 7)
        insts = drawn(prob, 2)
        with pytest.raises(RunAborted) as err:
            random_design(prob, insts, 20, np.random.default_rng(0))
        assert len(err.value.records) == 7

    def test_local_search_preserves_partial_trace(self, fail_after):
        prob = fail_after(bench.make_problem("quadratic-bowl", D=8, d=2, seed=0), 5)
        insts = drawn(prob, 2)
        with pytest.raises(RunAborted) as err:
            per_objective_local_search(prob, insts, 20, np.random.default_rng(0))
        assert len(err.value.records) == 5


class TestTraceInterchangeability:
    def test_baseline_traces_feed_the_metrics_pipeline(self):
        prob = bench.make_problem("quadratic-bowl", D=10, d=2, seed=0)
        insts = drawn(prob, 3)
        for res in (random_design(prob, insts, 30, np.random.default_rng(0)),
                    per_objective_local_search(prob, insts, 30, np.random.default_rng(0))):
            budgets, values = bench.best_so_far_curve(res, [10, 20, 30])
            assert budgets == [10, 20, 30]
            assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
            assert values[-1] == pytest.approx(-bench.mean_return(res, insts, prob))
