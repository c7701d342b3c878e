import json

import numpy as np
import pytest
from scipy.optimize import minimize

from rmlbo.problems import (
    NEG_INF,
    BoxPrior,
    GaussianSpec,
    LikelihoodSpec,
    ProblemSpec,
    SimulatorHandle,
    chol_spd,
    solve_spd,
)
from rmlbo.rml import (
    RMLInstance,
    draw_randomizations,
    linear_gaussian_posterior,
    objective,
    oracle_linear_rml,
)


def rand_spd(rng, n, lo=0.5, hi=2.0):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    mat = q @ np.diag(rng.uniform(lo, hi, n)) @ q.T
    return 0.5 * (mat + mat.T)


def linear_problem(rng, D=8, m=5, prior_kind="gaussian"):
    B = rng.standard_normal((m, D))
    sim = SimulatorHandle(lambda x: B @ x, D, m, name="linear")
    if prior_kind == "gaussian":
        prior = GaussianSpec(0.5 * rng.standard_normal(D), rand_spd(rng, D),
                             name="prior covariance")
    else:
        prior = BoxPrior(-np.ones(D), np.ones(D))
    lik = LikelihoodSpec(rng.standard_normal(m), rand_spd(rng, m))
    return ProblemSpec(sim, prior, lik), B


class TestDrawRandomizations:
    def test_vanishing_perturbation_returns_data(self):
        rng = np.random.default_rng(0)
        sim = SimulatorHandle(lambda x: x.copy(), 3, 3)
        prob = ProblemSpec(sim, BoxPrior([-1] * 3, [1] * 3),
                           LikelihoodSpec([0.5, -0.5, 0.25], 1e-30 * np.eye(3)))
        for inst in draw_randomizations(prob, 5, rng):
            assert np.max(np.abs(inst.data_n - prob.likelihood.data)) < 1e-12
            assert inst.prior_mean_n is None

    def test_same_seed_is_bitwise_identical(self):
        rng = np.random.default_rng(123)
        prob, _ = linear_problem(rng)
        a = draw_randomizations(prob, 7, np.random.default_rng(99))
        b = draw_randomizations(prob, 7, np.random.default_rng(99))
        for x, y in zip(a, b):
            assert x.data_n.tobytes() == y.data_n.tobytes()
            assert x.prior_mean_n.tobytes() == y.prior_mean_n.tobytes()

    def test_monte_carlo_mean_matches_data(self):
        # CLT check: mean of 1e4 draws within 3 standard errors per coordinate
        rng = np.random.default_rng(5)
        prob, _ = linear_problem(rng, D=4, m=3)
        draws = draw_randomizations(prob, 10_000, np.random.default_rng(17))
        stack = np.stack([inst.data_n for inst in draws])
        sd = np.sqrt(np.diag(prob.likelihood.obs_cov))
        assert np.all(np.abs(stack.mean(axis=0) - prob.likelihood.data) <= 3 * sd / 100)

    def test_consumes_no_simulator_evaluations(self):
        rng = np.random.default_rng(1)
        prob, _ = linear_problem(rng)
        before = prob.simulator.eval_counter
        draw_randomizations(prob, 20, rng)
        assert prob.simulator.eval_counter == before

    def test_indices_are_one_based_and_unique(self):
        rng = np.random.default_rng(2)
        prob, _ = linear_problem(rng)
        insts = draw_randomizations(prob, 6, rng)
        assert [i.index for i in insts] == [1, 2, 3, 4, 5, 6]

    def test_json_round_trip(self):
        rng = np.random.default_rng(3)
        prob, _ = linear_problem(rng)
        inst = draw_randomizations(prob, 1, rng)[0]
        # to_dict is the report's instances format: it survives JSON and holds
        # the object's fields exactly
        back = json.loads(json.dumps(inst.to_dict()))
        assert back["index"] == inst.index
        assert np.asarray(back["data_n"]).tobytes() == inst.data_n.tobytes()
        assert np.asarray(back["prior_mean_n"]).tobytes() == inst.prior_mean_n.tobytes()


class TestObjective:
    def test_hand_value_identity_simulator(self):
        # both Gaussian terms evaluate to -(1/2)log(2pi) - 1/2 at x = 1
        sim = SimulatorHandle(lambda x: x.copy(), 1, 1)
        prob = ProblemSpec(sim, GaussianSpec([0.0], [[1.0]]),
                           LikelihoodSpec([0.0], [[1.0]]))
        inst = RMLInstance(1, np.array([2.0]), np.array([0.0]))
        x = np.array([1.0])
        assert objective(inst, x, prob, fx=x.copy()) == pytest.approx(
            -np.log(2 * np.pi) - 1.0)

    def test_outside_box_is_neg_inf_without_simulation(self):
        calls = []

        def body(x):
            calls.append(x)
            return x.copy()

        sim = SimulatorHandle(body, 2, 2)
        prob = ProblemSpec(sim, BoxPrior([-1, -1], [1, 1]),
                           LikelihoodSpec([0.0, 0.0], np.eye(2)))
        inst = RMLInstance(1, np.zeros(2))
        assert objective(inst, np.array([2.0, 0.0]), prob, fx=np.zeros(2)) == NEG_INF
        assert not calls

    def test_fx_overload_bitwise_equal_and_free(self):
        rng = np.random.default_rng(4)
        prob, B = linear_problem(rng)
        inst = draw_randomizations(prob, 1, rng)[0]
        x = rng.standard_normal(8)
        direct = objective(inst, x, prob, fx=prob.simulator(x))
        before = prob.simulator.eval_counter
        assert objective(inst, x, prob, fx=B @ x) == direct
        assert prob.simulator.eval_counter == before

    def test_forward_value_is_required(self):
        rng = np.random.default_rng(4)
        prob, _ = linear_problem(rng)
        inst = draw_randomizations(prob, 1, rng)[0]
        with pytest.raises(TypeError, match="fx"):
            objective(inst, np.zeros(8), prob)
        assert prob.simulator.eval_counter == 0


# The oracle and the analytic posterior as each was written before they
# shared one normal-system solve; the module must agree bit for bit.

def ref_oracle(B, inst, prob):
    prior, lik = prob.prior, prob.likelihood
    Sinv_B = solve_spd(lik.gaussian.chol, B)
    Pinv = solve_spd(prior.chol, np.eye(prior.dim))
    normal = B.T @ Sinv_B + Pinv
    rhs = B.T @ solve_spd(lik.gaussian.chol, inst.data_n) + Pinv @ inst.prior_mean_n
    return solve_spd(chol_spd(normal), rhs)


def ref_posterior(B, prob):
    prior, lik = prob.prior, prob.likelihood
    Pinv = solve_spd(prior.chol, np.eye(prior.dim))
    normal = B.T @ solve_spd(lik.gaussian.chol, B) + Pinv
    chol = chol_spd(normal)
    cov = solve_spd(chol, np.eye(prior.dim))
    mean = solve_spd(chol, B.T @ solve_spd(lik.gaussian.chol, lik.data) + Pinv @ prior.mean)
    return mean, cov


class TestLinearOracle:
    def test_equal_precision_average(self):
        sim = SimulatorHandle(lambda x: x.copy(), 1, 1)
        prob = ProblemSpec(sim, GaussianSpec([0.0], [[1.0]]),
                           LikelihoodSpec([0.0], [[1.0]]))
        inst = RMLInstance(1, np.array([2.0]), np.array([0.0]))
        assert oracle_linear_rml(np.array([[1.0]]), inst, prob) == pytest.approx([1.0])

    def test_zero_map_returns_prior_mean(self):
        rng = np.random.default_rng(6)
        prob, _ = linear_problem(rng, D=4, m=3)
        inst = draw_randomizations(prob, 1, rng)[0]
        x = oracle_linear_rml(np.zeros((3, 4)), inst, prob)
        assert np.allclose(x, inst.prior_mean_n, atol=1e-10)

    def test_matches_finite_difference_ascent(self):
        rng = np.random.default_rng(21)
        prob, B = linear_problem(rng, D=8, m=5)
        for inst in draw_randomizations(prob, 5, rng):
            closed = oracle_linear_rml(B, inst, prob)
            res = minimize(lambda x: -objective(inst, x, prob, fx=B @ x),
                           inst.prior_mean_n, method="L-BFGS-B", jac="3-point",
                           options={"maxiter": 500, "gtol": 1e-12, "ftol": 1e-16})
            assert np.max(np.abs(res.x - closed)) < 1e-6

    def test_gradient_vanishes_at_oracle_point(self):
        rng = np.random.default_rng(22)
        prob, B = linear_problem(rng, D=6, m=4)
        inst = draw_randomizations(prob, 1, rng)[0]
        xs = oracle_linear_rml(B, inst, prob)
        h = 1e-5
        for i in range(6):
            e = np.zeros(6)
            e[i] = h
            up = objective(inst, xs + e, prob, fx=B @ (xs + e))
            dn = objective(inst, xs - e, prob, fx=B @ (xs - e))
            assert abs((up - dn) / (2 * h)) < 1e-6

    def test_requires_gaussian_prior(self):
        rng = np.random.default_rng(23)
        prob, B = linear_problem(rng, prior_kind="box")
        inst = draw_randomizations(prob, 1, rng)[0]
        with pytest.raises(ValueError, match="Gaussian prior"):
            oracle_linear_rml(B, inst, prob)


class TestPosteriorExactness:
    def test_oracle_samples_match_analytic_posterior(self):
        # 3-standard-error match of mean and covariance with 2000 samples
        rng = np.random.default_rng(11)
        prob, B = linear_problem(rng, D=5, m=4)
        mean, cov = linear_gaussian_posterior(B, prob)
        n = 2000
        insts = draw_randomizations(prob, n, np.random.default_rng(1234))
        xs = np.stack([oracle_linear_rml(B, inst, prob) for inst in insts])
        se_mean = np.sqrt(np.diag(cov) / n)
        assert np.all(np.abs(xs.mean(axis=0) - mean) <= 3 * se_mean)
        sample_cov = np.cov(xs.T)
        se_cov = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov ** 2) / (n - 1))
        assert np.all(np.abs(sample_cov - cov) <= 3 * se_cov)

    @pytest.mark.parametrize("D, m", [(1, 1), (5, 4), (8, 5), (12, 3)])
    def test_oracle_and_posterior_match_reference_bits(self, D, m):
        rng = np.random.default_rng(40 + D)
        prob, B = linear_problem(rng, D=D, m=m)
        for inst in draw_randomizations(prob, 10, rng):
            assert oracle_linear_rml(B, inst, prob).tobytes() == \
                ref_oracle(B, inst, prob).tobytes()
        mean, cov = linear_gaussian_posterior(B, prob)
        ref_mean, ref_cov = ref_posterior(B, prob)
        assert mean.tobytes() == ref_mean.tobytes()
        assert cov.tobytes() == ref_cov.tobytes()

    def test_failed_normal_factor_raises_value_error_for_both(self, monkeypatch):
        def failing(mat, name="matrix"):
            raise ValueError(f"{name} is not positive definite")

        monkeypatch.setattr("rmlbo.rml.chol_spd", failing)
        rng = np.random.default_rng(24)
        prob, B = linear_problem(rng)
        inst = draw_randomizations(prob, 1, rng)[0]
        with pytest.raises(ValueError, match="normal matrix"):
            oracle_linear_rml(B, inst, prob)
        with pytest.raises(ValueError, match="normal matrix"):
            linear_gaussian_posterior(B, prob)
