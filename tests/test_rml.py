import json
import warnings
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack
from scipy.optimize import minimize

import rmlbo
from rmlbo import hdbo, problems
from rmlbo.hdbo import jsonable
from rmlbo.problems import (
    NEG_INF,
    BoxPrior,
    ConfigError,
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

    @pytest.mark.parametrize("n_rml", [True, 2.5, "3", 0])
    def test_count_that_is_not_a_positive_integer_is_a_config_error(self, n_rml):
        prob, _ = linear_problem(np.random.default_rng(2))
        with pytest.raises(ConfigError, match=r"^n_rml: "):
            draw_randomizations(prob, n_rml, np.random.default_rng(0))

    def test_numpy_integer_count_draws_the_same_instances(self):
        prob, _ = linear_problem(np.random.default_rng(2))
        a = draw_randomizations(prob, np.int64(3), np.random.default_rng(4))
        b = draw_randomizations(prob, 3, np.random.default_rng(4))
        assert [i.index for i in a] == [i.index for i in b] == [1, 2, 3]
        for x, y in zip(a, b):
            assert x.data_n.tobytes() == y.data_n.tobytes()
            assert x.prior_mean_n.tobytes() == y.prior_mean_n.tobytes()

    def test_config_error_is_one_class_everywhere(self):
        # the integer rule lives in problems; hdbo and the package re-export it
        assert rmlbo.ConfigError is hdbo.ConfigError is problems.ConfigError
        assert hdbo.require_integer is problems.require_integer

    def test_indices_are_one_based_and_unique(self):
        rng = np.random.default_rng(2)
        prob, _ = linear_problem(rng)
        insts = draw_randomizations(prob, 6, rng)
        assert [i.index for i in insts] == [1, 2, 3, 4, 5, 6]

    def test_json_round_trip(self):
        rng = np.random.default_rng(3)
        prob, _ = linear_problem(rng)
        inst = draw_randomizations(prob, 1, rng)[0]
        # the jsonable form is the report's instances format: it survives
        # JSON and holds the object's fields exactly
        back = json.loads(json.dumps(inst, default=jsonable))
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


    def test_forward_value_of_the_wrong_length_names_the_likelihood(self):
        # unchecked, a one-value forward value broadcast against the bowl's
        # three data values and scored a finite objective
        prob = rmlbo.make_problem("quadratic-bowl", D=12, d=2, seed=3)
        inst = draw_randomizations(prob, 1, np.random.default_rng(0))[0]
        for fx in (np.array([0.3]), np.zeros(2), np.zeros(4)):
            with pytest.raises(ValueError, match=rf"^point of shape \({fx.size},\) against "
                                                 r"obs_cov of dimension 3$"):
                objective(inst, np.zeros(12), prob, fx=fx)
        with pytest.raises(ValueError, match=r"^points of shape \(2, 1\) against obs_cov "
                                             r"of dimension 3$"):
            objective(inst, np.zeros((2, 12)), prob, fx=np.zeros((2, 1)))


def _spd(rng, n, dense):
    if dense:
        a = rng.standard_normal((n, n))
        return a @ a.T + 0.5 * np.eye(n)
    return np.diag(rng.uniform(0.1, 3.0, n))


class TestStackedObjective:
    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(["box", "dense", "diagonal"]), st.booleans(), st.integers(1, 6),
           st.integers(1, 4), st.integers(1, 30), st.booleans(),
           st.randoms(use_true_random=False))
    def test_stack_matches_the_one_point_objective_bit_for_bit(
            self, prior_kind, dense_lik, D, m, k, overflow, pyrng):
        # entry i of a stacked call is the one-point objective at row i: box
        # rows inside, on a face, outside and with NaN coordinates, dense and
        # diagonal Gaussian priors and likelihoods, and forward values
        # scaled by 1e200, whose likelihood overflows to -inf
        rng = np.random.default_rng(pyrng.randrange(2 ** 32))
        if prior_kind == "box":
            lower = rng.uniform(-2.0, 0.0, D)
            prior = BoxPrior(lower, lower + rng.uniform(0.5, 3.0, D))
        else:
            prior = GaussianSpec(rng.standard_normal(D), _spd(rng, D, prior_kind == "dense"),
                                 name="prior covariance")
        sim = SimulatorHandle(lambda x: np.zeros(m), D, m)   # objective never simulates
        prob = ProblemSpec(sim, prior, LikelihoodSpec(rng.standard_normal(m),
                                                      _spd(rng, m, dense_lik)))
        inst = draw_randomizations(prob, 1, rng)[0]
        xs = prior.sample(rng, k) if prior_kind == "box" else \
            prior.sample(rng, k) * rng.choice([0.1, 1.0, 40.0], (k, 1))
        if prior_kind == "box":   # each row inside, on a face, outside or NaN
            kinds = rng.integers(0, 4, k)
            cols = rng.integers(0, D, k)
            for row, (kind, j) in enumerate(zip(kinds, cols)):
                if kind == 1:
                    xs[row, j] = (prior.lower, prior.upper)[row % 2][j]
                elif kind == 2:
                    bound, away = ((prior.lower, -np.inf), (prior.upper, np.inf))[row % 2]
                    xs[row, j] = np.nextafter(bound[j], away)
                elif kind == 3:
                    xs[row, j] = np.nan
        fxs = rng.standard_normal((k, m)) * rng.choice([1.0, 1e3], (k, 1))
        fxs[rng.random((k, m)) < 0.2] = -0.0
        if overflow:
            fxs[rng.random(k) < 0.5] *= 1e200
        with np.errstate(over="ignore"):
            got = objective(inst, xs, prob, fx=fxs)
            want = [objective(inst, x, prob, fx=fx) for x, fx in zip(xs, fxs)]
            first = objective(inst, xs[:1], prob, fx=fxs[:1])
        assert all(type(value) is float for value in want)
        want = np.array(want)
        assert got.dtype == np.float64 and got.shape == (k,)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert first.shape == (1,) and first.view(np.uint64)[0] == want.view(np.uint64)[0]
        if prior_kind == "box":
            # a row outside the box never evaluates its likelihood, so its
            # overflowing forward value raises no overflow warning
            outside = np.isneginf(prior.logpdf(xs))
            fxs = np.where(outside[:, None], 1e200, rng.standard_normal((k, m)))
            with np.errstate(over="raise"):
                got = objective(inst, xs, prob, fx=fxs)
            assert np.isneginf(got[outside]).all() and np.isfinite(got[~outside]).all()


# The scalar scoring path as it was written before its constants were hoisted:
# the normalizer summed and the factor transposed on every call, the box test
# by ndarray.all(), and the objective converting its point itself.  The
# module must agree with it bit for bit.

def ref_gaussian_logpdf(spec, x, mean=None):
    r = np.asarray(x, dtype=float) - (spec.mean if mean is None else mean)
    w, info = lapack.dtrtrs(spec.chol.T, r, lower=0, trans=1, overwrite_b=1)
    assert info == 0
    return -0.5 * (spec.dim * problems.LOG_2PI + spec.log_det() + float(w @ w))


def ref_objective(instance, x, problem, fx):
    x = np.asarray(x, dtype=float)
    prior = problem.prior
    if problem.has_gaussian_prior:
        prior_term = ref_gaussian_logpdf(prior, x, mean=instance.prior_mean_n)
    else:
        inside = bool((x >= prior.lower).all() and (x <= prior.upper).all())
        prior_term = 0.0 if inside else NEG_INF
    if prior_term == NEG_INF:
        return NEG_INF
    return ref_gaussian_logpdf(problem.likelihood.gaussian, instance.data_n, mean=fx) \
        + prior_term


def box_points(prior, rng):
    """Points inside a box, on its faces and corners, just and far outside
    it, and with NaN coordinates."""
    lo, hi = prior.lower, prior.upper
    inside = [prior.sample(rng) for _ in range(6)]
    faces = [lo.copy(), hi.copy(), np.where(np.arange(lo.size) % 2, lo, hi)]
    for j in (0, lo.size - 1):
        for bound in (lo, hi):
            x = prior.sample(rng)
            x[j] = bound[j]
            faces.append(x)
    outside = []
    for j in (0, lo.size // 2):
        for bound, away in ((lo, -np.inf), (hi, np.inf)):
            x = prior.sample(rng)
            x[j] = np.nextafter(bound[j], away)
            outside.append(x)
    outside.append(3.0 * hi)
    nan = [np.full(lo.size, np.nan)]
    for j in (0, lo.size - 1):
        x = prior.sample(rng)
        x[j] = np.nan
        nan.append(x)
    x = 3.0 * hi
    x[1] = np.nan
    nan.append(x)
    return inside + faces + outside + nan


def scored_points(problem, rng):
    """(point, forward value) pairs: a box's points of every kind, or draws
    around a Gaussian prior at several scales; a NaN point borrows the
    forward value of its NaN-free clip."""
    if problem.has_gaussian_prior:
        points = [problem.prior.sample(rng) * scale for scale in (0.1, 1.0, 1.0, 5.0, 40.0)]
    else:
        points = box_points(problem.prior, rng)
    return [(x, problem.simulator(problem.prior.clip(np.nan_to_num(x)))) for x in points]


def same_bits(a, b) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


SCORING_PROBLEMS = {
    "box-bowl": lambda: rmlbo.make_problem("quadratic-bowl", D=12, d=2, seed=3),
    "gaussian-bowl": lambda: rmlbo.make_problem("quadratic-bowl", D=12, d=2, seed=3,
                                                prior="gaussian"),
    "gaussian-linear": lambda: linear_problem(np.random.default_rng(31))[0],
}


class TestScoringMatchesPreviousFormulas:
    @pytest.mark.parametrize("kind", list(SCORING_PROBLEMS))
    def test_objective_matches_reference_bit_for_bit(self, kind):
        prob = SCORING_PROBLEMS[kind]()
        rng = np.random.default_rng(8)
        insts = draw_randomizations(prob, 4, rng)
        if prob.has_gaussian_prior:   # the perturbed means differ from the prior's
            assert all(not np.array_equal(inst.prior_mean_n, prob.prior.mean)
                       for inst in insts)
        points = scored_points(prob, rng)
        values = []
        for x, fx in points:
            for inst in insts:
                got = objective(inst, x, prob, fx=fx)
                assert same_bits(got, ref_objective(inst, x, prob, fx))
                assert type(got) is float
                values.append(got)
        finite = np.isfinite(values)
        assert finite.any()
        if not prob.has_gaussian_prior:   # 6 inside points, 7 face points, 5 out, 4 NaN
            assert finite.sum() == 13 * len(insts)

    @pytest.mark.parametrize("kind", list(SCORING_PROBLEMS))
    def test_selection_table_matches_reference_bit_for_bit(self, kind):
        # every record's candidate is scored once per objective into the
        # table; a Gaussian record's candidate is its refined point
        prob = SCORING_PROBLEMS[kind]()
        rng = np.random.default_rng(9)
        insts = draw_randomizations(prob, 3, rng)
        points = scored_points(prob, rng)
        overflowing = not prob.has_gaussian_prior
        if overflowing:
            # forward values whose likelihood overflows to -inf, inside the
            # box and outside it, where the likelihood is never evaluated
            big = np.full(prob.output_dim, 1e200)
            points += [(prob.prior.sample(rng), big), (3.0 * prob.prior.upper, big)]
        records = []
        for it, (x, fx) in enumerate(points, start=1):
            refined = (None, None)
            if prob.has_gaussian_prior:
                z = prob.prior.sample(rng)
                refined = (z, prob.simulator(z))
            records.append(hdbo.SimulationRecord(-1, None, x, fx, *refined, it, 1))
        with pytest.warns(RuntimeWarning, match="overflow") if overflowing else nullcontext():
            result = hdbo.select_maximizers(records, insts, prob)
            want = np.array([[ref_objective(inst, cand_x, prob, cand_f) for inst in insts]
                             for cand_x, cand_f in (rec.candidate() for rec in records)])
        want[np.isnan(want)] = NEG_INF
        assert result.candidate_values.tobytes() == want.tobytes()
        assert result.values.tobytes() == want.max(axis=0).tobytes()
        if overflowing:
            assert np.isneginf(result.candidate_values[-2:]).all()
            # the record outside the box raises no overflow warning
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                outside = hdbo.select_maximizers(records[:-2] + records[-1:], insts, prob)
            assert outside.candidate_values.tobytes() == \
                np.delete(want, -2, axis=0).tobytes()


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
            raise ValueError(f"{name} factorization failed: dpotrf failed with info=1")

        monkeypatch.setattr("rmlbo.rml.chol_spd", failing)
        rng = np.random.default_rng(24)
        prob, B = linear_problem(rng)
        inst = draw_randomizations(prob, 1, rng)[0]
        with pytest.raises(ValueError, match="normal matrix"):
            oracle_linear_rml(B, inst, prob)
        with pytest.raises(ValueError, match="normal matrix"):
            linear_gaussian_posterior(B, prob)
