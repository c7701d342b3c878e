import random
import re
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular

from rmlbo.problems import (
    NEG_INF,
    BoxPrior,
    ConfigError,
    GaussianSpec,
    LikelihoodSpec,
    ProblemSpec,
    SimulatorError,
    SimulatorHandle,
    chol_spd,
)
from rmlbo.rml import RMLInstance, objective


def _log_gaussian_direct(x, mu, cov):
    """Independent reference: explicit inverse and slogdet."""
    x = np.atleast_1d(np.asarray(x, float))
    mu = np.atleast_1d(np.asarray(mu, float))
    cov = np.atleast_2d(np.asarray(cov, float))
    r = x - mu
    _, logdet = np.linalg.slogdet(cov)
    return float(-0.5 * (x.size * np.log(2 * np.pi) + logdet + r @ np.linalg.inv(cov) @ r))


def identity_problem(d=1, data=None, obs_sd=1.0, prior=None):
    sim = SimulatorHandle(lambda x: x.copy(), d, d)
    prior = GaussianSpec(np.zeros(d), np.eye(d)) if prior is None else prior
    data = np.zeros(d) if data is None else np.asarray(data, float)
    return ProblemSpec(sim, prior, LikelihoodSpec(data, obs_sd ** 2 * np.eye(d)))


def mahalanobis_sq(y, cov, name="covariance"):
    """The Mahalanobis term of ``logpdf``: twice the log-density drop from
    the mode of a zero-mean Gaussian to ``y``."""
    spec = GaussianSpec(np.zeros(len(cov)), cov, name=name)
    return 2.0 * (spec.logpdf(spec.mean) - spec.logpdf(y))


class TestMahalanobis:
    def test_identity_covariance(self):
        assert mahalanobis_sq(np.array([3.0, 4.0]), np.eye(2)) == pytest.approx(25.0)

    def test_diagonal_scaling(self):
        assert mahalanobis_sq(np.array([2.0, 0.0]), np.diag([4.0, 1.0])) == pytest.approx(1.0)

    def test_hand_inverse_2x2(self):
        # inv([[2,1],[1,2]]) = [[2,-1],[-1,2]]/3, so (1,1) maps to 2/3
        cov = np.array([[2.0, 1.0], [1.0, 2.0]])
        assert mahalanobis_sq(np.array([1.0, 1.0]), cov) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_zero_iff_zero_vector(self):
        cov = np.array([[2.0, 0.3], [0.3, 1.0]])
        assert mahalanobis_sq(np.zeros(2), cov) <= 1e-12
        assert mahalanobis_sq(np.array([1e-5, 0.0]), cov) > 1e-12

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(-10, 10), min_size=2, max_size=6),
           st.randoms(use_true_random=False))
    def test_permutation_invariance(self, values, pyrng):
        y = np.asarray(values)
        n = y.size
        rng = np.random.default_rng(pyrng.randrange(2 ** 32))
        q, r = np.linalg.qr(rng.standard_normal((n, n)))
        cov = q @ np.diag(rng.uniform(0.5, 2.0, n)) @ q.T
        cov = 0.5 * (cov + cov.T)
        perm = rng.permutation(n)
        base = mahalanobis_sq(y, cov)
        permuted = mahalanobis_sq(y[perm], cov[np.ix_(perm, perm)])
        assert permuted == pytest.approx(base, rel=1e-9, abs=1e-12)

    def test_dimension_mismatch_names_matrix(self):
        with pytest.raises(ValueError, match="obs_cov"):
            mahalanobis_sq(np.ones(3), np.eye(2), name="obs_cov")

    def test_non_spd_matrix_is_hard_error(self):
        with pytest.raises(ValueError, match="^covariance factorization failed: "
                                             "dpotrf failed with info=2$"):
            mahalanobis_sq(np.ones(2), np.array([[1.0, 0.0], [0.0, -1.0]]))


class TestCholSpd:
    def test_semidefinite_matrix_is_rejected(self):
        # rank-deficient PSD matrix: no jitter is added to rescue it
        v = np.array([1.0, 2.0])
        mat = np.outer(v, v)
        with pytest.raises(ValueError, match="^gram factorization failed: "
                                             "dpotrf failed with info=2$"):
            chol_spd(mat, name="gram")

    def test_names_offender_on_failure(self):
        with pytest.raises(ValueError, match="prior covariance"):
            chol_spd(-np.eye(2), name="prior covariance")


class TestProximalFactor:
    def test_memo_matches_a_fresh_factor_per_eta(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((6, 6))
        spec = GaussianSpec(np.zeros(6), a @ a.T + np.eye(6))
        first = {eta: spec.proximal_chol(eta) for eta in (0.25, 4.0)}
        assert first[0.25] is not first[4.0]
        for eta in (4.0, 0.25):
            fresh = chol_spd(spec.cov + eta * np.eye(6), name="proximal system")
            assert spec.proximal_chol(eta) is first[eta]
            assert first[eta].tobytes() == fresh.tobytes()
            assert not first[eta].flags.writeable


class TestLogGaussianDensity:
    def test_standard_normal_at_mode(self):
        spec = GaussianSpec(0.0, 1.0)
        assert spec.logpdf(0.0) == pytest.approx(-0.5 * np.log(2 * np.pi))

    def test_2d_standard_normal_at_mode(self):
        spec = GaussianSpec([0.0, 0.0], np.eye(2))
        assert spec.logpdf([0.0, 0.0]) == pytest.approx(-np.log(2 * np.pi))

    def test_hand_value_and_direct_inverse_oracle(self):
        spec = GaussianSpec([1.0, 0.0], np.diag([4.0, 1.0]))
        got = spec.logpdf([3.0, 1.0])
        assert got == pytest.approx(-3.531025, abs=1e-6)
        assert got == pytest.approx(_log_gaussian_direct([3, 1], [1, 0], np.diag([4.0, 1.0])),
                                    abs=1e-12)

    @pytest.mark.parametrize("mu,var", [(0.0, 1.0), (-2.0, 0.25), (3.5, 7.0)])
    def test_grid_quadrature_integrates_to_one(self, mu, var):
        spec = GaussianSpec(mu, var)
        sd = np.sqrt(var)
        grid = np.linspace(mu - 10 * sd, mu + 10 * sd, 20001)
        dens = np.exp([spec.logpdf(x) for x in grid])
        integral = float(np.sum((dens[1:] + dens[:-1]) / 2 * np.diff(grid)))
        assert integral == pytest.approx(1.0, abs=1e-4)

    def test_mean_argument_recenters_with_the_same_covariance(self):
        cov = np.array([[2.0, 0.3], [0.3, 1.0]])
        spec = GaussianSpec([0.0, 0.0], cov)
        mean = np.array([0.4, -1.2])
        x = np.array([1.0, 0.5])
        assert spec.logpdf(x, mean=mean) == GaussianSpec(mean, cov).logpdf(x)
        assert spec.logpdf(x, mean=mean) == pytest.approx(
            _log_gaussian_direct(x, mean, cov), abs=1e-12)

    @pytest.mark.parametrize("dim", [1, 8])
    def test_bits_match_solve_triangular_reference(self, dim):
        rng = np.random.default_rng(dim)
        a = rng.standard_normal((dim, dim))
        spec = GaussianSpec(rng.standard_normal(dim), a @ a.T + 0.5 * np.eye(dim))

        def reference(x, mean):
            w = solve_triangular(spec.chol, x - mean, lower=True, check_finite=False)
            return -0.5 * (dim * np.log(2.0 * np.pi) + spec.log_det() + float(w @ w))

        for _ in range(200):
            x = rng.standard_normal(dim) * rng.uniform(0.1, 30.0)
            mean = rng.standard_normal(dim)
            assert np.float64(spec.logpdf(x)).tobytes() == \
                np.float64(reference(x, spec.mean)).tobytes()
            assert np.float64(spec.logpdf(x, mean=mean)).tobytes() == \
                np.float64(reference(x, mean)).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([1, 2, 3, 4, 5, 6, 100]), st.integers(0, 25), st.booleans(),
           st.sampled_from([1.0, 1e3, 1e80, 1e160]), st.sampled_from(["C", "F", "strided"]),
           st.randoms(use_true_random=False))
    # dimension 100 is the Gaussian bowl's prior, where ddot runs its
    # unrolled kernel; each layout and the empty stack are drawn at least once
    @example(100, 25, True, 1.0, "C", random.Random(0))
    @example(100, 7, False, 1e160, "F", random.Random(1))
    @example(100, 9, True, 1e3, "strided", random.Random(2))
    @example(100, 0, True, 1.0, "C", random.Random(5))
    @example(2, 0, False, 1.0, "strided", random.Random(6))
    def test_stack_matches_the_scalar_form_bit_for_bit(self, dim, k, dense, scale, layout,
                                                       pyrng):
        # entry i of a stack call is logpdf(x[i], mean), whose bits depend on
        # the one-column solve; -0.0 residuals and a scale of 1e160, where
        # w.dot(w) overflows to inf and the density to -inf, are included,
        # in a C-ordered, a Fortran-ordered and a row-strided stack
        rng = np.random.default_rng(pyrng.randrange(2 ** 32))
        if dense:
            a = rng.standard_normal((dim, dim))
            cov = a @ a.T + 0.5 * np.eye(dim)
        else:
            cov = np.diag(rng.uniform(0.1, 3.0, dim))
        spec = GaussianSpec(rng.standard_normal(dim), cov, name="obs_cov")
        mean = rng.standard_normal(dim)
        mean[rng.random(dim) < 0.3] = 0.0
        x = rng.standard_normal((2 * k if layout == "strided" else k, dim)) * scale
        x[rng.random(x.shape) < 0.2] = -0.0
        x[:1] = scale
        if layout == "F":
            x = np.asfortranarray(x)
        elif layout == "strided":
            x = x[::2]
        assert x.shape == (k, dim)
        with np.errstate(over="ignore"):
            got = spec.logpdf(x, mean=mean)
            want = np.array([spec.logpdf(row, mean=mean) for row in x], dtype=float)
        assert got.dtype == np.float64 and got.shape == (k,)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        if scale == 1e160 and k:
            assert got[0] == NEG_INF
        for width in {dim - 1, dim + 1} - {0}:
            with pytest.raises(ValueError, match=rf"points of shape \({k}, {width}\) "
                                                 rf"against obs_cov of dimension {dim}"):
                spec.logpdf(np.zeros((k, width)), mean=mean)

    @pytest.mark.parametrize("mean, shape", [
        (0.1, (1,)), ([0.1], (1,)), ([0.1, 0.2], (2,)), ([0.1] * 4, (4,)),
        ([[0.1, 0.2, 0.3]], (1, 3))], ids=["scalar", "one", "short", "long", "row"])
    @pytest.mark.parametrize("form", ["point", "stack"])
    def test_mean_of_the_wrong_shape_is_rejected(self, mean, shape, form):
        # unchecked, a short mean broadcasts against the points: a stack of
        # two zero residuals against mean [0.1] read [0.23, 0.23]
        spec = GaussianSpec(np.zeros(3), np.eye(3), name="obs_cov")
        x = np.zeros(3) if form == "point" else np.zeros((2, 3))
        message = rf"^point of shape \({', '.join(map(str, shape))},?\) against obs_cov " \
                  r"of dimension 3$"
        with pytest.raises(ValueError, match=message):
            spec.logpdf(x, mean=mean)
        # a mean of the right shape is taken as a list or an array, and a
        # scalar is a point of dimension one
        want = spec.logpdf(x, mean=np.array([0.1, 0.2, 0.3]))
        assert np.array_equal(spec.logpdf(x, mean=[0.1, 0.2, 0.3]), want)
        assert GaussianSpec(0.0, 1.0).logpdf(0.5, mean=0.2) == GaussianSpec(0.2, 1.0).logpdf(0.5)

    def test_asymmetric_covariance_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            GaussianSpec([0.0, 0.0], np.array([[1.0, 0.5], [0.2, 1.0]]))


def test_dot_gives_matmul_bits_at_the_hot_path_shapes():
    # the log-density's square norm, the evidence's products and predict's
    # GEMM call ndarray.dot for its lower dispatch cost, on the premise that
    # numpy routes a.dot(b) and a @ b to the same BLAS routine (ddot, dgemv,
    # dgemm) at these shapes; a numpy that does not would move traces.  The
    # budgeted evaluations take the same rule: the forward maps (B x, the
    # ridges' A^T x, sine-ridge's W u), lift's R y and the proximal step's
    # Sigma x0
    rng = np.random.default_rng(0)
    shapes = [((n,), (n,)) for n in [*range(1, 9), 33, 100]]
    shapes += [((n, n), (n,)) for n in (1, 30, 95)]
    shapes += [((n + 1, n), (n, p)) for n in (0, 1, 25, 95) for p in (1, 60, 64)]
    shapes += [((5, 8), (8,)), ((2, 2), (2,)), ((100, 3), (3,)), ((12, 3), (3,)),
               ((8, 8), (8,)), ((100, 100), (100,))]
    # the ridges take A^T as the transposed view of a C-ordered (D, 2) array
    transposed = [((D, 2), (D,)) for D in (20, 30, 100)]
    differ = []
    for (a_shape, b_shape), view in ([(s, False) for s in shapes]
                                     + [(s, True) for s in transposed]):
        a, b = rng.standard_normal(a_shape), rng.standard_normal(b_shape)
        # positive operands of 1e200 overflow every nonempty product to +inf
        for scale, a, b in [(1.0, a, b), (1e200, 1e200 * abs(a), 1e200 * abs(b))]:
            if view:
                a = a.T
                assert not a.flags.c_contiguous
            with np.errstate(over="ignore"):
                got, want = a.dot(b), a @ b
            if scale > 1.0 and a.shape[-1]:
                assert np.isposinf(want).all()
            if got.tobytes() != want.tobytes():
                differ.append(f"{a.shape}{' view' * view} . {b_shape} at scale {scale:g}")
    assert not differ, f"numpy {np.__version__}: a.dot(b) and a @ b differ at {differ}"


def log_likelihood(x, prob, fx):
    """The log likelihood of the observed data at ``x`` with forward value
    ``fx``, as ``objective`` gives it for the unperturbed data under a box
    prior that holds ``x`` (whose log density there is 0.0)."""
    assert isinstance(prob.prior, BoxPrior) and prob.prior.contains(x)
    return objective(RMLInstance(index=1, data_n=prob.likelihood.data), x, prob, fx=fx)


def wide_box(d):
    return BoxPrior(-10.0 * np.ones(d), 10.0 * np.ones(d))


class TestLogLikelihood:
    def test_zero_residual(self):
        prob = identity_problem(3, data=[0.5, -0.5, 1.0], prior=wide_box(3))
        x = np.array([0.5, -0.5, 1.0])
        got = log_likelihood(x, prob, prob.simulator(x))
        assert got == pytest.approx(-1.5 * np.log(2 * np.pi))

    def test_scalar_residual_two(self):
        prob = identity_problem(1, data=[2.0], prior=wide_box(1))
        x = np.array([0.0])
        assert log_likelihood(x, prob, prob.simulator(x)) == pytest.approx(
            -0.5 * np.log(2 * np.pi) - 2.0)

    def test_matches_log_gaussian_density_of_residual(self):
        rng = np.random.default_rng(7)
        d = 4
        data = rng.standard_normal(d)
        prob = identity_problem(d, data=data, obs_sd=0.7, prior=wide_box(d))
        x = rng.standard_normal(d)
        direct = GaussianSpec(np.zeros(d), 0.49 * np.eye(d)).logpdf(data - x)
        assert log_likelihood(x, prob, prob.simulator(x)) == pytest.approx(direct, abs=1e-12)

    def test_precomputed_fx_is_bitwise_equal_and_free(self):
        prob = identity_problem(2, data=[1.0, 2.0], prior=wide_box(2))
        x = np.array([0.3, 0.4])
        direct = log_likelihood(x, prob, prob.simulator(x))
        before = prob.simulator.eval_counter
        via_fx = log_likelihood(x, prob, fx=x.copy())
        assert via_fx == direct
        assert prob.simulator.eval_counter == before
        lik = prob.likelihood
        assert lik.gaussian.logpdf(lik.data, mean=x.copy()) == direct

    def test_simulator_failure_carries_input(self):
        def bad(x):
            raise RuntimeError("boom")

        sim = SimulatorHandle(bad, 2, 2)
        prob = ProblemSpec(sim, BoxPrior([-1, -1], [1, 1]),
                           LikelihoodSpec([0.0, 0.0], np.eye(2)))
        with pytest.raises(SimulatorError) as err:
            prob.simulator(np.array([0.1, 0.2]))
        assert np.allclose(err.value.x, [0.1, 0.2])


class TestLogPrior:
    def test_inside_box_is_zero(self):
        prior = BoxPrior([-1.0, -1.0], [1.0, 1.0])
        assert prior.logpdf(np.array([0.2, -0.9])) == 0.0

    def test_outside_box_is_neg_inf(self):
        prior = BoxPrior([-1.0, -1.0], [1.0, 1.0])
        assert prior.logpdf(np.array([0.2, 1.5])) == NEG_INF

    def test_box_has_no_mean_to_recenter(self):
        prior = BoxPrior([-1.0, -1.0], [1.0, 1.0])
        far = np.array([5.0, 5.0])
        assert prior.logpdf(np.array([0.2, -0.9]), mean=far) == 0.0
        assert prior.logpdf(far, mean=far) == NEG_INF

    def test_gaussian_prior_delegates(self):
        # objective's prior term is the Gaussian's own logpdf at the
        # instance's perturbed mean
        spec = GaussianSpec([0.5], [[2.0]])
        prob = identity_problem(1, data=[0.3], prior=spec)
        inst = RMLInstance(index=1, data_n=[0.4], prior_mean_n=[-0.2])
        x = np.array([0.1])
        lik = prob.likelihood.gaussian.logpdf(inst.data_n, mean=x)
        assert objective(inst, x, prob, fx=x.copy()) == \
            lik + spec.logpdf(x, mean=inst.prior_mean_n)

    def test_clip_projects_into_the_support(self):
        box = BoxPrior([-1.0, 0.0], [1.0, 0.5])
        np.testing.assert_array_equal(box.clip([2.0, -3.0]), [1.0, 0.0])
        assert box.logpdf(box.clip([2.0, -3.0])) == 0.0
        # a Gaussian's support is all of R^D: clip returns the point as floats
        spec = GaussianSpec([0.0, 0.0], np.eye(2))
        x = np.array([1e6, -3.0])
        assert spec.clip(x) is x
        got = spec.clip([1, 2])
        assert got.dtype == float and got.tolist() == [1.0, 2.0]

    @pytest.mark.parametrize("point, shape", [
        (0.5, (1,)), ([0.5], (1,)), ([0.5] * 11, (11,)), ([0.5] * 13, (13,)),
        (np.zeros((1, 12)), (1, 12)), (np.zeros((12, 1)), (12, 1)),
        (np.zeros((2, 12)), (2, 12)), (np.zeros((2, 11)), (2, 11))],
        ids=["scalar", "one", "short", "long", "row", "column", "batch", "short-batch"])
    @pytest.mark.parametrize("kind", ["box", "gaussian"])
    def test_logpdf_and_clip_reject_a_point_of_the_wrong_shape(self, kind, point, shape):
        # unchecked, a short point broadcasts against the 12-D box bounds:
        # logpdf(0.5) would read 0.0 and clip([0.5]) return 12 values.  A
        # box's logpdf takes a (k, 12) array as a stack of points, one value
        # a row; a stack of any other width is rejected as a point
        prior, name = ((BoxPrior(-np.ones(12), np.ones(12)), "box prior") if kind == "box"
                       else (GaussianSpec(np.zeros(12), np.eye(12)), "covariance"))
        message = rf"point of shape \({', '.join(map(str, shape))},?\) against {name} " \
                  r"of dimension 12"
        if kind == "box" and shape in {(1, 12), (2, 12)}:
            got = prior.logpdf(point)
            assert got.dtype == np.float64 and got.tolist() == [0.0] * shape[0]
        else:
            with pytest.raises(ValueError, match=message):
                prior.logpdf(point)
        with pytest.raises(ValueError, match=message):
            prior.clip(point)
        if kind == "box":   # the box test behind logpdf checks the point itself
            with pytest.raises(ValueError, match=message):
                prior.contains(point)
            assert prior.contains(np.full(12, 0.5))
        assert prior.logpdf(np.full(12, 0.5)) > NEG_INF
        assert prior.clip(np.full(12, 0.5)).shape == (12,)

    def test_contains_matches_reference_on_boundaries_and_nan(self):
        prior = BoxPrior([-1.0, 0.0, 2.5], [1.0, 0.5, 3.0])
        points = [prior.lower, prior.upper, [1.0, 0.0, 2.75], [-1.0, 0.5, 3.0],
                  [np.nextafter(1.0, 2.0), 0.2, 2.6], [0.0, np.nextafter(0.0, -1.0), 2.6],
                  [np.nan, 0.2, 2.6], [0.0, 0.2, np.nan], [np.nan] * 3, [0.0, 0.2, 2.6]]
        points = [np.asarray(p, dtype=float) for p in points]
        got = [prior.contains(p) for p in points]
        ref = [bool(np.all(p >= prior.lower) and np.all(p <= prior.upper)) for p in points]
        assert got == ref == [True, True, True, True, False, False, False, False, False, True]
        assert all(type(g) is bool for g in got)

    def test_sentinel_propagates_through_sums(self):
        assert NEG_INF + 123.4 == NEG_INF

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_box_samples_always_feasible(self, seed):
        rng = np.random.default_rng(seed)
        prior = BoxPrior([-2.0, 0.0, 1.0], [-1.0, 3.0, 1.5])
        x = prior.sample(rng)
        assert prior.logpdf(x) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["box", "dense", "diagonal"]), st.integers(1, 8),
           st.integers(0, 50), st.integers(0, 2 ** 31 - 1))
    @example("box", 3, 0, 11)
    @example("dense", 3, 0, 11)
    @example("box", 3, 1, 11)
    @example("dense", 3, 1, 11)
    @example("box", 3, 3, 11)
    @example("dense", 3, 3, 11)
    def test_block_draw_rows_are_successive_single_draws(self, kind, dim, size, seed):
        # row i of sample(rng, size) is the i-th of size one-point draws, bit
        # for bit, and the generator ends in the same state; size 0 is an
        # empty (0, dim) block that leaves the generator untouched
        gen = np.random.default_rng(seed)
        if kind == "box":
            lower = gen.uniform(-5.0, 5.0, dim)
            prior = BoxPrior(lower, lower + gen.uniform(0.1, 10.0, dim))
        else:
            a = gen.standard_normal((dim, dim))
            cov = (a @ a.T + dim * np.eye(dim) if kind == "dense"
                   else np.diag(gen.uniform(0.1, 10.0, dim)))
            prior = GaussianSpec(gen.standard_normal(dim), cov)
        block_rng, single_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        block = prior.sample(block_rng, size)
        singles = np.array([prior.sample(single_rng) for _ in range(size)]).reshape(size, dim)
        assert block.shape == (size, dim)
        np.testing.assert_array_equal(block.view(np.uint64), singles.view(np.uint64))
        assert block_rng.bit_generator.state == single_rng.bit_generator.state

    def test_box_clip_keeps_np_clip_bits(self):
        # NaN, signed zeros, infinities, values on a bound and one ulp outside,
        # each bound pair rolled through every position of a D = 100 point so
        # that every split between SIMD lanes and scalar tail is exercised
        lower5 = np.array([0.0, -0.0, -1.0, -1.0, 2.5])
        upper5 = np.array([1.0, 1.0, 0.0, -0.0, 3.0])
        values = [np.nan, 0.0, -0.0, np.inf, -np.inf, 1.0, -1.0, 2.5, 3.0,
                  np.nextafter(0.0, -1.0), np.nextafter(1.0, 2.0), np.nextafter(-1.0, -2.0),
                  np.nextafter(2.5, 0.0), np.nextafter(3.0, 4.0), 0.5, 2.75]
        mixed = np.tile([-0.0, 0.0, -0.0, 0.0, np.nan], 20)
        for shift in range(100):
            lower = np.roll(np.tile(lower5, 20), shift)
            upper = np.roll(np.tile(upper5, 20), shift)
            box = BoxPrior(lower, upper)
            for x in [np.full(100, v) for v in values] + [lower, upper, np.roll(mixed, shift)]:
                np.testing.assert_array_equal(box.clip(x).view(np.uint64),
                                              np.clip(x, lower, upper).view(np.uint64))
        with pytest.raises(ValueError, match=r"point of shape \(4,\) against box prior"):
            BoxPrior(lower5, upper5).clip(np.zeros(4))


class TestSimulatorHandle:
    def test_deterministic_and_counts_once_per_call(self):
        sim = SimulatorHandle(lambda x: np.array([x @ x]), 3, 1)
        x = np.array([1.0, 2.0, 3.0])
        a = sim(x)
        b = sim(x)
        assert a.tobytes() == b.tobytes()
        assert sim.eval_counter == 2

    @pytest.mark.parametrize("arg", ["input_dim", "output_dim"])
    @pytest.mark.parametrize("bad", [2.5, True, "3", 0], ids=["2.5", "True", "str", "0"])
    def test_dimension_that_is_not_a_positive_integer_is_rejected(self, arg, bad):
        # the one integer rule: a float, a bool or a string is no dimension
        dims = {"input_dim": 2, "output_dim": 2, arg: bad}
        message = f"^{arg}: expected a positive integer, got {re.escape(repr(bad))}$"
        with pytest.raises(ConfigError, match=message):
            SimulatorHandle(lambda x: x.copy(), **dims)

    def test_numpy_integer_dimensions_are_accepted(self):
        sim = SimulatorHandle(lambda x: x[:1].copy(), np.int64(2), np.int32(1))
        assert (sim.input_dim, sim.output_dim) == (2, 1)
        assert sim(np.ones(2)).tobytes() == np.ones(1).tobytes()

    def test_output_of_the_output_shape_is_kept(self):
        # a float (m,) output is returned itself, not a view that pins it;
        # m values of another shape are reshaped to (m,)
        outs = []
        sim = SimulatorHandle(lambda x: outs.append(2.0 * x) or outs[-1], 2, 2)
        assert sim(np.array([1.0, 2.0])) is outs[-1]
        column = SimulatorHandle(lambda x: x.reshape(2, 1), 2, 2)
        assert column(np.array([1.0, 2.0])).tobytes() == np.array([1.0, 2.0]).tobytes()
        scalar = SimulatorHandle(lambda x: x @ x, 2, 1)
        assert scalar(np.array([1.0, 2.0])).shape == (1,)

    @pytest.mark.parametrize("size", [1, 3])
    def test_output_of_the_wrong_size_raises_and_is_not_counted(self, size):
        sim = SimulatorHandle(lambda x: np.zeros(size), 2, 2)
        with pytest.raises(SimulatorError, match="failed at input"):
            sim(np.zeros(2))
        assert sim.eval_counter == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_output_raises_and_is_not_counted(self, bad):
        sim = SimulatorHandle(lambda x: np.array([x[0], bad if x[1] > 0 else 0.0]), 2, 2)
        sim(np.zeros(2))
        with pytest.raises(SimulatorError, match="non-finite") as err:
            sim(np.array([0.5, 1.0]))
        np.testing.assert_array_equal(err.value.x, [0.5, 1.0])
        with sim.analysis(), pytest.raises(SimulatorError, match="non-finite"):
            sim(np.array([0.5, 1.0]))
        assert sim.eval_counter == 1
        assert sim.analysis_counter == 0
        # the value at each position of an m = 3 output, as a vector and as
        # an (m, 1) column, inside and outside analysis: no call is counted
        # until a finite output, which counts once
        out = np.zeros(3)
        for shape in [(3,), (3, 1)]:
            sim = SimulatorHandle(lambda x: out.reshape(shape).copy(), 2, 3)
            for pos in range(3):
                out[:] = [0.5, -0.5, 2.0]
                out[pos] = bad
                for analysis in (False, True):
                    with sim.analysis() if analysis else nullcontext():
                        with pytest.raises(SimulatorError, match="non-finite"):
                            sim(np.zeros(2))
                    assert (sim.eval_counter, sim.analysis_counter) == (0, 0)
            out[:] = [0.5, -0.5, 2.0]
            got = sim(np.zeros(2))
            assert got.shape == (3,) and got.tobytes() == out.tobytes()
            assert (sim.eval_counter, sim.analysis_counter) == (1, 0)

    def test_analysis_calls_tracked_separately(self):
        sim = SimulatorHandle(lambda x: x.copy(), 2, 2)
        sim(np.zeros(2))
        with sim.analysis():
            sim(np.ones(2))
            sim(np.ones(2))
        assert sim.eval_counter == 1
        assert sim.analysis_counter == 2

    def test_analysis_context_covers_only_its_own_thread(self):
        import threading

        sim = SimulatorHandle(lambda x: x.copy(), 1, 1)
        inside, done = threading.Event(), threading.Event()

        def analyst():
            with sim.analysis():
                sim(np.array([1.0]))
                inside.set()
                done.wait(timeout=10)

        thread = threading.Thread(target=analyst)
        thread.start()
        try:
            assert inside.wait(timeout=10)
            sim(np.array([2.0]))   # a budget call while the other thread is in analysis
        finally:
            done.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert sim.eval_counter == 1
        assert sim.analysis_counter == 1

    def test_concurrent_counting_is_exact(self):
        import threading

        sim = SimulatorHandle(lambda x: x.copy(), 1, 1)

        def work():
            for _ in range(200):
                sim(np.array([1.0]))

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sim.eval_counter == 1600


class TestProblemSpec:
    def test_prior_dimension_must_match(self):
        sim = SimulatorHandle(lambda x: x.copy(), 3, 3)
        with pytest.raises(ValueError, match="prior dimension"):
            ProblemSpec(sim, BoxPrior([-1, -1], [1, 1]),
                        LikelihoodSpec(np.zeros(3), np.eye(3)))

    def test_likelihood_dimension_must_match(self):
        sim = SimulatorHandle(lambda x: x[:2].copy(), 3, 2)
        with pytest.raises(ValueError, match="likelihood dimension"):
            ProblemSpec(sim, BoxPrior([-1] * 3, [1] * 3),
                        LikelihoodSpec(np.zeros(3), np.eye(3)))

    def test_box_bounds_must_be_ordered(self):
        with pytest.raises(ValueError, match="lower < upper"):
            BoxPrior([0.0, 0.0], [1.0, 0.0])
