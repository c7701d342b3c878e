import numpy as np
import pytest
from scipy.linalg import lapack, solve_triangular
from scipy.spatial.distance import cdist

from rmlbo import gp


# Reference formulations of the GP's hot paths: fresh arrays, np.eye on the
# diagonal, np.tril to symmetrize and np.clip on the variance.  The module
# builds the same arithmetic in place, so results must agree bit for bit.

def ref_kernel_matrix(sqdist, params):
    return params.outputscale ** 2 * np.exp(-sqdist / (2.0 * params.lengthscale ** 2))


def ref_lml_grad(inputs, z, params):
    sqdist = cdist(inputs, inputs, metric="sqeuclidean")
    n = z.size
    k_rbf = ref_kernel_matrix(sqdist, params)
    kn = k_rbf + params.noise_var * np.eye(n)
    chol, info = lapack.dpotrf(kn, lower=1)
    assert info == 0
    alpha, _ = lapack.dpotrs(chol, z, lower=1)
    lml = -0.5 * float(z @ alpha) - float(np.sum(np.log(np.diag(chol)))) \
        - 0.5 * n * np.log(2.0 * np.pi)
    k_inv, _ = lapack.dpotri(chol, lower=1)
    k_inv += np.tril(k_inv, -1).T
    w = np.outer(alpha, alpha) - k_inv
    wk = w * k_rbf
    grad = np.array([
        float(np.sum(wk)),
        0.5 * float(np.sum(wk * sqdist)) / params.lengthscale ** 2,
        0.5 * params.noise_var * float(np.trace(w)),
    ])
    return lml, grad


def ref_factors(inputs, z, params):
    kn = ref_kernel_matrix(cdist(inputs, inputs, metric="sqeuclidean"), params) \
        + params.noise_var * np.eye(inputs.shape[0])
    chol, _ = lapack.dpotrf(kn, lower=1)
    alpha, _ = lapack.dpotrs(chol, z, lower=1)
    chol_inv, _ = lapack.dtrtri(chol, lower=1)
    return chol, alpha, chol_inv


def ref_predict(model, pts):
    o = model.params.outputscale
    k_star = ref_kernel_matrix(cdist(model.inputs, pts, metric="sqeuclidean"), model.params)
    mean_norm = k_star.T @ model.alpha
    v = model.chol_inv @ k_star
    var_norm = np.clip(o ** 2 - np.sum(v ** 2, axis=0), 0.0, None)
    return (model.target_mean + model.target_sd * mean_norm,
            model.target_sd * np.sqrt(var_norm))


def ref_dedup_groups(inputs):
    """The greedy grouping: each unassigned row takes every unassigned row
    within DUPLICATE_TOL of it."""
    d = cdist(inputs, inputs, metric="sqeuclidean")
    assigned = np.full(len(inputs), -1)
    groups = []
    for i in range(len(inputs)):
        if assigned[i] < 0:
            members = np.where((assigned < 0) & (d[i] <= gp.DUPLICATE_TOL ** 2))[0]
            assigned[members] = len(groups)
            groups.append(members)
    return groups


def bits(*arrays):
    return [np.asarray(a, dtype=float).tobytes() for a in arrays]


def dense_lml(X, z, params):
    """Reference evidence via explicit inverse and slogdet."""
    n = len(z)
    K = np.array([[gp.rbf_kernel(a, b, params) for b in X] for a in X])
    K += params.noise_var * np.eye(n)
    _, logdet = np.linalg.slogdet(K)
    return float(-0.5 * z @ np.linalg.inv(K) @ z - 0.5 * logdet - 0.5 * n * np.log(2 * np.pi))


def fit_objective(monkeypatch, X, z):
    """The function ``gp.fit`` hands to L-BFGS-B for these data, and the
    standardized targets it was built on."""
    objectives = []
    real_minimize = gp.minimize

    def spy(fun, x0, **kwargs):
        objectives.append(fun)
        return real_minimize(fun, x0, **kwargs)

    monkeypatch.setattr(gp, "minimize", spy)
    model = gp.fit(X, z, np.random.default_rng(0))
    return objectives[0], (z - model.target_mean) / model.target_sd


def natural(theta):
    """Kernel parameters at a point of the fit's search coordinates
    (log o, log l, log(noise / o^2))."""
    return gp.KernelParams(theta[0], theta[1], theta[2] + 2.0 * theta[0])


class TestKernel:
    def test_zero_distance_gives_outputscale_squared(self):
        p = gp.KernelParams.from_natural(1.5, 1.0)
        assert gp.rbf_kernel([0.0, 0.0], [0.0, 0.0], p) == pytest.approx(2.25)

    def test_distance_equal_to_lengthscale(self):
        p = gp.KernelParams.from_natural(1.0, 0.7)
        assert gp.rbf_kernel([0.0], [0.7], p) == pytest.approx(np.exp(-0.5))

    def test_hand_evaluation(self):
        p = gp.KernelParams.from_natural(2.0, 5.0)
        assert gp.rbf_kernel([0.0, 0.0], [3.0, 4.0], p) == pytest.approx(4 * np.exp(-0.5))

    def test_params_are_log_space(self):
        p = gp.KernelParams.from_natural(2.0, 0.5, 1e-4)
        assert p.log_outputscale == pytest.approx(np.log(2.0))
        assert p.log_lengthscale == pytest.approx(np.log(0.5))
        assert p.noise_var == pytest.approx(1e-4)

    def test_noise_floor_applies(self):
        p = gp.KernelParams.from_natural(1.0, 1.0, 0.0)
        assert p.noise_var == pytest.approx(gp.NOISE_FLOOR)

    def test_noise_floor_scales_with_outputscale(self):
        for o in (0.01, 3.0, 1e3):
            p = gp.KernelParams.from_natural(o, 1.0, 0.0)
            assert p.noise_var == pytest.approx(gp.NOISE_FLOOR * o ** 2)
        assert gp.KernelParams.from_natural(1e3, 1.0, 1e-4).noise_var == pytest.approx(1e-2)
        assert gp.KernelParams.from_natural(0.1, 1.0, 1e-4).noise_var == pytest.approx(1e-4)

    def test_kernel_matrix_factorizes_with_small_jitter(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(-1, 1, (40, 3))
        p = gp.KernelParams.from_natural(1.0, 2.0, gp.NOISE_FLOOR)
        model = gp.fit_with_params(X, rng.standard_normal(40), p)
        kn = model.chol_factor @ model.chol_factor.T
        ref = np.array([[gp.rbf_kernel(a, b, p) for b in model.inputs] for a in model.inputs])
        ref += p.noise_var * np.eye(model.n_train)
        rel = np.linalg.norm(kn - ref) / np.linalg.norm(ref)
        assert rel < 1e-8


class TestLogMarginalLikelihood:
    def test_single_point_closed_form(self):
        params = gp.KernelParams.from_natural(1.3, 0.8, 1e-4)
        z = 0.37
        var = 1.3 ** 2 + 1e-4
        expected = -0.5 * (np.log(2 * np.pi) + np.log(var) + z ** 2 / var)
        assert gp.log_marginal_likelihood([[0.2]], [z], params) == pytest.approx(expected)

    def test_permutation_symmetry(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(-1, 1, (6, 2))
        z = rng.standard_normal(6)
        params = gp.KernelParams.from_natural(1.0, 0.5, 1e-3)
        perm = rng.permutation(6)
        a = gp.log_marginal_likelihood(X, z, params)
        b = gp.log_marginal_likelihood(X[perm], z[perm], params)
        assert b == pytest.approx(a, abs=1e-10)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(-1, 1, (5, 2))
        z = rng.standard_normal(5)
        params = gp.KernelParams.from_natural(1.1, 0.9, 1e-3)
        assert gp.log_marginal_likelihood(X, z, params) == pytest.approx(
            dense_lml(X, z, params), abs=1e-8)

    def test_gradient_matches_finite_differences(self):
        # analytic gradient within 1e-4 relative error at 10 random settings
        rng = np.random.default_rng(9)
        X = rng.uniform(-2, 2, (12, 2))
        z = rng.standard_normal(12)
        eps = 1e-6
        for _ in range(10):
            theta = np.array([rng.uniform(-1, 1), rng.uniform(-1.5, 0.5),
                              rng.uniform(np.log(1e-6), np.log(1e-2))])
            _, grad = gp.log_marginal_likelihood_grad(X, z, gp.KernelParams(*theta))
            for i in range(3):
                up, dn = theta.copy(), theta.copy()
                up[i] += eps
                dn[i] -= eps
                fd = (gp.log_marginal_likelihood(X, z, gp.KernelParams(*up))
                      - gp.log_marginal_likelihood(X, z, gp.KernelParams(*dn))) / (2 * eps)
                assert grad[i] == pytest.approx(fd, rel=1e-4, abs=1e-8)


    def test_gradient_at_n60_near_noise_floor(self):
        # the LAPACK gradient against finite differences and against the
        # dense formula 0.5 tr((alpha alpha^T - K^-1) dK) with np.linalg.inv
        rng = np.random.default_rng(21)
        X = rng.uniform(-2, 2, (60, 3))
        z = rng.standard_normal(60)
        theta = np.array([0.3, np.log(0.5), np.log(3 * gp.NOISE_FLOOR)])
        params = gp.KernelParams(*theta)
        lml, grad = gp.log_marginal_likelihood_grad(X, z, params)

        sq = ((X[:, None, :] - X[None, :, :]) ** 2).sum(-1)
        k_rbf = params.outputscale ** 2 * np.exp(-sq / (2 * params.lengthscale ** 2))
        kn = k_rbf + params.noise_var * np.eye(60)
        k_inv = np.linalg.inv(kn)
        alpha = k_inv @ z
        w = np.outer(alpha, alpha) - k_inv
        dense = np.array([np.sum(w * k_rbf),
                          0.5 * np.sum(w * k_rbf * sq) / params.lengthscale ** 2,
                          0.5 * params.noise_var * np.trace(w)])
        np.testing.assert_allclose(grad, dense, rtol=1e-7, atol=1e-9)
        assert lml == pytest.approx(dense_lml(X, z, params), rel=1e-10)

        eps = 1e-5
        for i in range(3):
            up, dn = theta.copy(), theta.copy()
            up[i] += eps
            dn[i] -= eps
            fd = (gp.log_marginal_likelihood(X, z, gp.KernelParams(*up))
                  - gp.log_marginal_likelihood(X, z, gp.KernelParams(*dn))) / (2 * eps)
            assert grad[i] == pytest.approx(fd, rel=1e-4, abs=1e-6)

    def test_fit_coordinate_gradient_matches_finite_differences(self, monkeypatch):
        # what L-BFGS-B sees: the negative evidence and its gradient in
        # (log o, log l, log(noise / o^2)), against central differences of
        # the evidence itself at the mapped parameters
        rng = np.random.default_rng(9)
        X = rng.uniform(-2, 2, (12, 2))
        neg_lml, zs = fit_objective(monkeypatch, X, rng.standard_normal(12))
        eps = 1e-6
        for _ in range(10):
            theta = np.array([rng.uniform(-1, 1), rng.uniform(-1.5, 0.5),
                              rng.uniform(np.log(1e-6), np.log(1e-2))])
            value, grad = neg_lml(theta)
            assert -value == gp.log_marginal_likelihood(X, zs, natural(theta))
            for i in range(3):
                up, dn = theta.copy(), theta.copy()
                up[i] += eps
                dn[i] -= eps
                fd = (gp.log_marginal_likelihood(X, zs, natural(up))
                      - gp.log_marginal_likelihood(X, zs, natural(dn))) / (2 * eps)
                assert -grad[i] == pytest.approx(fd, rel=1e-4, abs=1e-8)

    def test_fit_coordinate_gradient_at_n60_near_noise_floor(self, monkeypatch):
        rng = np.random.default_rng(21)
        X = rng.uniform(-2, 2, (60, 3))
        neg_lml, zs = fit_objective(monkeypatch, X, rng.standard_normal(60))
        theta = np.array([0.3, np.log(0.5), np.log(3 * gp.NOISE_FLOOR)])
        _, grad = neg_lml(theta)
        eps = 1e-5
        for i in range(3):
            up, dn = theta.copy(), theta.copy()
            up[i] += eps
            dn[i] -= eps
            fd = (gp.log_marginal_likelihood(X, zs, natural(up))
                  - gp.log_marginal_likelihood(X, zs, natural(dn))) / (2 * eps)
            assert -grad[i] == pytest.approx(fd, rel=1e-4, abs=1e-6)

    @pytest.mark.parametrize("n", [1, 2, 30, 100])
    def test_gradient_bits_match_reference(self, n):
        rng = np.random.default_rng(100 + n)
        X = rng.uniform(-1.5, 1.5, (n, 3))
        z = rng.standard_normal(n)
        for theta in ([0.3, np.log(0.5), np.log(3 * gp.NOISE_FLOOR)],
                      [-1.2, np.log(2.0), np.log(1e-2)]):
            params = gp.KernelParams(*theta)
            lml, grad = gp.log_marginal_likelihood_grad(X, z, params)
            ref_lml, ref_grad = ref_lml_grad(X, z, params)
            assert bits(lml, grad) == bits(ref_lml, ref_grad)

    def test_fitted_factors_match_reference_bits(self):
        rng = np.random.default_rng(23)
        X = rng.uniform(-1, 1, (40, 3))
        z = rng.standard_normal(40)
        params = gp.KernelParams.from_natural(1.4, 0.8, 1e-5)
        model = gp.fit_with_params(X, z, params)
        zs = (z - model.target_mean) / model.target_sd
        assert bits(model.chol_factor, model.alpha, model.chol_inv) == \
            bits(*ref_factors(X, zs, params))


class TestPredict:
    def test_empty_model_reverts_to_prior(self):
        params = gp.KernelParams.from_natural(1.7, 1.0)
        model = gp.empty_model(params, dim=2)
        mean, sd = gp.predict(model, np.zeros(2))
        assert mean == 0.0
        assert sd == pytest.approx(1.7)

    def test_single_pair_posterior_formula(self):
        # with one training point the standardized target is zero, so the
        # posterior mean stays at the target everywhere; use two points to
        # exercise the k/(K + noise) weighting against a dense computation
        params = gp.KernelParams.from_natural(1.4, 0.6, 1e-6)
        X = np.array([[0.0, 0.0], [1.0, 1.0]])
        z = np.array([1.0, -1.0])
        model = gp.fit_with_params(X, z, params)
        yq = np.array([0.5, 0.1])
        K = np.array([[gp.rbf_kernel(a, b, params) for b in X] for a in X])
        K += params.noise_var * np.eye(2)
        zz = (z - z.mean()) / z.std()
        kq = np.array([gp.rbf_kernel(yq, b, params) for b in X])
        mean_hand = z.mean() + z.std() * (kq @ np.linalg.solve(K, zz))
        sd_hand = z.std() * np.sqrt(params.outputscale ** 2 - kq @ np.linalg.solve(K, kq))
        mean, sd = gp.predict(model, yq)
        assert mean == pytest.approx(mean_hand, abs=1e-10)
        assert sd == pytest.approx(sd_hand, abs=1e-10)

    def test_far_from_data_reverts_to_prior(self):
        params = gp.KernelParams.from_natural(2.0, 0.3, 1e-6)
        model = gp.fit_with_params([[0.0], [0.5]], [3.0, 5.0], params)
        mean, sd = gp.predict(model, np.array([50.0]))
        assert mean == pytest.approx(model.target_mean, abs=1e-6)
        assert sd == pytest.approx(model.target_sd * 2.0, abs=1e-6)

    def test_interpolates_training_data_at_noise_floor(self):
        rng = np.random.default_rng(12)
        X = rng.uniform(-1, 1, (15, 2))
        z = np.sin(X[:, 0]) + X[:, 1] ** 2
        params = gp.KernelParams.from_natural(1.0, 0.8, gp.NOISE_FLOOR)
        model = gp.fit_with_params(X, z, params)
        mean, sd = gp.predict(model, X)
        assert np.max(np.abs(mean - z)) / model.target_sd < 1e-4
        assert np.max(sd) / model.target_sd < np.sqrt(params.noise_var) + 1e-6

    def test_permutation_invariance(self):
        rng = np.random.default_rng(13)
        X = rng.uniform(-1, 1, (8, 2))
        z = rng.standard_normal(8)
        params = gp.KernelParams.from_natural(1.0, 0.5, 1e-4)
        perm = rng.permutation(8)
        q = rng.uniform(-1, 1, (4, 2))
        m1, s1 = gp.predict(gp.fit_with_params(X, z, params), q)
        m2, s2 = gp.predict(gp.fit_with_params(X[perm], z[perm], params), q)
        assert np.max(np.abs(m1 - m2)) < 1e-10
        assert np.max(np.abs(s1 - s2)) < 1e-10


    def test_sd_matches_triangular_solve_reference(self):
        rng = np.random.default_rng(14)
        X = rng.uniform(-1, 1, (60, 3))
        z = np.sin(3 * X[:, 0]) + X[:, 1] * X[:, 2]
        params = gp.KernelParams.from_natural(1.2, 0.6, 10 * gp.NOISE_FLOOR)
        model = gp.fit_with_params(X, z, params)
        q = rng.uniform(-1.2, 1.2, (500, 3))
        _, sd = gp.predict(model, q)
        k_star = params.outputscale ** 2 * np.exp(
            -((model.inputs[:, None, :] - q[None, :, :]) ** 2).sum(-1)
            / (2 * params.lengthscale ** 2))
        v = solve_triangular(model.chol_factor, k_star, lower=True)
        ref = model.target_sd * np.sqrt(np.clip(params.outputscale ** 2
                                                - np.sum(v ** 2, axis=0), 0.0, None))
        np.testing.assert_allclose(sd, ref, rtol=1e-10)

    @pytest.mark.parametrize("n", [1, 25, 95])
    def test_predict_and_ucb_bits_match_reference(self, n):
        rng = np.random.default_rng(200 + n)
        X = rng.uniform(-1, 1, (n, 3))
        z = np.sin(3 * X[:, 0]) + X[:, 1] * X[:, 2]
        model = gp.fit(X, z, rng)
        # training points take the variance to (or below) the zero clamp;
        # the far point sees only the prior
        q = np.vstack([rng.uniform(-1.2, 1.2, (300, 3)), X[:5], [[50.0, 0.0, 0.0]]])
        mean, sd = gp.predict(model, q)
        ref_mean, ref_sd = ref_predict(model, q)
        assert bits(mean, sd) == bits(ref_mean, ref_sd)
        for beta in (0.0, 2.0):
            assert bits(gp.ucb(model, q, beta)) == bits(ref_mean + beta * ref_sd)
        one = gp.predict(model, q[0])
        assert isinstance(one[0], float)
        assert bits(*one) == bits(*ref_predict(model, q[:1]))

    def test_zero_variance_clamp_matches_reference_bits(self):
        # with no noise the raw variance at training points dips below zero
        rng = np.random.default_rng(18)
        X = rng.uniform(-1, 1, (20, 2))
        params = gp.KernelParams(0.0, np.log(1.0), np.log(1e-30))
        model = gp.fit_with_params(X, rng.standard_normal(20), params)
        v = model.chol_inv @ ref_kernel_matrix(
            cdist(model.inputs, X, metric="sqeuclidean"), params)
        assert np.any(params.outputscale ** 2 - np.sum(v ** 2, axis=0) < 0)
        assert bits(*gp.predict(model, X)) == bits(*ref_predict(model, X))

    def test_ucb_keeps_its_input_checks(self):
        model = gp.fit_with_params([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]], [0.0, 1.0],
                                   gp.KernelParams.from_natural(1.0, 1.0))
        with pytest.raises(ValueError, match="query dimension"):
            gp.ucb(model, np.zeros((4, 2)), 1.0)
        with pytest.raises(ValueError, match="non-negative"):
            gp.ucb(model, np.zeros((4, 3)), -0.5)

    def test_cached_inverse_factor(self):
        rng = np.random.default_rng(15)
        X = rng.uniform(-1, 1, (30, 2))
        model = gp.fit_with_params(X, rng.standard_normal(30),
                                   gp.KernelParams.from_natural(1.0, 0.7, 1e-6))
        np.testing.assert_allclose(model.chol_inv @ model.chol_factor, np.eye(30),
                                   atol=1e-8)
        assert model.jitter == 0.0


class TestFit:
    def test_single_point(self):
        rng = np.random.default_rng(0)
        model = gp.fit([[0.5]], [4.2], rng)
        mean, _ = gp.predict(model, np.array([0.5]))
        assert mean == pytest.approx(4.2, abs=1e-6)
        far_mean, _ = gp.predict(model, np.array([1000.0]))
        assert far_mean == pytest.approx(4.2, abs=1e-6)

    def test_constant_targets(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(-1, 1, (6, 2))
        model = gp.fit(X, np.full(6, 2.5), rng)
        assert model.target_sd == pytest.approx(gp.TARGET_SD_FLOOR)
        mean, _ = gp.predict(model, rng.uniform(-1, 1, (10, 2)))
        assert np.max(np.abs(mean - 2.5)) < 1e-6

    def test_duplicates_are_averaged(self):
        params_in = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        model = gp.fit_with_params(params_in, np.array([1.0, 3.0, 0.0]),
                                   gp.KernelParams.from_natural(1.0, 1.0, 1e-6))
        assert model.n_train == 2
        assert 2.0 in model.raw_targets

    def test_no_duplicates_returns_the_same_arrays(self):
        rng = np.random.default_rng(24)
        X = rng.uniform(-1, 1, (30, 2))
        z = rng.standard_normal(30)
        out_x, out_z = gp._dedup_average(X, z)
        assert out_x is X and out_z is z
        assert len(ref_dedup_groups(X)) == 30

    @pytest.mark.parametrize("case", ["exact", "at_tol", "chain"])
    def test_duplicate_groups_match_greedy_loop(self, case):
        tol = gp.DUPLICATE_TOL
        rng = np.random.default_rng(25)
        X = rng.uniform(-1, 1, (8, 2))
        if case == "exact":
            X[5] = X[1]
            X[7] = X[1]
            X[6] = X[3]
        elif case == "at_tol":
            # squared distance tol * tol, exactly the merge threshold
            X[0] = [0.0, 0.0]
            X[4] = [tol, 0.0]
        else:
            # a ~ b and b ~ c, but a and c are 1.8 tol apart
            X[2] = [0.5, 0.5]
            X[3] = [0.5 + 0.9 * tol, 0.5]
            X[6] = [0.5 + 1.8 * tol, 0.5]
        z = rng.standard_normal(8)
        groups = ref_dedup_groups(X)
        assert len(groups) < 8
        out_x, out_z = gp._dedup_average(X, z)
        assert bits(out_x, out_z) == bits(
            np.stack([X[g].mean(axis=0) for g in groups]),
            [z[g].mean() for g in groups])

    def test_recovers_known_lengthscale(self):
        # draws from a GP with l = 0.5: recovered log-lengthscale within
        # +/- 1.0 in at least 4 of 5 seeds
        hits = 0
        for seed in range(5):
            rng = np.random.default_rng(seed)
            X = rng.uniform(0, 2, (20, 2))
            d2 = ((X[:, None, :] - X[None, :, :]) ** 2).sum(-1)
            K = 4.0 * np.exp(-d2 / (2 * 0.5 ** 2)) + 1e-6 * np.eye(20)
            z = np.linalg.cholesky(K) @ rng.standard_normal(20)
            model = gp.fit(X, z, rng)
            if abs(model.params.log_lengthscale - np.log(0.5)) <= 1.0:
                hits += 1
        assert hits >= 4

    def test_warm_start_does_not_lose_evidence(self):
        rng = np.random.default_rng(16)
        X = rng.uniform(-1, 1, (40, 2))
        z = np.cos(2 * X[:, 0]) - X[:, 1] ** 2
        for init in (gp.KernelParams.from_natural(1.0, 0.5, 1e-4),
                     gp.KernelParams.from_natural(3.0, 2.0, 1e-2)):
            model = gp.fit(X, z, rng, init=init)
            zs = (z - model.target_mean) / model.target_sd
            assert gp.log_marginal_likelihood(X, zs, model.params) >= \
                gp.log_marginal_likelihood(X, zs, init)

    def test_warm_start_runs_init_plus_one_restart(self, monkeypatch):
        starts = []
        real_minimize = gp.minimize

        def spy(fun, x0, **kwargs):
            starts.append(np.array(x0))
            return real_minimize(fun, x0, **kwargs)

        monkeypatch.setattr(gp, "minimize", spy)
        rng = np.random.default_rng(19)
        X = rng.uniform(-1, 1, (15, 2))
        z = rng.standard_normal(15)
        gp.fit(X, z, rng)
        assert len(starts) == gp.FIT_RESTARTS
        starts.clear()
        init = gp.KernelParams.from_natural(2.0, 0.3, 1e-4)
        gp.fit(X, z, rng, init=init)
        assert len(starts) == 2
        # the fit searches log(noise / outputscale^2) as its third coordinate
        np.testing.assert_array_equal(
            starts[0], [init.log_outputscale, init.log_lengthscale,
                        init.log_noise_var - 2.0 * init.log_outputscale])

    def test_noise_free_quadratic_fits_keep_the_relative_floor(self):
        # exact quadratic targets, as the linear-gaussian problem produces:
        # the evidence pushes the noise to its floor, which must stay
        # relative to the outputscale, and few L-BFGS-B starts may fail
        failed = 0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            A = rng.standard_normal((3, 3))
            b = rng.standard_normal(3)
            Y = rng.uniform(-1, 1, (40, 3))
            z = -0.5 * np.sum((Y @ A.T - b) ** 2, axis=1)
            cold = gp.fit(Y, z, rng)
            warm = gp.fit(Y, z, rng, init=cold.params)
            for model in (cold, warm):
                ratio = model.params.noise_var / model.params.outputscale ** 2
                assert ratio >= gp.NOISE_FLOOR * (1 - 1e-12)
                failed += model.failed_starts
        assert failed <= 20

    def test_fit_reports_evaluations_and_failed_starts(self, monkeypatch):
        results = []
        real_minimize = gp.minimize

        def spy(fun, x0, **kwargs):
            res = real_minimize(fun, x0, **kwargs)
            results.append(res)
            return res

        monkeypatch.setattr(gp, "minimize", spy)
        rng = np.random.default_rng(26)
        X = rng.uniform(-1, 1, (25, 2))
        z = np.sin(3 * X[:, 0]) + X[:, 1]
        model = gp.fit(X, z, rng)
        assert len(results) == gp.FIT_RESTARTS
        assert model.nfev == sum(r.nfev for r in results) > 0
        assert model.failed_starts == sum(
            not r.success or not r.fun < gp.FAILED_LML for r in results)
        fixed = gp.fit_with_params(X, z, model.params)
        assert (fixed.nfev, fixed.failed_starts) == (0, 0)

        # a start stopped by the iteration limit ends without success
        monkeypatch.setattr(gp, "FIT_MAXITER", 1)
        results.clear()
        assert gp.fit(X, z, rng).failed_starts == gp.FIT_RESTARTS
        assert not any(r.success for r in results)

        def failing(*args):
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(gp, "_grad_from", failing)
        results.clear()
        model = gp.fit(X, z, rng, init=model.params)
        assert model.failed_starts == len(results) == 2
        assert model.nfev == sum(r.nfev for r in results)

    def test_every_start_failing_keeps_init(self, monkeypatch):
        def failing(*args):
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(gp, "_grad_from", failing)
        # the lengthscale lies beyond this fit's bounds, so the start is
        # clipped and only the fallback returns init itself
        rng = np.random.default_rng(17)
        X = rng.uniform(-1, 1, (10, 2))
        init = gp.KernelParams.from_natural(1.3, 1e5, 1e-5)
        model = gp.fit(X, rng.standard_normal(10), rng, init=init)
        assert model.params == init

    def test_jitter_ladder_is_recorded(self):
        # near-coincident points, a long lengthscale and no noise make the
        # plain kernel matrix numerically singular
        rng = np.random.default_rng(18)
        X = 1e-4 * rng.uniform(-1, 1, (20, 2))
        params = gp.KernelParams(0.0, np.log(10.0), np.log(1e-30))
        model = gp.fit_with_params(X, rng.standard_normal(20), params)
        assert model.jitter > 0.0
        kn = gp._kernel_matrix(gp._sqdist(model.inputs, model.inputs), params)
        kn += (params.noise_var + model.jitter) * np.eye(20)
        np.testing.assert_allclose(model.chol_factor @ model.chol_factor.T, kn,
                                   rtol=0, atol=1e-12)

    def test_rejects_non_finite_targets(self):
        with pytest.raises(ValueError, match="finite"):
            gp.fit([[0.0], [1.0]], [1.0, -np.inf], np.random.default_rng(0))


class TestUCB:
    def test_beta_zero_equals_mean(self):
        params = gp.KernelParams.from_natural(1.0, 0.5, 1e-6)
        model = gp.fit_with_params([[0.0], [1.0]], [0.0, 2.0], params)
        y = np.array([0.3])
        assert gp.ucb(model, y, 0.0) == gp.predict(model, y)[0]

    def test_arithmetic(self):
        params = gp.KernelParams.from_natural(1.0, 0.5)
        model = gp.empty_model(params, 1)
        # mean 0, sd 1 at the prior: shift by hand-set target stats
        model.target_mean = 1.0
        model.target_sd = 0.5
        assert gp.ucb(model, np.zeros(1), 2.0) == pytest.approx(1.0 + 2.0 * 0.5)

    def test_empty_model_value(self):
        params = gp.KernelParams.from_natural(1.7, 1.0)
        model = gp.empty_model(params, 3)
        assert gp.ucb(model, np.zeros(3), 1.0) == pytest.approx(1.7)
