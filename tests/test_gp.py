import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack, solve_triangular
from scipy.optimize import minimize
from scipy.spatial.distance import cdist

from rmlbo import gp


# Reference formulations of the GP's hot paths: fresh arrays, np.eye on the
# diagonal, np.tril to symmetrize, np.triu to pick a triangle and np.clip on
# the variance.  The module builds the same arithmetic in place, so results
# must agree bit for bit.

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
    trace_w = float(np.trace(w))
    wk = w * kn
    grad = np.array([
        float(np.sum(wk)) - params.noise_var * trace_w,
        0.5 * float(np.sum(wk * sqdist)) / params.lengthscale ** 2,
        0.5 * params.noise_var * trace_w,
    ])
    return lml, grad


def ref_factors(inputs, z, params):
    kn = ref_kernel_matrix(cdist(inputs, inputs, metric="sqeuclidean"), params) \
        + params.noise_var * np.eye(inputs.shape[0])
    chol, _ = lapack.dpotrf(kn, lower=1)
    alpha, _ = lapack.dpotrs(chol, z, lower=1)
    chol_inv, _ = lapack.dtrtri(chol, lower=1)
    return chol, alpha, chol_inv


def unit_kernel(model, pts):
    """Kernel values at unit outputscale between the training inputs and ``pts``."""
    unit = gp.KernelParams(0.0, model.params.log_lengthscale, 0.0)
    return ref_kernel_matrix(cdist(model.inputs, pts, metric="sqeuclidean"), unit)


def ref_predict(model, pts):
    """One GEMM of alpha stacked over chol_inv with the unit-outputscale
    kernel; the outputscale and the target scale act on its rows."""
    o2 = model.params.outputscale ** 2
    rows = np.vstack([model.alpha, model.chol_inv]) @ unit_kernel(model, pts)
    var_norm = np.clip(o2 - (o2 * o2) * np.sum(rows[1:] ** 2, axis=0), 0.0, None)
    return (model.target_mean + (model.target_sd * o2) * rows[0],
            model.target_sd * np.sqrt(var_norm))


def ref_concentrated(sqdist, z, theta):
    """The concentrated evidence with a unit-outputscale KernelParams per
    evaluation, its kernel multiplied by 1.0, and the gradient's two sums
    over ``a = A^-1 z`` and the lower triangle of ``A^-1`` in fresh arrays."""
    unit = gp.KernelParams(0.0, theta[0], theta[1])
    n = z.size
    k_unit = ref_kernel_matrix(sqdist, unit)
    chol, info = lapack.dpotrf(k_unit + unit.noise_var * np.eye(n), lower=1)
    assert info == 0
    alpha, _ = lapack.dpotrs(chol, z, lower=1)
    q = float(z @ alpha)
    lo, hi = gp.OUTPUTSCALE_BOUNDS
    o2 = min(max(q / n, lo ** 2), hi ** 2)
    lml = -0.5 * q / o2 - float(np.sum(np.log(np.diag(chol)))) \
        - 0.5 * n * np.log(2.0 * np.pi * o2)
    inv_lower, _ = lapack.dpotri(chol, lower=1)
    kd = k_unit * sqdist
    # the module sums the transposed lower triangle against kd in C order
    lower_sum = float(np.vdot(np.triu(inv_lower.T), kd))
    grad = np.array([
        (float(alpha @ (kd @ alpha)) / o2 - 2.0 * lower_sum) / (2.0 * unit.lengthscale ** 2),
        0.5 * unit.noise_var * (float(alpha @ alpha) / o2 - float(np.trace(inv_lower))),
    ])
    return lml, grad, 0.5 * np.log(o2)


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
    """The function ``gp.fit`` hands to its search for these data, with the
    gradient's two floats as an array, and the standardized targets it was
    built on."""
    objectives = []
    real_search = gp._search

    def spy(fun, x0, bounds, maxiter):
        objectives.append(fun)
        return real_search(fun, x0, bounds, maxiter)

    monkeypatch.setattr(gp, "_search", spy)
    model = gp.fit(X, z, np.random.default_rng(0))

    def neg_lml(theta):
        value, grad = objectives[0](theta)
        return value, np.array(grad)

    return neg_lml, (z - model.target_mean) / model.target_sd


def natural(theta, log_o):
    """Kernel parameters at a point of the fit's search coordinates
    (log l, log(noise / o^2)) with outputscale ``exp(log_o)``."""
    return gp.KernelParams(log_o, theta[0], theta[1] + 2.0 * log_o)


LOG_O_GRID = np.linspace(np.log(gp.OUTPUTSCALE_BOUNDS[0]),
                         np.log(gp.OUTPUTSCALE_BOUNDS[1]), 4001)


def ref_concentrated_lml(X, z, theta):
    """The three-parameter evidence at (log l, log r) = ``theta`` and the
    closed-form outputscale ``o^2 = z^T A^-1 z / n``, clamped into its box,
    with ``A = K_l + r I`` formed densely and solved by np.linalg.solve."""
    n = len(z)
    a = ref_kernel_matrix(cdist(X, X, metric="sqeuclidean"), gp.KernelParams(0.0, *theta)) \
        + np.exp(theta[1]) * np.eye(n)
    lo, hi = gp.OUTPUTSCALE_BOUNDS
    log_o = 0.5 * np.log(np.clip(z @ np.linalg.solve(a, z) / n, lo ** 2, hi ** 2))
    return gp.log_marginal_likelihood(X, z, natural(theta, log_o))


def grid_max_lml(X, z, theta):
    """Largest three-parameter evidence over LOG_O_GRID at (log l, log r) =
    ``theta``.  The grid includes both bounds; between grid points the
    evidence, concave in log o with curvature -2 q / o^2 (-2n at the
    interior peak), stays within ``n h^2 / 4`` of its maximum."""
    return max(gp.log_marginal_likelihood(X, z, natural(theta, a)) for a in LOG_O_GRID)


def ref_fit_3d(X, z, rng):
    """The search the concentrated fit replaced, kept as its reference:
    L-BFGS-B over (log o, log l, log(noise / o^2)) from FIT_RESTARTS
    log-uniform starts, the gradient mapped from the natural coordinates
    by the chain rule, and a start that fails to factor reading as a
    negative evidence of FAILED_LML.  Returns the parameters, the
    standardized targets and the evidence evaluations."""
    FAILED_LML = 1e25
    X = np.asarray(X, dtype=float)
    zs = (z - np.mean(z)) / max(np.std(z), gp.TARGET_SD_FLOOR)
    sqdist = cdist(X, X, metric="sqeuclidean")
    diam = gp._input_diameter(X)

    def params_at(theta):
        return gp.KernelParams(theta[0], theta[1], theta[2] + 2.0 * theta[0])

    def neg_lml(theta):
        try:
            lml, grad = gp._grad_from(sqdist, zs, params_at(theta))
        except ValueError:
            return FAILED_LML, np.zeros(3)
        grad[0] += 2.0 * grad[2]
        return -lml, -grad

    bounds = [(np.log(1e-3), np.log(1e3)),
              (np.log(1e-3 * diam), np.log(1e3 * diam)),
              (np.log(gp.NOISE_FLOOR), np.log(1e-1))]
    best, nfev = None, 0
    for _ in range(gp.FIT_RESTARTS):
        theta0 = np.array([rng.uniform(np.log(0.1), np.log(10.0)),
                           rng.uniform(np.log(0.05 * diam), np.log(2.0 * diam)),
                           rng.uniform(np.log(1e-6), np.log(1e-2))])
        res = minimize(neg_lml, theta0, jac=True, method="L-BFGS-B",
                       bounds=bounds, options={"maxiter": gp.FIT_MAXITER})
        nfev += int(res.nfev)
        if best is None or res.fun < best.fun:
            best = res
    return params_at(best.x), zs, nfev


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
        # what the search sees: the negative concentrated evidence and its
        # gradient in (log l, log(noise / o^2)), against the three-parameter
        # evidence at the closed-form outputscale and its central differences
        rng = np.random.default_rng(9)
        X = rng.uniform(-2, 2, (12, 2))
        neg_lml, zs = fit_objective(monkeypatch, X, rng.standard_normal(12))
        eps = 1e-6
        for _ in range(10):
            theta = np.array([rng.uniform(-1.5, 0.5),
                              rng.uniform(np.log(1e-6), np.log(1e-2))])
            value, grad = neg_lml(theta)
            assert grad.shape == (2,)
            # A is factored where the reference factors o^2 A, so the two
            # agree to roundoff rather than bit for bit
            assert -value == pytest.approx(ref_concentrated_lml(X, zs, theta), rel=1e-10)
            for i in range(2):
                up, dn = theta.copy(), theta.copy()
                up[i] += eps
                dn[i] -= eps
                fd = (ref_concentrated_lml(X, zs, up)
                      - ref_concentrated_lml(X, zs, dn)) / (2 * eps)
                assert -grad[i] == pytest.approx(fd, rel=1e-4, abs=1e-8)

    def test_fit_coordinate_gradient_with_exact_duplicate_rows(self, monkeypatch):
        # repeated rows stay training points, so the distance matrix has
        # zeros off its diagonal as well; the gradient's lower-triangle sum
        # relies only on the diagonal being exactly zero
        rng = np.random.default_rng(31)
        X = rng.uniform(-2, 2, (12, 2))
        X = np.vstack([X, X[:4], X[:2]])
        neg_lml, zs = fit_objective(monkeypatch, X, np.sin(X[:, 0]) + 0.5 * X[:, 1] ** 2)
        eps = 1e-6
        for _ in range(10):
            theta = np.array([rng.uniform(-1.5, 0.5),
                              rng.uniform(np.log(1e-6), np.log(1e-2))])
            value, grad = neg_lml(theta)
            assert -value == pytest.approx(ref_concentrated_lml(X, zs, theta), rel=1e-10)
            for i in range(2):
                up, dn = theta.copy(), theta.copy()
                up[i] += eps
                dn[i] -= eps
                fd = (ref_concentrated_lml(X, zs, up)
                      - ref_concentrated_lml(X, zs, dn)) / (2 * eps)
                assert -grad[i] == pytest.approx(fd, rel=1e-4, abs=1e-8)

    def test_fit_coordinate_gradient_at_n60_near_noise_floor(self, monkeypatch):
        rng = np.random.default_rng(21)
        X = rng.uniform(-2, 2, (60, 3))
        neg_lml, zs = fit_objective(monkeypatch, X, rng.standard_normal(60))
        theta = np.array([np.log(0.5), np.log(3 * gp.NOISE_FLOOR)])
        _, grad = neg_lml(theta)
        eps = 1e-5
        for i in range(2):
            up, dn = theta.copy(), theta.copy()
            up[i] += eps
            dn[i] -= eps
            fd = (ref_concentrated_lml(X, zs, up)
                  - ref_concentrated_lml(X, zs, dn)) / (2 * eps)
            assert -grad[i] == pytest.approx(fd, rel=1e-4, abs=1e-6)

    @pytest.mark.parametrize("case", ["interior", "upper_clamp", "lower_clamp"])
    def test_concentrated_evidence_is_the_max_over_outputscale(self, case):
        # the closed-form outputscale against a dense log-o grid of the
        # three-parameter evidence over the whole outputscale box
        rng = np.random.default_rng(27)
        Y = rng.uniform(-1, 1, (15, 2))
        if case == "interior":
            z = rng.standard_normal(15)
            theta = np.array([np.log(0.4), np.log(1e-3)])
        elif case == "upper_clamp":
            # rough targets under a long lengthscale at the noise floor:
            # their parts along A's smallest eigenvalues (near 1e-8) put
            # z^T A^-1 z / n far above 1e6
            z = rng.standard_normal(15)
            theta = np.array([np.log(3.0), np.log(gp.NOISE_FLOOR)])
        else:
            # targets far below unit scale put z^T A^-1 z / n below 1e-6
            z = 1e-5 * rng.standard_normal(15)
            theta = np.array([np.log(0.4), np.log(1e-3)])
        lml, grad, log_o = gp._concentrated(cdist(Y, Y, metric="sqeuclidean"), z, theta)
        lo, hi = np.log(gp.OUTPUTSCALE_BOUNDS)
        grid = grid_max_lml(Y, z, theta)
        at_o = gp.log_marginal_likelihood(Y, z, natural(theta, log_o))
        if case == "interior":
            assert lo + 1.0 < log_o < hi - 1.0
            h = LOG_O_GRID[1] - LOG_O_GRID[0]
            assert grid - 1e-9 <= lml <= grid + 15 * h ** 2 / 4
            assert lml == pytest.approx(at_o, rel=1e-10)
        else:
            # the grid's maximum sits on the clamped bound itself; in the
            # upper case A is nearly singular, so factoring A and o^2 A
            # agree only to about 1e-10 relative
            assert log_o == (hi if case == "upper_clamp" else lo)
            assert lml == pytest.approx(grid, rel=1e-9)
            assert lml == pytest.approx(at_o, rel=1e-9)
        # the envelope theorem holds at the clamp too: the gradient is the
        # derivative of the concentrated evidence (wide steps for the
        # ill-conditioned case, whose evidence carries roundoff)
        eps = 1e-3 if case == "upper_clamp" else 1e-6
        for i in range(2):
            up, dn = theta.copy(), theta.copy()
            up[i] += eps
            dn[i] -= eps
            fd = (ref_concentrated_lml(Y, z, up) - ref_concentrated_lml(Y, z, dn)) / (2 * eps)
            assert grad[i] == pytest.approx(fd, rel=1e-4, abs=1e-8)

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

    @pytest.mark.parametrize("n", [1, 25, 95])
    def test_concentrated_bits_match_reference(self, n):
        # the theta grid and target scales put the outputscale at both
        # clamps and inside them
        rng = np.random.default_rng(300 + n)
        X = rng.uniform(-1.5, 1.5, (n, 3))
        sqdist = cdist(X, X, metric="sqeuclidean")
        z = rng.standard_normal(n)
        lo, hi = np.log(gp.OUTPUTSCALE_BOUNDS)
        log_os = set()
        for scale in (1e-5, 1.0, 1e4):
            for log_l in np.log([0.01, 0.3, 3.0, 100.0]):
                for log_r in np.log([gp.NOISE_FLOOR, 1e-4, 1e-1]):
                    theta = np.array([log_l, log_r])
                    got = gp._concentrated(sqdist, scale * z, theta)
                    assert bits(*got) == bits(*ref_concentrated(sqdist, scale * z, theta))
                    log_os.add(got[2] if got[2] in (lo, hi) else "interior")
        assert log_os == {lo, hi, "interior"}

    def test_fitted_factors_match_reference_bits(self):
        rng = np.random.default_rng(23)
        X = rng.uniform(-1, 1, (40, 3))
        z = rng.standard_normal(40)
        params = gp.KernelParams.from_natural(1.4, 0.8, 1e-5)
        model = gp.fit_with_params(X, z, params)
        zs = (z - model.target_mean) / model.target_sd
        assert bits(model.chol_factor, model.alpha, model.chol_inv) == \
            bits(*ref_factors(X, zs, params))

    def test_count_mismatch_raises_the_same_error_for_both(self):
        params = gp.KernelParams.from_natural(1.0, 0.5, 1e-3)
        X, z = [[0.0], [1.0], [2.0]], [0.1, -0.2]
        rng = np.random.default_rng(0)
        for call in (lambda: gp.log_marginal_likelihood(X, z, params),
                     lambda: gp.log_marginal_likelihood_grad(X, z, params),
                     lambda: gp.fit(X, z, rng), lambda: gp.fit(X, z, rng, init=params),
                     lambda: gp.fit_with_params(X, z, params)):
            with pytest.raises(ValueError, match="disagree on the number of points"):
                call()

    def test_failed_factorization_raises_the_same_error_for_both(self, monkeypatch):
        # duplicate points with a vanishing noise leave K singular
        message = "kernel matrix factorization failed: dpotrf failed with info=2"
        params = gp.KernelParams(0.0, 0.0, np.log(1e-300))
        X, z = [[0.5], [0.5]], [0.1, -0.2]
        for evidence in (gp.log_marginal_likelihood, gp.log_marginal_likelihood_grad):
            with pytest.raises(ValueError, match=message):
                evidence(X, z, params)
        # the fits keep the noise ratio at or above its floor, where even
        # duplicate points factor, so dpotrf is stubbed to report the same
        # failed minor
        monkeypatch.setattr(gp.lapack, "dpotrf", lambda a, lower=0: (a, 2))
        X, z = [[0.0], [1.0], [2.0]], [0.1, -0.2, 0.4]
        params = gp.KernelParams.from_natural(1.0, 0.5, 1e-3)
        rng = np.random.default_rng(0)
        for fitted in (lambda: gp.fit(X, z, rng), lambda: gp.fit(X, z, rng, init=params),
                       lambda: gp.fit_with_params(X, z, params)):
            with pytest.raises(ValueError, match=message):
                fitted()


class TestPredict:
    def test_empty_model_reverts_to_prior(self):
        params = gp.KernelParams.from_natural(1.7, 1.0)
        model = gp.empty_model(params, dim=2)
        mean, sd = gp.predict(model, np.zeros(2))
        assert mean == 0.0
        assert sd == pytest.approx(1.7)

    def test_empty_model_predicts_the_prior_exactly(self):
        # the zero-row products of the general path leave target_mean and
        # target_sd * sqrt(o^2), which is target_sd * o bit for bit
        rng = np.random.default_rng(19)
        for _ in range(200):
            scale, length = np.exp(rng.uniform(-6, 6, 2))
            d = int(rng.integers(1, 6))
            model = gp.empty_model(gp.KernelParams.from_natural(scale, length), dim=d)
            model.target_mean = float(rng.normal() * 100)
            model.target_sd = float(np.exp(rng.uniform(-4, 4)))
            o = model.params.outputscale
            mean, sd = gp.predict(model, rng.normal(size=(3, d)))
            assert mean.tolist() == [model.target_mean] * 3
            assert sd.tolist() == [model.target_sd * o] * 3
            assert gp.predict(model, np.zeros(d)) == (model.target_mean, model.target_sd * o)

    def test_empty_model_rejects_a_query_of_the_wrong_dimension(self):
        model = gp.empty_model(gp.KernelParams.from_natural(1.0, 1.0), dim=3)
        with pytest.raises(ValueError, match="query dimension 2 does not match model dimension 3"):
            gp.predict(model, np.zeros(2))

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
        one_mean, one_sd = ref_predict(model, q[:1])
        assert bits(*one) == bits(one_mean, one_sd)
        assert bits(gp.ucb(model, q[0], 2.0)) == bits(one_mean + 2.0 * one_sd)

    def test_zero_variance_clamp_matches_reference_bits(self):
        # with no noise the raw variance at training points dips below zero
        rng = np.random.default_rng(18)
        X = rng.uniform(-1, 1, (20, 2))
        params = gp.KernelParams(0.0, np.log(1.0), np.log(1e-30))
        model = gp.fit_with_params(X, rng.standard_normal(20), params)
        o2 = params.outputscale ** 2
        v = model.chol_inv @ unit_kernel(model, X)
        assert np.any(o2 - (o2 * o2) * np.sum(v ** 2, axis=0) < 0)
        assert bits(*gp.predict(model, X)) == bits(*ref_predict(model, X))

    def test_ucb_keeps_its_input_checks(self):
        model = gp.fit_with_params([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]], [0.0, 1.0],
                                   gp.KernelParams.from_natural(1.0, 1.0))
        with pytest.raises(ValueError, match="query dimension"):
            gp.ucb(model, np.zeros((4, 2)), 1.0)
        # NaN fails every comparison and inf scales sd = 0 into a NaN, so
        # both are rejected with a negative beta
        for beta in (-0.5, np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="non-negative"):
                gp.ucb(model, np.zeros((4, 3)), beta)
            with pytest.raises(ValueError, match="non-negative"):
                gp.ucb(model, np.zeros(3), beta)

    def test_assigned_params_and_target_sd_reach_predict(self):
        # predict reads the scales the model computed when it was built;
        # assigning params or target_sd recomputes them, so predictions
        # keep the reference's bits, which reads both fields afresh
        rng = np.random.default_rng(21)
        X = rng.uniform(-1, 1, (12, 2))
        model = gp.fit_with_params(X, np.sin(3 * X[:, 0]) + X[:, 1],
                                   gp.KernelParams.from_natural(1.3, 0.6, 1e-6))
        q = rng.uniform(-1.5, 1.5, (40, 2))
        assert bits(*gp.predict(model, q)) == bits(*ref_predict(model, q))
        model.target_sd = 3.7
        assert bits(*gp.predict(model, q)) == bits(*ref_predict(model, q))
        model.params = gp.KernelParams.from_natural(0.4, 1.9, 1e-4)
        assert bits(*gp.predict(model, q)) == bits(*ref_predict(model, q))

    def test_cached_inverse_factor(self):
        rng = np.random.default_rng(15)
        X = rng.uniform(-1, 1, (30, 2))
        model = gp.fit_with_params(X, rng.standard_normal(30),
                                   gp.KernelParams.from_natural(1.0, 0.7, 1e-6))
        np.testing.assert_allclose(model.chol_inv @ model.chol_factor, np.eye(30),
                                   atol=1e-8)

    def test_alpha_and_chol_inv_are_views_of_one_stacked_array(self):
        rng = np.random.default_rng(16)
        X = rng.uniform(-1, 1, (30, 2))
        z = np.sin(2 * X[:, 0]) + X[:, 1]
        params = gp.KernelParams.from_natural(1.0, 0.7, 1e-6)
        for model in (gp.fit(X, z, rng), gp.fit_with_params(X, z, params)):
            stacked = model.alpha_chol_inv
            assert stacked.shape == (31, 30)
            assert np.shares_memory(model.alpha, stacked)
            assert np.shares_memory(model.chol_inv, stacked)
            zs = (z - model.target_mean) / model.target_sd
            alpha, _ = lapack.dpotrs(model.chol_factor, zs, lower=1)
            chol_inv, _ = lapack.dtrtri(model.chol_factor, lower=1)
            assert bits(model.alpha, model.chol_inv) == bits(alpha, chol_inv)
        empty = gp.empty_model(params, dim=2)
        assert empty.chol_factor.shape == (0, 0)
        assert empty.alpha.shape == (0,) and empty.chol_inv.shape == (0, 0)
        assert empty.alpha.base is empty.chol_inv.base is empty.alpha_chol_inv


class TestStandardize:
    @settings(max_examples=400, deadline=None)
    @given(st.integers(1, 200), st.floats(-150.0, 150.0),
           st.sampled_from(["spread", "offset", "constant", "signed-zeros",
                            "negative-zeros"]),
           st.integers(0, 2 ** 32 - 1))
    @example(1, 0.0, "spread", 0)
    @example(200, 150.0, "offset", 1)
    @example(200, -150.0, "offset", 2)
    @example(7, 0.0, "signed-zeros", 3)
    @example(5, 0.0, "negative-zeros", 0)
    @example(9, 0.0, "negative-zeros", 0)
    @example(64, 150.0, "constant", 4)
    def test_mean_and_sd_are_numpy_bits(self, n, log_scale, kind, seed):
        # _standardize runs np.mean's and np.std's ufuncs without their
        # wrappers: the mean, the sd (and its floor) and the standardized
        # targets keep the bits of the numpy expression
        rng = np.random.default_rng(seed)
        scale = 10.0 ** log_scale
        if kind == "spread":
            targets = scale * rng.standard_normal(n)
        elif kind == "offset":   # a large mean with a small spread cancels
            targets = scale * (1e3 + rng.standard_normal(n))
        elif kind == "constant":
            targets = np.full(n, scale * rng.normal())
        elif kind == "signed-zeros":
            targets = np.where(rng.random(n) < 0.5, -0.0, 0.0)
        else:
            targets = np.full(n, -0.0)
        z, mean, sd = gp._standardize(targets)
        ref_mean = float(np.mean(targets))
        ref_sd = max(float(np.std(targets)), gp.TARGET_SD_FLOOR)
        assert isinstance(mean, float) and isinstance(sd, float)
        assert bits(mean, sd) == bits(ref_mean, ref_sd)
        assert bits(z) == bits((targets - ref_mean) / ref_sd)


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

    def test_exact_duplicate_rows_are_all_kept(self):
        # a sweep can converge onto a point simulated before: the repeated
        # rows stay training points, since the relative noise floor keeps
        # K + noise * I factorable without merging them
        rng = np.random.default_rng(25)
        X = rng.uniform(-1, 1, (10, 2))
        X = np.vstack([X, X[:3], X[:3]])
        z = np.sin(3.0 * X[:, 0]) + X[:, 1]
        cold = gp.fit(X, z, rng)
        for model in (cold, gp.fit(X, z, rng, init=cold.params),
                      gp.fit_with_params(X, z, cold.params)):
            assert model.n_train == 16
            assert bits(model.inputs, model.raw_targets) == bits(X, z)
            mean, _ = gp.predict(model, X[:3])
            assert mean == pytest.approx(z[:3], abs=1e-5)

    def test_one_distance_matrix_per_fit(self, monkeypatch):
        # one matrix serves the search and the factors
        rng = np.random.default_rng(26)
        X = rng.uniform(-1, 1, (12, 2))
        z = rng.standard_normal(12)
        calls = []
        real_sqdist = gp._sqdist

        def spy_sqdist(a, b):
            calls.append(a.shape[0] == b.shape[0] == 12)
            return real_sqdist(a, b)

        monkeypatch.setattr(gp, "_sqdist", spy_sqdist)
        model = gp.fit(X, z, rng)
        assert calls == [True]
        gp.fit_with_params(X, z, model.params)
        assert calls == [True, True]

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
        real_search = gp._search

        def spy(fun, x0, bounds, maxiter):
            starts.append(np.array(x0))
            return real_search(fun, x0, bounds, maxiter)

        monkeypatch.setattr(gp, "_search", spy)
        rng = np.random.default_rng(19)
        X = rng.uniform(-1, 1, (15, 2))
        z = rng.standard_normal(15)
        gp.fit(X, z, rng)
        assert len(starts) == gp.FIT_RESTARTS
        starts.clear()
        init = gp.KernelParams.from_natural(2.0, 0.3, 1e-4)
        gp.fit(X, z, rng, init=init)
        assert len(starts) == 2
        # the fit searches (log lengthscale, log(noise / outputscale^2));
        # the outputscale is concentrated out
        np.testing.assert_array_equal(
            starts[0], [init.log_lengthscale,
                        init.log_noise_var - 2.0 * init.log_outputscale])

    def test_fit_evaluates_the_evidence_nfev_times(self, monkeypatch):
        # the winner's outputscale comes from the search's own evaluation,
        # so no evidence pass follows the search, cold or warm
        calls = []
        real_concentrated = gp._concentrated

        def spy(sqdist, z, theta):
            calls.append(theta)
            return real_concentrated(sqdist, z, theta)

        monkeypatch.setattr(gp, "_concentrated", spy)
        rng = np.random.default_rng(27)
        X = rng.uniform(-1, 1, (20, 2))
        z = np.sin(3 * X[:, 0]) + X[:, 1]
        cold = gp.fit(X, z, rng)
        assert len(calls) == cold.nfev > 0
        calls.clear()
        warm = gp.fit(X, z, rng, init=cold.params)
        assert len(calls) == warm.nfev > 0

    def test_noise_free_quadratic_fits_keep_the_relative_floor(self):
        # exact quadratic targets, as the linear-gaussian problem produces:
        # the evidence pushes the noise to its floor, which must stay
        # relative to the outputscale.  There the evidence carries roundoff,
        # and a line search that shrinks its step below the resolution of
        # theta has converged, so hardly any start may fail
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
        assert failed <= 2

    def test_fit_reports_evaluations_and_failed_starts(self, monkeypatch):
        # each search returns (theta, f, nfev, success)
        results = []
        real_search = gp._search

        def spy(fun, x0, bounds, maxiter):
            res = real_search(fun, x0, bounds, maxiter)
            results.append(res)
            return res

        monkeypatch.setattr(gp, "_search", spy)
        rng = np.random.default_rng(26)
        X = rng.uniform(-1, 1, (25, 2))
        z = np.sin(3 * X[:, 0]) + X[:, 1]
        model = gp.fit(X, z, rng)
        assert len(results) == gp.FIT_RESTARTS
        assert model.nfev == sum(r[2] for r in results) > 0
        assert model.failed_starts == sum(not r[3] for r in results)
        fixed = gp.fit_with_params(X, z, model.params)
        assert (fixed.nfev, fixed.failed_starts) == (0, 0)

        # a start stopped by the iteration limit ends without success
        monkeypatch.setattr(gp, "FIT_MAXITER", 1)
        results.clear()
        assert gp.fit(X, z, rng).failed_starts == gp.FIT_RESTARTS
        assert not any(r[3] for r in results)

    @pytest.mark.parametrize("warm", [False, True])
    def test_a_factorization_failing_mid_search_raises_out_of_the_fit(self, warm,
                                                                      monkeypatch):
        # no start reads a sentinel evidence and no fallback hyperparameters
        # stand in: the first dpotrf that fails ends the fit with its error
        calls = []
        real_dpotrf = gp.lapack.dpotrf

        def dpotrf(a, lower=0):
            calls.append(1)
            chol, info = real_dpotrf(a, lower=lower)
            return chol, (3 if len(calls) == 4 else info)

        rng = np.random.default_rng(17)
        X = rng.uniform(-1, 1, (10, 2))
        z = rng.standard_normal(10)
        init = gp.fit(X, z, rng).params if warm else None
        monkeypatch.setattr(gp.lapack, "dpotrf", dpotrf)
        with pytest.raises(ValueError, match="kernel matrix factorization failed: "
                                             "dpotrf failed with info=3"):
            gp.fit(X, z, rng, init=init)
        assert len(calls) == 4

    @pytest.mark.parametrize("scale, gap", [
        *(pytest.param(scale, 1e-9, id=str(scale)) for scale in (1e3, 10.0, 1.0, 0.1)),
        *(pytest.param(scale, 0.0, id=f"exact-{scale}") for scale in (1e3, 10.0, 1.0, 0.1))])
    def test_noise_floor_factors_460_points_with_near_duplicates(self, scale, gap):
        # the module docstring's bound: Higham's condition for Cholesky to
        # complete holds at the relative noise floor up to ~460 points.  In
        # the d_e = 3 box, a tenth of the points sit ``gap`` (1e-9, or 0 for
        # exact duplicates) from another and the lengthscale spans 0.1 to 1e3
        # diameters: the evidence the search evaluates still factors
        rng = np.random.default_rng(46)
        Y = rng.uniform(-np.sqrt(3), np.sqrt(3), (414, 3))
        step = rng.standard_normal((46, 3))
        step *= gap / np.linalg.norm(step, axis=1, keepdims=True)
        Y = np.vstack([Y, Y[:46] + step])
        z = np.sin(Y[:, 0]) + Y[:, 1] * Y[:, 2]
        inputs, _, sqdist, zs, _, _ = gp._training_set(Y, z)
        assert inputs.shape[0] == 460
        theta = [np.log(scale * gp._input_diameter(inputs)), np.log(gp.NOISE_FLOOR)]
        lml, grad, log_o = gp._concentrated(sqdist, zs, theta)
        assert np.all(np.isfinite([lml, *grad, log_o]))

    @pytest.mark.parametrize("n", [1, 6])
    def test_zero_targets_put_the_outputscale_at_its_lower_bound(self, n):
        # constant targets (and any single target) standardize to z = 0,
        # so z^T A^-1 z = 0 and the closed form clamps at the lower bound
        rng = np.random.default_rng(29)
        model = gp.fit(rng.uniform(-1, 1, (n, 2)), np.full(n, 2.5), rng)
        p = model.params
        assert np.all(np.isfinite([p.log_outputscale, p.log_lengthscale, p.log_noise_var]))
        assert p.outputscale == pytest.approx(gp.OUTPUTSCALE_BOUNDS[0], rel=1e-12)
        assert model.failed_starts == 0

    def test_matches_the_three_parameter_search(self):
        # 20 fixed problems of n = 10 to 60 points in 3 dimensions, of the
        # kinds of targets the sampler fits: GP draws, exact quadratics (the
        # linear-gaussian problem), smooth functions and quadratics of
        # clipped coordinates (a box prior's lifted points).  The
        # concentrated fit reaches at least the evidence of the 3-D search
        # it replaced, up to 1e-6 nats, in 18 of them (either search can
        # settle in a different local optimum), with fewer evaluations
        kept = nfev_new = nfev_ref = 0
        for seed in range(20):
            rng = np.random.default_rng(300 + seed)
            n = (10, 25, 40, 60)[seed // 5]
            Y = rng.uniform(-1, 1, (n, 3))
            kind = seed % 4
            if kind == 0:
                d2 = cdist(Y, Y, metric="sqeuclidean")
                K = np.exp(-d2 / (2 * 0.6 ** 2)) + 1e-6 * np.eye(n)
                z = np.linalg.cholesky(K) @ rng.standard_normal(n)
            elif kind == 1:
                A = rng.standard_normal((3, 3))
                z = -0.5 * np.sum((Y @ A.T - rng.standard_normal(3)) ** 2, axis=1)
            elif kind == 2:
                z = np.sin(3 * Y[:, 0]) + Y[:, 1] * Y[:, 2]
            else:
                W = rng.standard_normal((3, 5))
                z = -np.sum((np.clip(Y @ W, -1, 1) - rng.uniform(-0.5, 0.5, 5)) ** 2, axis=1)
            model = gp.fit(Y, z, np.random.default_rng(seed))
            ref_params, zs, ref_nfev = ref_fit_3d(Y, z, np.random.default_rng(seed))
            new = gp.log_marginal_likelihood(Y, zs, model.params)
            kept += new >= gp.log_marginal_likelihood(Y, zs, ref_params) - 1e-6
            nfev_new += model.nfev
            nfev_ref += ref_nfev
        assert kept >= 18
        assert nfev_new < nfev_ref

    def test_rough_targets_do_not_stop_in_a_corner(self):
        # 24 fixed problems of 30 points in [-1, 1]^3 with rough targets:
        # white noise and GP draws with lengthscale 0.25.  Their steep
        # evidence would throw a first step of the whole gradient onto a
        # bound of l or r, where the projected gradient vanishes; capped at
        # one log unit, the concentrated fit keeps the 3-D search's evidence
        # in 20 of them, and loses less than a nat where the two settle in
        # different local optima
        kept, worst = 0, 0.0
        for seed in range(12):
            for kind in ("white", "gp"):
                rng = np.random.default_rng(seed)
                Y = rng.uniform(-1, 1, (30, 3))
                if kind == "white":
                    z = rng.standard_normal(30)
                else:
                    K = np.exp(-cdist(Y, Y, metric="sqeuclidean") / (2 * 0.25 ** 2))
                    z = np.linalg.cholesky(K + 1e-6 * np.eye(30)) @ rng.standard_normal(30)
                model = gp.fit(Y, z, np.random.default_rng(seed))
                ref_params, zs, _ = ref_fit_3d(Y, z, np.random.default_rng(seed))
                loss = gp.log_marginal_likelihood(Y, zs, ref_params) \
                    - gp.log_marginal_likelihood(Y, zs, model.params)
                kept += loss <= 1e-6
                worst = max(worst, loss)
        assert kept >= 20
        assert worst < 1.0

    def test_jitter_ladder_is_recorded(self):
        # there is no jitter ladder to record: near-coincident points and a
        # long lengthscale factor at the noise floor from_natural applies,
        # with the plain noise on the diagonal, and without that floor the
        # fixed-parameter fit raises the evidence's factorization error
        rng = np.random.default_rng(18)
        X = 1e-4 * rng.uniform(-1, 1, (20, 2))
        y = rng.standard_normal(20)
        params = gp.KernelParams.from_natural(1.0, 10.0, 0.0)
        model = gp.fit_with_params(X, y, params)
        assert not hasattr(model, "jitter")
        kn = gp._kernel_matrix(gp._sqdist(model.inputs, model.inputs), params.lengthscale,
                               params.outputscale)
        kn += params.noise_var * np.eye(20)
        np.testing.assert_allclose(model.chol_factor @ model.chol_factor.T, kn,
                                   rtol=0, atol=1e-12)
        below_floor = gp.KernelParams(0.0, np.log(10.0), np.log(1e-30))
        with pytest.raises(ValueError, match="kernel matrix factorization failed"):
            gp.fit_with_params(X, y, below_floor)

    def test_rejects_non_finite_targets(self):
        with pytest.raises(ValueError, match="finite"):
            gp.fit([[0.0], [1.0]], [1.0, -np.inf], np.random.default_rng(0))

    @pytest.mark.parametrize("inputs, targets, message", [
        (np.zeros((0, 2)), np.zeros(0), "at least one training point"),
        ([[0.0], [1.0]], [1.0, np.nan], "finite targets"),
        ([[0.0], [1.0]], [1.0, -np.inf], "finite targets"),
        ([[0.0], [1.0]], [np.inf, 1.0], "finite targets"),
    ])
    def test_fit_with_params_rejects_what_fit_rejects(self, inputs, targets, message):
        # both fits prepare one training set, so a target the hyperparameter
        # search refuses cannot reach a fixed-parameter model either
        params = gp.KernelParams.from_natural(1.0, 0.5, 1e-3)
        with pytest.raises(ValueError, match=message):
            gp.fit(inputs, targets, np.random.default_rng(0))
        with pytest.raises(ValueError, match=message):
            gp.fit_with_params(inputs, targets, params)


def quadratic(a, b):
    """``f(x) = x^T A x / 2 - b^T x`` in the search's calling convention,
    and its unconstrained minimizer."""
    a, b = np.array(a, dtype=float), np.array(b, dtype=float)

    def fun(x):
        x = np.array(x)
        g = a @ x - b
        return 0.5 * x @ a @ x - b @ x, (float(g[0]), float(g[1]))

    return fun, np.linalg.solve(a, b)


def concentrated_objective(Y, z):
    """The negative concentrated evidence of these data in the search's
    calling convention, as :func:`gp.fit` builds it."""
    _, _, sqdist, zs, _, _ = gp._training_set(Y, z)

    def fun(theta):
        lml, (g0, g1), _ = gp._concentrated(sqdist, zs, theta)
        return -lml, (-g0, -g1)

    return fun


class TestSearch:
    WIDE = ((-10.0, 10.0), (-10.0, 10.0))

    def test_interior_minimum_of_a_quadratic(self):
        fun, xmin = quadratic([[3.0, 1.0], [1.0, 2.0]], [1.0, -2.0])
        x, f, nfev, success = gp._search(fun, (5.0, 5.0), self.WIDE, 100)
        assert success
        np.testing.assert_allclose(x, xmin, rtol=0, atol=1e-7)
        assert f == pytest.approx(fun(xmin)[0], rel=1e-12)
        assert nfev < 20

    def test_minimum_of_a_quadratic_on_a_bound(self):
        # the free minimizer (0.8, -1.4) lies below x1 = 0; on that bound,
        # 3 x0 / 2 - x0 is least at x0 = 1/3
        fun, _ = quadratic([[3.0, 1.0], [1.0, 2.0]], [1.0, -2.0])
        x, _, _, success = gp._search(fun, (5.0, 5.0), ((-10.0, 10.0), (0.0, 10.0)), 100)
        assert success
        np.testing.assert_allclose(x, [1.0 / 3.0, 0.0], rtol=0, atol=1e-7)
        assert x[1] == 0.0

    def test_start_on_a_corner_with_the_gradient_pointing_out(self):
        # at (-5, 5) the gradient (-11, 7) pushes both coordinates out of
        # the box, so the projected gradient is zero there
        fun, _ = quadratic([[3.0, 1.0], [1.0, 2.0]], [1.0, -2.0])
        x, f, nfev, success = gp._search(fun, (-5.0, 5.0), ((-10.0, -5.0), (5.0, 10.0)), 100)
        assert (x, nfev, success) == ((-5.0, 5.0), 1, True)
        assert f == fun((-5.0, 5.0))[0]

    def test_first_step_moves_at_most_one_log_unit(self):
        # a steep quadratic: the raw gradient at the start is (300, -400)
        points = []
        fun, xmin = quadratic([[100.0, 0.0], [0.0, 100.0]], [0.0, 0.0])

        def spy(x):
            points.append(x)
            return fun(x)

        x, _, _, success = gp._search(spy, (3.0, -4.0), self.WIDE, 100)
        assert success and np.allclose(x, xmin, atol=1e-6)
        step = np.subtract(points[1], points[0])
        assert np.max(np.abs(step)) == pytest.approx(1.0, rel=1e-12)
        np.testing.assert_allclose(step, [-0.75, 1.0], rtol=1e-12)

    def test_f_never_increases_over_accepted_steps(self):
        # the search is deterministic, so ``maxiter = k`` returns its k-th
        # accepted iterate until it converges
        rng = np.random.default_rng(4)
        Y = rng.uniform(-1, 1, (30, 3))
        fun = concentrated_objective(Y, rng.standard_normal(30))
        bounds = ((np.log(1e-3), np.log(1e3)), (np.log(gp.NOISE_FLOOR), np.log(1e-1)))
        x0 = (0.2, -12.0)
        values = [gp._search(fun, x0, bounds, k)[1] for k in range(40)]
        assert values[0] == fun(x0)[0]
        assert all(b <= a for a, b in zip(values, values[1:]))
        final = gp._search(fun, x0, bounds, 100)
        assert final[3] and final[1] == values[-1] < values[0]

    def test_iteration_limit_ends_without_success(self):
        fun, _ = quadratic([[3.0, 1.0], [1.0, 2.0]], [1.0, -2.0])
        for maxiter in (0, 1):
            x, _, nfev, success = gp._search(fun, (5.0, 5.0), self.WIDE, maxiter)
            assert not success and nfev == 1 + maxiter
        assert x != (5.0, 5.0)

    def test_failed_line_search_ends_without_success(self):
        # a gradient that the values do not follow: no step satisfies the
        # Armijo condition, and the search gives up after 30 backtracks
        def fun(x):
            return 0.0, (1.0, 0.0)

        x, f, nfev, success = gp._search(fun, (0.0, 0.0), self.WIDE, 100)
        assert (x, f, nfev, success) == ((0.0, 0.0), 0.0, 32, False)

    def test_a_step_that_no_longer_moves_theta_converges(self):
        # the same gradient at 1e9, where one ulp is 1.2e-7: the backtracking
        # step falls below half an ulp before 30 backtracks, so no decrease
        # is left to find and the search stops at its start
        def fun(x):
            return 0.0, (1.0, 0.0)

        x, f, nfev, success = gp._search(fun, (1e9, 0.0), ((-1e10, 1e10), (-1.0, 1.0)), 100)
        assert (x, f, success) == ((1e9, 0.0), 0.0, True)
        assert nfev < 32


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
