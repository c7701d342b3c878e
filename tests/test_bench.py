import json
import warnings

import numpy as np
import pytest

from rmlbo import baselines, bench, hdbo
from rmlbo.hdbo import ConfigError, HDBOConfig, RMLResult, jsonable
from rmlbo.problems import NEG_INF, BoxPrior, GaussianSpec
from rmlbo.rml import draw_randomizations, objective
from rmlbo.seeding import STREAM_LANDSCAPE, STREAM_RANDOMIZE, labeled_stream


def drawn(problem, n_rml, seed=1):
    return draw_randomizations(problem, n_rml, labeled_stream(seed, STREAM_RANDOMIZE))


def quadratic_features(coords):
    n, d = coords.shape
    feats = [np.ones(n)]
    feats += [coords[:, i] for i in range(d)]
    feats += [coords[:, i] * coords[:, j] for i in range(d) for j in range(i, d)]
    return np.stack(feats, axis=1)


class TestMakeProblem:
    def test_linear_gaussian_is_exactly_bx(self):
        prob = bench.make_problem("linear-gaussian", D=8, m=5, seed=0)
        B = prob.simulator.matrix
        rng = np.random.default_rng(0)
        x = rng.standard_normal(8)
        with prob.simulator.analysis():
            assert np.array_equal(prob.simulator(x), B @ x)
        assert B.shape == (5, 8)

    def test_active_matrix_is_semi_orthogonal(self):
        prob = bench.make_problem("quadratic-bowl", D=100, d=2, seed=0)
        A = prob.simulator.active_matrix
        assert np.max(np.abs(A.T @ A - np.eye(2))) < 1e-10

    @pytest.mark.parametrize("name", ["quadratic-bowl", "rosenbrock-2d", "sine-ridge"])
    def test_null_space_perturbation_probe(self, name):
        prob = bench.make_problem(name, seed=3)
        A = prob.simulator.active_matrix
        D = A.shape[0]
        rng = np.random.default_rng(0)
        for _ in range(100):
            v = rng.standard_normal(D)
            v -= A @ (A.T @ v)
            x = rng.uniform(-0.5, 0.5, D)
            with prob.simulator.analysis():
                diff = np.max(np.abs(prob.simulator(x) - prob.simulator(x + v)))
            assert diff < 1e-10

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="^name: unknown problem name"):
            bench.make_problem("elliptic")

    @pytest.mark.parametrize("name, key", [
        ("quadratic-bowl", "m"), ("rosenbrock-2d", "m"), ("sine-ridge", "m"),
        ("linear-gaussian", "d")])
    def test_argument_that_does_not_apply_is_rejected(self, name, key):
        # a ridge link fixes the output length, and linear-gaussian has no
        # active dimension; None keeps the catalog default
        with pytest.raises(ValueError, match=f"^{key}: {name} takes no {key}"):
            bench.make_problem(name, **{key: 4})
        bench.make_problem(name, **{key: None})

    @pytest.mark.parametrize("name", ["quadratic-bowl", "linear-gaussian"])
    @pytest.mark.parametrize("sd", [1e170, 1e-170, -0.5])
    def test_noise_sd_must_square_to_a_positive_finite_variance(self, name, sd):
        with pytest.raises(ValueError, match="^noise_sd: .* squares to"):
            bench.make_problem(name, seed=0, noise_sd=sd)

    @pytest.mark.parametrize("name, key, value", [
        ("quadratic-bowl", "D", 12.7), ("quadratic-bowl", "d", 2.9),
        ("quadratic-bowl", "D", True), ("quadratic-bowl", "D", 0),
        ("quadratic-bowl", "D", np.float64(12.0)), ("quadratic-bowl", "d", 0),
        ("quadratic-bowl", "d", 101), ("rosenbrock-2d", "d", 3),
        ("linear-gaussian", "m", 4.5), ("linear-gaussian", "m", False),
        ("sine-ridge", "seed", -1), ("sine-ridge", "seed", 2.0), ("sine-ridge", "seed", None),
        ("quadratic-bowl", "noise_sd", True), ("quadratic-bowl", "noise_sd", "0.1"),
        ("linear-gaussian", "noise_sd", [0.1]),
        pytest.param("linear-gaussian", "noise_sd", 10 ** 400, id="noise_sd-10**400"),
        ("linear-gaussian", "noise_sd", float("nan")),
        ("linear-gaussian", "prior", "uniform"), ("sine-ridge", "prior", "laplace")])
    def test_invalid_argument_raises_naming_it(self, name, key, value):
        # the problem block's rules live here, so a library call is checked
        # as the CLI is: nothing is truncated or coerced
        with pytest.raises(ValueError, match=f"^{key}: "):
            bench.make_problem(name, **{key: value})

    @pytest.mark.parametrize("kwargs", [dict(D=np.int64(12), d=np.int32(2), seed=np.int64(3)),
                                        dict(noise_sd=np.float32(0.5)), dict(noise_sd=1)])
    def test_numpy_integers_and_real_numbers_are_accepted(self, kwargs):
        ref = bench.make_problem("quadratic-bowl", **{
            k: (int(v) if isinstance(v, np.integer) else float(v)) for k, v in kwargs.items()})
        prob = bench.make_problem("quadratic-bowl", **kwargs)
        assert prob.likelihood.data.tobytes() == ref.likelihood.data.tobytes()

    def test_generation_is_seeded_and_budget_free(self):
        a = bench.make_problem("sine-ridge", seed=5)
        b = bench.make_problem("sine-ridge", seed=5)
        assert np.array_equal(a.likelihood.data, b.likelihood.data)
        assert a.simulator.eval_counter == 0

    def test_prior_variants(self):
        uni = bench.make_problem("quadratic-bowl", D=10, d=2, seed=0)
        gau = bench.make_problem("quadratic-bowl", D=10, d=2, seed=0, prior="gaussian")
        assert isinstance(uni.prior, BoxPrior)
        assert isinstance(gau.prior, GaussianSpec)

    def test_obs_cov_defaults_to_diagonal(self):
        prob = bench.make_problem("quadratic-bowl", D=10, d=2, seed=0)
        cov = prob.likelihood.obs_cov
        assert np.allclose(cov, np.diag(np.diag(cov)))


class TestProblemFromConfig:
    def test_catalog_round_trip(self):
        prob = bench.problem_from_config({"name": "quadratic-bowl", "D": 12, "d": 2,
                                          "seed": 4})
        ref = bench.make_problem("quadratic-bowl", D=12, d=2, seed=4)
        assert np.array_equal(prob.likelihood.data, ref.likelihood.data)

    def test_explicit_prior_and_likelihood_override(self):
        cfg = {
            "name": "quadratic-bowl", "D": 6, "d": 2, "seed": 0,
            "prior": {"kind": "box", "lower": [-2.0] * 6, "upper": [2.0] * 6},
            "likelihood": {"data": [0.1, 0.2, 0.3],
                           "obs_cov": (0.04 * np.eye(3)).tolist()},
        }
        prob = bench.problem_from_config(cfg)
        assert np.allclose(prob.prior.upper, 2.0)
        assert np.allclose(prob.likelihood.data, [0.1, 0.2, 0.3])

    def test_unknown_field_is_config_error(self):
        with pytest.raises(ConfigError, match="problem.frobnicate"):
            bench.problem_from_config({"name": "sine-ridge", "frobnicate": 1})

    def test_missing_name_is_config_error(self):
        with pytest.raises(ConfigError, match="problem.name"):
            bench.problem_from_config({"D": 4})


class TestMeanReturn:
    def test_single_objective(self):
        prob = bench.make_problem("quadratic-bowl", D=8, d=2, seed=0)
        insts = drawn(prob, 1)
        res = bench.random_design_method(10).run(prob, insts, 0)
        assert bench.mean_return(res, insts, prob) == pytest.approx(float(res.values[0]))

    def test_constant_values(self):
        res = RMLResult(maximizers=np.zeros((3, 2)), values=np.full(3, -1.5),
                        records=[], n_evals=0)
        prob = bench.make_problem("quadratic-bowl", D=8, d=2, seed=0)
        insts = drawn(prob, 3)
        assert bench.mean_return(res, insts, prob) == pytest.approx(-1.5)

    def test_oracle_dominates_every_method(self):
        prob = bench.make_problem("linear-gaussian", seed=0)
        insts = drawn(prob, 4)
        oracle_mean = bench.mean_return(bench.oracle_rml_result(prob, insts), insts, prob)
        for seed in range(3):
            res = bench.random_design_method(100).run(prob, insts, seed)
            assert bench.mean_return(res, insts, prob) <= oracle_mean

    def test_missing_objective_is_error(self):
        prob = bench.make_problem("quadratic-bowl", D=8, d=2, seed=0)
        insts = drawn(prob, 3)
        res = RMLResult(maximizers=np.zeros((2, 8)), values=np.zeros(2),
                        records=[], n_evals=0)
        with pytest.raises(ValueError, match="covers 2 objectives"):
            bench.mean_return(res, insts, prob)


def _looped_curve(records, instances, problem, checkpoints):
    """Reference: the record-by-record best-so-far replay that scores every
    (record, objective) pair again, as budget curves once did."""
    total = sum(rec.eval_cost for rec in records)
    best = np.full(len(instances), -np.inf)
    cum = 0
    j = 0
    budgets, values = [], []
    for c in checkpoints:
        if c > total:
            warnings.warn(f"checkpoint {c} exceeds the trace's {total} evaluations; skipped")
            continue
        while j < len(records) and cum + records[j].eval_cost <= c:
            cand_x, cand_f = records[j].candidate()
            for i, inst in enumerate(instances):
                v = objective(inst, cand_x, problem, fx=cand_f)
                if v > best[i]:
                    best[i] = v
            cum += records[j].eval_cost
            j += 1
        if cum == 0:
            warnings.warn(f"checkpoint {c} precedes the first completed evaluation; skipped")
            continue
        budgets.append(int(c))
        values.append(-float(np.mean(best)))
    return budgets, values


@pytest.fixture(scope="module")
def small_setup():
    prob = bench.make_problem("quadratic-bowl", D=10, d=2, seed=0)
    insts = drawn(prob, 3)
    return prob, insts


class TestBudgetCurve:
    def test_single_checkpoint_equals_full_run(self, small_setup):
        prob, insts = small_setup
        method = bench.random_design_method(30)
        report = bench.budget_curve(prob, insts, [method], [30], trials=1, seed=5)
        res = method.run(prob, insts, bench.trial_seed(5, 0))
        assert report.methods[0].trial_curves[0][0] == pytest.approx(
            -bench.mean_return(res, insts, prob), abs=1e-12)

    def test_curves_non_increasing(self, small_setup):
        prob, insts = small_setup
        report = bench.budget_curve(prob, insts, [bench.random_design_method(40)],
                                    [5, 10, 20, 40], trials=3, seed=7)
        for curve in report.methods[0].trial_curves:
            assert all(b <= a + 1e-12 for a, b in zip(curve, curve[1:]))

    def test_average_matches_independent_recomputation(self, small_setup):
        prob, insts = small_setup
        method = bench.random_design_method(25)
        trials = 5
        report = bench.budget_curve(prob, insts, [method], [10, 25], trials=trials, seed=3)
        singles = []
        for t in range(trials):
            res = method.run(prob, insts, bench.trial_seed(3, t))
            _, vals = bench.best_so_far_curve(res, [10, 25])
            singles.append(vals)
        assert np.max(np.abs(np.mean(singles, axis=0)
                             - report.methods[0].avg_curve)) < 1e-12

    def test_bitwise_reproducible(self, small_setup):
        prob, insts = small_setup
        methods = [bench.random_design_method(20)]
        a = bench.budget_curve(prob, insts, methods, [10, 20], trials=2, seed=9)
        b = bench.budget_curve(prob, insts, methods, [10, 20], trials=2, seed=9)
        da, db = (json.loads(json.dumps(r, default=jsonable)) for r in (a, b))
        for m in (da, db):
            for entry in m["methods"]:
                entry.pop("wall_clock_s")
            m.pop("wall_clock_s")
        assert json.dumps(da) == json.dumps(db)

    def test_short_trace_skips_checkpoint_with_warning(self, small_setup):
        prob, insts = small_setup
        res = bench.random_design_method(10).run(prob, insts, 0)
        with pytest.warns(UserWarning, match="exceeds the trace"):
            budgets, _ = bench.best_so_far_curve(res, [5, 10, 50])
        assert budgets == [5, 10]

    def test_checkpoint_before_first_record_warns(self, small_setup):
        prob, insts = small_setup
        gau = bench.make_problem("quadratic-bowl", D=10, d=2, seed=0, prior="gaussian")
        ginsts = drawn(gau, 2)
        cfg = HDBOConfig(n_rml=2, budget_N=24, K=2, d_e=2, n0=2, seed=0)
        res = bench.hdbo_method(cfg).run(gau, ginsts, 1)
        with pytest.warns(UserWarning, match="precedes the first"):
            budgets, _ = bench.best_so_far_curve(res, [1, 4])
        assert budgets == [4]

    def test_table_curve_matches_looped_reference(self, small_setup):
        prob, insts = small_setup
        box = bench.random_design_method(30).run(prob, insts, 2)
        gau = bench.make_problem("quadratic-bowl", D=10, d=2, seed=0, prior="gaussian")
        ginsts = drawn(gau, 2)
        cfg = HDBOConfig(n_rml=2, budget_N=24, K=2, d_e=2, n0=2, seed=0)
        gres = bench.hdbo_method(cfg).run(gau, ginsts, 1)
        assert {rec.eval_cost for rec in gres.records} == {2}
        for res, problem, instances, checkpoints in (
                (box, prob, insts, [0, 1, 5, 17, 30, 31]),
                (gres, gau, ginsts, [1, 2, 3, 9, 24, 26])):
            with pytest.warns(UserWarning) as caught:
                got = bench.best_so_far_curve(res, checkpoints)
            with pytest.warns(UserWarning) as expected:
                want = _looped_curve(res.records, instances, problem, checkpoints)
            assert [str(w.message) for w in caught] == [str(w.message) for w in expected]
            assert any("precedes the first" in str(w.message) for w in caught)
            assert any("exceeds the trace" in str(w.message) for w in caught)
            assert got[0] == want[0]
            assert np.asarray(got[1]).tobytes() == np.asarray(want[1]).tobytes()

    def test_one_trial_scores_each_pair_once(self, small_setup, monkeypatch):
        # a box-prior trial evaluates each (record, objective) pair's
        # likelihood, prior term and objective once, all during selection;
        # the curves replay the table and score nothing.  Each objective
        # scores the stacked records in one call of each, so a call counts
        # the values it returns, one per scored pair, and the calls are
        # counted apart
        prob, insts = small_setup
        zero = {"likelihood": 0, "prior": 0, "objective": 0}
        calls = {"select": dict(zero), "curve": dict(zero)}
        stack_calls = {"select": dict(zero), "curve": dict(zero)}
        phase = ["select"]

        def counting(kind, real):
            def call(*args, **kwargs):
                value = real(*args, **kwargs)
                calls[phase[0]][kind] += np.size(value)
                stack_calls[phase[0]][kind] += 1
                return value
            return call

        lik = prob.likelihood.gaussian
        monkeypatch.setattr(lik, "logpdf", counting("likelihood", lik.logpdf))
        monkeypatch.setattr(BoxPrior, "logpdf", counting("prior", BoxPrior.logpdf))
        for module in (hdbo, bench, baselines):
            monkeypatch.setattr(module, "objective", counting("objective", objective))
        real_curve = bench.best_so_far_curve

        def curve(*args, **kwargs):
            phase[0] = "curve"
            try:
                return real_curve(*args, **kwargs)
            finally:
                phase[0] = "select"

        monkeypatch.setattr(bench, "best_so_far_curve", curve)
        bench.budget_curve(prob, insts, [bench.random_design_method(30)], [10, 30],
                           trials=1, seed=4)
        pairs = 30 * len(insts)
        assert calls == {"select": {"likelihood": pairs, "prior": pairs, "objective": pairs},
                         "curve": zero}
        per_objective = {kind: len(insts) for kind in zero}
        assert stack_calls == {"select": per_objective, "curve": zero}

    def test_projections_are_the_first_maximizers_times_the_active_matrix(self, small_setup):
        # budget_curve projects without scoring, so it makes no analysis call
        prob, insts = small_setup
        A = prob.simulator.active_matrix
        before = prob.simulator.analysis_counter
        report = bench.budget_curve(prob, insts, [bench.random_design_method(20),
                                                  bench.local_search_method(21)],
                                    [10, 20], trials=2, seed=1)
        assert prob.simulator.analysis_counter == before
        for m in report.methods:
            assert m.projections.tobytes() == (m.maximizers @ A).tobytes()
            assert m.projections.tobytes() == \
                bench.project_active(m.maximizers, A, prob)[0].tobytes()

    def test_strictly_increasing_checkpoints_enforced(self, small_setup):
        prob, insts = small_setup
        with pytest.raises(ValueError, match="strictly increasing"):
            bench.budget_curve(prob, insts, [bench.random_design_method(10)],
                               [10, 10], trials=1, seed=0)

    @pytest.mark.parametrize("call, name", [
        *[(lambda p, i, cps=cps: bench.budget_curve(
            p, i, [bench.random_design_method(20)], cps, trials=1, seed=0), "checkpoints")
          for cps in ([10.7, 20.2], [True, 20], [0, 20], [-5, 20], [], "10,20")],
        *[(lambda p, i, t=t: bench.budget_curve(
            p, i, [bench.random_design_method(20)], [10, 20], trials=t, seed=0), "trials")
          for t in (True, 2.5, 0)],
        (lambda p, i: bench.prior_landscape(p, True, np.random.default_rng(0)), "n_samples"),
        (lambda p, i: bench.prior_landscape(p, 0, np.random.default_rng(0)), "n_samples"),
        (lambda p, i: baselines.random_design(p, i, True, np.random.default_rng(0)),
         "budget_N"),
        (lambda p, i: baselines.check_local_search_budget(7.5, 3), "budget_N"),
        (lambda p, i: baselines.check_local_search_budget(10, 2.5), "n_rml")],
        ids=[*(f"checkpoints={c}" for c in ("floats", "bool", "zero", "negative", "empty",
                                            "string")),
             "trials=True", "trials=2.5", "trials=0", "n_samples=True", "n_samples=0",
             "random-design-budget_N=True", "local-search-budget_N=7.5",
             "local-search-n_rml=2.5"])
    def test_library_counts_follow_the_integer_rule(self, small_setup, call, name):
        # nothing is truncated, coerced or skipped: the library checks a
        # count as the CLI does
        prob, insts = small_setup
        with pytest.raises(ConfigError, match=f"^{name}: "):
            call(prob, insts)

    def test_tuple_and_numpy_checkpoints_give_the_report_of_a_list(self, small_setup):
        prob, insts = small_setup
        methods = [bench.random_design_method(20)]

        def report_bytes(checkpoints):
            report = json.loads(json.dumps(bench.budget_curve(
                prob, insts, methods, checkpoints, trials=2, seed=9), default=jsonable))
            for block in (report, *report["methods"]):
                block.pop("wall_clock_s")
            return json.dumps(report)

        want = report_bytes([10, 20])
        assert report_bytes((10, 20)) == want
        assert report_bytes(np.array([10, 20])) == want


    def test_result_without_a_table_is_rejected(self):
        # the linear oracle's result is not built from a trace
        prob = bench.make_problem("linear-gaussian", seed=0)
        insts = drawn(prob, 3)
        oracle = bench.oracle_rml_result(prob, insts)
        assert oracle.candidate_values is None
        with pytest.raises(ValueError, match="no candidate-value table"):
            bench.best_so_far_curve(oracle, [1, 2])
        method = bench.Method("oracle-rml", lambda problem, instances, seed:
                              bench.oracle_rml_result(problem, instances))
        with pytest.raises(ValueError, match="not built from a trace"):
            bench.budget_curve(prob, insts, [method], [1, 2], trials=1, seed=0)


class TestExternalTraces:
    def test_trace_round_trip_reproduces_selection(self, small_setup, tmp_path):
        from rmlbo.hdbo import select_maximizers, write_trace

        prob, insts = small_setup
        res = bench.random_design_method(25).run(prob, insts, 3)
        path = tmp_path / "external.jsonl"
        write_trace(res.records, path)
        adopted = select_maximizers(bench.read_trace(path, prob), insts, prob)
        assert np.allclose(adopted.values, res.values)
        assert np.allclose(adopted.maximizers, res.maximizers)
        assert adopted.n_evals == res.n_evals

    def test_trace_method_joins_budget_curve(self, small_setup, tmp_path):
        from rmlbo.hdbo import write_trace

        prob, insts = small_setup
        res = bench.random_design_method(20).run(prob, insts, 0)
        path = tmp_path / "third_party.jsonl"
        write_trace(res.records, path)
        report = bench.budget_curve(
            prob, insts,
            [bench.random_design_method(20), bench.trace_method(path, "third-party")],
            [10, 20], trials=2, seed=0)
        names = [m.name for m in report.methods]
        assert names == ["random-design", "third-party"]
        third = report.methods[1]
        assert np.array_equal(third.trial_curves[0], third.trial_curves[1])


class TestProjections:
    def test_scalar_projection_for_1d_subspace(self):
        prob = bench.make_problem("quadratic-bowl", D=12, d=1, seed=0)
        coords, logpost = bench.project_active(np.zeros((4, 12)),
                                               prob.simulator.active_matrix, prob)
        assert coords.shape == (4, 1)
        assert logpost.shape == (4,)

    def test_isometry_on_span(self):
        prob = bench.make_problem("quadratic-bowl", D=30, d=2, seed=1)
        A = prob.simulator.active_matrix
        rng = np.random.default_rng(0)
        for _ in range(10):
            u = rng.standard_normal(2)
            x = A @ (u / np.linalg.norm(u))
            coords, _ = bench.project_active(x[None, :], A, prob)
            assert abs(np.linalg.norm(coords[0]) - 1.0) < 1e-10

    def test_projection_calls_are_analysis_only(self):
        prob = bench.make_problem("quadratic-bowl", D=10, d=2, seed=0)
        before = prob.simulator.eval_counter
        bench.project_active(np.zeros((5, 10)), prob.simulator.active_matrix, prob)
        assert prob.simulator.eval_counter == before
        assert prob.simulator.analysis_counter >= 5

    def test_linear_gaussian_landscape_is_exact_quadratic(self):
        prob = bench.make_problem("linear-gaussian", seed=0)
        _, coords, logpost = bench.prior_landscape(
            prob, 2000, labeled_stream(0, STREAM_LANDSCAPE))
        F = quadratic_features(coords)
        beta, *_ = np.linalg.lstsq(F, logpost, rcond=None)
        assert np.max(np.abs(F @ beta - logpost)) < 1e-8

    def test_prior_landscape_row_count_and_determinism(self):
        prob = bench.make_problem("quadratic-bowl", D=8, d=2, seed=0)
        xs1, c1, lp1 = bench.prior_landscape(prob, 50, labeled_stream(3, STREAM_LANDSCAPE))
        xs2, c2, lp2 = bench.prior_landscape(prob, 50, labeled_stream(3, STREAM_LANDSCAPE))
        assert xs1.shape == (50, 8)
        assert np.array_equal(c1, c2) and np.array_equal(lp1, lp2)

    @pytest.mark.parametrize("prior", ["uniform", "gaussian"])
    def test_log_post_matches_the_free_function_reference_bits(self, prior):
        def log_likelihood(x, problem, fx=None):
            # reference: the log likelihood as a free function of the problem
            if fx is None:
                fx = problem.simulator(np.asarray(x, dtype=float))
            lik = problem.likelihood
            return lik.gaussian.logpdf(lik.data, mean=fx)

        def log_prior(x, prior):
            # reference: the log prior as a free function branching on its kind
            if isinstance(prior, BoxPrior):
                return 0.0 if prior.contains(x) else NEG_INF
            if isinstance(prior, GaussianSpec):
                return prior.logpdf(x)
            raise TypeError(f"unsupported prior type {type(prior).__name__}")

        prob = bench.make_problem("quadratic-bowl", D=10, d=2, seed=0, prior=prior)
        rng = np.random.default_rng(5)
        # prior draws, and the same draws stretched out of a box's support
        xs = np.stack([prob.prior.sample(rng) for _ in range(12)])
        xs = np.concatenate([xs, 3.0 * xs])
        A = prob.simulator.active_matrix
        _, logpost = bench.project_active(xs, A, prob)
        with prob.simulator.analysis():
            ref = np.array([log_likelihood(x, prob, fx=prob.simulator(x))
                            + log_prior(x, prob.prior) for x in xs])
        assert logpost.tobytes() == ref.tobytes()
        if prior == "uniform":
            assert np.isneginf(logpost[12:]).any() and np.isfinite(logpost[:12]).all()

    def test_unavailable_subspace_is_error(self):
        prob = bench.make_problem("quadratic-bowl", D=8, d=2, seed=0)
        with pytest.raises(ValueError, match="unavailable"):
            bench.project_active(np.zeros((2, 8)), None, prob)


class TestCsvLines:
    def test_curves_csv_shape(self):
        prob = bench.make_problem("quadratic-bowl", D=8, d=2, seed=0)
        insts = drawn(prob, 2)
        report = bench.budget_curve(prob, insts, [bench.random_design_method(10)],
                                    [5, 10], trials=2, seed=0)
        lines = bench.curves_csv_lines(report)
        assert lines[0] == "method,budget,trial,neg_mean_return"
        assert len(lines) == 1 + 2 * 2  # trials x checkpoints

    def test_projections_csv_header_tracks_dimension(self):
        coords = np.zeros((3, 2))
        logpost = np.zeros(3)
        lines = bench.projections_csv_lines(coords, logpost)
        assert lines[0] == "sample_id,coord_1,coord_2,log_post"
        assert len(lines) == 4

    def test_csv_cells_parse_as_plain_floats(self):
        prob = bench.make_problem("quadratic-bowl", D=8, d=2, seed=0)
        insts = drawn(prob, 2)
        report = bench.budget_curve(prob, insts, [bench.random_design_method(10)],
                                    [10], trials=1, seed=0)
        rng = np.random.default_rng(0)
        proj = bench.projections_csv_lines(rng.standard_normal((2, 2)),
                                           rng.standard_normal(2))
        for line in bench.curves_csv_lines(report)[1:] + proj[1:]:
            assert "np." not in line
            float(line.rsplit(",", 1)[1])
