import json
from contextlib import nullcontext

import numpy as np
import pytest
from scipy.optimize import minimize

from rmlbo import bench, gp, hdbo
from rmlbo.hdbo import (
    ConfigError,
    HDBOConfig,
    RunAborted,
    SimulationRecord,
    acquisition_maximize,
    jsonable,
    local_prior_refine,
    read_trace,
    run_hdbo_rml,
    select_maximizers,
    write_trace,
)
from rmlbo.problems import BoxPrior, GaussianSpec, chol_spd, solve_spd
from rmlbo.rml import RMLInstance, draw_randomizations, objective
from rmlbo.seeding import STREAM_INIT, STREAM_RANDOMIZE, labeled_stream


def bowl_problem(D=20, d=2, seed=1, prior="uniform", noise_sd=None):
    return bench.make_problem("quadratic-bowl", D=D, d=d, seed=seed, prior=prior,
                              noise_sd=noise_sd)


def drawn(problem, n_rml, seed=11):
    return draw_randomizations(problem, n_rml, labeled_stream(seed, STREAM_RANDOMIZE))


def ref_acquisition_maximize(model, domain, beta, rng, restarts, improved_per_sweep=None):
    """The per-coordinate formulation of the acquisition sweep from the best
    ``restarts`` probes, kept as the reference; returns the point after
    ``hdbo.ACQ_SWEEPS`` sweeps, and appends each sweep's improved-start mask
    to ``improved_per_sweep`` when given."""
    lower = np.asarray(domain[0], dtype=float)
    upper = np.asarray(domain[1], dtype=float)
    d = lower.size
    probes = rng.uniform(lower, upper, (hdbo.ACQ_PROBES, d))
    vals = np.atleast_1d(gp.ucb(model, probes, beta))
    order = np.argsort(-vals)
    take = min(restarts, probes.shape[0])
    ys = probes[order[:take]].copy()
    fys = vals[order[:take]].astype(float).copy()
    width = upper - lower
    steps = np.broadcast_to(0.25 * width, (take, d)).copy()
    rows = np.arange(take)
    for _ in range(hdbo.ACQ_SWEEPS):
        cands = np.repeat(ys[:, None, :], 2 * d, axis=1)
        for j in range(d):
            cands[:, 2 * j, j] = np.minimum(ys[:, j] + steps[:, j], upper[j])
            cands[:, 2 * j + 1, j] = np.maximum(ys[:, j] - steps[:, j], lower[j])
        cv = np.atleast_1d(gp.ucb(model, cands.reshape(-1, d), beta)).reshape(take, 2 * d)
        pick = np.argmax(cv, axis=1)
        pick_val = cv[rows, pick]
        improved = pick_val > fys
        if improved_per_sweep is not None:
            improved_per_sweep.append(improved)
        ys[improved] = cands[rows, pick][improved]
        fys[improved] = pick_val[improved]
        steps[~improved] *= 0.5
    return ys[int(np.argmax(fys))].copy()


def acquisition_model(n, seed, lower, upper):
    if n == 0:
        return gp.empty_model(gp.KernelParams.from_natural(1.3, 0.7), dim=lower.size)
    rng = np.random.default_rng(seed)
    X = rng.uniform(lower, upper, (n, lower.size))
    # in 3-D: sin(2 y0) + y1^2 - 0.5 y2
    z = np.sin(2 * X[:, 0])
    if lower.size > 1:
        z = z + X[:, 1] ** 2
    if lower.size > 2:
        z = z - 0.5 * X[:, 2:].sum(axis=1)
    return gp.fit(X, z, rng)


# asymmetric boxes: offset, unequal widths, one wholly positive
ACQ_BOXES = [(np.array([-1.3, 0.2, -0.05]), np.array([2.7, 0.9, 3.1])),
             (np.array([0.1, 0.25, 1.0]), np.array([0.6, 3.0, 1.7]))]
# asymmetric boxes of dimension 1, 2 and 8
OTHER_DIM_BOXES = [(np.array([-0.4]), np.array([1.1])),
                   (np.array([-2.0, 0.3]), np.array([0.5, 0.8])),
                   (np.linspace(-1.0, 0.4, 8), np.linspace(-0.2, 2.5, 8))]


class TestAcquisitionMaximize:
    def _model(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.uniform(-1.5, 1.5, (25, 3))
        z = np.sin(2 * X[:, 0]) + X[:, 1] ** 2 - 0.5 * X[:, 2]
        return gp.fit(X, z, rng)

    def test_beats_fresh_random_probes(self):
        model = self._model(0)
        lo, hi = -np.sqrt(3) * np.ones(3), np.sqrt(3) * np.ones(3)
        ystar = acquisition_maximize(model, BoxPrior(lo, hi), 2.0, np.random.default_rng(100))
        probes = np.random.default_rng(200).uniform(lo, hi, (1000, 3))
        assert gp.ucb(model, ystar, 2.0) >= np.max(gp.ucb(model, probes, 2.0))

    def test_empty_model_returns_in_domain_point(self):
        model = gp.empty_model(gp.KernelParams.from_natural(1.0, 1.0), dim=2)
        lo, hi = -np.ones(2), np.ones(2)
        y = acquisition_maximize(model, BoxPrior(lo, hi), 1.0, np.random.default_rng(0))
        assert np.all(y >= lo) and np.all(y <= hi)

    def test_deterministic_per_seed(self):
        model = self._model(3)
        lo, hi = -np.sqrt(3) * np.ones(3), np.sqrt(3) * np.ones(3)
        a = acquisition_maximize(model, BoxPrior(lo, hi), 2.0, np.random.default_rng(5))
        b = acquisition_maximize(model, BoxPrior(lo, hi), 2.0, np.random.default_rng(5))
        assert a.tobytes() == b.tobytes()

    def test_always_inside_box(self):
        model = self._model(4)
        lo, hi = -np.sqrt(3) * np.ones(3), np.sqrt(3) * np.ones(3)
        for seed in range(5):
            y = acquisition_maximize(model, BoxPrior(lo, hi), 2.0, np.random.default_rng(seed))
            assert np.all(y >= lo) and np.all(y <= hi)

    @pytest.mark.parametrize("n", [0, 1, 25, 95])
    def test_bits_match_per_coordinate_reference(self, n, monkeypatch):
        # five dimensions and two restart counts: the search's compass
        # template is built once per (d, restarts), so one process reuses
        # and switches between several of them
        for b, (lo, hi) in enumerate(ACQ_BOXES + OTHER_DIM_BOXES):
            model = acquisition_model(n, 30 + n + b, lo, hi)
            for restarts in (1, 10):
                monkeypatch.setattr(hdbo, "ACQ_RESTARTS", restarts)
                for beta in (0.0, 2.0):
                    seed = 1000 * n + 100 * b + 10 * restarts + int(beta)
                    y = acquisition_maximize(model, BoxPrior(lo, hi), beta,
                                             np.random.default_rng(seed))
                    ref = ref_acquisition_maximize(model, (lo, hi), beta,
                                                   np.random.default_rng(seed), restarts)
                    assert y.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("n", [0, 25])
    def test_one_ucb_call_for_the_probes_and_one_per_sweep(self, n, monkeypatch):
        lo, hi = ACQ_BOXES[0]
        model = acquisition_model(n, 40, lo, hi)
        sizes = []
        real_ucb = gp.ucb

        def spy(model, y, beta):
            sizes.append(np.atleast_2d(y).shape[0])
            return real_ucb(model, y, beta)

        monkeypatch.setattr(gp, "ucb", spy)
        monkeypatch.setattr(hdbo, "ACQ_RESTARTS", 4)
        acquisition_maximize(model, BoxPrior(lo, hi), 2.0, np.random.default_rng(9))
        # every search runs all ACQ_SWEEPS sweeps, a flat UCB (n = 0) that
        # never improves included
        assert sizes == [hdbo.ACQ_PROBES] + [4 * 2 * lo.size] * hdbo.ACQ_SWEEPS

    def test_every_prediction_goes_through_one_ucb_call_per_sweep(self, monkeypatch):
        # gp.ucb is the boundary the benchmark times under the acquisition:
        # the sweep reaches the surrogate only through it, once per sweep
        lo, hi = ACQ_BOXES[1]
        model = acquisition_model(25, 41, lo, hi)
        calls = {"ucb": 0, "predict": 0}

        def spy(name, real):
            def counted(*args):
                calls[name] += 1
                return real(*args)
            return counted

        monkeypatch.setattr(gp, "ucb", spy("ucb", gp.ucb))
        monkeypatch.setattr(gp, "predict", spy("predict", gp.predict))
        acquisition_maximize(model, BoxPrior(lo, hi), 2.0, np.random.default_rng(3))
        assert calls == {"ucb": 1 + hdbo.ACQ_SWEEPS, "predict": 1 + hdbo.ACQ_SWEEPS}

    def test_starts_that_do_not_improve_keep_their_point_and_value(self, monkeypatch):
        # every sweep scores below the probes, so no start ever moves; the
        # sweep values rise with the start's row, so a value written to a
        # start that did not improve would change the returned start
        lo, hi = ACQ_BOXES[0]
        model = acquisition_model(25, 41, lo, hi)
        real_ucb = gp.ucb
        calls = []

        def spy(model, y, beta):
            calls.append(np.array(y))
            vals = real_ucb(model, y, beta)
            if len(calls) == 1:
                return vals
            return -1e6 + np.repeat(np.arange(4.0), 2 * lo.size)

        monkeypatch.setattr(gp, "ucb", spy)
        monkeypatch.setattr(hdbo, "ACQ_RESTARTS", 4)
        y = acquisition_maximize(model, BoxPrior(lo, hi), 2.0, np.random.default_rng(3))
        probes, sweeps = calls[0], calls[1:]
        starts = probes[np.argsort(-real_ucb(model, probes, 2.0))[:4]]
        assert y.tobytes() == starts[0].tobytes()
        # each sweep moves from the same starts with steps halved once more
        eye = np.eye(lo.size)
        moves = np.stack([eye, -eye], axis=1).reshape(2 * lo.size, lo.size)
        assert len(sweeps) == hdbo.ACQ_SWEEPS
        for s, cands in enumerate(sweeps):
            want = starts[:, None, :] + moves * (0.25 * (hi - lo) * 0.5 ** s)
            want = np.clip(want, lo, hi).reshape(-1, lo.size)
            assert cands.tobytes() == want.tobytes()

    def test_sweeps_where_only_some_starts_improve_match_reference(self, monkeypatch):
        lo, hi = ACQ_BOXES[1]
        model = acquisition_model(25, 42, lo, hi)
        real_ucb = gp.ucb

        def recording(calls):
            def spy(model, y, beta):
                calls.append(np.array(y))
                return real_ucb(model, y, beta)
            return spy

        monkeypatch.setattr(hdbo, "ACQ_RESTARTS", 10)
        for seed in range(3):
            improved, ref_calls, new_calls = [], [], []
            monkeypatch.setattr(gp, "ucb", recording(ref_calls))
            ref = ref_acquisition_maximize(model, (lo, hi), 2.0,
                                           np.random.default_rng(seed), 10, improved)
            monkeypatch.setattr(gp, "ucb", recording(new_calls))
            y = acquisition_maximize(model, BoxPrior(lo, hi), 2.0, np.random.default_rng(seed))
            assert any(0 < mask.sum() < 10 for mask in improved)
            assert y.tobytes() == ref.tobytes()
            assert [a.tobytes() for a in new_calls] == [a.tobytes() for a in ref_calls]

    @pytest.mark.parametrize("n", [5, 25, 60, 95])
    def test_fifty_sweeps_gain_little_over_the_shipped_count(self, n, monkeypatch):
        # the shipped search is the first ACQ_SWEEPS sweeps of a 50-sweep
        # one, so the longer search ends no lower; on these cases it must end
        # less than 1e-3 of the target sd higher.  They hold no long diagonal
        # climb to a box corner, where the shipped count can stop short by
        # more (0.3 target sd once in a full bowl-uniform trial).
        # The shipped probes are the first ACQ_PROBES rows of a 512-probe
        # draw, so a 512-probe search ranks them all; it may seed a restart
        # in another basin, which at five training points happens for one
        # model under both betas, and never with 25 or more
        assert hdbo.ACQ_SWEEPS < 50
        assert hdbo.ACQ_PROBES < 512
        real_ucb = gp.ucb
        calls = []

        def spy(model, y, beta):
            calls.append(np.array(y))
            return real_ucb(model, y, beta)

        more_probes_higher = 0
        for b, (lo, hi) in enumerate(ACQ_BOXES):
            for seed in range(5):
                model = acquisition_model(n, 100 * n + 10 * b + seed, lo, hi)
                wide = np.random.default_rng(seed).uniform(lo, hi, (512, lo.size))
                for beta in (0.0, 2.0):
                    calls.clear()
                    with monkeypatch.context() as m:
                        m.setattr(gp, "ucb", spy)
                        ys = [acquisition_maximize(model, BoxPrior(lo, hi), beta,
                                                   np.random.default_rng(seed))]
                    assert calls[0].tobytes() == wide[:hdbo.ACQ_PROBES].tobytes()
                    for name, value in (("ACQ_SWEEPS", 50), ("ACQ_PROBES", 512)):
                        with monkeypatch.context() as m:
                            m.setattr(hdbo, name, value)
                            ys.append(acquisition_maximize(model, BoxPrior(lo, hi), beta,
                                                           np.random.default_rng(seed)))
                    shipped, longer, more = real_ucb(model, np.stack(ys), beta)
                    assert shipped <= longer <= shipped + 1e-3 * model.target_sd
                    more_probes_higher += bool(more > shipped + 1e-3 * model.target_sd)
        assert more_probes_higher <= (2 if n == 5 else 0)


class TestLocalPriorRefine:
    def test_identity_covariance_midpoint(self):
        inst = RMLInstance(1, np.zeros(2), np.array([2.0, -4.0]))
        prior = GaussianSpec(np.zeros(2), np.eye(2))
        x0 = np.array([1.0, 1.0])
        z = local_prior_refine(x0, inst, prior, 1.0)
        assert np.allclose(z, (x0 + inst.prior_mean_n) / 2)

    def test_eta_to_zero_returns_start(self):
        rng = np.random.default_rng(0)
        inst = RMLInstance(1, np.zeros(2), rng.standard_normal(4))
        prior = GaussianSpec(np.zeros(4), np.eye(4) + 0.1)
        x0 = rng.standard_normal(4)
        assert np.max(np.abs(local_prior_refine(x0, inst, prior, 1e-12) - x0)) < 1e-6

    def test_eta_to_infinity_returns_prior_mean(self):
        rng = np.random.default_rng(1)
        inst = RMLInstance(1, np.zeros(2), rng.standard_normal(4))
        prior = GaussianSpec(np.zeros(4), np.eye(4) + 0.1)
        x0 = rng.standard_normal(4)
        z = local_prior_refine(x0, inst, prior, 1e12)
        assert np.max(np.abs(z - inst.prior_mean_n)) < 1e-6

    def test_matches_numeric_proximal_maximizer(self):
        rng = np.random.default_rng(7)
        q, r = np.linalg.qr(rng.standard_normal((6, 6)))
        cov = q @ np.diag(rng.uniform(0.5, 2.0, 6)) @ q.T
        cov = 0.5 * (cov + cov.T)
        prior = GaussianSpec(np.zeros(6), cov)
        inst = RMLInstance(1, np.zeros(2), rng.standard_normal(6))
        x0 = rng.standard_normal(6)
        eta = 0.25
        z = local_prior_refine(x0, inst, prior, eta)
        cov_inv = np.linalg.inv(cov)

        def neg(x):
            dm = x - inst.prior_mean_n
            return 0.5 * dm @ cov_inv @ dm + ((x - x0) @ (x - x0)) / (2 * eta)

        res = minimize(neg, x0, method="L-BFGS-B", jac="3-point",
                       options={"gtol": 1e-14, "ftol": 1e-18})
        assert np.max(np.abs(res.x - z)) < 1e-6

    def test_never_decreases_prior_density(self):
        rng = np.random.default_rng(8)
        prior = GaussianSpec(np.zeros(5), np.eye(5) * 0.8)
        for _ in range(20):
            inst = RMLInstance(1, np.zeros(2), rng.standard_normal(5))
            x0 = 3 * rng.standard_normal(5)
            z = local_prior_refine(x0, inst, prior, 0.25)
            lp = lambda x: -0.5 * (x - inst.prior_mean_n) @ np.linalg.solve(
                prior.cov, x - inst.prior_mean_n)
            assert lp(z) >= lp(x0) - 1e-12

    def test_bits_match_a_fresh_factor_as_eta_alternates(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((5, 5))
        prior = GaussianSpec(np.zeros(5), a @ a.T + np.eye(5))
        inst = RMLInstance(1, np.zeros(2), rng.standard_normal(5))
        for eta in (0.25, 4.0, 0.25, 4.0):
            x0 = rng.standard_normal(5)
            chol = chol_spd(prior.cov + eta * np.eye(5), name="proximal system")
            ref = solve_spd(chol, eta * inst.prior_mean_n + prior.cov @ x0)
            assert local_prior_refine(x0, inst, prior, eta).tobytes() == ref.tobytes()

    def test_consumes_no_evaluations(self):
        prob = bowl_problem(prior="gaussian")
        inst = drawn(prob, 1)[0]
        before = prob.simulator.eval_counter
        local_prior_refine(np.zeros(20), inst, prob.prior,  0.25)
        assert prob.simulator.eval_counter == before


class TestBudgetAccounting:
    def test_uniform_budget_is_k_times_floor(self):
        prob = bowl_problem()
        insts = drawn(prob, 4)
        cfg = HDBOConfig(n_rml=4, budget_N=65, K=3, d_e=3, n0=3, seed=2)
        before = prob.simulator.eval_counter
        res = run_hdbo_rml(prob, insts, cfg)
        assert res.n_evals == 3 * (65 // 3) == 63
        assert prob.simulator.eval_counter - before == res.n_evals
        assert res.n_evals <= cfg.budget_N

    def test_gaussian_budget_is_2k_times_floor(self):
        prob = bowl_problem(prior="gaussian")
        insts = drawn(prob, 4)
        cfg = HDBOConfig(n_rml=4, budget_N=65, K=3, d_e=3, n0=3, seed=2)
        before = prob.simulator.eval_counter
        res = run_hdbo_rml(prob, insts, cfg)
        assert res.n_evals == 2 * 3 * (65 // 6) == 60
        assert prob.simulator.eval_counter - before == res.n_evals

    def test_init_exceeding_budget_is_config_error(self):
        prob = bowl_problem()
        insts = drawn(prob, 2)
        cfg = HDBOConfig(n_rml=2, budget_N=20, K=4, d_e=2, n0=5, seed=0)
        with pytest.raises(ConfigError, match="initial points"):
            run_hdbo_rml(prob, insts, cfg)

    def test_instance_count_must_match_config(self):
        prob = bowl_problem()
        insts = drawn(prob, 3)
        cfg = HDBOConfig(n_rml=4, budget_N=40, K=2, d_e=2, n0=2, seed=0)
        with pytest.raises(ConfigError, match="instances"):
            run_hdbo_rml(prob, insts, cfg)

    def test_embedding_dimension_capped_by_input_dimension(self):
        prob = bowl_problem(D=4, d=2)
        insts = drawn(prob, 2)
        cfg = HDBOConfig(n_rml=2, budget_N=40, K=2, d_e=9, n0=2, seed=0)
        with pytest.raises(ConfigError, match="input dimension"):
            run_hdbo_rml(prob, insts, cfg)

    @pytest.mark.parametrize("field,value", [
        ("K", True), ("budget_N", "lots"), ("n0", 2.5), ("beta", "wide"), ("seed", -1),
        ("beta", float("nan")), ("beta", float("inf")),
        ("prox_eta", float("nan")), ("prox_eta", float("inf"))])
    def test_validate_rejects_wrong_types_naming_the_field(self, field, value):
        with pytest.raises(ConfigError, match=field):
            HDBOConfig(**{field: value}).validate()

    def test_validate_accepts_numpy_integers(self):
        HDBOConfig(K=np.int64(4), seed=np.uint64(7)).validate()

    def test_instances_must_stay_in_draw_order(self):
        prob = bowl_problem()
        insts = drawn(prob, 3)
        cfg = HDBOConfig(n_rml=3, budget_N=40, K=2, d_e=2, n0=2, seed=0)
        with pytest.raises(ConfigError, match="ordered"):
            run_hdbo_rml(prob, list(reversed(insts)), cfg)


@pytest.fixture(scope="module")
def uniform_run():
    prob = bowl_problem()
    insts = drawn(prob, 4)
    cfg = HDBOConfig(n_rml=4, budget_N=60, K=3, d_e=3, n0=3, seed=9)
    return prob, insts, cfg, run_hdbo_rml(prob, insts, cfg)


@pytest.fixture(scope="module")
def gaussian_run():
    prob = bowl_problem(prior="gaussian")
    insts = drawn(prob, 3)
    cfg = HDBOConfig(n_rml=3, budget_N=72, K=3, d_e=3, n0=3, seed=4)
    return prob, insts, cfg, run_hdbo_rml(prob, insts, cfg)


class TestRunTrace:
    def test_identical_seeds_give_identical_traces(self, uniform_run):
        prob, insts, cfg, res = uniform_run
        res2 = run_hdbo_rml(bowl_problem(), insts, cfg)
        assert len(res.records) == len(res2.records)
        for a, b in zip(res.records, res2.records):
            assert json.dumps(a, default=jsonable) == json.dumps(b, default=jsonable)

    @pytest.mark.parametrize("run", ["uniform_run", "gaussian_run"])
    def test_initial_points_are_uniform_draws_of_the_init_stream(self, run, request):
        # embedding k (0-based position) draws its n0 initial points from
        # its own labeled STREAM_INIT substream, in one uniform call
        _, _, cfg, res = request.getfixturevalue(run)
        for k, emb in enumerate(res.embeddings):
            own = [rec for rec in res.records if rec.emb_index == emb.index]
            want = labeled_stream(cfg.seed, STREAM_INIT, k).uniform(
                emb.y_lower, emb.y_upper, (cfg.n0, cfg.d_e))
            assert np.array([rec.y for rec in own[:cfg.n0]]).tobytes() == want.tobytes()

    def test_objective_cycles_one_based(self, uniform_run):
        _, _, cfg, res = uniform_run
        for rec in res.records:
            assert rec.objective_index == ((rec.iteration - 1) % cfg.n_rml) + 1

    def test_lifted_points_reconstructible_from_embeddings(self, uniform_run):
        prob, _, _, res = uniform_run
        embs = {e.index: e for e in res.embeddings}
        for rec in res.records:
            x = prob.prior.clip(embs[rec.emb_index].matrix @ rec.y)
            assert np.max(np.abs(x - rec.x)) < 1e-12

    def test_maximizers_are_feasible(self, uniform_run):
        prob, _, _, res = uniform_run
        for x in res.maximizers:
            assert prob.prior.logpdf(x) > -np.inf

    def test_selected_value_dominates_every_candidate(self, uniform_run):
        prob, insts, _, res = uniform_run
        for i, inst in enumerate(insts):
            for rec in res.records:
                cand_x, cand_f = rec.candidate()
                assert res.values[i] >= objective(inst, cand_x, prob, fx=cand_f) - 1e-12

    def test_refined_fields_absent_for_uniform(self, uniform_run):
        _, _, _, res = uniform_run
        assert all(r.refined_z is None and r.f_refined is None for r in res.records)

    def test_trace_round_trips_through_jsonl(self, uniform_run, tmp_path):
        prob, _, _, res = uniform_run
        path = tmp_path / "trace.jsonl"
        write_trace(res.records, path)
        back = read_trace(path, prob)
        assert len(back) == len(res.records)
        for a, b in zip(res.records, back):
            assert json.dumps(a, default=jsonable) == json.dumps(b, default=jsonable)

    def test_box_prior_target_equals_the_objective_bits(self, uniform_run):
        # gp_target is the likelihood term alone; the objective's box check
        # passes on every lifted point, clipped or not, and adds 0
        prob, insts, _, res = uniform_run
        assert any(np.any(np.abs(rec.x) == 1.0) for rec in res.records)
        for rec in res.records:
            for inst in insts:
                got = hdbo.gp_target(inst, rec, prob)
                want = objective(inst, rec.x, prob, fx=rec.fx)
                assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_read_rejects_non_finite_forward_values_naming_the_line(self, uniform_run,
                                                                    gaussian_run, tmp_path):
        for (prob, _, _, res), field, bad in ((uniform_run, "fx", float("nan")),
                                              (gaussian_run, "f_refined", float("inf"))):
            rows = [json.loads(json.dumps(rec, default=jsonable)) for rec in res.records[:5]]
            rows[2][field][0] = bad
            path = tmp_path / f"{field}.jsonl"
            path.write_text("".join(json.dumps(row) + "\n" for row in rows))
            with pytest.raises(ValueError, match=f"{field}.jsonl:3: {field} is not finite"):
                read_trace(path, prob)

    @pytest.mark.parametrize("edit, message", [
        (lambda row: "{not json", r"bad.jsonl:3: not JSON: Expecting property name"),
        (lambda row: "[1, 2]", "bad.jsonl:3: expected a JSON object, got list"),
        (lambda row: "{}", "bad.jsonl:3: missing key 'emb_index'"),
        (lambda row: json.dumps({k: v for k, v in row.items() if k != "fx"}),
         "bad.jsonl:3: missing key 'fx'"),
        (lambda row: json.dumps({**row, "x": "left"}), "bad.jsonl:3: could not convert"),
        (lambda row: json.dumps({**row, "x": {"a": 1}}), "bad.jsonl:3: float"),
        (lambda row: json.dumps({**row, "iteration": None}),
         "bad.jsonl:3: iteration: expected an integer, got None"),
        (lambda row: json.dumps({**row, "emb_index": 1.9}),
         "bad.jsonl:3: emb_index: expected an integer, got 1.9"),
        (lambda row: json.dumps({**row, "iteration": True}),
         "bad.jsonl:3: iteration: expected an integer, got True"),
        (lambda row: json.dumps({**row, "objective_index": 2.5}),
         "bad.jsonl:3: objective_index: expected an integer, got 2.5"),
        (lambda row: json.dumps({**row, "objective_index": 2.0}),
         "bad.jsonl:3: objective_index: expected an integer, got 2.0"),
        # a refined point without its forward value has nothing to score by
        (lambda row: json.dumps({**row, "refined_z": row["x"]}),
         "bad.jsonl:3: refined_z and f_refined must be both null or both present"),
        (lambda row: json.dumps({**row, "f_refined": row["fx"]}),
         "bad.jsonl:3: refined_z and f_refined must be both null or both present"),
        # a non-finite point would score -inf and be dropped without a word
        (lambda row: json.dumps({**row, "x": [float("nan"), *row["x"][1:]]}),
         "bad.jsonl:3: x is not finite"),
        (lambda row: json.dumps({**row, "refined_z": [float("inf"), *row["x"][1:]],
                                 "f_refined": row["fx"]}),
         "bad.jsonl:3: refined_z is not finite"),
        # a point of another dimension fails on reading, naming its line
        (lambda row: json.dumps({**row, "x": row["x"][:1]}),
         r"bad.jsonl:3: x has shape \(1,\), expected \(20,\)"),
        (lambda row: json.dumps({**row, "refined_z": row["x"][:1], "f_refined": row["fx"]}),
         r"bad.jsonl:3: refined_z has shape \(1,\), expected \(20,\)"),
    ], ids=["not-json", "not-an-object", "empty-object", "missing-fx",
            "string-x", "object-x", "null-iteration", "float-emb-index", "bool-iteration",
            "float-objective-index", "integral-float-objective-index",
            "refined-z-without-f-refined", "f-refined-without-refined-z",
            "non-finite-x", "non-finite-refined-z", "short-x", "short-refined-z"])
    def test_read_names_the_line_of_a_malformed_record(self, uniform_run, tmp_path,
                                                       edit, message):
        rows = [json.dumps(rec, default=jsonable) for rec in uniform_run[3].records[:5]]
        rows[2] = edit(json.loads(rows[2]))
        path = tmp_path / "bad.jsonl"
        path.write_text("".join(row + "\n" for row in rows))
        with pytest.raises(ValueError, match=message):
            read_trace(path, uniform_run[0])

    @pytest.mark.parametrize("pair", [dict(refined_z=np.zeros(2)),
                                      dict(f_refined=np.zeros(3))],
                             ids=["refined-z-only", "f-refined-only"])
    def test_record_with_one_side_of_the_refined_pair_raises(self, pair):
        fields = dict(emb_index=0, y=None, x=np.zeros(2), fx=np.zeros(3), refined_z=None,
                      f_refined=None, iteration=1, objective_index=1)
        with pytest.raises(ValueError, match="refined_z and f_refined must be both"):
            SimulationRecord(**{**fields, **pair})


class TestGaussianPath:
    def test_every_record_is_refined(self, gaussian_run):
        _, _, _, res = gaussian_run
        assert all(r.refined_z is not None and r.f_refined is not None
                   for r in res.records)

    def test_proximal_step_never_decreases_prior(self, gaussian_run):
        prob, insts, _, res = gaussian_run
        for rec in res.records:
            mean_n = insts[rec.objective_index - 1].prior_mean_n
            lp = lambda x: -0.5 * (x - mean_n) @ np.linalg.solve(prob.prior.cov, x - mean_n)
            assert lp(rec.refined_z) >= lp(rec.x) - 1e-10

    def test_selection_uses_refined_candidates(self, gaussian_run):
        prob, insts, _, res = gaussian_run
        for i, inst in enumerate(insts):
            vals = [objective(inst, r.refined_z, prob, fx=r.f_refined) for r in res.records]
            assert res.values[i] == pytest.approx(max(vals), abs=1e-12)
            best = int(np.argmax(vals))
            assert np.allclose(res.maximizers[i], res.records[best].refined_z)


class TestDataSharing:
    def test_training_set_grows_with_every_prior_record(self, monkeypatch):
        sizes = []
        real_fit = gp.fit
        real_fit_with = gp.fit_with_params

        def spy_fit(inputs, targets, rng, **kwargs):
            sizes.append(np.atleast_2d(inputs).shape[0])
            return real_fit(inputs, targets, rng, **kwargs)

        def spy_fit_with(inputs, targets, params):
            sizes.append(np.atleast_2d(inputs).shape[0])
            return real_fit_with(inputs, targets, params)

        monkeypatch.setattr("rmlbo.hdbo.gp.fit", spy_fit)
        monkeypatch.setattr("rmlbo.hdbo.gp.fit_with_params", spy_fit_with)
        prob = bowl_problem()
        insts = drawn(prob, 5)
        cfg = HDBOConfig(n_rml=5, budget_N=36, K=2, d_e=2, n0=3, seed=1)
        run_hdbo_rml(prob, insts, cfg)
        slots = hdbo.embedding_slots(cfg, prob)
        expected = [m - 1 for _ in range(cfg.K) for m in range(cfg.n0 + 1, slots + 1)]
        assert sizes == expected

    def test_refit_searches_once_the_training_set_has_grown_by_a_sixth(self, monkeypatch):
        # a slot searches hyperparameters when its n training points satisfy
        # 6 n >= 7 n_s, n_s the size at the latest search (0 before the
        # first), and refactors at the searched hyperparameters otherwise;
        # no target overflows here, so the slot index is the spied training
        # size plus one
        full_slots, factor_slots = [], []
        real_fit = gp.fit
        real_fit_with = gp.fit_with_params

        def spy_fit(inputs, targets, rng, **kwargs):
            full_slots.append(np.atleast_2d(inputs).shape[0] + 1)
            return real_fit(inputs, targets, rng, **kwargs)

        def spy_fit_with(inputs, targets, params):
            factor_slots.append(np.atleast_2d(inputs).shape[0] + 1)
            return real_fit_with(inputs, targets, params)

        monkeypatch.setattr("rmlbo.hdbo.gp.fit", spy_fit)
        monkeypatch.setattr("rmlbo.hdbo.gp.fit_with_params", spy_fit_with)
        prob = bowl_problem(D=8, d=2)
        insts = drawn(prob, 2)
        cfg = HDBOConfig(n_rml=2, budget_N=40, K=1, d_e=2, n0=3, seed=0)
        run_hdbo_rml(prob, insts, cfg)
        assert full_slots == [4, 5, 6, 7, 8, 10, 12, 14, 17, 20, 24, 28, 33, 39]
        assert factor_slots == sorted(set(range(4, 41)) - set(full_slots))

    def test_hyperparameters_chain_through_full_fits_within_an_embedding(self, monkeypatch):
        # the first full fit of each embedding is cold, each later full fit
        # starts from the previous full fit's hyperparameters, and every
        # factor-only fit reuses the latest full fit's, so no hyperparameters
        # carry over from one embedding to the next
        calls = []   # (kind, the params passed in, the params fitted)
        real_fit = gp.fit
        real_fit_with = gp.fit_with_params

        def spy_fit(inputs, targets, rng, init=None):
            model = real_fit(inputs, targets, rng, init=init)
            calls.append(("full", init, model.params))
            return model

        def spy_fit_with(inputs, targets, params):
            calls.append(("factor", params, params))
            return real_fit_with(inputs, targets, params)

        monkeypatch.setattr("rmlbo.hdbo.gp.fit", spy_fit)
        monkeypatch.setattr("rmlbo.hdbo.gp.fit_with_params", spy_fit_with)
        prob = bowl_problem(D=8, d=2)
        insts = drawn(prob, 2)
        cfg = HDBOConfig(n_rml=2, budget_N=80, K=2, d_e=2, n0=3, seed=0)
        run_hdbo_rml(prob, insts, cfg)
        per_embedding = hdbo.embedding_slots(cfg, prob) - cfg.n0
        assert len(calls) == cfg.K * per_embedding
        for k in range(cfg.K):
            own = calls[k * per_embedding:(k + 1) * per_embedding]
            kinds = [kind for kind, _, _ in own]
            assert kinds[0] == "full" and kinds.count("full") == 14
            assert kinds.count("factor") == per_embedding - 14
            latest = None
            for kind, given, fitted in own:
                assert given is latest
                latest = fitted

    @pytest.mark.parametrize("prior", ["uniform", "gaussian"])
    def test_each_target_computed_once_per_record_and_objective(self, monkeypatch, prior):
        # with either prior, gp_target scores every (record, objective) pair
        # of the run exactly once, K * slots * n_rml calls in all, and every
        # fit still trains on the targets of all earlier records of its
        # embedding, bit for bit
        pairs, fitted = [], []
        real_target = hdbo.gp_target
        real_fit = gp.fit
        real_fit_with = gp.fit_with_params

        def spy_target(inst, rec, problem):
            pairs.append((id(rec), inst.index))
            return real_target(inst, rec, problem)

        def spy_fit(inputs, targets, rng, **kwargs):
            fitted.append(np.array(targets))
            return real_fit(inputs, targets, rng, **kwargs)

        def spy_fit_with(inputs, targets, params):
            fitted.append(np.array(targets))
            return real_fit_with(inputs, targets, params)

        monkeypatch.setattr("rmlbo.hdbo.gp_target", spy_target)
        monkeypatch.setattr("rmlbo.hdbo.gp.fit", spy_fit)
        monkeypatch.setattr("rmlbo.hdbo.gp.fit_with_params", spy_fit_with)
        prob = bowl_problem(prior=prior)
        insts = drawn(prob, 3)
        cfg = HDBOConfig(n_rml=3, budget_N=80, K=2, d_e=2, n0=3, seed=2)
        res = run_hdbo_rml(prob, insts, cfg)

        expected = []
        for k in range(1, cfg.K + 1):
            own = [rec for rec in res.records if rec.emb_index == k]
            for rec in own[cfg.n0:]:
                inst = insts[rec.objective_index - 1]
                earlier = own[:rec.iteration - 1]
                zs = [real_target(inst, r, prob) for r in earlier]
                expected.append(np.array([z for z in zs if np.isfinite(z)]))
        slots = hdbo.embedding_slots(cfg, prob)
        assert len(pairs) == cfg.K * slots * cfg.n_rml
        assert set(pairs) == {(id(r), inst.index) for r in res.records for inst in insts}
        assert len(fitted) == len(expected)
        for got, want in zip(fitted, expected):
            assert got.tobytes() == want.tobytes()

    def test_records_whose_target_overflows_are_left_out_of_the_fit(self, monkeypatch):
        # a finite forward value of 1e200 overflows the likelihood to -inf;
        # such a record stays in the trace but out of that objective's fits,
        # and every fit still trains on all other earlier records of its
        # embedding, inputs and targets bit for bit
        fitted = []
        real_fit = gp.fit
        real_fit_with = gp.fit_with_params

        def spy_fit(inputs, targets, rng, **kwargs):
            fitted.append((np.array(inputs), np.array(targets)))
            return real_fit(inputs, targets, rng, **kwargs)

        def spy_fit_with(inputs, targets, params):
            fitted.append((np.array(inputs), np.array(targets)))
            return real_fit_with(inputs, targets, params)

        monkeypatch.setattr("rmlbo.hdbo.gp.fit", spy_fit)
        monkeypatch.setattr("rmlbo.hdbo.gp.fit_with_params", spy_fit_with)
        prob = bench.make_problem("quadratic-bowl", D=10, d=2, seed=0)
        inner = prob.simulator._fn
        prob.simulator._fn = lambda x: np.full(3, 1e200) if x[0] > 0.3 else inner(x)
        insts = drawn(prob, 2)
        cfg = HDBOConfig(n_rml=2, budget_N=40, K=2, d_e=2, n0=3, seed=0)
        with pytest.warns(RuntimeWarning, match="overflow encountered in dot"):
            res = run_hdbo_rml(prob, insts, cfg)
            expected, dropped = [], 0
            for k in range(1, cfg.K + 1):
                own = [rec for rec in res.records if rec.emb_index == k]
                for rec in own[cfg.n0:]:
                    inst = insts[rec.objective_index - 1]
                    earlier = own[:rec.iteration - 1]
                    zs = [hdbo.gp_target(inst, r, prob) for r in earlier]
                    keep = [i for i, z in enumerate(zs) if np.isfinite(z)]
                    dropped += len(earlier) - len(keep)
                    expected.append((np.array([earlier[i].y for i in keep]),
                                     np.array([zs[i] for i in keep])))
        # the simulator answers 1e200 exactly where the lifted point has x[0] > 0.3
        overflowing = sum(bool(rec.x[0] > 0.3) for rec in res.records)
        assert overflowing > 0
        assert sum(bool(rec.fx[0] == 1e200) for rec in res.records) == overflowing
        assert dropped > 0
        assert len(fitted) == len(expected)
        for (got_y, got_z), (want_y, want_z) in zip(fitted, expected):
            assert got_y.tobytes() == want_y.tobytes()
            assert got_z.tobytes() == want_z.tobytes()

    def test_refit_rule_counts_finite_training_points_not_slots(self, monkeypatch):
        # with targets that overflow, a slot's training set is smaller than
        # its slot index says and differs between objectives; the rule
        # compares the finite counts: a factor-only fit has 6 n < 7 n_s, and
        # every search after an embedding's first has 6 n >= 7 n_s, where n_s
        # is the size at that embedding's latest search
        fits = []   # (kind, training size), embedding after embedding
        real_fit = gp.fit
        real_fit_with = gp.fit_with_params

        def spy_fit(inputs, targets, rng, **kwargs):
            fits.append(("full", np.asarray(targets).size))
            return real_fit(inputs, targets, rng, **kwargs)

        def spy_fit_with(inputs, targets, params):
            fits.append(("factor", np.asarray(targets).size))
            return real_fit_with(inputs, targets, params)

        monkeypatch.setattr("rmlbo.hdbo.gp.fit", spy_fit)
        monkeypatch.setattr("rmlbo.hdbo.gp.fit_with_params", spy_fit_with)
        prob = bench.make_problem("quadratic-bowl", D=10, d=2, seed=0)
        inner = prob.simulator._fn
        prob.simulator._fn = lambda x: np.full(3, 1e200) if x[0] > 0.3 else inner(x)
        insts = drawn(prob, 2)
        cfg = HDBOConfig(n_rml=2, budget_N=40, K=2, d_e=2, n0=3, seed=0)
        with pytest.warns(RuntimeWarning, match="overflow encountered in dot"):
            run_hdbo_rml(prob, insts, cfg)
        per_embedding = hdbo.embedding_slots(cfg, prob) - cfg.n0
        assert len(fits) == cfg.K * per_embedding
        seen = {"full": 0, "factor": 0, "short": 0}
        for k in range(cfg.K):
            own = fits[k * per_embedding:(k + 1) * per_embedding]
            assert own[0][0] == "full"
            searched_at = own[0][1]
            for slot, (kind, n) in enumerate(own[1:], start=cfg.n0 + 2):
                if kind == "full":
                    assert 6 * n >= 7 * searched_at
                    searched_at = n
                else:
                    assert 6 * n < 7 * searched_at
                seen[kind] += 1
                seen["short"] += n < slot - 1
        # both kinds follow the first search, and overflowing records were left out
        assert seen["full"] > 0 and seen["factor"] > 0 and seen["short"] > 0

    def test_slot_without_a_finite_target_takes_the_next_initial_draw(self, monkeypatch):
        # while every earlier record of its embedding overflows the active
        # objective's likelihood, a slot has nothing to fit: it takes the
        # next uniform draw of the embedding's initial-point stream and fits
        # nothing, so the embedding's first fit is still its cold search and
        # the run still spends its whole budget
        fits = []   # (kind, init), embedding after embedding
        real_fit = gp.fit
        real_fit_with = gp.fit_with_params

        def spy_fit(inputs, targets, rng, init=None):
            fits.append(("full", init))
            return real_fit(inputs, targets, rng, init=init)

        def spy_fit_with(inputs, targets, params):
            fits.append(("factor", params))
            return real_fit_with(inputs, targets, params)

        monkeypatch.setattr("rmlbo.hdbo.gp.fit", spy_fit)
        monkeypatch.setattr("rmlbo.hdbo.gp.fit_with_params", spy_fit_with)
        prob = bench.make_problem("quadratic-bowl", D=10, d=2, seed=0)
        inner = prob.simulator._fn
        prob.simulator._fn = lambda x: np.full(3, 1e200) if x[0] > -0.5 else inner(x)
        insts = drawn(prob, 2)
        cfg = HDBOConfig(n_rml=2, budget_N=40, K=2, d_e=2, n0=3, seed=0)
        with pytest.warns(RuntimeWarning):
            res = run_hdbo_rml(prob, insts, cfg)
            drawn_slots, gp_slots = 0, []
            for k, emb in enumerate(res.embeddings):
                init = labeled_stream(cfg.seed, STREAM_INIT, k)
                init.uniform(emb.y_lower, emb.y_upper, (cfg.n0, cfg.d_e))
                own = [rec for rec in res.records if rec.emb_index == emb.index]
                gp_slots.append(0)
                for rec in own[cfg.n0:]:
                    inst = insts[rec.objective_index - 1]
                    earlier = own[:rec.iteration - 1]
                    if any(np.isfinite(hdbo.gp_target(inst, r, prob)) for r in earlier):
                        gp_slots[-1] += 1
                    else:
                        want = init.uniform(emb.y_lower, emb.y_upper)
                        assert rec.y.tobytes() == want.tobytes()
                        drawn_slots += 1
        assert res.n_evals == prob.simulator.eval_counter == 40
        assert drawn_slots > 0
        assert len(fits) == sum(gp_slots)
        start = 0
        for count in gp_slots:
            assert count > 0
            assert fits[start] == ("full", None)
            start += count

    @pytest.mark.parametrize("overflow", [False, True], ids=["bowl", "overflowing-bowl"])
    def test_box_run_selects_from_the_table_select_maximizers_scores(self, overflow):
        # a box-prior run selects from its likelihood table; scoring each
        # (record, objective) pair of its trace through the objective gives
        # the same table, bit for bit, including the -inf entries of forward
        # values that overflow, and the same first maxima
        if overflow:
            prob = bench.make_problem("quadratic-bowl", D=10, d=2, seed=0)
            inner = prob.simulator._fn
            prob.simulator._fn = lambda x: np.full(3, 1e200) if x[0] > 0.3 else inner(x)
        else:
            prob = bowl_problem()
        insts = drawn(prob, 3)
        cfg = HDBOConfig(n_rml=3, budget_N=40, K=2, d_e=2, n0=3, seed=0)
        with pytest.warns(RuntimeWarning, match="overflow") if overflow else nullcontext():
            res = run_hdbo_rml(prob, insts, cfg)
            want = np.array([[objective(inst, rec.x, prob, fx=rec.fx) for inst in insts]
                             for rec in res.records])
        want[np.isnan(want)] = -np.inf
        best = np.argmax(want, axis=0)
        assert np.isneginf(res.candidate_values).any() == overflow
        assert res.candidate_values.tobytes() == want.tobytes()
        assert res.values.tobytes() == want.max(axis=0).tobytes()
        assert res.maximizers.tobytes() == \
            np.array([res.records[r].x for r in best]).tobytes()
        assert res.n_evals == cfg.budget_N

    @pytest.mark.parametrize("prior", ["uniform", "gaussian"])
    def test_only_gaussian_selection_scores_the_objective(self, monkeypatch, prior):
        # a box run selects from the likelihood table alone; a Gaussian run
        # scores every record's refined point in one call per objective
        calls = []
        real_objective = hdbo.objective

        def spy_objective(inst, x, problem, fx):
            calls.append((inst.index, x.copy(), fx.copy()))
            return real_objective(inst, x, problem, fx=fx)

        monkeypatch.setattr("rmlbo.hdbo.objective", spy_objective)
        prob = bowl_problem(prior=prior)
        insts = drawn(prob, 3)
        cfg = HDBOConfig(n_rml=3, budget_N=48, K=2, d_e=2, n0=3, seed=5)
        res = run_hdbo_rml(prob, insts, cfg)
        if prior == "uniform":
            assert calls == []
            return
        assert [index for index, _, _ in calls] == [inst.index for inst in insts]
        refined = np.array([rec.refined_z for rec in res.records])
        f_refined = np.array([rec.f_refined for rec in res.records])
        for _, x, fx in calls:
            assert x.shape == refined.shape and fx.shape == f_refined.shape
            assert x.tobytes() == refined.tobytes()
            assert fx.tobytes() == f_refined.tobytes()

    def test_best_so_far_values_non_decreasing(self):
        prob = bowl_problem()
        insts = drawn(prob, 3)
        cfg = HDBOConfig(n_rml=3, budget_N=45, K=3, d_e=2, n0=2, seed=6)
        res = run_hdbo_rml(prob, insts, cfg)
        for inst in insts:
            best = -np.inf
            series = []
            for rec in res.records:
                cand_x, cand_f = rec.candidate()
                best = max(best, objective(inst, cand_x, prob, fx=cand_f))
                series.append(best)
            assert all(b >= a for a, b in zip(series, series[1:]))


class TestSelectMaximizers:
    def test_tie_breaks_toward_earliest_record(self):
        # distinct points sharing one forward value score equally under a
        # box prior, so only the tie rule decides which point is selected
        prob = bowl_problem(D=6, d=2)
        insts = drawn(prob, 2)
        fx = prob.simulator(np.zeros(6))
        recs = [SimulationRecord(-1, None, np.full(6, 0.1 * i), fx.copy(), None, None,
                                 i + 1, 1)
                for i in range(3)]
        result = select_maximizers(recs, insts, prob)
        assert np.all(result.candidate_values == result.candidate_values[0])
        assert np.array_equal(result.maximizers, np.stack([recs[0].x, recs[0].x]))

    def test_nan_value_never_wins(self):
        # a non-finite simulator output scores NaN; selection and the
        # best-so-far curve both pass over it
        prob = bowl_problem(D=6, d=2)
        insts = drawn(prob, 2)
        x = np.full(6, 0.05)
        fx = prob.simulator(x)
        nan_fx = np.full_like(fx, np.nan)
        recs = [SimulationRecord(-1, None, np.zeros(6), nan_fx, None, None, 1, 1),
                SimulationRecord(-1, None, x, fx, None, None, 2, 2),
                SimulationRecord(-1, None, np.full(6, -0.05), nan_fx, None, None, 3, 1)]
        result = select_maximizers(recs, insts, prob)
        assert np.array_equal(result.maximizers, np.stack([x, x]))
        assert list(result.values) == [objective(inst, x, prob, fx=fx) for inst in insts]
        budgets, curve = bench.best_so_far_curve(result, [1, 2, 3])
        assert budgets == [1, 2, 3]
        assert curve == [np.inf, -float(np.mean(result.values)),
                         -float(np.mean(result.values))]

    @pytest.mark.parametrize("short", [[1], [0, 1]], ids=["one-instance", "every-instance"])
    def test_data_of_the_wrong_length_names_the_likelihood(self, short):
        # a box-prior record's likelihood terms are one call on the stacked
        # data; a data vector of the wrong length names the likelihood's
        # covariance instead of failing to stack
        prob = bowl_problem(D=6, d=2)
        insts = drawn(prob, 2)
        m = prob.output_dim
        for i in short:
            insts[i] = RMLInstance(index=i + 1, data_n=insts[i].data_n[:-1])
        x = np.full(6, 0.05)
        recs = [SimulationRecord(-1, None, x, prob.simulator(x), None, None, 1, 1)]
        with pytest.raises(ValueError, match=rf"^point of shape \({m - 1},\) against "
                                             rf"obs_cov of dimension {m}$"):
            select_maximizers(recs, insts, prob)

    def test_empty_trace_rejected(self):
        prob = bowl_problem(D=6, d=2)
        with pytest.raises(ValueError, match="empty trace"):
            select_maximizers([], drawn(prob, 1), prob)


class TestReductionToSingleObjectiveBO:
    def test_finds_grid_optimum_on_1d_ridge(self):
        # n_rml=1, K=1: plain embedded BO; value within 0.1 of a
        # 20001-point grid maximum over the reachable active coordinate
        # in at least 4 of 5 seeds (N=60, D=20)
        wins = 0
        for seed in range(5):
            prob = bench.make_problem("quadratic-bowl", D=20, d=1, seed=seed,
                                      noise_sd=0.5)
            insts = draw_randomizations(prob, 1, labeled_stream(seed, STREAM_RANDOMIZE))
            cfg = HDBOConfig(n_rml=1, budget_N=60, K=1, d_e=2, n0=5, seed=seed)
            res = run_hdbo_rml(prob, insts, cfg)
            a = prob.simulator.active_matrix[:, 0]
            reach = float(np.sum(np.abs(a)))
            grid = np.linspace(-reach, reach, 20001)
            inst = insts[0]
            const = -np.log(2 * np.pi) - 2 * np.log(0.5)
            vals = [-0.5 * np.sum((inst.data_n - np.array([u, u * u])) ** 2) / 0.25 + const
                    for u in grid]
            if float(np.max(vals)) - float(res.values[0]) <= 0.1:
                wins += 1
        assert wins >= 4


class TestAbort:
    def test_simulator_failure_preserves_partial_trace(self, fail_after):
        prob = fail_after(bench.make_problem("quadratic-bowl", D=10, d=2, seed=0), 17)
        insts = drawn(prob, 2)
        cfg = HDBOConfig(n_rml=2, budget_N=40, K=2, d_e=2, n0=3, seed=0)
        with pytest.raises(RunAborted) as err:
            run_hdbo_rml(prob, insts, cfg)
        assert len(err.value.records) == 17

    def test_non_finite_simulator_output_aborts_the_run(self):
        prob = bench.make_problem("quadratic-bowl", D=10, d=2, seed=0)
        inner = prob.simulator._fn
        calls = {"n": 0}

        def nan_after_12(x):
            calls["n"] += 1
            out = inner(x)
            return out * np.nan if calls["n"] > 12 else out

        prob.simulator._fn = nan_after_12
        insts = drawn(prob, 2)
        cfg = HDBOConfig(n_rml=2, budget_N=40, K=2, d_e=2, n0=3, seed=0)
        with pytest.raises(RunAborted, match="non-finite") as err:
            run_hdbo_rml(prob, insts, cfg)
        assert len(err.value.records) == 12
        assert all(np.isfinite(rec.fx).all() for rec in err.value.records)
        assert prob.simulator.eval_counter == 12
