import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmlbo.embeddings import Embedding, lift, sample_embedding
from rmlbo.hdbo import jsonable
from rmlbo.problems import BoxPrior, GaussianSpec


class TestSampleEmbedding:
    def test_zero_sphere_is_sign(self):
        seen = set()
        for seed in range(20):
            emb = sample_embedding(1, 1, np.random.default_rng(seed))
            seen.add(float(emb.matrix[0, 0]))
        assert seen <= {1.0, -1.0}
        assert len(seen) == 2

    def test_unit_row_norms(self):
        emb = sample_embedding(100, 3, np.random.default_rng(0))
        norms = np.linalg.norm(emb.matrix, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-12

    def test_isotropy_of_rows(self):
        # coordinate means of 1e5 hypersphere draws: 3 standard errors
        # with 10% slack
        n, d = 100_000, 3
        emb = sample_embedding(n, d, np.random.default_rng(42))
        means = emb.matrix.mean(axis=0)
        tol = 3.0 * (1.0 / np.sqrt(d * n)) * 1.1
        assert np.all(np.abs(means) <= tol)

    def test_default_domain_is_symmetric_sqrt_de(self):
        emb = sample_embedding(10, 4, np.random.default_rng(1))
        assert np.allclose(emb.y_upper, 2.0)
        assert np.allclose(emb.y_lower, -emb.y_upper)

    def test_deterministic_per_seed(self):
        a = sample_embedding(20, 2, np.random.default_rng(7))
        b = sample_embedding(20, 2, np.random.default_rng(7))
        assert a.matrix.tobytes() == b.matrix.tobytes()

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            sample_embedding(3, 4, np.random.default_rng(0))


class TestLift:
    def test_origin_maps_to_origin_then_clips(self):
        emb = sample_embedding(4, 2, np.random.default_rng(3))
        box = BoxPrior([0.5] * 4, [1.0] * 4)  # origin outside the box
        x = lift(emb, np.zeros(2), box)
        assert np.allclose(x, 0.5)

    def test_axis_embedding(self):
        emb = Embedding(matrix=np.array([[1.0], [0.0]]), index=1,
                        y_lower=np.array([-1.0]), y_upper=np.array([1.0]))
        box = BoxPrior([-1.0, -1.0], [1.0, 1.0])
        assert np.allclose(lift(emb, np.array([0.5]), box), [0.5, 0.0])

    def test_sup_norm_operator_bound(self):
        # |(R y)_i| <= ||r_i|| * sqrt(d_e) * max|y_j| over 1000 draws
        rng = np.random.default_rng(5)
        emb = sample_embedding(50, 3, rng)
        for _ in range(1000):
            y = rng.uniform(emb.y_lower, emb.y_upper)
            lhs = np.max(np.abs(emb.matrix @ y))
            assert lhs <= np.sqrt(3) * np.max(np.abs(y)) + 1e-12

    def test_linearity_before_clipping(self):
        rng = np.random.default_rng(8)
        emb = sample_embedding(30, 3, rng)
        prior = GaussianSpec(np.zeros(30), np.eye(30))  # no clipping path
        y1 = rng.uniform(-0.5, 0.5, 3)
        y2 = rng.uniform(-0.5, 0.5, 3)
        lhs = lift(emb, y1 + y2, prior)
        rhs = lift(emb, y1, prior) + lift(emb, y2, prior)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_clipped_output_is_always_feasible(self, seed):
        rng = np.random.default_rng(seed)
        emb = sample_embedding(25, 2, rng)
        box = BoxPrior(-0.1 * np.ones(25), 0.1 * np.ones(25))
        y = rng.uniform(emb.y_lower, emb.y_upper)
        assert box.logpdf(lift(emb, y, box)) == 0.0

    def test_contains_faces_one_ulp_outside_and_nan(self):
        # the domain test, through lift: R = I and a Gaussian prior, so a y
        # that lifts comes back unchanged
        emb = Embedding(matrix=np.eye(3), index=1, y_lower=np.array([-1.5, 0.0, -2.0]),
                        y_upper=np.array([1.5, 0.25, 3.0]))
        prior = GaussianSpec(np.zeros(3), np.eye(3))

        def lifts(y):
            return np.array_equal(lift(emb, y, prior), y)

        def reject(y):
            with pytest.raises(ValueError, match="outside the embedding domain"):
                lift(emb, y, prior)

        inside = np.array([0.1, 0.2, -1.0])
        assert lifts(inside)
        assert lifts(emb.y_lower) and lifts(emb.y_upper)
        for j in range(3):
            for bound, away in ((emb.y_lower, -np.inf), (emb.y_upper, np.inf)):
                y = inside.copy()
                y[j] = bound[j]                      # on a face: inside
                assert lifts(y)
                y[j] = np.nextafter(bound[j], away)  # one ulp outside
                reject(y)
            y = inside.copy()
            y[j] = np.nan
            reject(y)
        reject(np.full(3, np.nan))
        assert lifts(np.array([-0.0, -0.0, 0.0]))

    def test_out_of_domain_message_prints_the_box_bounds(self):
        emb = Embedding(matrix=np.eye(3), index=1, y_lower=np.array([-1.5, 0.0, -2.0]),
                        y_upper=np.array([1.5, 0.25, 3.0]))
        prior = GaussianSpec(np.zeros(3), np.eye(3))
        with pytest.raises(ValueError) as err:
            lift(emb, np.array([0.1, 0.5, -1.0]), prior)
        assert str(err.value) == ("y [0.1, 0.5, -1.0] is outside the embedding domain: "
                                  "lower [-1.5, 0.0, -2.0], upper [1.5, 0.25, 3.0]")

    def test_out_of_domain_is_hard_error(self):
        emb = sample_embedding(5, 2, np.random.default_rng(2))
        box = BoxPrior(-np.ones(5), np.ones(5))
        with pytest.raises(ValueError, match="outside the embedding domain"):
            lift(emb, emb.y_upper + 1.0, box)

    def test_gaussian_prior_not_clipped(self):
        rng = np.random.default_rng(9)
        emb = sample_embedding(10, 2, rng)
        prior = GaussianSpec(np.zeros(10), np.eye(10))
        y = emb.y_upper.copy()
        assert np.allclose(lift(emb, y, prior), emb.matrix @ y)

    def test_domain_is_one_box_over_the_y_bounds(self):
        # built once and kept; not a field, so the JSON form keeps its keys
        emb = sample_embedding(6, 2, np.random.default_rng(4), index=3)
        domain = emb.domain
        assert isinstance(domain, BoxPrior) and emb.domain is domain
        assert domain.lower is emb.y_lower and domain.upper is emb.y_upper
        assert list(jsonable(emb)) == ["index", "matrix", "y_lower", "y_upper"]

    def test_round_trip_serialization(self):
        # the jsonable form is the report's embeddings format: it survives
        # JSON and holds the object's fields exactly
        emb = sample_embedding(6, 2, np.random.default_rng(4), index=3)
        back = json.loads(json.dumps(emb, default=jsonable))
        assert back["index"] == 3
        for name in ("matrix", "y_lower", "y_upper"):
            assert np.asarray(back[name]).tobytes() == getattr(emb, name).tobytes()
