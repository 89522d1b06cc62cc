"""Domains, error models, and declared-constant validation."""

import dataclasses

import numpy as np
import pytest

from ompd import (Domain, ErrorModel, ball, box, lasso_stream, simplex,
                  validate_constants, whole_space, zero_error_model)
from ompd.losses import GRAD_ERROR_TAG, PROX_ERROR_TAG


def _power_iteration_lambda_max(matvec, dim, iters=5000, seed=0):
    """Independent largest-eigenvalue oracle for a PSD operator."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=dim)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        w = matvec(v)
        lam = float(np.dot(v, w))
        nrm = np.linalg.norm(w)
        if nrm == 0.0:
            return 0.0
        v = w / nrm
    return lam


class TestDomains:
    def test_projection_idempotent(self):
        rng = np.random.default_rng(0)
        domains = [whole_space(), ball(4.0), box(-1.0, 2.0, dim=5),
                   simplex(5)]
        for dom in domains:
            for _ in range(100):
                x = rng.normal(scale=3.0, size=5)
                p = dom.project(x)
                np.testing.assert_allclose(dom.project(p), p, atol=1e-14)

    def test_projection_nonexpansive_sampled(self):
        rng = np.random.default_rng(1)
        domains = [ball(4.0), box(-1.0, 2.0, dim=5), simplex(5)]
        for dom in domains:
            for _ in range(300):
                x, y = rng.normal(scale=3.0, size=(2, 5))
                lhs = np.linalg.norm(dom.project(x) - dom.project(y))
                assert lhs <= np.linalg.norm(x - y) + 1e-12

    def test_bounded_pairs_within_diameter(self):
        rng = np.random.default_rng(2)
        domains = [ball(4.0), box(-1.0, 2.0, dim=5), simplex(5)]
        for dom in domains:
            for _ in range(300):
                x, y = rng.normal(scale=5.0, size=(2, 5))
                gap = np.linalg.norm(dom.project(x) - dom.project(y))
                assert gap <= dom.diameter + 1e-12

    def test_simplex_projection_optimality(self):
        """The projection beats every sampled feasible point in distance."""
        rng = np.random.default_rng(3)
        dom = simplex(4)
        for _ in range(50):
            v = rng.normal(scale=2.0, size=4)
            p = dom.project(v)
            assert abs(np.sum(p) - 1.0) <= 1e-12 and np.all(p >= 0)
            for _ in range(50):
                w = rng.dirichlet(np.ones(4))
                assert (np.linalg.norm(v - p)
                        <= np.linalg.norm(v - w) + 1e-12)

    def test_ball_diameter_is_twice_radius(self):
        dom = ball(6.0)
        far = dom.project(np.array([100.0, 0.0, 0.0]))
        assert abs(np.linalg.norm(far) - 3.0) <= 1e-12

    def test_box_requires_dim_for_scalars(self):
        with pytest.raises(ValueError):
            box(-1.0, 1.0)

    @pytest.mark.parametrize("diameter", [np.nan, np.inf])
    def test_ball_refuses_a_nonfinite_diameter(self, diameter):
        """A NaN ball projects to NaN; an infinite one has an infinite
        bounded-regime RHS."""
        with pytest.raises(ValueError, match="diameter"):
            ball(diameter)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("lo, hi, message", [
        (0.0, np.nan, "bound hi "), (0.0, np.inf, "bound hi "),
        (-np.inf, 0.0, "bound lo "), ([0.0, np.nan], [1.0, 1.0], "bound lo "),
        (-1e308, 1e308, "diameter")])
    def test_box_refuses_nonfinite_bounds(self, lo, hi, message):
        """Finite bounds can still span an infinite diameter, and so an
        infinite bounded-regime RHS."""
        with pytest.raises(ValueError, match=message):
            box(lo, hi, dim=2)

    def test_nonnegative_follows_the_bounds(self):
        """``Domain.nonnegative`` is derived from ``bounds``: it cannot be
        passed in, and a replaced ``bounds`` recomputes it."""
        dom = box(0.2, 1.0, dim=3)
        assert dom.nonnegative
        assert not box(-0.2, 1.0, dim=3).nonnegative
        assert not whole_space().nonnegative
        moved = dataclasses.replace(dom, bounds=(np.full(3, -0.5),
                                                 np.ones(3)))
        assert not moved.nonnegative
        with pytest.raises(TypeError):
            Domain(project=dom.project, diameter=dom.diameter,
                   nonnegative=True)

    def test_kind_follows_the_diameter(self):
        """``Domain.kind`` is derived from ``diameter``: it cannot be passed
        in, so a bounded domain always has a diameter, and a replaced
        ``diameter`` recomputes it."""
        dom = box(0.2, 1.0, dim=3)
        assert dom.kind == "bounded"
        assert whole_space().kind == "whole_space"
        assert Domain(project=dom.project).kind == "whole_space"
        assert dataclasses.replace(dom, diameter=None).kind == "whole_space"
        assert (dataclasses.replace(whole_space(), diameter=2.0).kind
                == "bounded")
        with pytest.raises(TypeError):
            Domain(kind="bounded", project=dom.project)

    def test_box_stores_a_negative_zero_bound_as_positive_zero(self):
        dom = box([-0.0, 0.5], [1.0, 1.0])
        lo, _ = dom.bounds
        assert dom.nonnegative and not np.signbit(lo).any()


class TestErrorModel:
    def test_sequences_bit_reproducible(self):
        m1 = ErrorModel(gradient_std=0.05, prox_std=0.05, seed=42)
        m2 = ErrorModel(gradient_std=0.05, prox_std=0.05, seed=42)
        for k in (1, 7, 500):
            np.testing.assert_array_equal(m1.gradient_error(k, 30),
                                          m2.gradient_error(k, 30))
            o1, e1 = m1.prox_error(k, 30)
            o2, e2 = m2.prox_error(k, 30)
            np.testing.assert_array_equal(o1, o2)
            assert e1 == e2

    def test_draws_independent_of_call_order(self):
        plain = ErrorModel(gradient_std=0.05, prox_std=0.05, seed=7)
        forward = [plain.gradient_error(k, 10) for k in range(1, 6)]
        backward = [plain.gradient_error(k, 10) for k in range(5, 0, -1)]
        for k in range(1, 6):
            np.testing.assert_array_equal(forward[k - 1], backward[5 - k])

    #: seed ^ tag spans one, two, three and four uint32 words
    @pytest.mark.parametrize("seed", [0, 42, 2**40 + 3, 2**64 + 1, 2**96 + 5])
    @pytest.mark.parametrize("eps_cap", [None, 0.02])
    def test_block_draws_equal_the_per_step_draws(self, seed, eps_cap):
        """A horizon drawn in one block is ``default_rng((seed ^ tag,
        k))``'s draw at every step, and equals the same steps drawn in
        windows of other sizes, one step at a time included."""
        model = ErrorModel(gradient_std=0.05, prox_std=0.05, eps_cap=eps_cap,
                           seed=seed)
        block = model.draws(0, 3000, 3)
        for got, want in zip(block, self._reference_draws(model, 0, 3000, 3)):
            assert got.tobytes() == want.tobytes()
        errors, offsets, radii = block
        cuts = (0, 1, 2, 9, 511, 512, 513, 1024, 1500, 2999, 3000)
        for lo, hi in zip(cuts, cuts[1:]):
            e, o, r = model.draws(lo, hi, 3)
            np.testing.assert_array_equal(errors[lo:hi], e)
            np.testing.assert_array_equal(offsets[lo:hi], o)
            np.testing.assert_array_equal(radii[lo:hi], r)
        for k in (1, 512, 513, 3000):
            np.testing.assert_array_equal(errors[k - 1],
                                          model.gradient_error(k, 3))
            o, e = model.prox_error(k, 3)
            np.testing.assert_array_equal(offsets[k - 1], o)
            assert radii[k - 1] == e

    @pytest.mark.parametrize("stds", [(0.0, 0.0), (0.05, 0.3)],
                             ids=["zero-stds", "nonzero-stds"])
    @pytest.mark.parametrize("seed, error", [
        (-1, ValueError), (-2**70, ValueError), (np.int64(-3), ValueError),
        (1.5, TypeError), (np.float64(2.0), TypeError), ("3", TypeError),
        (np.bool_(True), TypeError)],
        ids=["minus-1", "minus-2**70", "np-int64-minus-3", "1.5",
             "np-float64", "str", "np-bool"])
    def test_refuses_a_seed_that_is_not_a_nonnegative_integer(self, stds,
                                                              seed, error):
        """Refused at construction, whatever the stds, as numpy's
        SeedSequence refuses it: a zero-std model would otherwise play,
        and a nonzero-std one fail only at its first draw."""
        with pytest.raises(error):
            np.random.SeedSequence(seed)
        with pytest.raises(error, match="seed|integer"):
            ErrorModel(gradient_std=stds[0], prox_std=stds[1], seed=seed)

    @pytest.mark.parametrize("seed", [
        np.int64(42), np.int32(7), np.uint64(2**64 - 1), True, 0],
        ids=["np-int64", "np-int32", "np-uint64-max", "True", "0"])
    def test_integer_seeds_draw_as_their_int(self, seed):
        """A numpy integer (or bool) seed is stored as its int; the model
        equals the int-seeded one and draws its bits, which are numpy's
        per-step draws."""
        model = ErrorModel(gradient_std=0.05, prox_std=0.3, seed=seed)
        same = ErrorModel(gradient_std=0.05, prox_std=0.3, seed=int(seed))
        assert type(model.seed) is int and model.seed == int(seed)
        assert model == same and hash(model) == hash(same)
        got = model.draws(505, 520, 3)
        for g, s, w in zip(got, same.draws(505, 520, 3),
                           self._reference_draws(same, 505, 520, 3)):
            assert g.tobytes() == s.tobytes() == w.tobytes()

    def test_zero_model_draws_zeros(self):
        m = zero_error_model(seed=9)
        for rows in m.draws(0, 10, 4):
            assert rows.shape[0] == 10 and not rows.any()
        np.testing.assert_array_equal(m.gradient_error(3, 4), np.zeros(4))
        offset, eps = m.prox_error(3, 4)
        np.testing.assert_array_equal(offset, np.zeros(4))
        assert eps == 0.0

    @staticmethod
    def _reference_draws(model, lo, hi, dim):
        """Steps lo+1..hi drawn one at a time from ``default_rng``."""
        errors, offsets, radii = [], [], []
        for k in range(lo + 1, hi + 1):
            rng = np.random.default_rng((model.seed ^ GRAD_ERROR_TAG, k))
            errors.append(rng.normal(0.0, model.gradient_std, size=dim))
            rng = np.random.default_rng((model.seed ^ PROX_ERROR_TAG, k))
            radius = abs(rng.normal(0.0, model.prox_std))
            if model.eps_cap is not None:
                radius = min(radius, model.eps_cap)
            direction = rng.normal(size=dim)
            nrm = float(np.linalg.norm(direction))
            if nrm == 0.0 or radius == 0.0:
                offsets.append(np.zeros(dim))
                radii.append(0.0)
            else:
                offsets.append(direction * (radius / nrm))
                radii.append(float(radius))
        return np.array(errors), np.array(offsets), np.array(radii)

    @pytest.mark.parametrize("seed", [0, 42, 2**40 + 3, 2**64 + 1, 2**96 + 5])
    @pytest.mark.parametrize("stds", [(0.05, 0.3), (0.0, 0.3), (0.05, 0.0),
                                      (0.0, 0.0)])
    @pytest.mark.parametrize("eps_cap", [None, 0, 0.04])
    def test_draws_equal_default_rng_bit_for_bit(self, seed, stds,
                                                 eps_cap):
        """Windows that cross a 512-step edge or hold only step 1, at dims
        1, 3 and 30, equal the per-step reference bit for bit, signs of
        zero included; a zero std draws +0.0 rows."""
        model = ErrorModel(gradient_std=stds[0], prox_std=stds[1],
                           eps_cap=eps_cap, seed=seed)
        for (lo, hi), dim in (((0, 1), 3), ((500, 530), 3), ((1020, 1030), 1),
                              ((0, 40), 1), ((505, 545), 30)):
            got = model.draws(lo, hi, dim)
            want = self._reference_draws(model, lo, hi, dim)
            for g, w in zip(got, want):
                assert g.shape == w.shape
                assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("field", ["gradient_std", "prox_std"])
    @pytest.mark.parametrize("value", [-0.1, np.nan, np.inf])
    def test_refuses_a_std_that_is_negative_or_not_finite(self, field,
                                                          value):
        with pytest.raises(ValueError, match=field):
            ErrorModel(**{field: value})

    @pytest.mark.parametrize("eps_cap", [-1.0, np.nan])
    def test_refuses_an_eps_cap_that_is_negative_or_nan(self, eps_cap):
        """A negative cap would report a negative eps_k beside an offset
        of positive norm, and lower the ledger's P."""
        with pytest.raises(ValueError, match="eps_cap"):
            ErrorModel(prox_std=0.1, eps_cap=eps_cap, seed=1)

    def test_an_infinite_eps_cap_caps_nothing(self):
        capped = ErrorModel(prox_std=0.1, eps_cap=np.inf, seed=1)
        free = ErrorModel(prox_std=0.1, seed=1)
        for got, want in zip(capped.draws(0, 20, 3), free.draws(0, 20, 3)):
            np.testing.assert_array_equal(got, want)

    def test_offset_norm_matches_reported_bound(self):
        m = ErrorModel(prox_std=0.05, seed=3)
        for k in range(1, 500):
            offset, eps = m.prox_error(k, 12)
            np.testing.assert_allclose(np.linalg.norm(offset), eps, rtol=1e-12)

    def test_cap_is_hard_bound(self):
        m = ErrorModel(prox_std=10.0, eps_cap=0.05, seed=4)
        for k in range(1, 1000):
            offset, eps = m.prox_error(k, 8)
            assert np.linalg.norm(offset) <= 0.05 + 1e-15
            assert eps <= 0.05

    def test_zero_model(self):
        m = zero_error_model(seed=9)
        np.testing.assert_array_equal(m.gradient_error(3, 4), np.zeros(4))
        offset, eps = m.prox_error(3, 4)
        np.testing.assert_array_equal(offset, np.zeros(4))
        assert eps == 0.0


class TestNoisyGradient:
    def setup_method(self):
        rng = np.random.default_rng(5)
        self.A = rng.normal(size=(4, 6))
        self.b = rng.normal(size=4)
        self.step = lasso_stream(self.A[None], self.b[None], 0.1,
                                 whole_space()).step_at(1)

    def _noisy_gradient(self, model, k, x):
        """The exact gradient plus the model's step-k draw, as a run adds."""
        return (self.step.smooth_gradient(x)
                + model.gradient_error(k, self.step.dim))

    def test_zero_model_returns_exact_gradient(self):
        x = np.ones(6)
        np.testing.assert_array_equal(
            self._noisy_gradient(zero_error_model(), 1, x),
            self.step.smooth_gradient(x))

    def test_prox_only_model_leaves_gradient_unchanged(self):
        m = ErrorModel(gradient_std=0.0, prox_std=0.2, seed=1)
        x = np.ones(6)
        np.testing.assert_array_equal(
            self._noisy_gradient(m, 1, x), self.step.smooth_gradient(x))

    def test_replay_reproduces_the_same_noisy_gradient(self):
        m = ErrorModel(gradient_std=0.05, seed=11)
        x = np.ones(6)
        g1 = self._noisy_gradient(m, 1, x)
        g2 = self._noisy_gradient(m, 1, x)
        np.testing.assert_array_equal(g1, g2)
        fresh = ErrorModel(gradient_std=0.05, seed=11)
        np.testing.assert_array_equal(
            g1, self.step.smooth_gradient(x) + fresh.gradient_error(1, 6))


class TestValidateConstants:
    def test_least_squares_with_power_iteration_constant_passes(self):
        rng = np.random.default_rng(6)
        A = rng.normal(size=(5, 7))
        b = rng.normal(size=5)
        lam_max = _power_iteration_lambda_max(
            lambda v: A.T @ (A @ v), dim=7, seed=6)
        step = dataclasses.replace(
            lasso_stream(A[None], b[None], 0.05, whole_space()).step_at(1),
            smoothness_constant=2.0 * lam_max * (1 + 1e-9))
        report = validate_constants(step, samples=400, seed=0)
        assert report.passed()

    def test_halved_smoothness_constant_is_flagged(self):
        rng = np.random.default_rng(7)
        A = rng.normal(size=(5, 7))
        b = rng.normal(size=5)
        step = lasso_stream(A[None], b[None], 0.05, whole_space()).step_at(1)
        step = dataclasses.replace(
            step, smoothness_constant=0.5 * step.smoothness_constant)
        report = validate_constants(step, samples=400, seed=0)
        assert report.descent_margin > 0.0
        assert not report.passed()

    def test_l1_lipschitz_constant_passes(self):
        rng = np.random.default_rng(8)
        A = rng.normal(size=(4, 9))
        b = rng.normal(size=4)
        step = lasso_stream(A[None], b[None], 0.3,  # B = 0.3 * sqrt(9)
                            whole_space()).step_at(1)
        report = validate_constants(step, samples=400, seed=1)
        assert report.regularizer_lipschitz_margin <= 1e-10

    def test_understated_regularizer_constant_is_flagged(self):
        rng = np.random.default_rng(9)
        A = rng.normal(size=(4, 9))
        b = rng.normal(size=4)
        step = dataclasses.replace(  # needs 0.3 * sqrt(9)
            lasso_stream(A[None], b[None], 0.3, whole_space()).step_at(1),
            regularizer_lipschitz=0.3)
        report = validate_constants(step, samples=400, seed=1)
        assert report.regularizer_lipschitz_margin > 0.0

    def test_rejects_zero_samples(self):
        rng = np.random.default_rng(10)
        step = lasso_stream(rng.normal(size=(1, 3, 3)),
                            rng.normal(size=(1, 3)), 0.0,
                            whole_space()).step_at(1)
        with pytest.raises(ValueError):
            validate_constants(step, samples=0)
