"""Domains, error models, and declared-constant validation."""

import dataclasses

import numpy as np
import pytest

from ompd import (CompositeLossStep, Domain, ErrorModel, ball, box, l1_rule,
                  simplex, validate_constants, whole_space, zero_error_model)
from ompd.losses import GRAD_ERROR_TAG


def _least_squares_step(A, b, eta=0.0, L=None, B=None):
    n = A.shape[1]
    if L is None:
        L = 2.0 * float(np.linalg.eigvalsh(A.T @ A)[-1])
    if B is None:
        B = eta * np.sqrt(n)
    return CompositeLossStep(
        smooth_value=lambda x: float(np.dot(A @ x - b, A @ x - b)),
        smooth_gradient=lambda x: 2.0 * (A.T @ (A @ x - b)),
        nonsmooth_value=lambda x: eta * float(np.sum(np.abs(x))),
        smoothness_constant=L, regularizer_lipschitz=B,
        prox_handle=l1_rule(eta), dim=n)


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
            Domain(kind="bounded", project=dom.project, nonnegative=True)

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
        for m in (plain, plain.for_horizon(5)):
            forward = [m.gradient_error(k, 10) for k in range(1, 6)]
            backward = [m.gradient_error(k, 10) for k in range(5, 0, -1)]
            for k in range(1, 6):
                np.testing.assert_array_equal(forward[k - 1], backward[5 - k])

    #: seed ^ tag spans one, two, three and four uint32 words
    @pytest.mark.parametrize("seed", [0, 42, 2**40 + 3, 2**64 + 1, 2**96 + 5])
    @pytest.mark.parametrize("eps_cap", [None, 0.02])
    def test_horizon_copy_draws_equal_the_per_step_draws(self, seed,
                                                         eps_cap):
        """``for_horizon`` reseeds one generator from vectorised seeds;
        every draw must still be ``default_rng((seed ^ tag, k))``'s."""
        fresh = ErrorModel(gradient_std=0.05, prox_std=0.05, eps_cap=eps_cap,
                           seed=seed)
        copy = fresh.for_horizon(3000)
        assert copy == fresh
        for k in (*range(1, 3001), 3001, 4000):
            np.testing.assert_array_equal(copy.gradient_error(k, 3),
                                          fresh.gradient_error(k, 3))
            o1, e1 = copy.prox_error(k, 3)
            o2, e2 = fresh.prox_error(k, 3)
            np.testing.assert_array_equal(o1, o2)
            assert e1 == e2
        rng = np.random.default_rng((seed ^ GRAD_ERROR_TAG, 3000))
        np.testing.assert_array_equal(copy.gradient_error(3000, 3),
                                      rng.normal(0.0, 0.05, size=3))

    def test_horizon_copy_of_zero_model_draws_zeros(self):
        m = zero_error_model(seed=9).for_horizon(10)
        np.testing.assert_array_equal(m.gradient_error(3, 4), np.zeros(4))
        offset, eps = m.prox_error(3, 4)
        np.testing.assert_array_equal(offset, np.zeros(4))
        assert eps == 0.0

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
        self.step = _least_squares_step(self.A, self.b, eta=0.1)

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
        step = _least_squares_step(A, b, eta=0.05, L=2.0 * lam_max * (1 + 1e-9))
        report = validate_constants(step, samples=400, seed=0)
        assert report.passed()

    def test_halved_smoothness_constant_is_flagged(self):
        rng = np.random.default_rng(7)
        A = rng.normal(size=(5, 7))
        b = rng.normal(size=5)
        true_L = 2.0 * float(np.linalg.eigvalsh(A.T @ A)[-1])
        step = _least_squares_step(A, b, eta=0.05, L=0.5 * true_L)
        report = validate_constants(step, samples=400, seed=0)
        assert report.descent_margin > 0.0
        assert not report.passed()

    def test_l1_lipschitz_constant_passes(self):
        rng = np.random.default_rng(8)
        A = rng.normal(size=(4, 9))
        b = rng.normal(size=4)
        step = _least_squares_step(A, b, eta=0.3)  # B = 0.3 * sqrt(9)
        report = validate_constants(step, samples=400, seed=1)
        assert report.regularizer_lipschitz_margin <= 1e-10

    def test_understated_regularizer_constant_is_flagged(self):
        rng = np.random.default_rng(9)
        A = rng.normal(size=(4, 9))
        b = rng.normal(size=4)
        step = _least_squares_step(A, b, eta=0.3, B=0.3)  # needs 0.3*sqrt(9)
        report = validate_constants(step, samples=400, seed=1)
        assert report.regularizer_lipschitz_margin > 0.0

    def test_rejects_zero_samples(self):
        rng = np.random.default_rng(10)
        step = _least_squares_step(rng.normal(size=(3, 3)), rng.normal(size=3))
        with pytest.raises(ValueError):
            validate_constants(step, samples=0)
