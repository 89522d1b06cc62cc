"""Divergence definitions, identities, and declared-constant checks."""

import numpy as np
import pytest

from ompd import (DimensionMismatchError, check_pythagorean,
                  check_three_point, divergence, divergence_gradient,
                  euclidean_generator, negative_entropy_generator)
from ompd.bregman import FD_STEP, DistanceGenerator

EUCLID = euclidean_generator()
ENTROPY = negative_entropy_generator(lo=0.1, hi=1.0)


def _entropy_points(rng, n, count):
    # sampling box where the declared entropy constants are exact
    return rng.uniform(0.1, 1.0, size=(count, n))


def _kl_direct(x, y):
    """Independent oracle: plain summation of x_i log(x_i / y_i)."""
    return float(sum(xi * np.log(xi / yi) for xi, yi in zip(x, y)))


class TestDivergence:
    def test_identical_points_euclidean(self):
        x = np.array([1.0, 2.0])
        assert divergence(EUCLID, x, x) == 0.0

    def test_euclidean_reduction_value(self):
        assert divergence(EUCLID, np.array([3.0, 0.0]),
                          np.array([1.0, 0.0])) == 2.0

    def test_entropy_matches_kl_oracle_on_simplex(self):
        x = np.array([0.5, 0.5])
        y = np.array([0.25, 0.75])
        # on the simplex the divergence is exactly the KL sum
        np.testing.assert_allclose(divergence(ENTROPY, x, y),
                                   _kl_direct(x, y), rtol=1e-13)

    def test_euclidean_divergence_is_half_squared_distance_exactly(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            x = rng.normal(size=5)
            y = rng.normal(size=5)
            assert divergence(EUCLID, x, y) == 0.5 * float(np.dot(x - y, x - y))

    def test_nonnegative_and_zero_iff_equal(self):
        rng = np.random.default_rng(4)
        pts = _entropy_points(rng, 6, 400)
        for gen in (EUCLID, ENTROPY):
            for i in range(0, 400, 2):
                x, y = pts[i], pts[i + 1]
                v = divergence(gen, x, y)
                assert v >= 0.0
                assert v > 1e-12  # distinct random points
            assert divergence(gen, pts[0], pts[0]) <= 1e-12

    def test_strong_convexity_lower_bound_sampled(self):
        rng = np.random.default_rng(5)
        pts = _entropy_points(rng, 8, 2000)
        for gen in (EUCLID, ENTROPY):
            for i in range(0, 2000, 2):
                x, y = pts[i], pts[i + 1]
                gap = float(np.dot(x - y, x - y))
                assert (divergence(gen, x, y)
                        >= 0.5 * gen.sigma_omega * gap - 1e-12)

    def test_smoothness_upper_bound_sampled(self):
        rng = np.random.default_rng(6)
        pts = _entropy_points(rng, 8, 2000)
        for gen in (EUCLID, ENTROPY):
            for i in range(0, 2000, 2):
                x, y = pts[i], pts[i + 1]
                gap = float(np.dot(x - y, x - y))
                assert (divergence(gen, x, y)
                        <= 0.5 * gen.g_omega * gap + 1e-12)

    def test_nan_input_gives_nan(self):
        """The clamp at zero must not turn a NaN into a zero divergence."""
        x = np.array([np.nan, 1.0])
        for gen in (EUCLID, ENTROPY):
            assert np.isnan(divergence(gen, x, np.zeros(2)))
            assert np.isnan(divergence(gen, np.ones(2), x))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            divergence(EUCLID, np.zeros(2), np.zeros(3))


class TestDivergenceGradient:
    def test_euclidean_identity_gradient(self):
        g = divergence_gradient(EUCLID, np.array([3.0, 1.0]),
                                np.array([1.0, 1.0]))
        np.testing.assert_array_equal(g, np.array([2.0, 0.0]))

    def test_equal_points_zero_vector(self):
        x = np.array([0.3, 0.7])
        for gen in (EUCLID, ENTROPY):
            np.testing.assert_array_equal(divergence_gradient(gen, x, x),
                                          np.zeros(2))

    def test_entropy_log_ratio_against_finite_differences(self):
        """Central differences of V in the first argument, step 1e-6."""
        x = np.array([0.5, 0.5])
        y = np.array([0.25, 0.75])
        grad = divergence_gradient(ENTROPY, x, y)
        np.testing.assert_allclose(grad, np.log(x / y), rtol=1e-12)
        h = FD_STEP
        fd = np.zeros_like(x)
        for j in range(x.size):
            e = np.zeros_like(x)
            e[j] = h
            fd[j] = (divergence(ENTROPY, x + e, y)
                     - divergence(ENTROPY, x - e, y)) / (2.0 * h)
        np.testing.assert_allclose(grad, fd, rtol=1e-5)


class TestIdentities:
    def test_three_point_euclidean_telescopes(self):
        """Linear gradients telescope; residual is a few ulps at most."""
        rng = np.random.default_rng(7)
        for _ in range(100):
            x, y, z = rng.normal(size=(3, 4))
            assert check_three_point(EUCLID, x, y, z) <= 1e-14

    def test_three_point_degenerate(self):
        x = np.full(3, 0.4)
        assert check_three_point(ENTROPY, x, x, x) == 0.0

    @pytest.mark.parametrize("gen", [EUCLID, ENTROPY], ids=lambda g: g.name)
    def test_three_point_residual_sampled(self, gen):
        rng = np.random.default_rng(8)
        pts = _entropy_points(rng, 5, 3000)
        worst = max(check_three_point(gen, pts[i], pts[i + 1], pts[i + 2])
                    for i in range(0, 3000, 3))
        assert worst <= 1e-10

    @pytest.mark.parametrize("gen", [EUCLID, ENTROPY], ids=lambda g: g.name)
    def test_pythagorean_residual_sampled(self, gen):
        rng = np.random.default_rng(9)
        pts = _entropy_points(rng, 5, 3000)
        worst = max(check_pythagorean(gen, pts[i], pts[i + 1], pts[i + 2])
                    for i in range(0, 3000, 3))
        assert worst <= 1e-10

    def test_pythagorean_collapses_when_z_equals_y(self):
        rng = np.random.default_rng(10)
        x, y = _entropy_points(rng, 4, 2)
        assert check_pythagorean(ENTROPY, x, y, y) <= 1e-14

    def test_pythagorean_collapses_when_x_equals_y(self):
        rng = np.random.default_rng(11)
        x, z = _entropy_points(rng, 4, 2)
        assert check_pythagorean(ENTROPY, x, x, z) <= 1e-14

    def test_euclidean_pythagorean_tight(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            x, y, z = rng.normal(size=(3, 6))
            assert check_pythagorean(EUCLID, x, y, z) <= 1e-12


class TestGeneratorMetadata:
    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            DistanceGenerator(value=lambda x: 0.0, gradient=lambda x: x,
                              sigma_omega=0.0, g_omega=1.0, name="bad",
                              pair_divergence=lambda x, y: 0.0)

    def test_rejects_g_below_sigma(self):
        with pytest.raises(ValueError):
            DistanceGenerator(value=lambda x: 0.0, gradient=lambda x: x,
                              sigma_omega=2.0, g_omega=1.0, name="bad",
                              pair_divergence=lambda x, y: 0.0)

    def test_requires_a_closed_form_divergence(self):
        with pytest.raises(TypeError):
            DistanceGenerator(value=lambda x: 0.0, gradient=lambda x: x,
                              sigma_omega=1.0, g_omega=1.0, name="bad")

    def test_entropy_constants_ordering(self):
        assert ENTROPY.g_omega >= ENTROPY.sigma_omega > 0

    def test_entropy_gradient_lipschitz_sampled(self):
        rng = np.random.default_rng(13)
        pts = _entropy_points(rng, 6, 1000)
        for i in range(0, 1000, 2):
            x, y = pts[i], pts[i + 1]
            lhs = np.linalg.norm(ENTROPY.gradient(x) - ENTROPY.gradient(y))
            assert lhs <= ENTROPY.g_omega * np.linalg.norm(x - y) + 1e-12

    def test_strong_convexity_inequality_sampled(self):
        rng = np.random.default_rng(14)
        pts = _entropy_points(rng, 6, 1000)
        for i in range(0, 1000, 2):
            x, y = pts[i], pts[i + 1]
            lhs = ENTROPY.value(x)
            rhs = (ENTROPY.value(y)
                   + float(np.dot(ENTROPY.gradient(y), x - y))
                   + 0.5 * ENTROPY.sigma_omega * float(np.dot(x - y, x - y)))
            assert lhs >= rhs - 1e-12
