"""Prox operators, subproblem solvers, and the inexactness contract."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ompd import (CompositeLossStep, CompositionError, ErrorModel,
                  StepSizeError, SvdError, ball, box, composed_prox,
                  divergence, euclidean_generator, inexact_mirror_prox,
                  l1_rule, negative_entropy_generator, nuclear_rule, simplex,
                  singular_value_threshold, soft_threshold, subproblem_solver,
                  whole_space, zero_error_model, zero_rule)
from ompd.prox import INNER_TOL_DEFAULT, _inner_solve, check_step_size

EUCLID = euclidean_generator()


def _scalar_prox_oracle(y, lam, rounds=10, points=65):
    """Grid-refinement minimizer of lam*|u| + 0.5*(u - y)^2.

    Objective values are compared as centered differences in factored
    form so the argmin resolves below the sqrt(eps) floor of naive
    evaluation.
    """
    lo = min(0.0, y) - 1.0
    hi = max(0.0, y) + 1.0
    center = 0.5 * (lo + hi)
    for _ in range(rounds):
        grid = np.linspace(lo, hi, points)
        rel = (lam * (np.abs(grid) - abs(center))
               + 0.5 * (grid - center) * (grid + center - 2.0 * y))
        j = int(np.argmin(rel))
        h = grid[1] - grid[0]
        center = grid[j]
        lo, hi = center - 2 * h, center + 2 * h
    return center


def _l1_step(eta, dim):
    return CompositeLossStep(
        smooth_value=lambda x: 0.0,
        smooth_gradient=lambda x: np.zeros(dim),
        nonsmooth_value=lambda x: eta * float(np.sum(np.abs(x))),
        smoothness_constant=1.0, regularizer_lipschitz=eta * np.sqrt(dim),
        prox_handle=l1_rule(eta), dim=dim)


def _zero_step(dim):
    return CompositeLossStep(
        smooth_value=lambda x: 0.0,
        smooth_gradient=lambda x: np.zeros(dim),
        nonsmooth_value=lambda x: 0.0,
        smoothness_constant=1.0, regularizer_lipschitz=0.0,
        prox_handle=zero_rule(), dim=dim)


def _phi(step, gen, anchor, grad, lam, x):
    """Phi(x) = h(x) + <grad, x> + V(x, anchor) / lam of one mirror step."""
    x = np.asarray(x, dtype=float)
    return (float(step.nonsmooth_value(x)) + float(np.dot(grad, x))
            + divergence(gen, x, anchor) / lam)


class TestSoftThreshold:
    def test_zero_input(self):
        assert soft_threshold(0.0, 0.5) == 0.0

    def test_scalar_cases(self):
        assert soft_threshold(2.0, 0.5) == 1.5
        assert soft_threshold(-0.3, 0.5) == 0.0

    def test_matches_grid_refinement_oracle(self):
        rng = np.random.default_rng(0)
        y = rng.normal(scale=2.0, size=10)
        lam = 0.7
        got = soft_threshold(y, lam)
        want = np.array([_scalar_prox_oracle(v, lam) for v in y])
        np.testing.assert_allclose(got, want, atol=1e-8)

    def test_nonexpansive_sampled(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            x, y = rng.normal(size=(2, 12))
            assert (np.linalg.norm(soft_threshold(x, 0.4)
                                   - soft_threshold(y, 0.4))
                    <= np.linalg.norm(x - y) + 1e-12)

    def test_negative_lam_rejected(self):
        with pytest.raises(ValueError):
            soft_threshold(1.0, -0.1)


class TestSingularValueThreshold:
    def test_diagonal_matrix(self):
        Z = np.diag([3.0, 1.0])
        np.testing.assert_allclose(singular_value_threshold(Z, 1.0),
                                   np.diag([2.0, 0.0]), atol=1e-12)

    def test_zero_threshold_reconstructs(self):
        rng = np.random.default_rng(2)
        Z = rng.normal(size=(5, 4))
        np.testing.assert_allclose(singular_value_threshold(Z, 0.0), Z,
                                   atol=1e-10)

    def test_spectrum_shrinks_by_lam(self):
        rng = np.random.default_rng(3)
        Z = rng.normal(size=(4, 3))
        out = singular_value_threshold(Z, 0.7)
        s_in = np.linalg.svd(Z, compute_uv=False)
        s_out = np.linalg.svd(out, compute_uv=False)
        np.testing.assert_allclose(s_out, np.maximum(s_in - 0.7, 0.0),
                                   atol=1e-8)

    def test_sign_convention_does_not_change_product(self, monkeypatch):
        rng = np.random.default_rng(4)
        Z = rng.normal(size=(4, 4))
        real_svd = np.linalg.svd

        def flipped_svd(M, full_matrices=False):
            U, s, Vt = real_svd(M, full_matrices=full_matrices)
            return -U, s, -Vt

        monkeypatch.setattr(np.linalg, "svd", flipped_svd)
        np.testing.assert_allclose(
            singular_value_threshold(Z, 0.0), Z, atol=1e-10)

    def test_svd_failure_carries_shape(self, monkeypatch):
        def broken_svd(M, full_matrices=False):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(np.linalg, "svd", broken_svd)
        with pytest.raises(SvdError) as err:
            singular_value_threshold(np.ones((3, 2)), 0.1)
        assert err.value.shape == (3, 2)

    def test_nonexpansive_sampled(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            X, Y = rng.normal(size=(2, 4, 3))
            lhs = np.linalg.norm(singular_value_threshold(X, 0.5)
                                 - singular_value_threshold(Y, 0.5))
            assert lhs <= np.linalg.norm(X - Y) + 1e-10


#: whether numpy's maximum gives +0.0 for (-0.0, +0.0), body and tail of a
#: SIMD loop alike; clip after shrink meets that tie, the shifted clip not
_MAX_OF_SIGNED_ZEROS_IS_POSITIVE = not np.signbit(
    np.maximum(np.full(9, -0.0), np.zeros(9))).any()


@st.composite
def _nonnegative_box_case(draw):
    """(lo, hi, v, scale, eta): a box with every lo >= 0 (0.0 and -0.0
    included), and a v whose entries are +-t, inside (-t, t), below -t,
    +-inf or any moderate float, for the threshold t = scale * eta."""
    dim = draw(st.integers(1, 8))
    lo = np.array(draw(st.lists(
        st.one_of(st.sampled_from([0.0, -0.0]), st.floats(0.0, 10.0)),
        min_size=dim, max_size=dim)))
    hi = lo + np.array(draw(st.lists(st.floats(1e-3, 10.0), min_size=dim,
                                     max_size=dim)))
    scale, eta = draw(st.floats(1e-3, 10.0)), draw(st.floats(0.0, 10.0))
    t = scale * eta
    entry = st.one_of(
        st.sampled_from([t, -t, np.inf, -np.inf]),
        st.floats(-1.0, 1.0, exclude_min=True,
                  exclude_max=True).map(lambda f: f * t),
        st.floats(0.0, 100.0).map(lambda f: -t - f),
        st.floats(-1e3, 1e3))
    v = np.array(draw(st.lists(entry, min_size=dim, max_size=dim)))
    return lo, hi, v, scale, eta


class TestComposedProx:
    def test_box_plus_l1_beats_sampled_feasible_points(self):
        rng = np.random.default_rng(6)
        dom = box(-0.8, 0.8, dim=6)
        rule = l1_rule(0.3)
        for _ in range(30):
            v = rng.normal(scale=2.0, size=6)
            p = composed_prox(rule, dom, v, 0.5)
            fp = 0.5 * 0.3 * np.sum(np.abs(p)) + 0.5 * np.dot(p - v, p - v)
            for _ in range(200):
                u = dom.project(rng.normal(scale=1.0, size=6))
                fu = 0.5 * 0.3 * np.sum(np.abs(u)) + 0.5 * np.dot(u - v, u - v)
                assert fp <= fu + 1e-10

    def test_ball_plus_l1_beats_sampled_feasible_points(self):
        rng = np.random.default_rng(7)
        dom = ball(1.5)
        rule = l1_rule(0.3)
        for _ in range(30):
            v = rng.normal(scale=2.0, size=6)
            p = composed_prox(rule, dom, v, 0.5)
            assert np.linalg.norm(p) <= 0.75 + 1e-12
            fp = 0.5 * 0.3 * np.sum(np.abs(p)) + 0.5 * np.dot(p - v, p - v)
            for _ in range(200):
                u = dom.project(rng.normal(scale=0.8, size=6))
                fu = 0.5 * 0.3 * np.sum(np.abs(u)) + 0.5 * np.dot(u - v, u - v)
                assert fp <= fu + 1e-10

    def test_refuses_inexact_compositions(self):
        with pytest.raises(CompositionError):
            composed_prox(nuclear_rule(1.0), box(-1.0, 1.0, dim=4),
                          np.zeros(4), 0.5)

    @settings(max_examples=300, deadline=None)
    @given(case=_nonnegative_box_case())
    def test_nonnegative_box_shifted_clip_is_clip_after_shrink(self, case):
        """On lo >= 0 the shifted clip equals clip after shrink bit for
        bit, signed zeros and infinities included, wherever numpy's
        maximum(-0.0, +0.0) is +0.0 (x86, ARM's FMAX); elsewhere the two
        may differ only in the sign of a zero."""
        lo, hi, v, scale, eta = case
        dom = box(lo, hi)
        assert dom.nonnegative
        got = composed_prox(l1_rule(eta), dom, v, scale)
        want = dom.project(soft_threshold(v, scale * eta))
        np.testing.assert_array_equal(got, want)
        if _MAX_OF_SIGNED_ZEROS_IS_POSITIVE:
            np.testing.assert_array_equal(got.view(np.uint64),
                                          want.view(np.uint64))

    def test_negative_lower_bound_clips_after_shrink(self):
        """Below zero a shifted clip would send v = 0 to max(-t, lo) < 0;
        clip after shrink keeps the zero that l1 favours."""
        for lo in ([-0.5, -0.5, -0.5], [0.0, -0.5, 0.2]):
            dom = box(lo, [1.0, 1.0, 1.0])
            assert not dom.nonnegative
            v = np.array([0.0, 0.05, 0.9])
            p = composed_prox(l1_rule(0.2), dom, v, 0.5)
            np.testing.assert_array_equal(
                p, dom.project(soft_threshold(v, 0.1)))
        np.testing.assert_array_equal(p, [0.0, 0.0, 0.8])


class TestExactMirrorProx:
    def test_pure_gradient_step_when_h_is_zero(self):
        rng = np.random.default_rng(8)
        anchor = rng.normal(size=5)
        grad = rng.normal(size=5)
        solve = subproblem_solver(zero_rule(), EUCLID, whole_space(), 0.5)
        np.testing.assert_array_equal(solve(anchor, grad)[0],
                                      anchor - 0.5 * grad)

    def test_l1_reduces_to_soft_threshold(self):
        rng = np.random.default_rng(9)
        anchor = rng.normal(size=5)
        grad = rng.normal(size=5)
        solve = subproblem_solver(l1_rule(0.4), EUCLID, whole_space(), 0.5)
        np.testing.assert_array_equal(
            solve(anchor, grad)[0],
            soft_threshold(anchor - 0.5 * grad, 0.5 * 0.4))

    def test_multiplicative_weights_matches_grid_oracle(self):
        """Entropy geometry, h = 0, 2-simplex, against a dense grid."""
        gen = negative_entropy_generator(lo=0.05, hi=1.0)
        anchor = np.array([0.6, 0.4])
        grad = np.array([1.3, -0.7])
        lam = 0.2
        y = subproblem_solver(zero_rule(), gen, simplex(2), lam)(anchor,
                                                                 grad)[0]
        expected = anchor * np.exp(-lam * grad)
        expected /= expected.sum()
        np.testing.assert_allclose(y, expected, rtol=1e-12)
        step = _zero_step(2)
        lo, hi = 0.0, 1.0
        for _ in range(8):
            ps = np.linspace(lo, hi, 201)
            vals = [_phi(step, gen, anchor, grad, lam, np.array([p, 1.0 - p]))
                    for p in ps]
            j = int(np.argmin(vals))
            h = ps[1] - ps[0]
            lo, hi = max(0.0, ps[j] - 2 * h), min(1.0, ps[j] + 2 * h)
        np.testing.assert_allclose(y[0], ps[j], atol=1e-6)

    def test_subproblem_optimality_random_neighborhood(self):
        """Closed-form path beats 10000 sampled feasible neighbors."""
        rng = np.random.default_rng(10)
        dom = box(-1.0, 1.0, dim=6)
        anchor = dom.project(rng.normal(size=6))
        grad = rng.normal(size=6)
        step = _l1_step(0.3, 6)
        y = subproblem_solver(step.prox_handle, EUCLID, dom, 0.4)(anchor,
                                                                  grad)[0]
        fy = _phi(step, EUCLID, anchor, grad, 0.4, y)
        for _ in range(10_000):
            u = dom.project(y + rng.normal(scale=0.1, size=6))
            assert fy <= _phi(step, EUCLID, anchor, grad, 0.4, u) + 1e-10

    def test_monotone_step(self):
        rng = np.random.default_rng(11)
        step = _l1_step(0.2, 5)
        solve = subproblem_solver(step.prox_handle, EUCLID, whole_space(),
                                  0.7)
        for _ in range(50):
            anchor = rng.normal(size=5)
            grad = rng.normal(size=5)
            y = solve(anchor, grad)[0]
            assert (_phi(step, EUCLID, anchor, grad, 0.7, y)
                    <= _phi(step, EUCLID, anchor, grad, 0.7, anchor))

    def test_matches_independent_proximal_gradient_step(self):
        """Bitwise agreement with a directly coded classical step."""
        rng = np.random.default_rng(12)
        anchor = rng.normal(size=8)
        grad = rng.normal(size=8)
        lam, eta = 0.3, 0.25
        solve = subproblem_solver(l1_rule(eta), EUCLID, whole_space(), lam)
        v = anchor - lam * grad
        classical = np.sign(v) * np.maximum(np.abs(v) - lam * eta, 0.0)
        np.testing.assert_array_equal(solve(anchor, grad)[0], classical)

    def test_step_size_rule_enforced(self):
        """0 < step <= 2 sigma_omega / L, here 2 / 1: 5 is refused."""
        L = _l1_step(0.1, 4).smoothness_constant
        with pytest.raises(StepSizeError) as err:
            check_step_size(5.0, L, EUCLID.sigma_omega)
        assert "sigma_omega" in str(err.value)
        check_step_size(2.0, L, EUCLID.sigma_omega)
        for bad in (0.0, -0.5, float("nan")):
            with pytest.raises(ValueError):
                check_step_size(bad, L, EUCLID.sigma_omega)


class TestInnerSolver:
    def test_inner_path_agrees_with_euclidean_closed_form(self):
        rng = np.random.default_rng(13)
        anchor = rng.normal(size=5)
        grad = rng.normal(size=5)
        rule, dom = l1_rule(0.3), whole_space()
        closed = subproblem_solver(rule, EUCLID, dom, 0.5)(anchor, grad)[0]
        iterative, bound = _inner_solve(rule, EUCLID, dom, 0.5,
                                        INNER_TOL_DEFAULT, anchor, grad)
        assert bound <= 2e-9 * 0.5 / 1.0 * 2
        np.testing.assert_allclose(iterative, closed, atol=1e-8)

    def test_entropy_over_box_beats_dense_grid(self):
        gen = negative_entropy_generator(lo=0.2, hi=1.0)
        dom = box(0.2, 1.0, dim=2)
        anchor = np.array([0.5, 0.5])
        grad = np.array([0.8, -0.3])
        step = _zero_step(2)
        y, _ = _inner_solve(step.prox_handle, gen, dom, 0.3,
                            INNER_TOL_DEFAULT, anchor, grad)
        lo = np.array([0.2, 0.2])
        hi = np.array([1.0, 1.0])
        for _ in range(7):
            g1 = np.linspace(lo[0], hi[0], 61)
            g2 = np.linspace(lo[1], hi[1], 61)
            vals = np.array([[_phi(step, gen, anchor, grad, 0.3,
                                   np.array([a, b]))
                              for b in g2] for a in g1])
            i, j = np.unravel_index(np.argmin(vals), vals.shape)
            h1, h2 = g1[1] - g1[0], g2[1] - g2[0]
            lo = np.maximum([g1[i] - 2 * h1, g2[j] - 2 * h2], 0.2)
            hi = np.minimum([g1[i] + 2 * h1, g2[j] + 2 * h2], 1.0)
        best = np.array([g1[i], g2[j]])
        np.testing.assert_allclose(y, best, atol=1e-6)


class TestInexactMirrorProx:
    @staticmethod
    def _args(dom, dim=6, seed=14):
        """``inexact_mirror_prox``'s solver, domain, anchor and gradient."""
        rng = np.random.default_rng(seed)
        anchor = dom.project(rng.normal(size=dim))
        grad = rng.normal(size=dim)
        return (subproblem_solver(l1_rule(0.2), EUCLID, dom, 0.5), dom,
                anchor, grad)

    def test_zero_model_returns_exact_solution(self):
        x, y, eps = inexact_mirror_prox(*self._args(whole_space()),
                                        zero_error_model(), 1)
        np.testing.assert_array_equal(x, y)
        assert eps == 0.0

    def test_capped_offset_respected_over_1000_draws(self):
        args = self._args(whole_space())
        model = ErrorModel(prox_std=1.0, eps_cap=0.05, seed=15)
        for k in range(1, 1001):
            x, y, eps = inexact_mirror_prox(*args, model, k)
            assert np.linalg.norm(x - y) <= 0.05 + 1e-14
            assert np.linalg.norm(x - y) <= eps + 1e-14

    def test_projection_keeps_contract_on_bounded_domain(self):
        dom = ball(1.0)
        args = self._args(dom)
        model = ErrorModel(prox_std=0.5, seed=16)
        for k in range(1, 500):
            x, y, eps = inexact_mirror_prox(*args, model, k)
            assert np.linalg.norm(x) <= 0.5 + 1e-12
            assert np.linalg.norm(x - y) <= eps + 1e-14
