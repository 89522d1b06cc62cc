"""Online loop behavior: convergence, determinism, equivalence, guards."""

import dataclasses
import gc
import tracemalloc

import numpy as np
import pytest

from ompd import (CompositeLossStep, Domain, ErrorModel, InnerSolverError,
                  MissingOptimaError, ProblemStream, SolverConfig,
                  SolverRunError, StepSizeError, SvdError, ball,
                  block_rule, box, euclidean_generator, fill_optima, l1_rule,
                  negative_entropy_generator, nuclear_rule, run,
                  run_proximal_gradient, simplex, stream_optima, whole_space,
                  write_trace_csv, zero_error_model, zero_rule)
from ompd import prox, solver
from ompd.experiments import (GaussMarkovConfig, SeparationConfig,
                              _error_model, generate_gauss_markov,
                              generate_separation, tracking_stream)
from ompd.losses import GRAD_ERROR_TAG, PROX_ERROR_TAG
from ompd.prox import (RESIDUAL_CHECK_EVERY, inexact_mirror_prox,
                       subproblem_solver)
from ompd.runio import _PER_STEP_FIELDS, read_trace_csv

EUCLID = euclidean_generator()


def _quadratic_step(A, c, prox=None, eta=0.0, dim=None):
    n = A.shape[0] if dim is None else dim

    def g(x):
        d = x - c
        return 0.5 * float(d @ A @ d)

    def grad(x):
        return A @ (x - c)

    return CompositeLossStep(
        smooth_value=g, smooth_gradient=grad,
        nonsmooth_value=(lambda x: eta * float(np.sum(np.abs(x))))
        if eta else (lambda x: 0.0),
        smoothness_constant=float(np.linalg.eigvalsh(A)[-1]),
        regularizer_lipschitz=eta * np.sqrt(n),
        prox_handle=l1_rule(eta) if eta else zero_rule(), dim=n)


def _static_stream(step, T, domain=None):
    return ProblemStream(horizon=T, step_at=lambda k: step,
                         domain=domain or whole_space(), dim=step.dim)


class TestRun:
    def test_static_quadratic_converges_to_closed_form_minimizer(self):
        """Unique minimizer of the static strongly convex quadratic is c."""
        A = np.diag([1.0, 4.0, 10.0])
        c = np.array([1.0, -2.0, 0.5])
        step = _quadratic_step(A, c)
        stream = _static_stream(step, 500)
        config = SolverConfig(step_size=1.0 / step.smoothness_constant,
                              generator=EUCLID,
                              initial_point=np.array([5.0, 5.0, 5.0]))
        trace = run(stream, config, zero_error_model())
        assert np.linalg.norm(trace.iterates[-1] - c) <= 1e-6

    def test_single_step_is_plain_gradient_step(self):
        A = np.eye(2) * 2.0
        c = np.array([1.0, 1.0])
        step = _quadratic_step(A, c)
        stream = _static_stream(step, 1)
        x0 = np.array([3.0, -1.0])
        lam = 0.25
        config = SolverConfig(step_size=lam, generator=EUCLID,
                              initial_point=x0)
        trace = run(stream, config, zero_error_model())
        np.testing.assert_array_equal(trace.iterates[0],
                                      x0 - lam * step.smooth_gradient(x0))

    def test_bit_identical_traces_for_identical_inputs(self):
        cfg = GaussMarkovConfig(horizon=60, seed=5)
        stream, _ = generate_gauss_markov(cfg)
        config = SolverConfig(step_size=cfg.step_size, generator=EUCLID,
                              initial_point=np.zeros(cfg.n_coeffs))
        model = ErrorModel(gradient_std=0.05, prox_std=0.05, seed=9)
        t1 = run(stream, config, model)
        stream2, _ = generate_gauss_markov(cfg)
        t2 = run(stream2, config,
                 ErrorModel(gradient_std=0.05, prox_std=0.05, seed=9))
        np.testing.assert_array_equal(t1.iterates, t2.iterates)
        np.testing.assert_array_equal(t1.eps, t2.eps)
        np.testing.assert_array_equal(t1.f_played, t2.f_played)

    def test_iterates_stay_feasible_on_bounded_domain(self):
        cfg = GaussMarkovConfig(horizon=80, seed=6)
        dom = box(-0.5, 0.5, dim=cfg.n_coeffs)
        stream, _ = generate_gauss_markov(cfg, domain=dom)
        config = SolverConfig(step_size=cfg.step_size, generator=EUCLID,
                              initial_point=np.zeros(cfg.n_coeffs))
        model = ErrorModel(gradient_std=0.05, prox_std=0.05, seed=10)
        trace = run(stream, config, model)
        for x in trace.iterates:
            assert np.linalg.norm(dom.project(x) - x) <= 1e-12

    def test_recorded_error_sequences_match_model_draws(self):
        """``run`` draws its errors a block at a time; what it records must
        equal each step's own ``default_rng((seed ^ tag, k))`` draw, with
        no gap at all."""
        cfg = GaussMarkovConfig(horizon=600, seed=7)
        n = cfg.n_coeffs
        config = SolverConfig(step_size=cfg.step_size, generator=EUCLID,
                              initial_point=np.zeros(n))
        for domain, model in (
                (None, ErrorModel(gradient_std=0.05, prox_std=0.05,
                                  seed=11)),
                (box(-0.5, 0.5, dim=n),
                 ErrorModel(gradient_std=0.05, prox_std=0.05, eps_cap=0.03,
                            seed=12))):
            stream, _ = generate_gauss_markov(cfg, domain=domain)
            trace = run(stream, config, model)
            norms, eps = [], []
            for k in range(1, cfg.horizon + 1):
                rng = np.random.default_rng((model.seed ^ GRAD_ERROR_TAG, k))
                norms.append(np.linalg.norm(rng.normal(0.0, 0.05, size=n)))
                rng = np.random.default_rng((model.seed ^ PROX_ERROR_TAG, k))
                radius = abs(rng.normal(0.0, 0.05))
                eps.append(radius if model.eps_cap is None
                           else min(radius, model.eps_cap))
            np.testing.assert_array_equal(trace.grad_error_norms, norms)
            np.testing.assert_array_equal(trace.eps, eps)

    def test_wall_time_recorded(self):
        step = _quadratic_step(np.eye(2), np.zeros(2))
        stream = _static_stream(step, 5)
        config = SolverConfig(step_size=0.5, generator=EUCLID,
                              initial_point=np.ones(2))
        trace = run(stream, config, zero_error_model())
        assert np.all(trace.step_seconds >= 0.0)

    def test_step_size_guard_names_constants(self):
        step = _quadratic_step(np.diag([10.0, 10.0]), np.zeros(2))
        stream = _static_stream(step, 5)
        config = SolverConfig(step_size=1.0, generator=EUCLID,
                              initial_point=np.zeros(2))
        with pytest.raises(StepSizeError) as err:
            run(stream, config, zero_error_model())
        msg = str(err.value)
        assert "10" in msg and "sigma_omega" in msg

    @pytest.mark.parametrize("lam", [0.0, -0.5, np.nan])
    def test_nonpositive_step_rejected_before_the_loop(self, lam):
        step = _quadratic_step(np.eye(2), np.zeros(2))
        config = SolverConfig(step_size=lam, generator=EUCLID,
                              initial_point=np.zeros(2))
        with pytest.raises(ValueError, match="step_size must be positive"):
            run(_static_stream(step, 5), config, zero_error_model())

    def test_partial_trace_attached_on_mid_run_failure(self):
        """A failed subproblem aborts with the prefix trace.

        Every step proxes a whole-space nuclear block, and the failing
        step's gradient is NaN, so its SVD fails (SvdError). Step 3 fails
        in the first block of the loop's bookkeeping, step 600 inside the
        second block of 512 steps, whose completed rows are filled too.
        Steps 1 and 513 fail at the first step of a block, which leaves
        that block no row to fill.
        """
        rule = block_rule([((1, 2), nuclear_rule(0.1))])
        good = dataclasses.replace(
            _quadratic_step(np.eye(2), np.zeros(2)), prox_handle=rule,
            nonsmooth_value=lambda x: 0.1 * float(np.linalg.norm(x)),
            regularizer_lipschitz=0.1)
        bad = dataclasses.replace(
            good, smooth_gradient=lambda x: np.full(2, np.nan))
        config = SolverConfig(step_size=0.5, generator=EUCLID,
                              initial_point=np.ones(2))
        model = ErrorModel(gradient_std=0.3, prox_std=0.2, seed=4)
        assert solver._BLOCK_ROWS == 512
        for failing, horizon in ((3, 5), (600, 700), (1, 5), (513, 700)):
            stream = ProblemStream(
                horizon=horizon,
                step_at=lambda k: bad if k == failing else good,
                domain=whole_space(), dim=2)
            with pytest.raises(SolverRunError) as err:
                run(stream, config, model)
            assert isinstance(err.value.__cause__, SvdError)
            done = failing - 1
            partial = err.value.trace
            assert partial.horizon == done < horizon
            assert partial.iterates.shape == (done, 2)
            assert partial.optima is None
            # the completed steps are filled as an unfailed run fills them
            full = run(_static_stream(good, horizon), config, model)
            for name in ("iterates", "f_played", "q_norms", "eps",
                         "grad_error_norms"):
                np.testing.assert_array_equal(getattr(partial, name),
                                              getattr(full, name)[:done])
            assert np.all(partial.grad_error_norms > 0.0)
            assert np.all(partial.eps > 0.0)


def test_inner_solver_out_of_budget_aborts_the_run(monkeypatch):
    """An inner solve out of iterations raises InnerSolverError, which the
    run reports as a failure at its step, with the completed prefix."""
    stream = _entropy_box_stream()
    config = SolverConfig(
        step_size=0.3, generator=negative_entropy_generator(lo=0.2, hi=1.0),
        initial_point=np.full(stream.dim, 0.6))
    monkeypatch.setattr(prox, "INNER_MAX_ITERS", 2)
    with pytest.raises(SolverRunError) as err:
        run(stream, config, zero_error_model())
    assert str(err.value).startswith("subproblem failed at step 1: ")
    cause = err.value.__cause__
    assert isinstance(cause, InnerSolverError)
    assert cause.iterations == 2 and cause.residual > cause.tolerance
    assert err.value.trace.horizon == 0


def _per_step_loop(stream, config, model):
    """The online loop with every record made inside it, per step."""
    steps = [stream.step_at(k) for k in range(1, stream.horizon + 1)]
    gen, lam = config.generator, config.step_size
    T, n = stream.horizon, stream.dim
    out = {name: np.zeros(T) for name in (
        "grad_error_norms", "eps", "f_played", "q_norms", "smoothness",
        "reg_lipschitz")}
    out["iterates"] = np.zeros((T, n))
    x = np.array(config.initial_point, dtype=float)
    errors, offsets, radii = model.draws(0, T, n)
    for k, step in enumerate(steps, start=1):
        i = k - 1
        grad = step.smooth_gradient(x) + errors[i]
        solve = subproblem_solver(step.prox_handle, gen, stream.domain, lam,
                                  config.inner_tolerance)
        x_new, y, eps_k = inexact_mirror_prox(solve, stream.domain, x, grad,
                                              offsets[i], radii[i])
        out["iterates"][i] = x_new
        out["grad_error_norms"][i] = np.linalg.norm(errors[i])
        out["eps"][i] = eps_k
        out["f_played"][i] = step.total_value(x_new)
        out["q_norms"][i] = np.linalg.norm(
            grad + (gen.gradient(y) - gen.gradient(x)) / lam)
        out["smoothness"][i] = step.smoothness_constant
        out["reg_lipschitz"][i] = step.regularizer_lipschitz
        x = x_new
    return out


def _entropy_box_stream(T=40, dim=8, seed=3):
    """||x - c_k||^2 + 0.1 ||x||_1 on [0.2, 1]^dim, c_k a clipped walk."""
    walk = np.random.default_rng(seed).normal(0.0, 0.05, (T, dim))
    centers = np.clip(0.6 + np.cumsum(walk, axis=0), 0.3, 0.9)
    return tracking_stream(centers, box(0.2, 1.0, dim=dim), eta=0.1)[0]


def _one_rule_stream(domain, rule, T=30, dim=6, seed=4):
    """||x - c_k||^2 + h(x) over ``domain``, h the l1 or zero ``rule``,
    given by its steps alone: a fresh rule object per step, all equal."""
    centers = np.random.default_rng(seed).normal(0.2, 0.5, (T, dim))

    def step_at(k):
        ck = centers[k - 1]
        return CompositeLossStep(
            smooth_value=lambda x: float(np.dot(x - ck, x - ck)),
            smooth_gradient=lambda x: 2.0 * (x - ck),
            nonsmooth_value=lambda x: rule.weight * float(np.sum(np.abs(x))),
            smoothness_constant=2.0,
            regularizer_lipschitz=rule.weight * np.sqrt(dim),
            prox_handle=dataclasses.replace(rule), dim=dim)

    return ProblemStream(horizon=T, step_at=step_at, domain=domain, dim=dim)


def test_steps_of_different_rules_are_refused():
    """A stream has one rule: steps whose rules differ are refused when
    the stream is built, naming the first step whose rule is not step
    1's; equal rules held as distinct objects are one rule."""
    stream = _one_rule_stream(whole_space(), l1_rule(0.1))
    rules = {5: l1_rule(0.3), 9: zero_rule()}

    def step_at(k):
        step = stream.step_at(k)
        return dataclasses.replace(step, prox_handle=rules.get(
            k, step.prox_handle))

    with pytest.raises(ValueError, match="^step 5 holds prox rule"):
        ProblemStream(horizon=30, step_at=step_at, domain=stream.domain,
                      dim=6)
    assert stream.rule == l1_rule(0.1)
    assert stream.rule is not stream.step_at(1).prox_handle
    # a declared rule is the stream's rule: its steps are not compared
    declared = ProblemStream(horizon=30, step_at=step_at,
                             domain=stream.domain, dim=6, rule=l1_rule(0.1))
    np.testing.assert_array_equal(declared.smoothness, np.full(30, 2.0))


@pytest.mark.parametrize("declared", [False, True], ids=["steps", "arrays"])
@pytest.mark.parametrize("at", [1, 3])
@pytest.mark.parametrize("field, value", [
    ("smoothness_constant", np.nan), ("smoothness_constant", np.inf),
    ("smoothness_constant", -1.0), ("regularizer_lipschitz", np.nan),
    ("regularizer_lipschitz", np.inf), ("regularizer_lipschitz", -1.0)],
    ids=["L-nan", "L-inf", "L-neg", "B-nan", "B-inf", "B-neg"])
def test_bad_declared_constant_refused_before_any_step(declared, at, field,
                                                       value):
    """A NaN, infinite or negative L_k or B_k at the first or a middle step
    of a 6-step stream is a ValueError naming that step, raised when the
    stream is built, before any gradient is taken: whether its steps
    declare it (a stream given only ``step_at``) or its own L_k or B_k
    array does (a ``dataclasses.replace`` copy is checked again)."""
    stream, _ = tracking_stream(np.arange(12.0).reshape(6, 2),
                                whole_space(), eta=0.1)
    gradients = []

    def gradient(i, x):
        gradients.append(i)
        return stream.gradient(i, x)

    def step_at(k):
        step = dataclasses.replace(stream.step_at(k), smooth_gradient=(
            lambda x: gradient(k - 1, x)))
        return dataclasses.replace(step, **{field: value}) if k == at else step

    array = {"smoothness_constant": "smoothness",
             "regularizer_lipschitz": "reg_lipschitz"}[field]
    bad = getattr(stream, array).copy()
    bad[at - 1] = value
    with pytest.raises(ValueError, match=f"; step {at} declares"):
        if declared:
            dataclasses.replace(stream, gradient=gradient, **{array: bad})
        else:
            ProblemStream(horizon=stream.horizon, step_at=step_at,
                          domain=stream.domain, dim=stream.dim)
    assert not gradients


@pytest.mark.parametrize("array", ["smoothness", "reg_lipschitz"])
def test_declarations_of_another_horizon_are_refused(array):
    """A declared L_k or B_k array one step short is refused when the
    stream is built, before any gradient is taken."""
    stream, _ = tracking_stream(np.arange(12.0).reshape(6, 2),
                                whole_space(), eta=0.1)
    gradients = []
    with pytest.raises(ValueError, match="per step of 6"):
        dataclasses.replace(
            stream, gradient=lambda i, x: gradients.append(i)
            or stream.gradient(i, x), **{array: getattr(stream, array)[:-1]})
    assert not gradients


def _bookkeeping_cases():
    """(label, stream, config, model) for each case of the loop test."""
    cfg = GaussMarkovConfig(horizon=300, seed=7)
    n = cfg.n_coeffs
    halfwidth = 5.0 / (2.0 * np.sqrt(n))  # binds: optima reach it
    euclid = SolverConfig(step_size=cfg.step_size, generator=EUCLID,
                          initial_point=np.zeros(n))
    for label, domain in (("whole", None),
                          ("box", box(-halfwidth, halfwidth, dim=n))):
        stream, _ = generate_gauss_markov(cfg, domain=domain)
        for variant in ("exact", "inexact"):
            yield (f"example1-{label}-{variant}", stream, euclid,
                   _error_model(cfg.error_std, variant, 21))
    sep = SeparationConfig(frame_dim=16, window=8, horizon=12, seed=2,
                           error_std=0.5)
    stream, _ = generate_separation(sep)
    config = SolverConfig(step_size=sep.alpha_L, generator=EUCLID,
                          initial_point=np.zeros(stream.dim))
    for variant in ("exact", "inexact"):
        yield (f"example2-{variant}", stream, config,
               _error_model(sep.error_std, variant, 22))
    stream = _entropy_box_stream()
    config = SolverConfig(
        step_size=0.3, generator=negative_entropy_generator(lo=0.2, hi=1.0),
        initial_point=np.full(stream.dim, 0.6))
    yield ("entropy-box", stream, config,
           ErrorModel(gradient_std=0.05, prox_std=0.01, eps_cap=0.02,
                      seed=23))
    # streams given by their steps alone, one per rule: on the simplex,
    # entropy steps take the multiplicative weights closed form (h = 0)
    # or the inner solver (l1)
    for label, domain, gen, x0 in (
            ("euclid-box", box(-1.0, 1.0, dim=6), EUCLID, 0.5),
            ("entropy-simplex", simplex(6),
             negative_entropy_generator(lo=0.05, hi=1.0), 1.0 / 6.0)):
        for rule in (l1_rule(0.1), l1_rule(0.3), zero_rule()):
            stream = _one_rule_stream(domain, rule)
            config = SolverConfig(step_size=0.3, generator=gen,
                                  initial_point=np.full(stream.dim, x0))
            yield (f"one-rule-{label}-{rule.kind}{rule.weight:g}", stream,
                   config, ErrorModel(gradient_std=0.05, prox_std=0.01,
                                      eps_cap=0.02, seed=24))


@pytest.mark.parametrize("case", list(_bookkeeping_cases()),
                         ids=lambda case: case[0])
def test_bookkeeping_matches_the_per_step_loop(case, monkeypatch):
    """The records filled after the loop equal per-step ones exactly."""
    _, stream, config, model = case
    monkeypatch.setattr(solver, "_BLOCK_ROWS", 7)  # several blocks, one short
    trace = run(stream, config, model)
    expected = _per_step_loop(stream, config, model)
    for name in _PER_STEP_FIELDS:
        if name != "step_seconds":
            np.testing.assert_array_equal(getattr(trace, name),
                                          expected[name], err_msg=name)


@pytest.mark.parametrize("case", [
    case for case in _bookkeeping_cases()
    if not case[0].startswith("one-rule")], ids=lambda case: case[0])
def test_total_values_override_matches_the_fallback(case):
    _, stream, config, model = case
    fallback = dataclasses.replace(stream, batch_values=None)
    xs = run(stream, config, model).iterates
    xs[-3:] = np.random.default_rng(5).normal(scale=1e3,
                                              size=(3, stream.dim))
    for rows, start in ((xs, 0), (xs[:5], 0), (xs[5:9], 5)):
        np.testing.assert_array_equal(stream.total_values(rows, start=start),
                                      fallback.total_values(rows, start=start))


def _declared_streams():
    """(label, stream, config) of each builder's stream: lasso on the whole
    space and on a box, tracking at eta = 0 and eta > 0, separation, and
    tracking on a box in the entropy geometry (the inner solver)."""
    cfg = GaussMarkovConfig(horizon=40, seed=7)
    n = cfg.n_coeffs
    halfwidth = 5.0 / (2.0 * np.sqrt(n))
    config = SolverConfig(step_size=cfg.step_size, generator=EUCLID,
                          initial_point=np.zeros(n))
    for label, domain in (("whole", None),
                          ("box", box(-halfwidth, halfwidth, dim=n))):
        yield (f"lasso-{label}", generate_gauss_markov(cfg, domain)[0],
               config)
    centers = np.random.default_rng(6).normal(0.2, 0.5, (30, 6))
    config = SolverConfig(step_size=0.25, generator=EUCLID,
                          initial_point=np.zeros(6))
    for label, eta, domain in (("eta0", 0.0, whole_space()),
                               ("eta-box", 0.1, box(-0.5, 0.5, dim=6))):
        yield (f"tracking-{label}",
               tracking_stream(centers, domain, eta=eta)[0], config)
    sep = SeparationConfig(frame_dim=16, window=8, horizon=12, seed=2)
    stream, _ = generate_separation(sep)
    yield "separation", stream, SolverConfig(
        step_size=sep.alpha_L, generator=EUCLID,
        initial_point=np.zeros(stream.dim))
    stream = _entropy_box_stream()
    yield "entropy-box", stream, SolverConfig(
        step_size=0.3, generator=negative_entropy_generator(lo=0.2, hi=1.0),
        initial_point=np.full(stream.dim, 0.6))


def _steps_only(stream):
    """The stream without its declarations, which ``ProblemStream`` fills
    from ``step_at``."""
    return ProblemStream(horizon=stream.horizon, step_at=stream.step_at,
                         domain=stream.domain, dim=stream.dim,
                         batch_values=stream.batch_values)


@pytest.mark.parametrize("case", list(_declared_streams()),
                         ids=lambda case: case[0])
class TestDeclaredStream:
    def test_declarations_equal_the_steps(self, case):
        """gradient(i, x) is step i+1's gradient, L and B its constants, bit
        for bit, and every step holds the one declared rule."""
        _, stream, _ = case
        steps = [stream.step_at(k) for k in range(1, stream.horizon + 1)]
        rng = np.random.default_rng(9)
        for i, step in enumerate(steps):
            x = rng.normal(scale=2.0, size=stream.dim)
            assert (stream.gradient(i, x).tobytes()
                    == step.smooth_gradient(x).tobytes())
            assert step.prox_handle is stream.rule
        for name, field in (("smoothness", "smoothness_constant"),
                            ("reg_lipschitz", "regularizer_lipschitz")):
            declared = getattr(stream, name)
            assert declared.shape == (stream.horizon,)
            want = np.array([getattr(step, field) for step in steps])
            assert declared.tobytes() == want.tobytes(), name
            filled = getattr(_steps_only(stream), name)
            assert filled.tobytes() == want.tobytes(), name
        assert _steps_only(stream).rule is stream.rule

    def test_plays_as_a_stream_of_steps(self, case):
        """Without its declarations, or with one of them missing, the
        stream plays its steps, bit for bit as declared, under an exact
        and an inexact error model."""
        _, stream, config = case
        arrays = ("x0",) + tuple(name for name in _PER_STEP_FIELDS
                                 if name != "step_seconds")
        calls = []
        partial = dataclasses.replace(
            stream, rule=None,
            step_at=lambda k: calls.append(k) or stream.step_at(k))
        for model in (zero_error_model(seed=31),
                      ErrorModel(gradient_std=0.05, prox_std=0.05, seed=31)):
            declared = run(stream, config, model)
            for derived in (run(_steps_only(stream), config, model),
                            run(partial, config, model)):
                for name in arrays:
                    a, b = getattr(declared, name), getattr(derived, name)
                    assert a.tobytes() == b.tobytes(), name
        assert calls

    def test_run_builds_no_step(self, case):
        _, stream, config = case
        calls = []
        counted = dataclasses.replace(
            stream, step_at=lambda k: calls.append(k) or stream.step_at(k))
        run(counted, config, ErrorModel(gradient_std=0.05, prox_std=0.05,
                                        seed=32))
        assert not calls


class TestEuclideanEquivalence:
    def test_paths_agree_with_and_without_noise(self):
        for seed in range(3):
            cfg = GaussMarkovConfig(horizon=60, seed=20 + seed)
            stream, _ = generate_gauss_markov(cfg)
            config = SolverConfig(step_size=cfg.step_size, generator=EUCLID,
                                  initial_point=np.zeros(cfg.n_coeffs))
            model = ErrorModel(gradient_std=0.05, prox_std=0.05,
                               seed=30 + seed)
            mirror = run(stream, config, model)
            baseline = run_proximal_gradient(stream, config, model)
            gap = np.linalg.norm(mirror.iterates - baseline.iterates, axis=1)
            assert float(gap.max()) <= 1e-12

    @pytest.mark.parametrize("model", [
        zero_error_model(), ErrorModel(gradient_std=0.5, prox_std=0.5, seed=3),
    ], ids=["exact", "noisy"])
    def test_separation_paths_agree_bit_for_bit(self, model):
        """The baseline's nuclear and block prox branches, on example2."""
        cfg = SeparationConfig(frame_dim=8, window=4, horizon=12, seed=5,
                               alpha_L=0.2, alpha_S=0.2)
        stream, _ = generate_separation(cfg)
        config = SolverConfig(step_size=cfg.alpha_L, generator=EUCLID,
                              initial_point=np.zeros(stream.dim))
        mirror = run(stream, config, model)
        baseline = run_proximal_gradient(stream, config, model)
        assert np.all(np.any(mirror.iterates != 0.0, axis=1))
        np.testing.assert_array_equal(mirror.iterates, baseline.iterates)

    @pytest.mark.parametrize("model", [
        zero_error_model(), ErrorModel(gradient_std=0.1, prox_std=0.1, seed=6),
    ], ids=["exact", "noisy"])
    def test_zero_smooth_part_runs_in_both_loops(self, model):
        """h = 0.5 ||x||_1 alone declares L = 0, which bounds no step."""
        step = CompositeLossStep(
            smooth_value=lambda x: 0.0, smooth_gradient=np.zeros_like,
            nonsmooth_value=lambda x: 0.5 * float(np.sum(np.abs(x))),
            smoothness_constant=0.0, regularizer_lipschitz=0.5 * np.sqrt(3),
            prox_handle=l1_rule(0.5), dim=3)
        config = SolverConfig(step_size=0.5, generator=EUCLID,
                              initial_point=np.array([1.0, -2.0, 0.1]))
        mirror = run(_static_stream(step, 3), config, model)
        baseline = run_proximal_gradient(_static_stream(step, 3), config,
                                         model)
        np.testing.assert_array_equal(mirror.iterates, baseline.iterates)
        if model == zero_error_model():  # soft thresholds at 0.25
            np.testing.assert_array_equal(mirror.iterates[-1],
                                          [0.25, -1.25, 0.0])

    @pytest.mark.parametrize("model", [
        zero_error_model(), ErrorModel(gradient_std=0.1, prox_std=0.1, seed=8),
    ], ids=["exact", "noisy"])
    @pytest.mark.parametrize("eta", [0.0, 0.2])
    @pytest.mark.parametrize("domain", [
        box(-0.3, 0.3, dim=4), box(0.0, 0.5, dim=4), ball(1.0), simplex(4)],
        ids=["box", "nonnegative-box", "ball", "simplex"])
    def test_bounded_paths_agree_bit_for_bit(self, domain, eta, model):
        """The baseline's projections, its simplex l1 branch and its zero
        rule, against the composed prox of ``run``."""
        centers = np.random.default_rng(9).normal(0.2, 0.5, (30, 4))
        stream, _ = tracking_stream(centers, domain, eta=eta)
        config = SolverConfig(step_size=0.3, generator=EUCLID,
                              initial_point=np.full(4, 0.25))
        mirror = run(stream, config, model)
        baseline = run_proximal_gradient(stream, config, model)
        np.testing.assert_array_equal(mirror.iterates, baseline.iterates)

    def test_zero_error_static_quadratic_matches_classical_trajectory(self):
        A = np.diag([1.0, 3.0])
        c = np.array([0.5, -0.5])
        step = _quadratic_step(A, c, eta=0.1)
        stream = _static_stream(step, 50)
        config = SolverConfig(step_size=0.2, generator=EUCLID,
                              initial_point=np.ones(2))
        mirror = run(stream, config, zero_error_model())
        x = np.ones(2)
        for _ in range(50):
            v = x - 0.2 * step.smooth_gradient(x)
            x = np.sign(v) * np.maximum(np.abs(v) - 0.2 * 0.1, 0.0)
        np.testing.assert_allclose(mirror.iterates[-1], x, atol=1e-12)


class TestTraceCsv:
    def test_schema_and_17_digit_round_trip(self, tmp_path):
        cfg = GaussMarkovConfig(horizon=25, seed=8)
        stream, _ = generate_gauss_markov(cfg)
        config = SolverConfig(step_size=cfg.step_size, generator=EUCLID,
                              initial_point=np.zeros(cfg.n_coeffs))
        trace = run(stream, config, zero_error_model())
        fill_optima(trace, stream, stream_optima(stream, tol=1e-9))
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        lines = path.read_text().splitlines()
        assert lines[0] == ("k,f_x,f_star,instant_regret,grad_error_norm,"
                            "eps,dist_to_optimum,cum_regret")
        assert len(lines) == 26
        cols = read_trace_csv(path)
        np.testing.assert_array_equal(cols["f_x"], trace.f_played)
        np.testing.assert_array_equal(cols["f_star"], trace.f_star)
        np.testing.assert_array_equal(
            cols["cum_regret"], np.cumsum(trace.f_played - trace.f_star))

    def test_requires_optima(self, tmp_path):
        step = _quadratic_step(np.eye(2), np.zeros(2))
        stream = _static_stream(step, 3)
        config = SolverConfig(step_size=0.5, generator=EUCLID,
                              initial_point=np.ones(2))
        trace = run(stream, config, zero_error_model())
        with pytest.raises(MissingOptimaError):
            write_trace_csv(trace, tmp_path / "trace.csv")


@pytest.mark.parametrize("case", list(_bookkeeping_cases()),
                         ids=lambda case: case[0])
def test_one_subproblem_solver_for_a_stream_of_one_rule(case, monkeypatch):
    """A stream has one rule, so ``run`` builds one solver, for it, across
    all its blocks: declared or given by its steps."""
    _, stream, config, model = case
    built, real = [], solver.subproblem_solver
    monkeypatch.setattr(solver, "subproblem_solver",
                        lambda *a: built.append(a) or real(*a))
    monkeypatch.setattr(solver, "_BLOCK_ROWS", 7)
    run(stream, config, model)
    assert len(built) == 1
    assert built[0][0] is stream.rule


def _run_peak(T, model):
    """tracemalloc peak of ``run`` on an example1 stream, above its start;
    the stream is built before tracing starts."""
    cfg = GaussMarkovConfig(horizon=T, seed=3)
    stream, _ = generate_gauss_markov(cfg)
    config = SolverConfig(step_size=cfg.step_size, generator=EUCLID,
                          initial_point=np.zeros(stream.dim))
    gc.collect()
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        run(stream, config, model)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()


@pytest.mark.parametrize("model", [
    zero_error_model(seed=9),
    ErrorModel(gradient_std=0.05, prox_std=0.05, seed=9)],
    ids=["exact", "inexact"])
def test_run_scratch_does_not_grow_with_the_horizon(model):
    """Beyond the trace's own arrays ((n + 7) floats a step), ``run`` keeps
    block-sized scratch only: the error draws too are made one block at a
    time."""
    n = GaussMarkovConfig().n_coeffs
    per_step = (n + 7) * 8
    growth = _run_peak(4096, model) - _run_peak(1024, model)
    assert growth <= 3072 * per_step + 64 * 1024


class TestShiftedClipRule:
    """The l1 rule on a box with every lower bound >= 0 is a shifted clip
    (``Domain.nonnegative``); the same projection on a Domain without
    bounds takes the generic clip after shrink."""

    @staticmethod
    def _entropy_case():
        stream = _entropy_box_stream(T=50)
        config = SolverConfig(
            step_size=0.3, generator=negative_entropy_generator(lo=0.2,
                                                                hi=1.0),
            initial_point=np.full(stream.dim, 0.6))
        return stream, config

    def test_runs_bit_for_bit_as_the_generic_rule(self, monkeypatch):
        stream, config = self._entropy_case()
        dom = stream.domain
        generic = dataclasses.replace(stream, domain=Domain(
            project=dom.project, diameter=dom.diameter, name=dom.name))
        assert dom.nonnegative and generic.domain.bounds is None
        shrinks = []
        real = prox.soft_threshold
        monkeypatch.setattr(prox, "soft_threshold",
                            lambda *a: shrinks.append(1) or real(*a))
        arrays = ("x0",) + tuple(name for name in _PER_STEP_FIELDS
                                 if name != "step_seconds")
        for model in (zero_error_model(seed=25),
                      ErrorModel(gradient_std=0.05, prox_std=0.01,
                                 eps_cap=0.02, seed=25)):
            fast = run(stream, config, model)
            assert not shrinks
            slow = run(generic, config, model)
            assert shrinks  # the generic run took clip after shrink
            shrinks.clear()
            for name in arrays:
                a, b = getattr(fast, name), getattr(slow, name)
                assert a.dtype == b.dtype and a.shape == b.shape, name
                assert a.tobytes() == b.tobytes(), name

    def test_one_prox_per_iteration_and_per_residual_check(self,
                                                           monkeypatch):
        """perfbench counts ``composed_prox`` calls through the module
        global: every FISTA iteration and every residual check makes one."""
        stream, config = self._entropy_case()
        step = stream.step_at(1)
        solve = subproblem_solver(step.prox_handle, config.generator,
                                  stream.domain, config.step_size)
        assert solve.func is prox._inner_solve
        calls, runs = [], []
        real_prox, real_kernel = prox.composed_prox, prox.prox_gradient

        def kernel(*args):
            runs.append(real_kernel(*args))
            return runs[-1]

        monkeypatch.setattr(prox, "composed_prox",
                            lambda *a: calls.append(1) or real_prox(*a))
        monkeypatch.setattr(prox, "prox_gradient", kernel)
        x = np.asarray(config.initial_point)
        solve(x, step.smooth_gradient(x))
        (_, _, converged, iterations), = runs
        assert converged and iterations > RESIDUAL_CHECK_EVERY
        checks = 1 + iterations // RESIDUAL_CHECK_EVERY
        assert iterations % RESIDUAL_CHECK_EVERY == 0
        assert len(calls) == iterations + checks
