"""The three workloads: inputs, one timed operation, and its checks.

Every operation is made from one instance seed. A workload plays a fixed
corpus of instances, in an order drawn from the benchmark seed; the
held-out seed plays a second corpus that is used only to confirm claims.
The corpus is fixed because the offline oracle's cost varies up to 2x
between streams of one size (example2 at T=10: 10.6 to 21.3 s over six
seeds), and a run affords two example2 streams, so drawing fresh streams
per seed would leave every run-to-run spread above its bound.

``prepare`` makes the inputs and is not timed; ``play`` is the timed
operation; ``check`` inspects its outputs afterwards, outside any span.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import shutil
from dataclasses import dataclass

import numpy as np

from ompd import bregman, cli, losses, prox, regret, runio, solver

import checks
from clock import Clock

HOLDOUT_SEED = 2304


@dataclass
class OpResult:
    run: Clock
    verifies: list    # one Clock per verify repetition
    steps: int        # online decisions certified: T x variants
    outputs: object


class CliWorkload:
    """``ompd run`` then ``ompd verify``, called in-process via cli.main."""

    def __init__(self, name, corpus, variants, horizon, optimum_tol,
                 run_args, config_text=None):
        self.name = name
        self.corpus = corpus
        self.holdout = tuple(HOLDOUT_SEED + i for i in range(len(corpus)))
        self.variants = variants
        self.horizon = horizon
        self.rel_tol = checks.REFERENCE_SLACK * optimum_tol
        self.run_args = run_args
        self.config_text = config_text

    def prepare(self, instance: int, workdir: str) -> list:
        argv = ["run", *self.run_args, "--seed", str(instance)]
        if self.config_text is not None:
            path = os.path.join(workdir, f"{self.name}.cfg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(self.config_text)
            argv += ["--config", path]
        return argv

    def play(self, argv: list, workdir: str, verify_repeats: int,
             sample: bool) -> OpResult:
        out = os.path.join(workdir, "out")
        shutil.rmtree(out, ignore_errors=True)
        run, verifies, codes = Clock(sample), [], []
        with contextlib.redirect_stdout(io.StringIO()):
            with run:
                rc_run = cli.main(argv + ["--out", out])
            for _ in range(verify_repeats):
                with Clock(sample) as clock:
                    codes.append(cli.main(["verify", "--out", out]))
                verifies.append(clock)
        rc_verify = next((code for code in codes if code != 0), 0)
        return OpResult(run, verifies, self.horizon * len(self.variants),
                        (out, rc_run, rc_verify))

    def check(self, result: OpResult, instance: int, refs: dict) -> dict:
        out, rc_run, rc_verify = result.outputs
        return checks.check_cli_op(out, self.variants, self.horizon, rc_run,
                                   rc_verify, refs, self.name, instance,
                                   self.rel_tol)


# example2 defaults written out, so a later change of a default or of how
# the CLI reads optimum_tol leaves the work of this workload unchanged
EX2_CONFIG = """\
[run]
experiment = example2
variant = exact
horizon = 10
optimum_tol = 1e-6

[example2]
frame_dim = 64
window = 16
mu_L = 0.005
mu_S = 2.0
lambda_L = 100000.0
lambda_S = 0.034
alpha_L = 0.2
alpha_S = 0.2
synth_rank = 2
synth_sparsity = 0.05
background_scale = 100000.0
foreground_scale = 30000.0
noise_std = 1.0
rotation = 0.01
error_std = 0.0
"""


# mirror_box: ||x - c_k||^2 + ETA ||x||_1 on the box [LO, HI]^DIM, with
# c_k a random walk clipped to [C_LO, C_HI]; on the box ||x||_1 = sum(x),
# so the per-step optimum is clip(c_k - ETA/2, LO, HI) in closed form
MB_DIM = 32
MB_LO, MB_HI = 0.2, 1.0
MB_C_LO, MB_C_HI = 0.3, 0.9
MB_WALK_STD = 0.02
MB_ETA = 0.1
MB_LAM = 0.3
MB_HORIZON = 2000
MB_INNER_TOL = 1e-9
MB_GRAD_STD, MB_PROX_STD, MB_EPS_CAP = 0.05, 0.01, 0.05
MB_ERROR_SEED_XOR = 0x4E4F4953


@dataclass
class MirrorInputs:
    stream: object
    optima: np.ndarray
    x0: np.ndarray
    models: dict


class MirrorBox:
    """Library calls on an entropy-geometry stream with closed-form optima.

    The run time covers solver.run, fill_optima, ledger_from_trace,
    theorem_rhs and dynamic_regret for each variant. The verify time is
    the library form of ``ompd verify``: the bound state is written with
    runio, read back, and the regret and bound curves are rebuilt from
    the file.
    """

    name = "mirror_box"
    corpus = (1, 2, 3, 4, 5)
    holdout = tuple(HOLDOUT_SEED + i for i in range(5))
    variants = ("exact", "inexact")
    rel_tol = checks.REFERENCE_SLACK * MB_INNER_TOL
    sampled_steps = (1, MB_HORIZON // 2, MB_HORIZON)

    def prepare(self, instance: int, workdir: str) -> MirrorInputs:
        rng = np.random.default_rng(instance)
        walk = rng.normal(0.0, MB_WALK_STD, size=(MB_HORIZON, MB_DIM))
        centers = np.empty((MB_HORIZON, MB_DIM))
        c = rng.uniform(MB_C_LO, MB_C_HI, size=MB_DIM)
        for k in range(MB_HORIZON):
            c = np.clip(c + walk[k], MB_C_LO, MB_C_HI)
            centers[k] = c
        rule = prox.l1_rule(MB_ETA)
        lipschitz = MB_ETA * math.sqrt(MB_DIM)

        def step_at(k: int) -> losses.CompositeLossStep:
            ck = centers[k - 1]
            return losses.CompositeLossStep(
                smooth_value=lambda x: float(np.dot(x - ck, x - ck)),
                smooth_gradient=lambda x: 2.0 * (x - ck),
                nonsmooth_value=lambda x: MB_ETA * float(np.sum(np.abs(x))),
                smoothness_constant=2.0, regularizer_lipschitz=lipschitz,
                prox_handle=rule, dim=MB_DIM)

        domain = losses.box(MB_LO, MB_HI, dim=MB_DIM)
        stream = losses.ProblemStream(horizon=MB_HORIZON, step_at=step_at,
                                      domain=domain, dim=MB_DIM)
        seed = instance ^ MB_ERROR_SEED_XOR
        models = {"exact": losses.zero_error_model(seed=seed),
                  "inexact": losses.ErrorModel(
                      gradient_std=MB_GRAD_STD, prox_std=MB_PROX_STD,
                      eps_cap=MB_EPS_CAP, seed=seed)}
        return MirrorInputs(
            stream=stream,
            optima=np.clip(centers - 0.5 * MB_ETA, MB_LO, MB_HI),
            x0=np.full(MB_DIM, 0.5 * (MB_LO + MB_HI)), models=models)

    def play(self, inputs: MirrorInputs, workdir: str, verify_repeats: int,
             sample: bool) -> OpResult:
        stream, domain = inputs.stream, inputs.stream.domain
        gen = bregman.negative_entropy_generator(lo=MB_LO, hi=MB_HI)
        config = solver.SolverConfig(step_size=MB_LAM, generator=gen,
                                     initial_point=inputs.x0,
                                     inner_tolerance=MB_INNER_TOL)
        run, traces, curves = Clock(sample), {}, {}
        for variant in self.variants:
            with run:
                trace = solver.run(stream, config, inputs.models[variant])
                regret.fill_optima(trace, stream, optima=inputs.optima)
                ledger = regret.ledger_from_trace(trace, gen, MB_LAM, domain)
                rhs = regret.theorem_rhs(ledger, trace, "bounded")
                R = regret.dynamic_regret(trace)
            traces[variant] = trace
            curves[variant] = (R, rhs)
        verifies = []
        for _ in range(verify_repeats):
            with Clock(sample) as clock:
                from_file = {v: self._verify(traces[v], gen, domain, workdir)
                             for v in self.variants}
            verifies.append(clock)
        outputs = {v: (*curves[v], *from_file[v], traces[v].f_star)
                   for v in self.variants}
        return OpResult(run, verifies, MB_HORIZON * len(self.variants),
                        (inputs, outputs))

    @staticmethod
    def _verify(trace, gen, domain, workdir):
        """Persist the bound state, read it back, rebuild R and RHS."""
        path = os.path.join(workdir, "state.csv")
        runio.write_state_csv(trace, path)
        rebuilt = runio.trace_from_state(runio.read_state_csv(path), MB_LAM,
                                         domain.kind, domain.diameter)
        rhs = regret.theorem_rhs(
            regret.ledger_from_trace(rebuilt, gen, MB_LAM, domain), rebuilt,
            "bounded")
        return regret.dynamic_regret(rebuilt), rhs

    def check(self, result: OpResult, instance: int, refs: dict) -> dict:
        inputs, outputs = result.outputs
        shared = self._check_optima(inputs)
        verdicts = {}
        for variant in self.variants:
            R, rhs, R_file, rhs_file, f_star = outputs[variant]
            problems = list(shared)
            values = np.concatenate((R, rhs, R_file, rhs_file, f_star))
            if not np.all(np.isfinite(values)):
                verdicts[variant] = (None, problems + ["nonfinite output"])
                continue
            if abs(R_file[-1] - R[-1]) > 1e-9 * max(1.0, abs(R[-1])):
                problems.append("R_T rebuilt from the state file differs")
            obs = {"R_T": float(R[-1]), "sum_f_star": math.fsum(f_star),
                   "min_margin": min(
                       checks.min_prefix_margin(list(R), list(rhs)),
                       checks.min_prefix_margin(list(R_file),
                                                list(rhs_file)))}
            problems += checks.compare(
                obs, checks.reference_for(refs, self.name, instance, variant),
                self.rel_tol)
            verdicts[variant] = (obs, problems)
        return verdicts

    def _check_optima(self, inputs: MirrorInputs) -> list:
        """Sampled closed-form optima against the library's offline oracle."""
        problems = []
        stream = inputs.stream
        for k in self.sampled_steps:
            step = stream.step_at(k)
            x_oracle, f_oracle = regret.offline_optimum(step, stream.domain,
                                                        tol=1e-10)
            x_closed = inputs.optima[k - 1]
            f_closed = step.total_value(x_closed)
            if (np.linalg.norm(x_oracle - x_closed) > 1e-8
                    or abs(f_oracle - f_closed) > 1e-9 * max(1.0, f_closed)):
                problems.append(f"closed-form optimum at step {k} differs "
                                f"from offline_optimum")
        return problems


WORKLOADS = {w.name: w for w in (
    CliWorkload("ex1_cli", corpus=(7, 8, 9), variants=("exact", "inexact"),
                horizon=5000, optimum_tol=1e-9,
                run_args=["--experiment", "example1", "--horizon", "5000",
                          "--variant", "both"]),
    CliWorkload("ex2_cli", corpus=(7, 8), variants=("exact",), horizon=10,
                optimum_tol=1e-6, run_args=[], config_text=EX2_CONFIG),
    MirrorBox(),
)}
