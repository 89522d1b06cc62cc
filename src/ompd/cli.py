"""Command-line entry point: run experiments, verify their bound files.

Usage:
    ompd run --experiment example1 --seed 7 --out results/
    ompd verify --out results/

Configuration files are flat INI-style key=value text; command-line flags
override file values. [run] holds experiment, seed (>= 0), horizon (>= 1),
variant and optimum_tol. example1 and custom read [example1] or its alias
[custom] and accept a box [domain]; example2 reads [example2] and runs on
the whole space. Every run writes the resolved configuration to
``run_config.cfg`` inside the output directory, which is what ``verify``
reads back.

Seed splitting: the manifest seed never feeds a generator directly. The
stream seed is ``seed XOR 0x53545245`` and the error-model seed is
``seed XOR 0x4E4F4953``; inside the error model, gradient and prox draws
are further separated by their own XOR tags. Variants of one run thus
share the problem stream and differ only in error draws.

Exit codes:
    0  success
    1  certified bound violated, or a run failed mid-stream
    2  configuration parse or validation error
    3  output directory nonempty and --overwrite not given
    4  expected trace files missing
    5  trace sanity violation (some f_k(x_k) below f_k(x_k*))
    6  recorded constants fail sampled validation
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import os
import sys
import typing
from typing import Callable, Optional

import numpy as np

from . import experiments, regret, runio
from .bregman import euclidean_generator
from .errors import OmpdError, SolverRunError
from .losses import box, validate_constants, whole_space

STREAM_SEED_XOR = 0x53545245  # "STRE"
ERROR_SEED_XOR = experiments.ERROR_SEED_XOR

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_OVERWRITE = 3
EXIT_MISSING = 4
EXIT_SANITY = 5
EXIT_CONSTANTS = 6

_SANITY_TOL = 1e-6
_BOUND_TOL_PER_STEP = 1e-6


class ConfigError(Exception):
    pass


@dataclasses.dataclass(frozen=True)
class _Experiment:
    """Everything the CLI knows about one built-in experiment."""

    section: str           # config-file section holding the config fields
    config: type           # the config dataclass
    step_size: str         # the config field holding lambda
    optimum_tol: float     # default of [run] optimum_tol
    domain_dim: Optional[str]  # field sizing a box [domain]; None: whole space
    stream: Callable       # (cfg, domain) -> ProblemStream
    run: Callable          # (cfg, domain, **kwargs) -> {variant: result}


# The lambdas look the experiments functions up at call time, so a caller
# that replaces a module attribute (a test spy, a tracer) is honoured.
_EXPERIMENTS = {
    "example1": _Experiment(
        section="example1", config=experiments.GaussMarkovConfig,
        step_size="step_size", optimum_tol=regret.OPTIMUM_TOL_DEFAULT,
        domain_dim="n_coeffs",
        stream=lambda cfg, domain: experiments.generate_gauss_markov(
            cfg, domain)[0],
        run=lambda cfg, domain, **kw: experiments.run_example1(
            cfg, domain=domain, **kw)),
    "example2": _Experiment(
        section="example2", config=experiments.SeparationConfig,
        step_size="alpha_L", optimum_tol=experiments.SEPARATION_OPTIMUM_TOL,
        domain_dim=None,
        stream=lambda cfg, domain: experiments.generate_separation(cfg)[0],
        run=lambda cfg, domain, **kw: experiments.run_example2(cfg, **kw)[0]),
}
# custom is example1 read from a [custom] section
_EXPERIMENTS["custom"] = _EXPERIMENTS["example1"]

_RUN_KEYS = {"experiment": str, "seed": int, "horizon": int, "variant": str,
             "optimum_tol": float}
_DOMAIN_KEYS = {"kind": str, "diameter": float}


def _parse_index_tuple(raw: str):
    return tuple(int(tok) for tok in raw.replace(",", " ").split())


def _field_parsers(cls):
    return {name: _parse_index_tuple if hint is tuple else hint
            for name, hint in typing.get_type_hints(cls).items()}


def _parse_section(parser, section, allowed):
    if not parser.has_section(section):
        return {}
    out = {}
    for key, raw in parser.items(section):
        if key not in allowed:
            raise ConfigError(f"unknown key '{key}' in section [{section}]")
        try:
            out[key] = allowed[key](raw)
        except ValueError as exc:
            raise ConfigError(
                f"invalid value for key '{key}' in section [{section}]: {exc}")
    return out


def _load_config(path):
    """Parse a config file into {section: {key: value}}, all sections set.

    [custom] is read into [example1], the section of its table row. A file
    configparser rejects (a repeated section or key, no section header, a
    bad %-interpolation) is a config error.
    """
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keep key case (mu_L vs mu_S)
    try:
        if path is not None:
            if not os.path.exists(path):
                raise ConfigError(f"config file not found: {path}")
            parser.read(path)
            for section in parser.sections():
                if section not in ("run", "domain", *_EXPERIMENTS):
                    raise ConfigError(f"unknown section [{section}]")
        sections = {"run": _parse_section(parser, "run", _RUN_KEYS)}
        for name, exp in _EXPERIMENTS.items():
            sections.setdefault(exp.section, {}).update(
                _parse_section(parser, name, _field_parsers(exp.config)))
        sections["domain"] = _parse_section(parser, "domain", _DOMAIN_KEYS)
    except configparser.InterpolationError as exc:
        raise ConfigError(f"invalid value for key '{exc.option}' in section "
                          f"[{exc.section}]: {exc.message}") from exc
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc
    return sections


def _variants(label: str):
    if label == "both":
        return ("exact", "inexact")
    if label in ("exact", "inexact"):
        return (label,)
    raise ConfigError(f"invalid value for key 'variant': {label}")


def _build_domain(exp: _Experiment, dom, cfg):
    kind = dom.get("kind", "whole_space")
    if kind == "whole_space":
        return whole_space()
    if exp.domain_dim is None:
        raise ConfigError(f"{exp.section} runs on the whole space")
    if kind == "box":
        diameter = dom.get("diameter")
        if diameter is None:
            raise ConfigError("missing key 'diameter' in section [domain]")
        if not 0.0 < diameter < np.inf:
            raise ConfigError(f"invalid value for key 'diameter' in section "
                              f"[domain]: {diameter} (must be positive and "
                              f"finite)")
        dim = getattr(cfg, exp.domain_dim)
        halfwidth = diameter / (2.0 * np.sqrt(dim))
        return box(-halfwidth, halfwidth, dim=dim)
    raise ConfigError(f"invalid value for key 'kind' in section [domain]: "
                      f"{kind}")


def _write_resolved_config(path, manifest, cfg, dom) -> None:
    parser = configparser.ConfigParser()
    parser.optionxform = str
    parser["run"] = {"experiment": manifest["experiment"],
                     "seed": str(manifest["seed"]),
                     "variant": manifest["variant"],
                     "optimum_tol": f"{manifest['optimum_tol']:.17g}"}
    section = _EXPERIMENTS[manifest["experiment"]].section
    parser[section] = {}
    for field in dataclasses.fields(cfg):
        value = getattr(cfg, field.name)
        if isinstance(value, tuple):
            value = " ".join(str(i) for i in value)
        parser[section][field.name] = (f"{value:.17g}"
                                       if isinstance(value, float)
                                       else str(value))
    parser["domain"] = {k: str(v) for k, v in dom.items()} or \
        {"kind": "whole_space"}
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)


def cmd_run(args) -> int:
    try:
        sections = _load_config(args.config)
        run_cfg = sections["run"]
        experiment = args.experiment or run_cfg.get("experiment")
        if experiment not in _EXPERIMENTS:
            raise ConfigError(
                f"invalid or missing key 'experiment': {experiment}")
        exp = _EXPERIMENTS[experiment]
        seed = args.seed if args.seed is not None else run_cfg.get("seed", 0)
        if seed < 0:
            raise ConfigError(f"invalid value for key 'seed': {seed} "
                              f"(must be nonnegative)")
        variant = args.variant or run_cfg.get("variant", "both")
        variants = _variants(variant)
        optimum_tol = run_cfg.get("optimum_tol", exp.optimum_tol)
        manifest = {"experiment": experiment, "seed": seed,
                    "variant": variant, "optimum_tol": optimum_tol}
        params = dict(sections[exp.section])
        if args.horizon is not None:
            params["horizon"] = args.horizon
        elif "horizon" in run_cfg:
            params["horizon"] = run_cfg["horizon"]
        params["seed"] = seed ^ STREAM_SEED_XOR
        cfg = exp.config(**params)
        domain = _build_domain(exp, sections["domain"], cfg)
    except (ConfigError, TypeError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = args.out
    if os.path.isdir(out_dir) and os.listdir(out_dir) and not args.overwrite:
        print(f"output directory {out_dir} is not empty; pass --overwrite",
              file=sys.stderr)
        return EXIT_OVERWRITE
    os.makedirs(out_dir, exist_ok=True)

    try:
        results = exp.run(cfg, domain, out_dir=out_dir, variants=variants,
                          error_seed=seed ^ ERROR_SEED_XOR,
                          optimum_tol=optimum_tol)
    except SolverRunError as exc:
        partial = exc.trace
        path = os.path.join(out_dir, "partial_trace.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("k,f_x\n")
            for i in range(partial.horizon):
                fh.write(f"{i + 1},{partial.f_played[i]:.17g}\n")
        print(f"run failed: {exc} (partial trace in {path})", file=sys.stderr)
        return EXIT_FAIL
    except OmpdError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_FAIL

    _write_resolved_config(os.path.join(out_dir, "run_config.cfg"),
                           manifest, cfg, sections["domain"])
    for variant in variants:
        res = results[variant]
        T = res.trace.horizon
        print(f"variant={variant} R_T={res.regret[-1]:.6g} "
              f"R_T_over_T={res.regret[-1] / T:.6g} "
              f"bound_margin={res.rhs[-1] - res.regret[-1]:.6g}")
    return EXIT_OK


def _verify_variant(out_dir, variant, stream, lam, optimum_tol):
    vdir = os.path.join(out_dir, variant)
    trace_path = os.path.join(vdir, "trace.csv")
    state_path = os.path.join(vdir, "bound_state.csv")
    if not (os.path.exists(trace_path) and os.path.exists(state_path)):
        return EXIT_MISSING, f"variant={variant} error=missing_trace"
    trace_cols = runio.read_trace_csv(trace_path)
    sanity = trace_cols["f_x"] - trace_cols["f_star"]
    if np.min(sanity) < -(_SANITY_TOL + optimum_tol):
        return EXIT_SANITY, (f"variant={variant} error=sanity "
                             f"worst={np.min(sanity):.6g}")
    state = runio.read_state_csv(state_path)

    # sampled validation of the recorded constants against the stream
    T = state["eps"].shape[0]
    for k in np.linspace(1, T, num=min(5, T), dtype=int):
        step = stream.step_at(int(k))
        recorded = dataclasses.replace(
            step, smoothness_constant=float(state["L_k"][k - 1]),
            regularizer_lipschitz=float(state["B_k"][k - 1]))
        report = validate_constants(recorded, samples=100, seed=int(k))
        if not report.passed(tol=1e-6 * max(1.0, state["L_k"][k - 1])):
            return EXIT_CONSTANTS, (f"variant={variant} error=constants "
                                    f"step={k} "
                                    f"descent={report.descent_margin:.6g}")

    domain = stream.domain
    rebuilt = runio.trace_from_state(state, lam, domain.kind, domain.diameter)
    ledger = regret.ledger_from_trace(rebuilt, euclidean_generator(), lam,
                                      domain)
    worst = regret.certified_margin(rebuilt, ledger, domain.kind,
                                    _BOUND_TOL_PER_STEP)
    line = f"variant={variant} worst_margin={worst:.6g}"
    if worst < 0.0:
        return EXIT_FAIL, line + " error=bound_violated"
    return EXIT_OK, line


def cmd_verify(args) -> int:
    out_dir = args.out
    cfg_path = args.config or os.path.join(out_dir, "run_config.cfg")
    if not os.path.exists(cfg_path):
        print(f"verify: no run configuration at {cfg_path}", file=sys.stderr)
        return EXIT_MISSING
    try:
        sections = _load_config(cfg_path)
        run_cfg = sections["run"]
        experiment = run_cfg.get("experiment")
        if experiment not in _EXPERIMENTS:
            raise ConfigError(f"invalid key 'experiment': {experiment}")
        exp = _EXPERIMENTS[experiment]
        variants = _variants(run_cfg.get("variant", "both"))
        optimum_tol = run_cfg.get("optimum_tol", exp.optimum_tol)
        cfg = exp.config(**sections[exp.section])
        domain = _build_domain(exp, sections["domain"], cfg)
    except (ConfigError, TypeError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    stream = exp.stream(cfg, domain)
    lam = getattr(cfg, exp.step_size)
    status = EXIT_OK
    for variant in variants:
        code, line = _verify_variant(out_dir, variant, stream, lam,
                                     optimum_tol)
        print(line)
        if code != EXIT_OK and status == EXIT_OK:
            status = code
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ompd",
        description="Run and verify inexact online proximal mirror descent "
                    "experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment and write CSVs")
    p_run.add_argument("--experiment", choices=tuple(_EXPERIMENTS))
    p_run.add_argument("--config", help="INI-style key=value config file")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--horizon", type=int)
    p_run.add_argument("--variant", choices=("exact", "inexact", "both"))
    p_run.add_argument("--overwrite", action="store_true",
                       help="allow writing into a nonempty directory")
    p_run.set_defaults(func=cmd_run)

    p_ver = sub.add_parser("verify",
                           help="recheck the certified bound from CSVs")
    p_ver.add_argument("--out", required=True)
    p_ver.add_argument("--config")
    p_ver.set_defaults(func=cmd_verify)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
