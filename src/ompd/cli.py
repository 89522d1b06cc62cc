"""Command-line entry point: run experiments, verify their bound files.

Usage:
    ompd run --experiment example1 --seed 7 --out results/
    ompd verify --out results/

Configuration files are flat INI-style key=value text; command-line flags
override file values. [run] holds experiment, seed (>= 0), horizon (>= 1),
variant and optimum_tol. example1 and custom read [example1] or its alias
[custom] and accept a box [domain] (a diameter needs kind = box); example2
reads [example2] and runs on the whole space. One resolver turns a file
into a run for both commands, so ``verify --config FILE`` rebuilds the run
that ``run --config FILE`` played. Every run writes the resolved
configuration to ``run_config.cfg`` inside the output directory, which
resolves to the run that wrote it and is what ``verify`` reads by default.
``run`` first removes an earlier run's ``run_config.cfg``,
``partial_trace.csv``, ``exact/`` and ``inexact/``, and nothing else, so
no file of the earlier run outlives it, failed or overwritten.
``verify`` certifies each variant from its ``bound_state.csv`` alone;
``trace.csv`` is a report for readers. Each experiment is one row of
``experiments.EXPERIMENTS``: ``run`` plays it with ``experiments.play``,
and ``verify`` takes the stream, the exact constants, the step size and
the distance generator from the same row.

Seed splitting: the manifest seed never feeds a generator directly. The
stream seed is ``seed XOR 0x53545245`` and the error-model seed is
``seed XOR 0x4E4F4953`` (the library's rule too); inside the error model,
gradient and prox draws are further separated by their own XOR tags.
Variants of one run thus share the problem stream and differ only in
error draws.

Exit codes:
    0  success
    1  certified bound violated, a run failed mid-stream, or a step size
       above 2 sigma_omega / max_k L_k
    2  configuration parse or validation error
    3  output directory refused: nonempty and --overwrite not given, or
       not creatable (an existing file, or a path under one)
    4  run_config.cfg missing, or a bound_state.csv missing or unreadable
    5  sanity violation in bound_state.csv: an f_star off the stream's
       value at its optimum, an f_k(x_k) below f_k(x_k*), a nonfinite gap,
       an e_norm, eps or q_norm that is negative or nonfinite, or a row
       k = 0 that is not the experiments' start point
       (``experiments.initial_point``)
    6  a recorded L_k or B_k below its exact value at some step
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import os
import shutil
import sys
import typing

import numpy as np

from . import experiments, regret, runio
from .errors import OmpdError, SolverRunError, StepSizeError
from .experiments import EXPERIMENTS, STREAM_SEED_XOR
from .losses import box, whole_space
from .prox import check_step_size

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_OVERWRITE = 3
EXIT_MISSING = 4
EXIT_SANITY = 5
EXIT_CONSTANTS = 6

_SANITY_TOL = 1e-6
#: relative slack of the constants check, for rounding in the closed forms
_CONSTANTS_RTOL = 1e-12


class ConfigError(Exception):
    pass


_RUN_KEYS = {"experiment": str, "seed": int, "horizon": int, "variant": str,
             "optimum_tol": float}
_DOMAIN_KEYS = {"kind": str, "diameter": float}
_VARIANTS = {"exact": ("exact",), "inexact": ("inexact",),
             "both": ("exact", "inexact")}


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
                if section not in ("run", "domain", *EXPERIMENTS):
                    raise ConfigError(f"unknown section [{section}]")
        sections = {"run": _parse_section(parser, "run", _RUN_KEYS)}
        for name, exp in EXPERIMENTS.items():
            sections.setdefault(exp.section, {}).update(
                _parse_section(parser, name, _field_parsers(exp.config)))
        sections["domain"] = _parse_section(parser, "domain", _DOMAIN_KEYS)
    except configparser.InterpolationError as exc:
        raise ConfigError(f"invalid value for key '{exc.option}' in section "
                          f"[{exc.section}]: {exc.message}") from exc
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc
    return sections


def _build_domain(exp: experiments.Experiment, dom, cfg):
    kind = dom.get("kind", "whole_space")
    if kind == "whole_space":
        if "diameter" in dom:
            raise ConfigError("key 'diameter' needs [domain] kind = box")
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


def _resolve(path, experiment=None, seed=None, horizon=None, variant=None):
    """Resolve a config file and the ``run`` flags into one run.

    Returns (exp, cfg, domain, variants, manifest). A flag beats its [run]
    key, and [run] horizon beats the section's; the stream seed is always
    the manifest seed XOR STREAM_SEED_XOR. ``manifest`` is what
    ``run_config.cfg`` records, and that file resolves to the same run.
    """
    sections = _load_config(path)
    run_cfg = sections["run"]
    experiment = experiment or run_cfg.get("experiment")
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"invalid or missing key 'experiment': {experiment}")
    exp = EXPERIMENTS[experiment]
    seed = run_cfg.get("seed", 0) if seed is None else seed
    if seed < 0:
        raise ConfigError(f"invalid value for key 'seed': {seed} "
                          f"(must be nonnegative)")
    variant = variant or run_cfg.get("variant", "both")
    if variant not in _VARIANTS:
        raise ConfigError(f"invalid value for key 'variant': {variant}")
    variants = _VARIANTS[variant]
    params = dict(sections[exp.section])
    horizon = run_cfg.get("horizon") if horizon is None else horizon
    if horizon is not None:
        params["horizon"] = horizon
    params["seed"] = seed ^ STREAM_SEED_XOR
    cfg = exp.config(**params)
    domain = _build_domain(exp, sections["domain"], cfg)
    optimum_tol = run_cfg.get("optimum_tol", exp.optimum_tol)
    if not 0.0 < optimum_tol < np.inf:
        raise ConfigError(f"invalid value for key 'optimum_tol' in section "
                          f"[run]: {optimum_tol} (must be positive and "
                          f"finite)")
    manifest = {"experiment": experiment, "seed": seed, "variant": variant,
                "optimum_tol": optimum_tol, "domain": sections["domain"]}
    return exp, cfg, domain, variants, manifest


def _write_resolved_config(path, manifest, cfg) -> None:
    parser = configparser.ConfigParser()
    parser.optionxform = str
    parser["run"] = {"experiment": manifest["experiment"],
                     "seed": str(manifest["seed"]),
                     "variant": manifest["variant"],
                     "optimum_tol": f"{manifest['optimum_tol']:.17g}"}
    section = EXPERIMENTS[manifest["experiment"]].section
    parser[section] = {}
    for field in dataclasses.fields(cfg):
        if field.name == "seed":
            continue  # the stream seed derives from [run] seed
        value = getattr(cfg, field.name)
        if isinstance(value, tuple):
            value = " ".join(str(i) for i in value)
        parser[section][field.name] = (f"{value:.17g}"
                                       if isinstance(value, float)
                                       else str(value))
    parser["domain"] = ({k: str(v) for k, v in manifest["domain"].items()}
                        or {"kind": "whole_space"})
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)


def cmd_run(args) -> int:
    try:
        exp, cfg, domain, variants, manifest = _resolve(
            args.config, args.experiment, args.seed, args.horizon,
            args.variant)
    except (ConfigError, TypeError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = args.out
    if os.path.isdir(out_dir) and os.listdir(out_dir) and not args.overwrite:
        print(f"output directory {out_dir} is not empty; pass --overwrite",
              file=sys.stderr)
        return EXIT_OVERWRITE
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        print(f"output directory {out_dir} cannot be created: "
              f"{exc.strerror}", file=sys.stderr)
        return EXIT_OVERWRITE

    # no file of an earlier run may outlive this one, failed or not
    config_path = os.path.join(out_dir, "run_config.cfg")
    for name in ("run_config.cfg", "partial_trace.csv", *_VARIANTS["both"]):
        path = os.path.join(out_dir, name)
        if os.path.isdir(path):
            shutil.rmtree(path)
        elif os.path.exists(path):
            os.remove(path)
    try:
        results, _ = experiments.play(exp, cfg, domain, out_dir, variants,
                                      manifest["optimum_tol"])
    except SolverRunError as exc:
        path = os.path.join(out_dir, "partial_trace.csv")
        runio.write_table(path, ("k", "f_x"), [
            np.arange(1, exc.trace.horizon + 1), exc.trace.f_played])
        print(f"run failed: {exc} (partial trace in {path})", file=sys.stderr)
        return EXIT_FAIL
    except OmpdError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_FAIL

    _write_resolved_config(config_path, manifest, cfg)
    for variant in variants:
        res = results[variant]
        T = res.trace.horizon
        print(f"variant={variant} R_T={res.regret[-1]:.6g} "
              f"R_T_over_T={res.regret[-1] / T:.6g} "
              f"bound_margin={res.rhs[-1] - res.regret[-1]:.6g}")
    return EXIT_OK


def _verify_variant(out_dir, variant, stream, lam, generator, optimum_tol,
                    exact):
    """Check one variant's state file against the regenerated stream, the
    run's distance generator and its exact per-step constants ``exact`` =
    (L[T], B[T])."""
    state_path = os.path.join(out_dir, variant, "bound_state.csv")
    if not os.path.exists(state_path):
        return EXIT_MISSING, f"variant={variant} error=missing_trace"
    try:
        state = runio.read_state_csv(state_path)
        if not (state["eps"].size == stream.horizon
                and state["dim"] == stream.dim):
            raise ValueError("the file does not cover the run")
    except (OSError, ValueError):
        return EXIT_MISSING, f"variant={variant} error=unreadable_trace"
    # f_star is the stream's value at the optimum, within 4 ulp (README)
    finite = np.all(np.isfinite(state["optima"]), axis=1)
    with np.errstate(all="ignore"):  # a nonfinite optimum reaches no SVD
        f = stream.total_values(np.where(finite[:, None], state["optima"], 0))
        ok = finite & (abs(state["f_star"] - f) <= 4 * abs(np.spacing(f)))
    if not np.all(ok):
        return EXIT_SANITY, (f"variant={variant} error=f_star "
                             f"step={np.argmin(ok) + 1}")
    # the bound is certified from this file's f_x and f_star
    gap = state["f_x"] - state["f_star"]
    worst_gap = np.min(gap) if np.all(np.isfinite(gap)) else np.nan
    if not worst_gap >= -(_SANITY_TOL + optimum_tol):
        return EXIT_SANITY, (f"variant={variant} error=sanity "
                             f"worst={worst_gap:.6g}")
    # a negative or nonfinite norm would inflate the bound it enters
    norms = np.stack([state[name] for name in ("e_norm", "eps", "q_norm")])
    ok = np.all(np.isfinite(norms) & (norms >= 0.0), axis=0)
    if not np.all(ok):
        return EXIT_SANITY, (f"variant={variant} error=norms "
                             f"step={np.argmin(ok) + 1}")
    # x0 sets the start cost Z0 = V(x_1*, x0) / lam
    if not np.array_equal(state["x0"], experiments.initial_point(stream.dim)):
        return EXIT_SANITY, f"variant={variant} error=x0"

    # every recorded constant must bound its exact value; NaN and inf fail
    recorded = np.stack((state["L_k"], state["B_k"]))
    ok = np.all(np.isfinite(recorded)
                & (recorded >= np.stack(exact) * (1.0 - _CONSTANTS_RTOL)),
                axis=0)
    if not np.all(ok):
        k = int(np.argmin(ok)) + 1
        return EXIT_CONSTANTS, f"variant={variant} error=constants step={k}"
    try:  # the recorded L_k bound the exact ones
        check_step_size(lam, np.max(state["L_k"]), generator.sigma_omega)
    except StepSizeError:
        return EXIT_FAIL, f"variant={variant} error=step_size"

    domain = stream.domain
    rebuilt = runio.trace_from_state(state, lam, domain.kind, domain.diameter)
    ledger = regret.ledger_from_trace(rebuilt, generator, lam, domain)
    worst = regret.certified_margin(rebuilt, ledger)
    line = f"variant={variant} worst_margin={worst:.6g}"
    if not 0.0 <= worst < np.inf:
        return EXIT_FAIL, line + " error=bound_violated"
    return EXIT_OK, line


def cmd_verify(args) -> int:
    out_dir = args.out
    cfg_path = args.config or os.path.join(out_dir, "run_config.cfg")
    if not os.path.exists(cfg_path):
        print(f"verify: no run configuration at {cfg_path}", file=sys.stderr)
        return EXIT_MISSING
    try:
        exp, cfg, domain, variants, manifest = _resolve(cfg_path)
    except (ConfigError, TypeError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    stream, truth = exp.stream(cfg, domain)
    exact = exp.constants(cfg, truth)
    lam = getattr(cfg, exp.step_size)
    generator = exp.generator()
    status = EXIT_OK
    for variant in variants:
        code, line = _verify_variant(out_dir, variant, stream, lam, generator,
                                     manifest["optimum_tol"], exact)
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
    p_run.add_argument("--experiment", choices=tuple(EXPERIMENTS))
    p_run.add_argument("--config", help="INI-style key=value config file")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--horizon", type=int)
    p_run.add_argument("--variant", choices=tuple(_VARIANTS))
    p_run.add_argument("--overwrite", action="store_true",
                       help="allow writing into a nonempty directory")
    p_run.set_defaults(func=cmd_run)

    p_ver = sub.add_parser("verify",
                           help="recheck the certified bound from CSVs")
    p_ver.add_argument("--out", required=True)
    p_ver.add_argument("--config", help="config file, resolved as `run` "
                       "resolves it (default: OUT/run_config.cfg)")
    p_ver.set_defaults(func=cmd_verify)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
