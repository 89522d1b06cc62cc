"""Command-line entry point: run experiments, verify their bound files.

Usage:
    ompd run --experiment example1 --seed 7 --out results/
    ompd verify --out results/

Configuration files are flat INI-style key=value text with sections
[run], [example1] (or [custom], same keys), [example2], and [domain];
command-line flags override file values. Every run writes the resolved
configuration to ``run_config.cfg`` inside the output directory, which is
what ``verify`` reads back.

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

import numpy as np

from . import experiments, regret, runio
from .bregman import euclidean_generator
from .errors import OmpdError, SolverRunError
from .losses import box, whole_space
from .losses import validate_constants

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
_OPTIMUM_TOL_DEFAULTS = {"example1": regret.OPTIMUM_TOL_DEFAULT,
                         "custom": regret.OPTIMUM_TOL_DEFAULT,
                         "example2": experiments.SEPARATION_OPTIMUM_TOL}


class ConfigError(Exception):
    pass


_RUN_KEYS = {"experiment": str, "seed": int, "horizon": int, "variant": str,
             "optimum_tol": float}
_DOMAIN_KEYS = {"kind": str, "diameter": float}
_EX1_FIELDS = {f.name: f.type for f in
               dataclasses.fields(experiments.GaussMarkovConfig)}
_EX2_FIELDS = {f.name: f.type for f in
               dataclasses.fields(experiments.SeparationConfig)}


def _parse_section(parser, section, allowed):
    if not parser.has_section(section):
        return {}
    out = {}
    for key, raw in parser.items(section):
        if key not in allowed:
            raise ConfigError(f"unknown key '{key}' in section [{section}]")
        caster = allowed[key]
        if caster in (int, "int"):
            caster = int
        elif caster in (float, "float"):
            caster = float
        elif key == "active_set":
            caster = _parse_index_tuple
        else:
            caster = str if caster in (str, "str") else float
        try:
            out[key] = caster(raw)
        except ValueError as exc:
            raise ConfigError(
                f"invalid value for key '{key}' in section [{section}]: {exc}")
    return out


def _parse_index_tuple(raw: str):
    return tuple(int(tok) for tok in raw.replace(",", " ").split())


def _section_types(fields):
    table = {}
    for name, ftype in fields.items():
        text = str(ftype)
        if name == "active_set":
            table[name] = "tuple"
        elif "int" in text:
            table[name] = int
        elif "float" in text:
            table[name] = float
        else:
            table[name] = str
    return table


def _load_config(path):
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keep key case (mu_L vs mu_S)
    if path is not None:
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        parser.read(path)
        known = {"run", "example1", "example2", "custom", "domain"}
        for section in parser.sections():
            if section not in known:
                raise ConfigError(f"unknown section [{section}]")
    run = _parse_section(parser, "run", _RUN_KEYS)
    ex1 = _parse_section(parser, "example1", _section_types(_EX1_FIELDS))
    ex1.update(_parse_section(parser, "custom", _section_types(_EX1_FIELDS)))
    ex2 = _parse_section(parser, "example2", _section_types(_EX2_FIELDS))
    dom = _parse_section(parser, "domain", _DOMAIN_KEYS)
    return run, ex1, ex2, dom


def _variants(label: str):
    if label == "both":
        return ("exact", "inexact")
    if label in ("exact", "inexact"):
        return (label,)
    raise ConfigError(f"invalid value for key 'variant': {label}")


def _build_domain(dom, dim):
    kind = dom.get("kind", "whole_space")
    if kind == "whole_space":
        return whole_space()
    if kind == "box":
        diameter = dom.get("diameter")
        if diameter is None:
            raise ConfigError("missing key 'diameter' in section [domain]")
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
    section = "example2" if manifest["experiment"] == "example2" else "example1"
    parser[section] = {}
    for field in dataclasses.fields(cfg):
        value = getattr(cfg, field.name)
        if field.name == "active_set":
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
        run_cfg, ex1, ex2, dom = _load_config(args.config)
        experiment = args.experiment or run_cfg.get("experiment")
        if experiment not in ("example1", "example2", "custom"):
            raise ConfigError(
                f"invalid or missing key 'experiment': {experiment}")
        seed = args.seed if args.seed is not None else run_cfg.get("seed", 0)
        variant = args.variant or run_cfg.get("variant", "both")
        variants = _variants(variant)
        optimum_tol = run_cfg.get("optimum_tol",
                                  _OPTIMUM_TOL_DEFAULTS[experiment])
        manifest = {"experiment": experiment, "seed": seed,
                    "variant": variant, "optimum_tol": optimum_tol}
        stream_seed = seed ^ STREAM_SEED_XOR
        error_seed = seed ^ ERROR_SEED_XOR
        if experiment in ("example1", "custom"):
            params = dict(ex1)
            if args.horizon is not None:
                params["horizon"] = args.horizon
            elif "horizon" in run_cfg:
                params["horizon"] = run_cfg["horizon"]
            params["seed"] = stream_seed
            try:
                cfg = experiments.GaussMarkovConfig(**params)
            except (TypeError, ValueError) as exc:
                raise ConfigError(str(exc))
            domain = _build_domain(dom, cfg.n_coeffs) if dom else None
        else:
            params = dict(ex2)
            if args.horizon is not None:
                params["horizon"] = args.horizon
            elif "horizon" in run_cfg:
                params["horizon"] = run_cfg["horizon"]
            params["seed"] = stream_seed
            try:
                cfg = experiments.SeparationConfig(**params)
            except (TypeError, ValueError) as exc:
                raise ConfigError(str(exc))
            if dom and dom.get("kind", "whole_space") != "whole_space":
                raise ConfigError("example2 runs on the whole space")
            domain = None
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = args.out
    if os.path.isdir(out_dir) and os.listdir(out_dir) and not args.overwrite:
        print(f"output directory {out_dir} is not empty; pass --overwrite",
              file=sys.stderr)
        return EXIT_OVERWRITE
    os.makedirs(out_dir, exist_ok=True)

    try:
        if experiment in ("example1", "custom"):
            results = experiments.run_example1(
                cfg, out_dir=out_dir, variants=variants, domain=domain,
                error_seed=error_seed, optimum_tol=optimum_tol)
        else:
            results, _ = experiments.run_example2(
                cfg, out_dir=out_dir, variants=variants,
                error_seed=error_seed, optimum_tol=optimum_tol)
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
                           manifest, cfg, dom)
    for variant in variants:
        res = results[variant]
        T = res.trace.horizon
        print(f"variant={variant} R_T={res.regret[-1]:.6g} "
              f"R_T_over_T={res.regret[-1] / T:.6g} "
              f"bound_margin={res.rhs[-1] - res.regret[-1]:.6g}")
    return EXIT_OK


def _verify_variant(out_dir, variant, experiment, cfg, dom, optimum_tol):
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

    if experiment in ("example1", "custom"):
        domain = (_build_domain(dom, cfg.n_coeffs)
                  if dom and dom.get("kind", "whole_space") != "whole_space"
                  else whole_space())
        stream, _ = experiments.generate_gauss_markov(cfg, domain)
        lam = cfg.step_size
    else:
        stream, _ = experiments.generate_separation(cfg)
        domain = stream.domain
        lam = cfg.alpha_L

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

    rebuilt = runio.trace_from_state(state, lam, domain.kind, domain.diameter)
    gen = euclidean_generator()
    ledger = regret.ledger_from_trace(rebuilt, gen, lam, domain)
    regime = "bounded" if domain.is_bounded else "whole_space"
    rhs = regret.theorem_rhs(ledger, rebuilt, regime)
    R = regret.dynamic_regret(rebuilt)
    horizons = np.arange(1, rebuilt.horizon + 1)
    margins = rhs + _BOUND_TOL_PER_STEP * horizons - R
    worst = float(np.min(margins))
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
        run_cfg, ex1, ex2, dom = _load_config(cfg_path)
        experiment = run_cfg.get("experiment")
        if experiment not in ("example1", "example2", "custom"):
            raise ConfigError(f"invalid key 'experiment': {experiment}")
        variants = _variants(run_cfg.get("variant", "both"))
        optimum_tol = run_cfg.get("optimum_tol",
                                  _OPTIMUM_TOL_DEFAULTS[experiment])
        if experiment in ("example1", "custom"):
            cfg = experiments.GaussMarkovConfig(**ex1)
        else:
            cfg = experiments.SeparationConfig(**ex2)
    except (ConfigError, TypeError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    status = EXIT_OK
    for variant in variants:
        code, line = _verify_variant(out_dir, variant, experiment, cfg, dom,
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
    p_run.add_argument("--experiment",
                       choices=("example1", "example2", "custom"))
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
