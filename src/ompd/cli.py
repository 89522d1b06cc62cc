"""Command-line entry point: run experiments, verify their bound files.

Usage:
    ompd run --experiment example1 --seed 7 --out results/
    ompd verify --out results/

Configuration files are flat INI-style key=value text; command-line flags
override file values. [run] holds experiment, seed (>= 0), horizon (>= 1),
variant and optimum_tol. example1 and custom read [example1] or its alias
[custom], not both, and accept a box [domain] (a diameter needs kind =
box); example2 reads [example2] and runs on the whole space. One resolver
turns a file into a run for both commands, so ``verify --config FILE``
rebuilds the run that ``run --config FILE`` played. Every run writes the
resolved configuration to ``run_config.cfg`` inside the output directory,
which resolves to the run that wrote it and is what ``verify`` reads by
default.
Each experiment is one row of ``experiments.EXPERIMENTS``. ``run`` plays
the row with ``experiments.play``, which owns the whole run directory (it
first removes an earlier ``run_config.cfg``, ``partial_trace.csv``,
``exact/`` and ``inexact/``), then writes ``run_config.cfg``. ``verify``
certifies the directory with ``experiments.verify``. Each command prints
one ``experiments.verdict`` line per variant and exits with the code of
the first error named, so this module only parses, writes the config,
prints and maps exit codes.

Seed splitting: the manifest seed never feeds a generator directly. The
stream seed is ``seed XOR 0x53545245`` and the error-model seed is
``seed XOR 0x4E4F4953`` (the library's rule too), so the variants of one
run share the problem stream and differ only in error draws.

Exit codes, with the named errors that map to them:
    0  success
    1  a run failed mid-stream; bound_violated (``run`` too, once its files
       are written, when a margin is negative or nonfinite), or step_size
       (a step size above 2 sigma_omega / max_k L_k)
    2  configuration parse or validation error: a --config that is missing
       or unreadable, or data a stream refuses (an overflowing L_k, B_k)
    3  output directory refused: nonempty and --overwrite not given, or
       not creatable (an existing file, or a path under one)
    4  OUT/run_config.cfg missing; missing_trace or unreadable_trace
    5  a sanity check of bound_state.csv: f_star, sanity (f_x - f_star),
       norms (e_norm, eps, q_norm) or x0 (row k = 0)
    6  constants: a recorded L_k or B_k that is not finite or lies below
       the one the rebuilt stream declares
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import os
import sys
import typing

import numpy as np

from . import experiments
from .errors import OmpdError, SolverRunError
from .experiments import EXPERIMENTS, STREAM_SEED_XOR, VARIANTS
from .losses import box, whole_space

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_OVERWRITE = 3
EXIT_MISSING = 4
EXIT_SANITY = 5
EXIT_CONSTANTS = 6
#: exit code of each error a verdict or ``experiments.verify`` names
_VERIFY_EXITS = {"missing_trace": EXIT_MISSING,
                 "unreadable_trace": EXIT_MISSING, "f_star": EXIT_SANITY,
                 "sanity": EXIT_SANITY, "norms": EXIT_SANITY,
                 "x0": EXIT_SANITY, "constants": EXIT_CONSTANTS,
                 "step_size": EXIT_FAIL, "bound_violated": EXIT_FAIL}


class ConfigError(Exception):
    pass


_RUN_KEYS = {"experiment": str, "seed": int, "horizon": int, "variant": str,
             "optimum_tol": float}
_DOMAIN_KEYS = {"kind": str, "diameter": float}
_VARIANTS = {**{name: (name,) for name in VARIANTS}, "both": VARIANTS}


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

    [custom] is read into [example1], the section of its table row; a file
    with both is a config error, as is a path that cannot be read (a
    directory, an unreadable file) and a file configparser rejects (a
    repeated section or key, no section header, a bad %-interpolation).
    """
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keep key case (mu_L vs mu_S)
    try:
        if path is not None:
            try:  # parser.read would skip a path it cannot open
                with open(path, encoding="utf-8") as fh:
                    parser.read_file(fh)
            except FileNotFoundError:
                raise ConfigError(f"config file not found: {path}") from None
            except OSError as exc:
                raise ConfigError(f"config file {path} cannot be read: "
                                  f"{exc.strerror}") from None
            for section in parser.sections():
                if section not in ("run", "domain", *EXPERIMENTS):
                    raise ConfigError(f"unknown section [{section}]")
        sections = {"run": _parse_section(parser, "run", _RUN_KEYS)}
        read_from = {}  # the file section each experiment section came from
        for name, exp in EXPERIMENTS.items():
            if parser.has_section(name):
                if exp.section in read_from:
                    raise ConfigError(
                        f"sections [{read_from[exp.section]}] and [{name}] "
                        f"both configure [{exp.section}]; keep one")
                read_from[exp.section] = name
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


def _report(checked) -> int:
    """Print each (error, line); return the first error's exit code."""
    for _, line in checked:
        print(line)
    return next((_VERIFY_EXITS[error] for error, _ in checked if error),
                EXIT_OK)


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

    try:
        results = experiments.play(exp, cfg, domain, out_dir, variants,
                                   manifest["optimum_tol"])
    except SolverRunError as exc:
        path = os.path.join(out_dir, experiments.PARTIAL_TRACE)
        print(f"run failed: {exc} (partial trace in {path})", file=sys.stderr)
        return EXIT_FAIL
    except OmpdError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except ValueError as exc:  # data the config draws that a stream refuses
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    _write_resolved_config(os.path.join(out_dir, experiments.RUN_CONFIG),
                           manifest, cfg)
    return _report([experiments.verdict(
        variant, res.regret, res.rhs,
        f" R_T={res.regret[-1]:.6g} "
        f"R_T_over_T={res.regret[-1] / res.trace.horizon:.6g}")
        for variant, res in results.items()])


def cmd_verify(args) -> int:
    out_dir = args.out
    cfg_path = args.config or os.path.join(out_dir, experiments.RUN_CONFIG)
    if not (args.config or os.path.exists(cfg_path)):  # a --config: exit 2
        print(f"verify: no run configuration at {cfg_path}", file=sys.stderr)
        return EXIT_MISSING
    try:
        exp, cfg, domain, variants, manifest = _resolve(cfg_path)
    except (ConfigError, TypeError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        checked = experiments.verify(exp, cfg, domain, out_dir, variants,
                                     manifest["optimum_tol"])
    except ValueError as exc:  # as in run: the stream refuses its data
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return _report(checked)


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
