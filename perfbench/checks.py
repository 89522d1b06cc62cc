"""Output checks run on every repetition; each failure is counted.

An operation is one variant's run plus its certification. It fails on an
exception, a nonzero exit code, unreadable or nonfinite output, a
violated prefix bound, or a mismatch with the recorded reference values.

The prefix bound is recomputed here from the written (or returned)
regret and bound curves, with the per-prefix tolerance ``ompd verify``
applies; ``run``'s printed ``bound_margin`` is only the final-T value, so
it is not used.
"""

from __future__ import annotations

import csv
import json
import math
import os

BOUND_TOL_PER_STEP = 1e-6

#: reference values are recorded for solutions at a gradient-mapping
#: residual ``tol``; their function values may differ from a more
#: accurate solution's by far less than ``REFERENCE_SLACK * tol`` relative
REFERENCE_SLACK = 1e3

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


def load_references(path: str = REFERENCE_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def read_columns(path: str) -> dict:
    """Columns of a CSV with a header row; raises ValueError on bad data."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header:
            raise ValueError(f"{path}: no header")
        cols = {name: [] for name in header}
        for row in reader:
            if len(row) != len(header):
                raise ValueError(f"{path}: row of {len(row)} fields")
            for name, raw in zip(header, row):
                value = float(raw)
                if not math.isfinite(value):
                    raise ValueError(f"{path}: nonfinite {name}")
                cols[name].append(value)
    return cols


def min_prefix_margin(regret, rhs) -> float:
    """min over prefixes T' of RHS_T' + tol*T' - R_T'."""
    if len(regret) != len(rhs) or not regret:
        raise ValueError("regret and bound curves differ in length")
    return min(b + BOUND_TOL_PER_STEP * (i + 1) - r
               for i, (r, b) in enumerate(zip(regret, rhs)))


def observe_cli_variant(vdir: str, horizon: int) -> dict:
    """R_T, sum of f_star and the prefix margin from one variant's CSVs."""
    trace = read_columns(os.path.join(vdir, "trace.csv"))
    bound = read_columns(os.path.join(vdir, "bound.csv"))
    for name, cols in (("trace.csv", trace), ("bound.csv", bound)):
        if len(next(iter(cols.values()))) != horizon:
            raise ValueError(f"{name} does not hold {horizon} rows")
    r_trace, r_bound = trace["cum_regret"][-1], bound["R_T"][-1]
    r_sum = math.fsum(trace["f_x"]) - math.fsum(trace["f_star"])
    scale = max(1.0, math.fsum(abs(v) for v in trace["f_x"]))
    if abs(r_trace - r_bound) > 1e-9 * scale:
        raise ValueError("trace.csv and bound.csv disagree on R_T")
    if abs(r_trace - r_sum) > 1e-9 * scale:
        raise ValueError("trace.csv: cum_regret is not sum(f_x - f_star)")
    return {"R_T": trace["cum_regret"][-1],
            "sum_f_star": math.fsum(trace["f_star"]),
            "min_margin": min_prefix_margin(bound["R_T"], bound["RHS_T"])}


def compare(obs: dict, ref, rel_tol: float) -> list:
    """Problems of one observation against its recorded reference."""
    problems = []
    if obs["min_margin"] < 0.0:
        problems.append(f"prefix bound violated (margin "
                        f"{obs['min_margin']:.6g})")
    if ref is None:
        return problems + ["no recorded reference"]
    f_ref = abs(ref["sum_f_star"])
    if abs(obs["sum_f_star"] - ref["sum_f_star"]) > rel_tol * f_ref:
        problems.append(f"sum f_star {obs['sum_f_star']!r} != reference "
                        f"{ref['sum_f_star']!r}")
    if abs(obs["R_T"] - ref["R_T"]) > rel_tol * (abs(ref["R_T"]) + f_ref):
        problems.append(f"R_T {obs['R_T']!r} != reference {ref['R_T']!r}")
    return problems


def reference_for(refs: dict, workload: str, instance: int, variant: str):
    return refs.get(workload, {}).get(str(instance), {}).get(variant)


def check_cli_op(out_dir: str, variants, horizon: int, rc_run: int,
                 rc_verify: int, refs: dict, workload: str, instance: int,
                 rel_tol: float) -> dict:
    """variant -> (observation or None, problems) for one CLI operation."""
    verdicts = {}
    for variant in variants:
        problems = []
        if rc_run != 0:
            problems.append(f"ompd run exit code {rc_run}")
        if rc_verify != 0:
            problems.append(f"ompd verify exit code {rc_verify}")
        obs = None
        try:
            obs = observe_cli_variant(os.path.join(out_dir, variant), horizon)
        except (OSError, ValueError, KeyError, StopIteration) as exc:
            problems.append(f"unreadable output: {exc}")
        if obs is not None:
            problems += compare(
                obs, reference_for(refs, workload, instance, variant), rel_tol)
        verdicts[variant] = (obs, problems)
    return verdicts


def tally(verdicts_per_op) -> tuple:
    """(attempted, failed) over a list of per-operation verdict dicts."""
    attempted = sum(len(v) for v in verdicts_per_op)
    failed = sum(1 for v in verdicts_per_op
                 for _, problems in v.values() if problems)
    return attempted, failed
