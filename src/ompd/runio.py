"""The run record, and the CSV codec of every table a run writes.

Every table is a header line, then rows of integer index columns (``%d``)
and float columns at 17 significant digits, which read back bit for bit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from itertools import zip_longest
from typing import Optional

import numpy as np

#: cells formatted per write; a bound on the text held in memory at once
_BLOCK_CELLS = 4096

#: the RunTrace arrays filled one row per step by ``solver.run``
_PER_STEP_FIELDS = ("iterates", "grad_error_norms", "eps", "f_played",
                    "q_norms", "smoothness", "reg_lipschitz", "step_seconds")


@dataclass
class RunTrace:
    """Per-step record of one run; optima arrive via regret.fill_optima."""

    horizon: int
    dim: int
    x0: np.ndarray
    iterates: np.ndarray            # (T, dim)
    grad_error_norms: np.ndarray    # (T,)
    eps: np.ndarray                 # (T,)
    f_played: np.ndarray            # (T,)
    q_norms: np.ndarray             # (T,) ||noisy grad + grad V(y,x_prev)/lam||
    smoothness: np.ndarray          # (T,) declared L_k
    reg_lipschitz: np.ndarray       # (T,) declared B_k
    step_seconds: np.ndarray        # (T,) wall time, monotonic clock
    step_size: float
    domain_kind: str
    domain_diameter: Optional[float]
    optima: Optional[np.ndarray] = None      # (T, dim)
    f_star: Optional[np.ndarray] = None      # (T,)
    partial: bool = False

    def has_optima(self) -> bool:
        return self.optima is not None and self.f_star is not None

    def truncated(self, upto: int) -> "RunTrace":
        """Copy holding only the first ``upto`` completed steps."""
        steps = {name: getattr(self, name)[:upto].copy()
                 for name in _PER_STEP_FIELDS}
        return replace(self, horizon=upto, optima=None, f_star=None,
                       partial=True, **steps)


def write_table(path, header, columns) -> None:
    """Write equal-length arrays as columns; the last may be 2-D (several).

    Each block of rows is cut from every array with one ``tolist``, so
    integer columns reach ``%d`` as Python ints, exact at any size.
    """
    wide = columns[-1].ndim == 2
    row = ",".join("%d" if c.dtype.kind in "iu" else "%.17g" for c in columns
                   for _ in range(c.shape[1] if c.ndim == 2 else 1)) + "\n"
    rows = max(1, _BLOCK_CELLS // len(header))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, len(columns[0]), rows):
            block = zip(*(c[lo:lo + rows].tolist() for c in columns))
            if wide:  # the 2-D group's cells close each row
                block = ((*head, *tail) for *head, tail in block)
            fh.write("".join(row % cells for cells in block))


def read_table(path):
    """Header names and the (rows, columns) float array of one CSV.

    Raises ValueError on a cell that is not a number, on a row whose
    width differs from the header's, and on a table without rows.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        with warnings.catch_warnings():
            # a table without rows is refused below
            warnings.simplefilter("ignore", UserWarning)
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape[0] == 0 or data.shape[1] != len(header):
        raise ValueError(f"{path}: {data.shape[0]} rows of {data.shape[1]} "
                         f"columns under {len(header)} header names")
    return header, data


def _check_header(path, header, expected) -> None:
    """Raise ValueError at the first column name that is not the writer's."""
    for j, (got, want) in enumerate(zip_longest(header, expected), 1):
        if got != want:
            raise ValueError(f"{path}: column {j} is {got!r}, not {want!r}")


#: trace.csv columns, in order
TRACE_CSV_HEADER = ("k,f_x,f_star,instant_regret,grad_error_norm,eps,"
                    "dist_to_optimum,cum_regret").split(",")

#: bound_state.csv scalar column -> the RunTrace field it holds
_STATE_COLUMNS = {"eps": "eps", "e_norm": "grad_error_norms",
                  "q_norm": "q_norms", "L_k": "smoothness",
                  "B_k": "reg_lipschitz", "f_x": "f_played",
                  "f_star": "f_star"}


def _state_header(dim: int) -> list:
    return ["k", *_STATE_COLUMNS] + [f"xstar_{j}" for j in range(dim)]


def write_state_csv(trace: RunTrace, path) -> None:
    """Per-step scalars and optima for ``verify``; row k = 0 holds x0."""
    if trace.optima is None:
        raise ValueError("state csv needs filled optima")
    points = np.vstack([trace.x0, trace.optima])
    write_table(path, _state_header(trace.dim),
                [np.arange(trace.horizon + 1),
                 *(np.concatenate(([0.0], getattr(trace, field)))
                   for field in _STATE_COLUMNS.values()), points])


def read_state_csv(path) -> dict:
    """The state file's columns; ValueError unless its header is ours."""
    header, data = read_table(path)
    _check_header(path, header, _state_header(len(header) - 8))
    state = {name: data[1:, j] for j, name in enumerate(_STATE_COLUMNS, 1)}
    return dict(state, x0=data[0, 8:], optima=data[1:, 8:],
                dim=len(header) - 8)


def trace_from_state(state: dict, step_size: float, domain_kind: str,
                     diameter) -> RunTrace:
    """Rebuild the trace fields the ledger and bound evaluators consume.

    Iterates are not persisted (the bound needs only the recorded scalars
    and optima), so that array is zeros.
    """
    T, n = state["optima"].shape
    return RunTrace(
        horizon=T, dim=n, x0=state["x0"],
        iterates=np.zeros((T, n)), step_seconds=np.zeros(T),
        step_size=step_size,
        domain_kind=domain_kind, domain_diameter=diameter,
        optima=state["optima"],
        **{field: state[name] for name, field in _STATE_COLUMNS.items()})


def read_trace_csv(path) -> dict:
    """trace.csv by column name; ValueError unless its header is ours."""
    header, data = read_table(path)
    _check_header(path, header, TRACE_CSV_HEADER)
    return {name: data[:, j] for j, name in enumerate(header)}
