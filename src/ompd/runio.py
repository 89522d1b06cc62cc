"""The run record, and the CSV codec of every table a run writes.

Every table is a header line, then rows of integer index columns (``%d``)
and float columns at 17 significant digits (``%.17g``), which read back
bit for bit. Cells are formatted from numpy arrays, a block of rows at a
time: ``format_floats`` and ``format_ints`` return each cell's text as one
NUL-padded row of bytes, computed in numpy for ordinary values and by
``%`` itself for the rest (nan, infinities, subnormals, extreme
magnitudes, significands near a rounding tie, integer arrays that reach
2**53 in magnitude), so every byte is the one ``%`` writes. The tables
of several variants are written together (``write_tables``), so the
cells they share are formatted once. A long table of (T, n) arrays
(``write_long_tables``, example1's ``coefficients.csv``) is written one
block of time steps at a time, and its shared column (``a_true``) is
formatted once for all variants.
"""

from __future__ import annotations

import contextlib
import functools
import warnings
from dataclasses import dataclass, replace
from itertools import zip_longest
from typing import Optional

import numpy as np

from .errors import MissingOptimaError

#: cells formatted per block, across its columns and paths: a bound on the
#: scratch memory of a write, and large enough that the fixed cost of a
#: formatter call (about 80 small numpy calls) stays small
_BLOCK_CELLS = 8192

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

    def has_optima(self) -> bool:
        return self.optima is not None and self.f_star is not None

    def truncated(self, upto: int) -> "RunTrace":
        """Copy holding only the first ``upto`` completed steps."""
        steps = {name: getattr(self, name)[:upto].copy()
                 for name in _PER_STEP_FIELDS}
        return replace(self, horizon=upto, optima=None, f_star=None,
                       **steps)


def one_per_path(value, paths) -> list:
    """``value`` for each of ``paths``, unless it is a list of one each."""
    if not paths:
        raise ValueError("no path to write to")
    if not isinstance(value, (list, tuple)):
        return [value] * len(paths)
    if len(value) != len(paths):
        raise ValueError(f"{len(value)} values for {len(paths)} paths")
    return list(value)


def _same_cells(arrays) -> bool:
    """Whether every array writes the text of the first: equal shape,
    dtype and values, signs of zero included (NaN never counts as equal).
    Compared ``_BLOCK_CELLS`` cells at a time, so its scratch is bounded."""
    first = arrays[0]
    step = max(1, _BLOCK_CELLS // max(1, first[:1].size))

    def equal(a, b):
        return np.array_equal(a, b) and np.array_equal(np.signbit(a),
                                                       np.signbit(b))

    return all(a is first or (a.dtype == first.dtype
                              and a.shape == first.shape
                              and all(equal(a[lo:lo + step],
                                            first[lo:lo + step])
                                      for lo in range(0, len(a), step)))
               for a in arrays[1:])


#: bytes of a cell's text: the longest ``'%.17g'`` text
#: (``-2.2250738585072014e-308``) and every int64's ``'%d'`` fit
_FIELD = 24
#: the powers of ten 10**_J0 ... 10**(_J1 - 1) in the tables: for the
#: floats 1e-280 <= |x| <= 1e280 of the fast path, every decimal exponent
#: E, its log10 estimate (at most one off) and 16 - E. Their Veltkamp
#: halves and rests, and the Veltkamp split of |x|, stay normal and finite
_J0, _J1 = -283, 299
#: a significand whose fraction lies within this of one half goes to
#: ``%``; the double-double product errs by about 1e-14
_TIE = 1e-6
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's constant


@functools.cache
def _power_tables():
    """For j = _J0 ... _J1 - 1, from Python ints: 10**j as a double-double
    (hi, lo), hi's Veltkamp halves, the least double at or above 10**j,
    and the exponent text "e+jj", NUL-padded to 5 bytes. Built at the
    first call (about 1 ms), not at import."""
    hi, lo = [], []
    for j in range(_J0, _J1):
        power = 10 ** abs(j)
        if j >= 0:
            h = float(power)
            rest = float(power - int(h))
        else:  # int / int rounds correctly
            h = 1 / power
            num, den = h.as_integer_ratio()
            rest = (den - num * power) / (den * power)
        hi.append(h)
        lo.append(rest)
    hi, lo = np.array(hi), np.array(lo)
    c = hi * _SPLIT
    high = c - (c - hi)
    least = np.where(lo > 0, np.nextafter(hi, np.inf), hi)
    exponents = np.array([b"e%+03d" % j for j in range(_J0, _J1)],
                         "S5").view(np.uint8).reshape(-1, 5)
    return hi, high, hi - high, lo, least, exponents


_U64 = np.uint64
_BYTE_ONES = _U64(0x0101010101010101)
_ASCII_ZEROS = _U64(0x3030303030303030)


def _eight_digits(v):
    """The decimal digits of each uint64 v < 1e8, as lanes whose byte j
    (little-endian) holds digit j, most significant first. Split by
    multiply-shift divisions: into 4 + 4 digits, then 2 + 2, then 1 + 1."""
    a = (v * _U64(3518437209)) >> _U64(45)                         # // 1e4
    x = a | ((v - a * _U64(10000)) << _U64(32))
    b = ((x * _U64(5243)) >> _U64(19)) & _U64(0x0000007F0000007F)  # // 100
    x = b | ((x - b * _U64(100)) << _U64(16))
    c = ((x * _U64(103)) >> _U64(10)) & _U64(0x000F000F000F000F)   # // 10
    return c | ((x - c * _U64(10)) << _U64(8))


def _digit_text(lanes, keep_all):
    """``_eight_digits`` lanes as ASCII, with NUL in place of each zero
    digit that no nonzero digit follows in its lane, unless ``keep_all``."""
    y = lanes | (lanes >> _U64(8)) | keep_all * _BYTE_ONES
    y |= y >> _U64(16)
    y |= y >> _U64(32)
    # bytes of y are below 0x10: + 0x7F sets bit 7 of each nonzero one
    kept = (((y + _U64(0x7F7F7F7F7F7F7F7F)) & _U64(0x8080808080808080))
            >> _U64(7)) * _U64(0xFF)
    return (lanes | _ASCII_ZEROS) & kept


def _by_percent(values, spec) -> np.ndarray:
    """``spec % v`` for each of ``values``, as rows of ``_FIELD`` bytes."""
    return np.array([spec % v for v in values.tolist()],
                    f"S{_FIELD}").view(np.uint8).reshape(-1, _FIELD)


def _significands(a):
    """For each 1e-280 <= a <= 1e280: the decimal exponent E, the 17-digit
    significand round(a * 10**(16 - E)), and whether that rounding is sure
    (its fraction lies not within ``_TIE`` of one half)."""
    hi, hi_high, hi_low, lo, least, _ = _power_tables()
    e = np.floor(np.log10(a)).astype(np.intp)
    e += a >= least[e + 1 - _J0]
    e -= a < least[e - _J0]
    j = 16 - _J0 - e
    p = a * hi[j]
    high = a * _SPLIT
    high -= high - a
    low = a - high
    # the exact rounding error of p, plus a times the rest of 10**(16 - E)
    rest = high * hi_high[j] - p
    rest += high * hi_low[j]
    rest += low * hi_high[j]
    rest += low * hi_low[j]
    rest += a * lo[j]
    whole = np.floor(rest)
    rest -= whole
    d = p.astype(np.int64) + whole.astype(np.int64) + (rest > 0.5)
    carry = d == 10 ** 17
    d[carry] = 10 ** 16
    e += carry
    return d, e, np.abs(rest - 0.5) >= _TIE


def _digits(d) -> np.ndarray:
    """The 17 digits of each significand d as an (n, 17) block of ASCII,
    with its trailing zeros as NUL: 1 + 8 + 8, the eights in uint64
    lanes."""
    q = d // 10 ** 8
    last = _eight_digits((d - q * 10 ** 8).astype(np.uint64))
    first = q // 10 ** 8
    middle = _digit_text(_eight_digits((q - first * 10 ** 8).astype(
        np.uint64)), last != 0)
    last = _digit_text(last, False)
    lanes = np.empty((len(d), 3), "<u8")  # little-endian on any host
    lanes[:, 0] = (first.astype(np.uint64) + _U64(ord("0"))) | (
        middle << _U64(8))
    lanes[:, 1] = (middle >> _U64(56)) | (last << _U64(8))
    lanes[:, 2] = last >> _U64(56)
    return lanes.view(np.uint8)[:, :17]


def format_floats(x) -> np.ndarray:
    """Each float64 of ``x`` as its ``'%.17g'`` text: one NUL-padded row of
    an (N, ``_FIELD``) uint8 block.

    For 1e-280 <= |x| <= 1e280, the decimal exponent E is floor(log10|x|),
    fixed up exactly against the least double at or above each power of
    ten, and |x| * 10**(16 - E) is formed as a double-double (Dekker's
    product of Veltkamp splits). Its 17-digit integer is rounded unless
    the fraction lies within ``_TIE`` of one half. The digits are made
    eight at a time in uint64 lanes, trailing zeros become NUL, and the
    layout of each decimal exponent is applied to its contiguous run of
    cells after one stable sort. Zeros are written directly, and every
    other cell (nan, infinities, subnormals, other magnitudes, near-ties)
    by ``%`` itself, so each row holds the bytes of ``'%.17g' % x``.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    ax = np.abs(x)
    zero = ax == 0.0
    rows = np.flatnonzero((ax >= 1e-280) & (ax <= 1e280))
    d, e, sure = _significands(ax[rows])
    del ax
    # layouts: -4 ... 16 positional with exponent E, 17 exponential
    layout = np.where((e >= -4) & (e <= 16), e, 17)[sure]
    order = np.argsort(layout.astype(np.int8), kind="stable")
    rows, d, e = rows[sure][order], d[sure][order], e[sure][order]
    # the texts: these cells', then "0" and "-0", then every other one's
    n = rows.size
    other = ~zero
    other[rows] = False
    other = np.flatnonzero(other)
    body = np.empty((n + 2 + other.size, _FIELD), np.uint8)
    body[:n, 18:] = 0  # the layouts below write the bytes before
    body[n:n + 2] = 0
    body[n:n + 2, 1] = ord("0")
    body[n + 1, 0] = ord("-")
    if other.size:
        body[n + 2:] = _by_percent(x[other], "%.17g")
    body[:n, 0] = np.signbit(x[rows]) * np.uint8(ord("-"))
    digits = _digits(d)
    ends = np.cumsum(np.bincount(layout + 4, minlength=22)).tolist()
    for k, lo, hi in zip(range(-4, 18), [0, *ends], ends):
        if lo == hi:
            continue
        g, s = body[lo:hi], digits[lo:hi]
        if k < 0:  # 0.000ddd
            g[:, 1:2 - k] = np.frombuffer(b"0.000"[:1 - k], np.uint8)
            g[:, 2 - k:19 - k] = s
            continue
        # the first digit (17) or the first k + 1 with each NUL of the
        # integer part as "0", then "." if a digit follows, then the rest
        point = 2 if k == 17 else k + 2
        g[:, 1:point] = s[:, :point - 1] | np.uint8(ord("0"))
        if point < 18:
            g[:, point] = (s[:, point - 1] != 0) * np.uint8(ord("."))
            g[:, point + 1:19] = s[:, point - 1:]
        if k == 17:
            g[:, 19:] = _power_tables()[-1][e[lo:hi] - _J0]
    text_of = np.empty(x.size, np.intp)
    text_of[rows] = np.arange(n)
    text_of[zero] = n + np.signbit(x[zero])
    text_of[other] = np.arange(n + 2, len(body))
    return body.take(text_of, axis=0)


def _floats_hold(v) -> bool:
    """Whether every integer of ``v`` lies below 2**53 in magnitude, so
    that its double holds it exactly and writes it with ``'%.17g'`` as
    ``'%d'`` does."""
    return not v.size or -2 ** 53 < int(v.min()) <= int(v.max()) < 2 ** 53


def format_ints(v) -> np.ndarray:
    """Each integer of ``v`` as its ``'%d'`` text, in rows like those of
    ``format_floats``: by ``format_floats`` if doubles hold them all, by
    ``%`` itself otherwise."""
    v = np.asarray(v).ravel()
    if _floats_hold(v):
        return format_floats(v.astype(np.float64))
    return _by_percent(v, "%d")


def write_tables(paths, header, tables) -> None:
    """Write one table per path, block by block, under one header.

    ``tables`` holds each path's columns: equal-length arrays, of which
    the last may be 2-D (several columns). The columns that are equal in
    every table (``_same_cells``) are formatted once per block; with one
    path every column is.
    """
    if not paths or len(tables) != len(paths):
        raise ValueError(f"{len(tables)} tables for {len(paths)} paths")
    by_column = list(zip(*tables))
    for arrays in by_column:
        if any(a.shape != arrays[0].shape for a in arrays):
            raise ValueError("the tables differ in shape")
    columns = [arrays[:1] if _same_cells(arrays) else arrays
               for arrays in by_column]
    # a table without rows is its header alone
    rows = max(1, _BLOCK_CELLS // max(1, sum(len(arrays) * arrays[0][:1].size
                                             for arrays in columns)))
    with _open_tables(paths, header) as files:
        for lo in range(0, len(by_column[0][0]), rows):
            _write_rows(files, _texts(
                [[a[lo:lo + rows] for a in arrays] for arrays in columns]))


def write_table(path, header, columns) -> None:
    """One table: ``write_tables`` with one path."""
    write_tables((path,), header, (columns,))


def write_long_tables(paths, header, shared, own) -> None:
    """``write_tables`` of the columns t, i, ``shared`` and the path's array
    in ``own`` ((T, n) arrays; rows in (t, i) order, t and i 1-based), one
    block of whole time steps at a time. ``shared`` is formatted once for
    every path, and the texts of t and i are repeated, not formatted per
    row."""
    if any(a.shape != shared.shape for a in own):
        raise ValueError("the tables differ in shape")
    if _same_cells(own):  # variants played as one run
        own = own[:1]
    T, n = shared.shape
    steps = max(1, _BLOCK_CELLS // max(1, (1 + len(own)) * n))
    (i, i_used), = _texts([[np.arange(1, n + 1)]])
    with _open_tables(paths, header) as files:
        for lo in range(0, T, steps):
            hi = min(lo + steps, T)
            (t, t_used), *cells = _texts([[np.arange(lo + 1, hi + 1)],
                                          [shared[lo:hi].ravel()],
                                          [a[lo:hi].ravel() for a in own]])
            _write_rows(files, [([np.repeat(t[0], n, axis=0)], t_used),
                                ([np.tile(i[0], (hi - lo, 1, 1))], i_used),
                                *cells])


def _used_bytes(text, starts) -> np.ndarray:
    """For each run of ``text``'s rows from each of ``starts``: whether
    each byte of the field is used by any row of the run."""
    return np.bitwise_or.reduceat(text.view(np.uint64), starts,
                                  axis=0).view(np.uint8) != 0


def _texts(columns) -> list:
    """The cell texts of ``columns``, each a list of one array ((rows,) or
    (rows, w)) that every path shares or of one array per path: for each
    column, the list of its (rows, w, ``_FIELD``) text blocks and the
    bytes of the field they use. Every float array, and every integer
    array that doubles hold (``_floats_hold``), is formatted in one
    ``format_floats`` call across the columns and paths."""
    arrays = [a for column in columns for a in column]
    pooled = [a.dtype.kind not in "iu" or _floats_hold(a) for a in arrays]
    if any(pooled):
        cells = [a.ravel() for a, p in zip(arrays, pooled) if p]
        starts = np.cumsum([0] + [a.size for a in cells[:-1]])
        text = format_floats(np.concatenate(cells))
        pooled_texts = zip(np.split(text, starts[1:]),
                           _used_bytes(text, starts))
    pooled = iter(pooled)
    texts = []
    for column in columns:
        blocks, used = [], np.zeros(_FIELD, bool)
        for a in column:
            if next(pooled):
                text, bytes_used = next(pooled_texts)
            else:
                text = format_ints(a)
                bytes_used = _used_bytes(text, [0])[0]
            used |= bytes_used
            blocks.append(text.reshape(len(a), -1, _FIELD))
        texts.append((blocks, used))
    return texts


def _write_rows(files, columns) -> None:
    """Write the rows whose cells are ``columns``' texts (``_texts``' pairs;
    one text block shared by every file, or one per file) to each of
    ``files``.

    Each column's fields are as wide as the bytes its texts use; the
    fields fill a byte buffer a row at a time, each followed by "," or,
    at the row's end, "\n". For each file one mask drops the NUL padding,
    and what is left is written.
    """
    rows = len(columns[0][0][0])
    spans = [slice(u[0], u[-1] + 1)
             for u in (np.flatnonzero(used) for _, used in columns)]
    sizes = [blocks[0].shape[1] * (span.stop - span.start + 1)
             for (blocks, _), span in zip(columns, spans)]
    buf = np.empty((rows, sum(sizes)), np.uint8)
    fields = [part.reshape(rows, blocks[0].shape[1], -1) for part, (blocks, _)
              in zip(np.split(buf, np.cumsum(sizes[:-1]), axis=1), columns)]
    for field in fields:
        field[:, :, -1] = ord(",")
    buf[:, -1] = ord("\n")
    for (blocks, _), span, field in zip(columns, spans, fields):
        if len(blocks) == 1:
            field[:, :, :-1] = blocks[0][:, :, span]
    data = None
    for path, fh in enumerate(files):
        own = [(blocks[path], span, field) for (blocks, _), span, field
               in zip(columns, spans, fields) if len(blocks) > 1]
        for block, span, field in own:
            field[:, :, :-1] = block[:, :, span]
        if own or data is None:
            data = buf[buf != 0]
        fh.write(data)


@contextlib.contextmanager
def _open_tables(paths, header):
    """The files at ``paths``, open for binary writing, each under
    ``header``."""
    with contextlib.ExitStack() as stack:
        files = [stack.enter_context(open(p, "wb")) for p in paths]
        for fh in files:
            fh.write((",".join(header) + "\n").encode())
        yield files


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


def write_state_csv(traces, *paths) -> None:
    """Per-step scalars and optima for ``verify``; row k = 0 holds x0.

    ``traces`` is one trace, or a list of one per path; the files are
    written together (``write_tables``).
    """
    traces = one_per_path(traces, paths)
    if not all(trace.has_optima() for trace in traces):
        raise MissingOptimaError("state csv needs filled optima")
    write_tables(paths, _state_header(traces[0].dim), [
        [np.arange(trace.horizon + 1),
         *(np.concatenate(([0.0], getattr(trace, field)))
           for field in _STATE_COLUMNS.values()),
         np.vstack([trace.x0, trace.optima])] for trace in traces])


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
