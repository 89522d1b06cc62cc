"""Spans and counts around the program's public entry points, from outside.

The tracer replaces entry points of the ``ompd`` modules with wrappers
while it is installed, and puts the originals back when it is removed.
A function imported by name into other ``ompd`` modules is replaced in
every namespace that holds it, so calls made through those names are
seen too. No file of the program is changed.

A span is ``[layer, parent index, start, end]``, kept in memory. Spans
nest by call order, which is exact because the program runs one worker
thread when ``OMPD_THREADS`` is unset (the benchmark unsets it). A
layer's time is the sum of its outermost spans, so it includes callees
(the SVT calls inside the offline oracle count in both ``prox.svt_s`` and
``regret.optima_s``). A span's self time is its duration minus the part
its child spans cover.

Counts are kept where a span would cost too much (``composed_prox`` runs
about 175k times per mirror_box operation), optionally split by the layer
whose span is open at the call.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import os
import sys
import time
from collections import Counter, defaultdict

#: layer -> entry points timed as spans of that layer; "Class.method"
#: patches a method
SPAN_TARGETS = {
    "cli.main": [("ompd.cli", "main")],
    "experiments.runner": [("ompd.experiments", "run_example1"),
                           ("ompd.experiments", "run_example2")],
    "experiments.generate": [("ompd.experiments", "generate_gauss_markov"),
                             ("ompd.experiments", "generate_separation")],
    "regret.optima": [("ompd.regret", "stream_optima"),
                      ("ompd.regret", "offline_optimum"),
                      ("ompd.experiments", "lasso_optima_batch")],
    "solver.run": [("ompd.solver", "run")],
    "prox.subproblem": [("ompd.prox", "inexact_mirror_prox")],
    "prox.svt": [("ompd.prox", "singular_value_threshold")],
    "losses.error_draw": [("ompd.losses", "ErrorModel.gradient_error"),
                          ("ompd.losses", "ErrorModel.prox_error")],
    "losses.validate": [("ompd.losses", "validate_constants")],
    "regret.bound": [("ompd.regret", "fill_optima"),
                     ("ompd.regret", "ledger_from_trace"),
                     ("ompd.regret", "theorem_rhs"),
                     ("ompd.regret", "dynamic_regret")],
    # the coefficient, snapshot and config writers are private, but they
    # are the CSV writers of a CLI run, so they are timed with the rest
    "runio.write": [("ompd.runio", "write_state_csv"),
                    ("ompd.solver", "write_trace_csv"),
                    ("ompd.regret", "write_bound_csv"),
                    ("ompd.experiments", "_write_coefficients_csv"),
                    ("ompd.experiments", "_write_snapshots"),
                    ("ompd.cli", "_write_resolved_config")],
    "runio.read": [("ompd.runio", "read_state_csv"),
                   ("ompd.runio", "read_trace_csv")],
}

#: counter -> layers whose open span splits the count
COUNT_CONTEXTS = {
    "prox.composed": ("regret.optima", "prox.subproblem"),
    "bregman.gradient": ("solver.run",),
}

GENERATOR_FACTORIES = [("ompd.bregman", "euclidean_generator"),
                       ("ompd.bregman", "negative_entropy_generator")]

#: I/O layer -> counter of the bytes in the files its spans name
IO_BYTES = {"runio.write": "runio.bytes_written",
            "runio.read": "runio.bytes_read"}


class Tracer:
    """Wraps the program's entry points while installed.

    With ``spans=False`` only ``solver.run`` is wrapped, to keep the
    per-step times of every trace it returns; that costs one call per
    variant and is what the untraced runs use.
    """

    def __init__(self, spans: bool):
        self.record_spans = spans
        self.missing = []
        self.spans = []
        self.counts = Counter()
        self.step_seconds = []
        self._stack = []
        self._open = Counter()
        self._undo = []

    def reset(self) -> None:
        # cleared in place: the installed wrappers hold these objects
        self.spans.clear()       # [layer, parent index or None, start, end]
        self.counts.clear()
        self.step_seconds.clear()  # one array per solver.run call
        self._stack.clear()
        self._open.clear()

    @contextlib.contextmanager
    def installed(self):
        self.missing = []
        try:
            self._patch("ompd.solver", "run", self._capture)
            if self.record_spans:
                for layer, targets in SPAN_TARGETS.items():
                    for module, attr in targets:
                        self._patch(module, attr, functools.partial(
                            self._span, layer, f"{module}.{attr}"))
                self._patch("ompd.prox", "composed_prox",
                            functools.partial(self._count, "prox.composed"))
                for module, attr in GENERATOR_FACTORIES:
                    self._patch(module, attr, self._counted_generator)
            yield self
        finally:
            while self._undo:
                owner, key, value = self._undo.pop()
                setattr(owner, key, value)

    def _patch(self, module: str, attr: str, make_wrapper) -> None:
        owner = sys.modules.get(module)
        cls_name, _, name = attr.rpartition(".")
        if cls_name:
            owner = getattr(owner, cls_name, None)
        original = getattr(owner, name, None)
        if original is None:
            self.missing.append(f"{module}.{attr}")
            return
        wrapper = make_wrapper(original)
        if cls_name:
            self._set(owner, name, wrapper)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "ompd"
                                   or mod_name.startswith("ompd.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)

    def _set(self, owner, key, value) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def _capture(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            trace = fn(*args, **kwargs)
            self.step_seconds.append(trace.step_seconds)
            return trace
        return wrapper

    def _span(self, layer: str, target: str, fn):
        call_key, io_key = "calls:" + target, IO_BYTES.get(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[call_key] += 1
            record = [layer, self._stack[-1] if self._stack else None,
                      0.0, 0.0]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            self._open[layer] += 1
            record[2] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                self._stack.pop()
                self._open[layer] -= 1
                if io_key is not None:
                    self.counts[io_key] += _file_bytes(args)
        return wrapper

    def _count(self, name: str, fn):
        keyed = [(ctx, f"{name}@{ctx}")
                 for ctx in COUNT_CONTEXTS.get(name, ())]
        counts, is_open = self.counts, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            for ctx, key in keyed:
                if is_open[ctx]:
                    counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _counted_generator(self, factory):
        @functools.wraps(factory)
        def wrapper(*args, **kwargs):
            gen = factory(*args, **kwargs)
            return dataclasses.replace(
                gen, gradient=self._count("bregman.gradient", gen.gradient))
        return wrapper


def _file_bytes(args) -> int:
    return sum(os.path.getsize(a) for a in args
               if isinstance(a, str) and os.path.isfile(a))


def covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans) -> list:
    """Each span's duration minus the part its children cover."""
    children = defaultdict(list)
    for _, parent, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    return [end - start - covered(start, end, children.get(i, ()))
            for i, (_, _, start, end) in enumerate(spans)]


def layer_totals(spans) -> dict:
    """Per layer, the summed duration of spans with no same-layer ancestor."""
    totals = defaultdict(float)
    for layer, parent, start, end in spans:
        while parent is not None and spans[parent][0] != layer:
            parent = spans[parent][1]
        if parent is None:
            totals[layer] += end - start
    return totals


def layer_self(spans) -> dict:
    totals = defaultdict(float)
    for (layer, *_), own in zip(spans, self_times(spans)):
        totals[layer] += own
    return totals


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics of one traced operation."""
    incl = layer_totals(tracer.spans)
    own = layer_self(tracer.spans)
    counts = tracer.counts
    steps = sum(len(s) for s in tracer.step_seconds)

    def calls(*targets):
        return sum(counts["calls:" + t] for t in targets)

    def per_step(n):
        return n / steps if steps else 0.0

    return {
        "experiments.generate_s": incl["experiments.generate"],
        "regret.optima_s": incl["regret.optima"],
        "regret.optima_calls": calls("ompd.regret.offline_optimum",
                                     "ompd.experiments.lasso_optima_batch"),
        "regret.optima_prox_calls": counts["prox.composed@regret.optima"],
        "prox.svt_calls": calls("ompd.prox.singular_value_threshold"),
        "prox.svt_s": incl["prox.svt"],
        "prox.subproblem_s": incl["prox.subproblem"],
        "prox.inner_prox_calls_per_step":
            per_step(counts["prox.composed@prox.subproblem"]),
        "bregman.gradient_calls_per_step":
            per_step(counts["bregman.gradient@solver.run"]),
        "losses.error_draw_s": incl["losses.error_draw"],
        "losses.validate_s": incl["losses.validate"],
        "solver.run_s": incl["solver.run"],
        "solver.self_s": own["solver.run"],
        "solver.steps": steps,
        "regret.bound_s": incl["regret.bound"],
        "runio.write_s": incl["runio.write"],
        "runio.bytes_written": counts["runio.bytes_written"],
        "runio.read_s": incl["runio.read"],
        "runio.bytes_read": counts["runio.bytes_read"],
        "cli.self_s": own["cli.main"],
    }
