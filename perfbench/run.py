"""Benchmark of ompd: wall time to a certified regret curve, per workload.

Run from the repository root:

    python3 perfbench/run.py --workload ex1_cli --seed 1 --seconds 20 --trace 0

One client plays a workload's operations back to back (a closed loop),
in passes over the workload's corpus of instances, until another pass
would end after ``--seconds``; at least one pass is played. Every
operation's outputs are checked. The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics from a
traced run with ``--trace 1``. The lines before it print every metric by
name and unit, the sample counts, the failures and the environment; the
full record goes to ``.perfbench_out/`` in the repository root.

The program is imported from ``src/`` of the checkout; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback

import checks
import stats
import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 7
IMPORT_PROBE = ("import time; t = time.perf_counter(); import ompd; "
                "print(time.perf_counter() - t)")

#: the metrics BENCHMARK.json bounds: CPU times scaled to the reference
#: speed of the probe (see clock.py), because the shared host
#: changes speed in phases that no repetition inside a run averages out
END_TO_END_UNITS = {"run_ref_s": "s", "verify_ref_s": "s",
                    "certified_steps_per_ref_s": "steps/s", "setup_s": "s",
                    "peak_rss_mb": "MB"}
#: other timings, printed as measured and without a bound
RAW_UNITS = {"run_cpu_s": "s", "verify_cpu_s": "s", "run_s": "s",
             "verify_s": "s", "certified_steps_per_s": "steps/s",
             "probe_cpu_s": "s"}
#: verify is short and jittery, so it is repeated on the operation's output
VERIFY_REPEATS = 5


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_per_step"):
        return "count/step"
    if name.startswith("runio.bytes"):
        return "B"
    return "count"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment(seed: int) -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas_name = None
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "ompd", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": blas_name,
            "blas_threads": blas_threads(numpy),
            "git_commit": git_commit(), "source_sha256": digest.hexdigest(),
            "seed": seed, "OMPD_THREADS": "unset"}


def blas_threads(numpy):
    """Thread count of numpy's bundled OpenBLAS, or None if not found."""
    base = os.path.dirname(numpy.__file__)
    for lib in glob.glob(os.path.join(base, "..", "numpy.libs", "*openblas*")):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() or None


def measure_setup(repeats: int) -> list:
    """Seconds a fresh interpreter spends in ``import ompd``, per repeat."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                             env=env, capture_output=True, text=True,
                             timeout=120, check=True)
        times.append(float(out.stdout.split()[-1]))
    return times


def play(workload, instance, tracer, refs, workdir, verify_repeats):
    """One operation: untimed inputs, the timed call, then its checks."""
    record = {"instance": instance, "result": None}
    try:
        inputs = workload.prepare(instance, workdir)
        tracer.reset()
        with tracer.installed():
            result = workload.play(inputs, workdir, verify_repeats,
                                   sample=not tracer.record_spans)
        verdicts = workload.check(result, instance, refs)
    except (Exception, SystemExit) as exc:  # counted, and the run goes on
        traceback.print_exc()
        verdicts = {v: (None, [f"exception: {exc!r}"])
                    for v in workload.variants}
    else:
        record["result"] = result
        record["step_seconds"] = [float(s) for arr in tracer.step_seconds
                                  for s in arr]
        if tracer.record_spans:
            record["layers"] = tracing.layer_metrics(tracer)
            record["spans"] = list(tracer.spans)
            record["missing"] = list(tracer.missing)
    record["verdicts"] = verdicts
    return record


def play_passes(workload, corpus, rng, seconds, tracer, refs, workdir,
                verify_repeats):
    """Whole passes over the corpus until the next would overrun."""
    start = time.perf_counter()
    records = []
    while True:
        order = list(corpus)
        rng.shuffle(order)
        t0 = time.perf_counter()
        records += [play(workload, inst, tracer, refs, workdir,
                         verify_repeats) for inst in order]
        now = time.perf_counter()
        if now + (now - t0) > start + seconds:
            return records


def end_to_end(records, setup_times) -> tuple:
    """(bounded metric values, summaries of every reported timing).

    Every run plays whole passes over a corpus of unequal instances, so a
    bounded value is the mean over operations, which weighs each instance
    the same in every run; an operation's verify time is the median of
    its repetitions.
    """
    done = [r for r in records if r["result"] is not None]
    if not done:
        return {}, {}
    res = [r["result"] for r in done]

    def verify(x, clock):
        return stats.median([getattr(v, clock) for v in x.verifies])

    def rate(x, clock):
        return x.steps / (getattr(x.run, clock) + verify(x, clock))

    per_op = {
        "run_ref_s": [x.run.ref for x in res],
        "verify_ref_s": [verify(x, "ref") for x in res],
        "certified_steps_per_ref_s": [rate(x, "ref") for x in res],
        "run_cpu_s": [x.run.cpu for x in res],
        "verify_cpu_s": [verify(x, "cpu") for x in res],
        "run_s": [x.run.wall for x in res],
        "verify_s": [verify(x, "wall") for x in res],
        "certified_steps_per_s": [rate(x, "wall") for x in res],
    }
    samples = dict(per_op)
    samples["setup_s"] = setup_times
    samples["probe_cpu_s"] = [p for x in res for c in (x.run, *x.verifies)
                              for p in c.probes]
    samples["step_us"] = [1e6 * s for r in done for s in r["step_seconds"]]
    summaries = {name: stats.summarize(v) for name, v in samples.items()}
    values = {name: sum(per_op[name]) / len(per_op[name])
              for name in END_TO_END_UNITS if name in per_op}
    values["setup_s"] = summaries["setup_s"]["median"]
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values["peak_rss_mb"] = peak_kib / 1024.0
    return values, summaries


def per_layer(records, untraced) -> dict:
    """Per-operation means of the layer metrics over the traced passes.

    ``math.fsum`` makes a mean independent of the pass order, so counts
    repeat exactly. The tracing overhead compares reference-speed times
    of the first instance, traced and untraced.
    """
    done = [r for r in records if r["result"] is not None]
    if not done:
        return {}

    def mean(values):
        return math.fsum(values) / len(done)

    values = {name: mean(r["layers"][name] for r in done)
              for name in done[0]["layers"]}
    values["trace.run_s"] = mean(r["result"].run.wall for r in done)
    values["trace.verify_s"] = mean(r["result"].verifies[0].wall
                                    for r in done)
    values["trace.overhead_s"] = (
        done[0]["result"].run.ref - untraced["result"].run.ref
        if untraced["result"] is not None else 0.0)
    return values


def print_report(workload, args, env, records, untraced, attempted, failed,
                 values, summaries):
    print(f"workload={workload.name} seed={args.seed} trace={args.trace} "
          f"ops={len(records)} attempted={attempted} failed={failed} "
          f"fail_ratio={failed / attempted if attempted else 1.0:.6g}")
    print("env " + json.dumps(env, sort_keys=True))
    for r in records + ([untraced] if untraced is not None else []):
        for variant, (_, problems) in r["verdicts"].items():
            for problem in problems:
                print(f"FAIL instance={r['instance']} variant={variant}: "
                      f"{problem}")
    if args.trace:
        missing = sorted({m for r in records for m in r.get("missing", ())})
        if missing:
            print("entry points not found, not traced: " + ", ".join(missing))
        for name, value in values.items():
            print(f"{name} = {value:.6g} {per_layer_unit(name)}")
        return
    for name, value in values.items():
        print(f"{name} = {value:.6g} {END_TO_END_UNITS[name]}")
    print("as measured (median, highest percentile with ten samples beyond "
          "it, sample count):")
    units = {**END_TO_END_UNITS, **RAW_UNITS, "step_us": "us"}
    for name, s in summaries.items():
        print(f"  {name}: {s['median']:.6g} {units[name]}, "
              f"p{100 * s['tail_level']:.4g} {s['tail']:.6g}, n={s['n']}")
    steps = summaries["step_us"]
    print(f"step_p50_us = {steps['median']:.6g} us")
    if steps["n"] >= 1000:
        print(f"step_p99_us = {steps['tail']:.6g} us")
    else:
        print(f"step_p99_us not reported: {steps['n']} steps played, "
              f"fewer than 1000")
    print(f"fail_ratio = {failed / attempted:.6g}")


def clock_record(clock) -> dict:
    return {"wall": clock.wall, "cpu": clock.cpu, "ref": clock.ref,
            "probes": clock.probes}


def write_record(workload, args, env, records, values, untraced):
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{workload.name}-seed{args.seed}"
                                 f"-trace{args.trace}")
    ops = []
    for r in records + ([untraced] if untraced is not None else []):
        res = r["result"]
        ops.append({"instance": r["instance"], "traced": "layers" in r,
                    "run": clock_record(res.run) if res else None,
                    "verifies": ([clock_record(v) for v in res.verifies]
                                 if res else None),
                    "layers": r.get("layers"),
                    "verdicts": {v: {"observation": obs, "problems": p}
                                 for v, (obs, p) in r["verdicts"].items()}})
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "env": env, "metrics": values,
                   "ops": ops}, fh, indent=1)
    if args.trace:
        with open(stem + "-spans.jsonl", "w", encoding="utf-8") as fh:
            for op, r in enumerate(x for x in records if "spans" in x):
                for sid, (layer, parent, start, end) in enumerate(r["spans"]):
                    fh.write(json.dumps([op, sid, layer, parent, start, end])
                             + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ompd", "__init__.py")):
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("OMPD_THREADS", None)
    sys.path.insert(0, SRC)
    import ompd
    if not os.path.abspath(ompd.__file__).startswith(SRC + os.sep):
        print(f"perfbench: ompd imported from {ompd.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    corpus = (workload.holdout if args.seed == workloads.HOLDOUT_SEED
              else workload.corpus)
    refs = checks.load_references()
    env = environment(args.seed)
    rng = random.Random(args.seed)
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    untraced = None
    try:
        if args.trace:
            records = play_passes(workload, corpus, rng, args.seconds,
                                  tracing.Tracer(spans=True), refs, workdir,
                                  verify_repeats=1)
            untraced = play(workload, records[0]["instance"],
                            tracing.Tracer(spans=False), refs, workdir,
                            verify_repeats=1)
            values = per_layer(records, untraced)
            summaries = {}
        else:
            setup_times = measure_setup(SETUP_REPEATS)
            records = play_passes(workload, corpus, rng, args.seconds,
                                  tracing.Tracer(spans=False), refs, workdir,
                                  VERIFY_REPEATS)
            values, summaries = end_to_end(records, setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checked = [r["verdicts"] for r in records]
    if untraced is not None:
        checked.append(untraced["verdicts"])
    attempted, failed = checks.tally(checked)
    print_report(workload, args, env, records, untraced, attempted, failed,
                 values, summaries)
    write_record(workload, args, env, records, values, untraced)
    if not values:
        print("perfbench: no operation completed", file=sys.stderr)
        return 1
    unit = per_layer_unit if args.trace else END_TO_END_UNITS.get
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit(name)}
                    for name, value in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
