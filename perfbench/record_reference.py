"""Record the reference values the benchmark's output checks compare against.

Run from the repository root, at a commit whose outputs are trusted:

    python3 perfbench/record_reference.py [workload ...]

Plays every instance of each named workload (all by default), corpus and
held-out corpus, once, and stores R_T and the sum of f_star per instance
and variant in ``perfbench/reference.json``, merged with what is there.
An instance whose prefix bound fails is not recorded.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import run


def main(argv) -> int:
    sys.path.insert(0, run.SRC)
    import checks
    import workloads

    names = argv or sorted(workloads.WORKLOADS)
    refs = (checks.load_references()
            if os.path.exists(checks.REFERENCE_PATH) else {})
    status = 0
    os.makedirs(run.OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as workdir:
        for name in names:
            workload = workloads.WORKLOADS[name]
            table = refs.setdefault(name, {})
            for instance in workload.corpus + workload.holdout:
                result = workload.play(workload.prepare(instance, workdir),
                                       workdir, verify_repeats=1,
                                       sample=False)
                verdicts = workload.check(result, instance, {})
                for variant, (obs, problems) in verdicts.items():
                    if problems != ["no recorded reference"]:
                        print(f"{name} {instance} {variant}: {problems}")
                        status = 1
                        continue
                    table.setdefault(str(instance), {})[variant] = {
                        "R_T": obs["R_T"], "sum_f_star": obs["sum_f_star"]}
                print(f"{name} instance={instance} "
                      f"run_s={result.run.wall:.3f}", flush=True)
    with open(checks.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
