"""Tests of the benchmark's own logic: python3 -m pytest perfbench"""

import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import clock  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402


class TestSelfTime:
    def test_nested_and_overlapping_children(self):
        spans = [["a", None, 0.0, 10.0],
                 ["b", 0, 1.0, 4.0],
                 ["c", 1, 2.0, 3.0],
                 ["b", 0, 3.5, 6.0]]
        # a's children cover [1, 6]; c is a grandchild and not subtracted
        assert tracing.self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.5])
        totals = tracing.layer_totals(spans)
        assert totals["a"] == pytest.approx(10.0)
        assert totals["b"] == pytest.approx(5.5)
        assert totals["c"] == pytest.approx(1.0)

    def test_same_layer_nesting_counts_once(self):
        spans = [["x", None, 0.0, 10.0], ["y", 0, 1.0, 9.0],
                 ["x", 1, 2.0, 5.0]]
        assert tracing.layer_totals(spans)["x"] == pytest.approx(10.0)
        own = tracing.layer_self(spans)
        assert own["x"] == pytest.approx(2.0 + 3.0)
        assert own["y"] == pytest.approx(5.0)

    def test_child_clipped_to_parent(self):
        assert tracing.covered(0.0, 1.0, [(-1.0, 0.5), (0.8, 2.0)]) == \
            pytest.approx(0.7)
        assert tracing.covered(0.0, 1.0, []) == 0.0


class TestTailRule:
    @pytest.mark.parametrize("n, level", [(1, 0.5), (19, 0.5), (20, 0.5),
                                          (40, 0.75), (200, 0.95),
                                          (1000, 0.99), (100000, 0.99)])
    def test_levels(self, n, level):
        assert stats.tail_level(n) == pytest.approx(level)

    @pytest.mark.parametrize("n", [20, 21, 57, 100, 999, 1000, 4321])
    def test_ten_samples_beyond(self, n):
        values = [float(i) for i in range(n)]
        tail = stats.quantile(values, stats.tail_level(n))
        assert sum(v > tail for v in values) >= stats.TAIL_MIN_BEYOND

    def test_summary_counts_samples(self):
        s = stats.summarize([3.0, 1.0, 2.0])
        assert s["n"] == 3 and s["median"] == 2.0 and s["tail"] == 2.0


class TestReferenceSpeed:
    def test_constant_speed(self):
        assert clock.reference_seconds(3.0, [0.04, 0.04]) == \
            pytest.approx(1.5)

    def test_phases_weighted_by_cpu_time(self):
        # one unit of work at full speed (1 s) and one at half speed (2 s):
        # CPU-uniform samples see the slow phase twice as often
        assert clock.reference_seconds(3.0, [0.02, 0.04, 0.04]) == \
            pytest.approx(2.0)

    def test_probes_inside_a_block_are_not_timed(self):
        with clock.Clock(sample=True) as c:
            end = time.process_time() + 6 * clock.PROBE_EVERY_S
            while time.process_time() < end:
                pass
        assert len(c.probes) >= 4  # before, at least two inside, after
        inside = sum(c.probes[1:-1])
        assert c.cpu <= 6 * clock.PROBE_EVERY_S - 0.9 * inside


TRACE_HEADER = ("k,f_x,f_star,instant_regret,grad_error_norm,eps,"
                "dist_to_optimum,cum_regret")
BOUND_HEADER = "T,R_T,RHS_T,Sigma_T,SigmaBar_T,E_T,P_T,margin"


def write_outputs(out_dir, variant, f_x, f_star, rhs):
    vdir = os.path.join(out_dir, variant)
    os.makedirs(vdir, exist_ok=True)
    cum = 0.0
    trace_rows, bound_rows = [], []
    for k, (fx, fs, b) in enumerate(zip(f_x, f_star, rhs), start=1):
        cum += fx - fs
        trace_rows.append(f"{k},{fx!r},{fs!r},{fx - fs!r},0,0,0,{cum!r}")
        bound_rows.append(f"{k},{cum!r},{b!r},0,0,0,0,{b - cum!r}")
    with open(os.path.join(vdir, "trace.csv"), "w") as fh:
        fh.write("\n".join([TRACE_HEADER] + trace_rows) + "\n")
    with open(os.path.join(vdir, "bound.csv"), "w") as fh:
        fh.write("\n".join([BOUND_HEADER] + bound_rows) + "\n")


@pytest.fixture
def good_run(tmp_path):
    out = str(tmp_path)
    write_outputs(out, "exact", [2.0, 3.0, 4.0], [1.0, 1.5, 2.0],
                  [5.0, 6.0, 7.0])
    refs = {"w": {"7": {"exact": {"R_T": 4.5, "sum_f_star": 4.5}}}}
    return out, refs


def verdicts(out, refs, rc_run=0, rc_verify=0):
    return checks.check_cli_op(out, ("exact",), 3, rc_run, rc_verify, refs,
                               "w", 7, rel_tol=1e-6)


class TestFailures:
    def test_clean_outputs_pass(self, good_run):
        v = verdicts(*good_run)
        assert checks.tally([v]) == (1, 0)
        obs, problems = v["exact"]
        assert problems == [] and obs["R_T"] == 4.5

    @pytest.mark.parametrize("rc_run, rc_verify", [(1, 0), (0, 5), (2, 4)])
    def test_failing_exit_code_counts(self, good_run, rc_run, rc_verify):
        assert checks.tally([verdicts(*good_run, rc_run, rc_verify)]) == (1, 1)

    @pytest.mark.parametrize("corruption", [
        lambda text: text.replace("3.0", "x", 1),      # unparseable value
        lambda text: text.rsplit("\n", 2)[0] + "\n",   # truncated rows
        lambda text: text.replace("4.0", "nan", 1),    # nonfinite value
        lambda text: text.replace("2.0,", "2.5,", 1),  # altered f_x
        lambda text: text.replace(",1.5,", ",1.25,", 1),  # altered f_star
        lambda text: "",                               # emptied file
    ])
    def test_corrupted_trace_csv_counts(self, good_run, corruption):
        out, refs = good_run
        path = os.path.join(out, "exact", "trace.csv")
        with open(path) as fh:
            text = fh.read()
        with open(path, "w") as fh:
            fh.write(corruption(text))
        assert checks.tally([verdicts(out, refs)]) == (1, 1)

    def test_missing_output_counts(self, good_run):
        out, refs = good_run
        os.remove(os.path.join(out, "exact", "bound.csv"))
        assert checks.tally([verdicts(out, refs)]) == (1, 1)

    def test_violated_prefix_bound_counts(self, tmp_path):
        # final margin positive, but the second prefix is violated
        out = str(tmp_path)
        write_outputs(out, "exact", [2.0, 9.0, 1.0], [1.0, 1.0, 1.0],
                      [5.0, 6.0, 100.0])
        refs = {"w": {"7": {"exact": {"R_T": 9.0, "sum_f_star": 3.0}}}}
        _, problems = verdicts(out, refs)["exact"]
        assert any("prefix bound" in p for p in problems)

    def test_reference_tolerance(self):
        ref = {"R_T": 10.0, "sum_f_star": 1000.0}
        near = {"R_T": 10.0 + 1e-4, "sum_f_star": 1000.0 - 1e-4,
                "min_margin": 1.0}
        far = {"R_T": 10.0, "sum_f_star": 1000.1, "min_margin": 1.0}
        assert checks.compare(near, ref, 1e-6) == []
        assert len(checks.compare(far, ref, 1e-6)) == 1
        assert checks.compare(near, None, 1e-6) == ["no recorded reference"]


class TestTracer:
    def test_counts_and_restores(self):
        import numpy as np
        from ompd import cli, prox, regret, whole_space  # noqa: F401
        original = prox.singular_value_threshold
        tracer = tracing.Tracer(spans=True)
        with tracer.installed():
            assert prox.singular_value_threshold is not original
            prox.nuclear_rule(0.5).apply(np.eye(3), 1.0)
            # a name imported into another module is wrapped there too
            regret.composed_prox(prox.zero_rule(), whole_space(),
                                 np.ones(2), 1.0)
        assert prox.singular_value_threshold is original
        assert tracer.missing == []
        assert tracer.counts["calls:ompd.prox.singular_value_threshold"] == 1
        assert tracer.counts["prox.composed"] == 1
        assert [s[0] for s in tracer.spans] == ["prox.svt"]
