"""Exit codes, file contract, and verify round-trips of the CLI."""

import configparser

from ompd import experiments
from ompd.cli import main

EX2_SMALL = ("[example2]\nframe_dim = 16\nwindow = 8\n"
             "[run]\nexperiment = example2\nseed = 2\nvariant = exact\n"
             "horizon = 4\n")


def _run_example1(tmp_path, extra=()):
    out = tmp_path / "results"
    code = main(["run", "--experiment", "example1", "--seed", "7",
                 "--horizon", "40", "--out", str(out), *extra])
    return code, out


def _recorded_optimum_tol(out):
    parser = configparser.ConfigParser()
    parser.read(out / "run_config.cfg")
    return float(parser["run"]["optimum_tol"])


class TestRun:
    def test_smoke_run_writes_all_csvs(self, tmp_path, capsys):
        code, out = _run_example1(tmp_path)
        assert code == 0
        for variant in ("exact", "inexact"):
            for name in ("trace.csv", "bound.csv", "bound_state.csv",
                         "coefficients.csv"):
                assert (out / variant / name).exists()
        assert (out / "run_config.cfg").exists()
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        for line in lines:
            keys = [tok.split("=")[0] for tok in line.split()]
            assert keys == ["variant", "R_T", "R_T_over_T", "bound_margin"]

    def test_single_variant_flag(self, tmp_path):
        out = tmp_path / "res"
        code = main(["run", "--experiment", "example1", "--seed", "3",
                     "--horizon", "20", "--variant", "exact",
                     "--out", str(out)])
        assert code == 0
        assert (out / "exact" / "trace.csv").exists()
        assert not (out / "inexact").exists()

    def test_nonempty_dir_refused_without_overwrite(self, tmp_path):
        code, out = _run_example1(tmp_path)
        assert code == 0
        code2, _ = _run_example1(tmp_path)
        assert code2 == 3
        code3, _ = _run_example1(tmp_path, extra=("--overwrite",))
        assert code3 == 0

    def test_malformed_config_names_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[example1]\nalpha = fast\n")
        code = main(["run", "--experiment", "example1", "--config", str(cfg),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "alpha" in capsys.readouterr().err

    def test_unknown_key_names_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[example1]\nwarp = 9\n")
        code = main(["run", "--experiment", "example1", "--config", str(cfg),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "warp" in capsys.readouterr().err

    def test_config_file_drives_run(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[run]\nexperiment = example1\nseed = 9\n"
                       "variant = exact\nhorizon = 15\n"
                       "[example1]\neta = 0.1\n")
        out = tmp_path / "res"
        code = main(["run", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        text = (out / "run_config.cfg").read_text()
        assert "eta = 0.1" in text

    def test_configured_optimum_tol_reaches_example2(self, tmp_path,
                                                      monkeypatch):
        seen = []
        real = experiments.run_example2

        def spy(*args, **kwargs):
            seen.append(kwargs.get("optimum_tol"))
            return real(*args, **kwargs)

        monkeypatch.setattr(experiments, "run_example2", spy)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(EX2_SMALL + "optimum_tol = 1e-5\n")
        out = tmp_path / "res"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert seen == [1e-5]
        assert _recorded_optimum_tol(out) == 1e-5

    def test_example2_records_its_default_optimum_tol(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(EX2_SMALL)
        out = tmp_path / "res"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert _recorded_optimum_tol(out) == 1e-6


class TestVerify:
    def test_verify_after_run_exits_zero(self, tmp_path, capsys):
        code, out = _run_example1(tmp_path)
        assert code == 0
        vcode = main(["verify", "--out", str(out)])
        assert vcode == 0
        for line in capsys.readouterr().out.strip().splitlines()[2:]:
            assert "worst_margin=" in line

    def test_bounded_run_verifies(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[run]\nexperiment = example1\nseed = 4\n"
                       "variant = both\nhorizon = 30\n"
                       "[domain]\nkind = box\ndiameter = 20\n")
        out = tmp_path / "res"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["verify", "--out", str(out)]) == 0

    def test_missing_outputs_exit_4(self, tmp_path):
        code, out = _run_example1(tmp_path)
        assert code == 0
        (out / "exact" / "trace.csv").unlink()
        assert main(["verify", "--out", str(out)]) == 4

    def test_missing_config_exit_4(self, tmp_path):
        assert main(["verify", "--out", str(tmp_path)]) == 4

    def test_doctored_trace_exit_5(self, tmp_path):
        """Lowering one played value below its optimum trips the sanity gate."""
        code, out = _run_example1(tmp_path)
        assert code == 0
        path = out / "exact" / "trace.csv"
        lines = path.read_text().splitlines()
        parts = lines[5].split(",")
        parts[1] = str(float(parts[2]) - 1.0)  # f_x below f_star
        lines[5] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        assert main(["verify", "--out", str(out)]) == 5

    def test_stale_small_smoothness_exit_6(self, tmp_path):
        """Shrinking the recorded L_k makes constant validation fail."""
        code, out = _run_example1(tmp_path)
        assert code == 0
        path = out / "exact" / "bound_state.csv"
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        li = header.index("L_k")
        doctored = [lines[0], lines[1]]
        for line in lines[2:]:
            parts = line.split(",")
            parts[li] = str(float(parts[li]) * 0.01)
            doctored.append(",".join(parts))
        path.write_text("\n".join(doctored) + "\n")
        assert main(["verify", "--out", str(out)]) == 6

    def test_inflated_played_losses_exit_1(self, tmp_path):
        """Blowing up recorded f_x in the state file breaks the bound."""
        code, out = _run_example1(tmp_path)
        assert code == 0
        for variant in ("exact", "inexact"):
            path = out / variant / "bound_state.csv"
            lines = path.read_text().splitlines()
            fi = lines[0].split(",").index("f_x")
            doctored = [lines[0], lines[1]]
            for line in lines[2:]:
                parts = line.split(",")
                parts[fi] = str(float(parts[fi]) + 1e9)
                doctored.append(",".join(parts))
            path.write_text("\n".join(doctored) + "\n")
        assert main(["verify", "--out", str(out)]) == 1

    def test_example2_run_and_verify(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[run]\nexperiment = example2\nseed = 2\n"
                       "variant = exact\nhorizon = 25\n"
                       "[example2]\nframe_dim = 16\nwindow = 8\n")
        out = tmp_path / "res"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "exact" / "snapshots").is_dir()
        assert main(["verify", "--out", str(out)]) == 0

    def test_verify_reports_worst_margin_value(self, tmp_path, capsys):
        code, out = _run_example1(tmp_path)
        assert code == 0
        main(["verify", "--out", str(out)])
        report = capsys.readouterr().out
        margins = [float(tok.split("=")[1]) for line in report.splitlines()
                   for tok in line.split() if tok.startswith("worst_margin=")]
        assert len(margins) == 2
        assert all(m >= 0.0 for m in margins)
