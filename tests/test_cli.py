"""Exit codes, file contract, and verify round-trips of the CLI."""

import configparser

import pytest

from ompd import cli, experiments, whole_space
from ompd.cli import main

EX2_SMALL = ("[example2]\nframe_dim = 16\nwindow = 8\n"
             "[run]\nexperiment = example2\nseed = 2\nvariant = exact\n"
             "horizon = 4\n")
EX1_SMALL = "[run]\nexperiment = example1\nseed = 5\nhorizon = 30\n"

#: one run per experiment-table row and domain kind, plus T=1 for each
#: experiment; each must write a run_config.cfg that rebuilds its config
ROUND_TRIPS = {
    "example1": EX1_SMALL,
    "custom": ("[run]\nexperiment = custom\nseed = 3\nhorizon = 30\n"
               "[custom]\nn_coeffs = 12\nactive_set = 1, 5\n"),
    "example1_box": EX1_SMALL + "[domain]\nkind = box\ndiameter = 20\n",
    "example2": EX2_SMALL.replace("variant = exact", "variant = both")
                         .replace("window = 8", "window = 8\nerror_std = 0.5"),
    "example1_T1": EX1_SMALL.replace("horizon = 30", "horizon = 1"),
    "example2_T1": EX2_SMALL.replace("horizon = 4", "horizon = 1"),
}


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

    @pytest.mark.parametrize("argv, cfg_text, key", [
        (["run", "--experiment", "example2", "--horizon", "0"], "", "horizon"),
        (["run", "--experiment", "example1", "--horizon", "-3"], "",
         "horizon"),
        (["run", "--experiment", "example1", "--seed", "-1"], "", "seed"),
        (["verify"], "[run]\nexperiment = example2\n[example2]\nhorizon = 0\n",
         "horizon"),
    ], ids=["ex2_horizon_0", "ex1_horizon_neg", "seed_neg",
            "verify_horizon_0"])
    def test_bad_horizon_or_seed_exits_2(self, tmp_path, capsys, argv,
                                         cfg_text, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(cfg_text)
        code = main([*argv, "--config", str(cfg),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "verify"])
    @pytest.mark.parametrize("text, named", [
        (EX1_SMALL + "[run]\nseed = 6\n", "'run' already exists"),
        (EX1_SMALL + "seed = 6\n", "'seed' in section 'run' already"),
        ("seed = 6\n" + EX1_SMALL, "no section headers"),
        (EX1_SMALL + "[example1]\neta = 5%\n", "key 'eta'"),
    ], ids=["repeated_section", "repeated_key", "no_header", "percent"])
    def test_malformed_config_file_exits_2(self, tmp_path, capsys, command,
                                           text, named):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        code = main([command, "--config", str(cfg),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and named in err

    def test_config_interpolation_is_kept(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(EX1_SMALL + "[example1]\neta = 0.04\n"
                                   "error_std = %(eta)s\n")
        assert cli._load_config(str(cfg))["example1"]["error_std"] == 0.04

    @pytest.mark.parametrize("diameter", ["0", "-4", "nan"])
    def test_nonpositive_diameter_names_key(self, tmp_path, capsys,
                                            diameter):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(EX1_SMALL + f"[domain]\nkind = box\n"
                                   f"diameter = {diameter}\n")
        code = main(["run", "--config", str(cfg),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "diameter" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ROUND_TRIPS.values(),
                             ids=ROUND_TRIPS.keys())
    def test_run_config_rebuilds_the_run(self, tmp_path, monkeypatch, text):
        used = []
        for name in ("run_example1", "run_example2"):
            def spy(cfg, *args, _real=getattr(experiments, name), **kwargs):
                used.append((cfg, kwargs.get("domain") or whole_space()))
                return _real(cfg, *args, **kwargs)
            monkeypatch.setattr(experiments, name, spy)
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(text)
        out = tmp_path / "res"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        sections = cli._load_config(out / "run_config.cfg")
        exp = cli._EXPERIMENTS[sections["run"]["experiment"]]
        rebuilt = exp.config(**sections[exp.section])
        domain = cli._build_domain(exp, sections["domain"], rebuilt)
        [(cfg, used_domain)] = used
        assert rebuilt == cfg
        assert ((domain.kind, domain.diameter)
                == (used_domain.kind, used_domain.diameter))
        assert main(["verify", "--out", str(out)]) == 0

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
