"""Exit codes, file contract, and verify round-trips of the CLI."""

import configparser
import dataclasses
import shutil
import typing

import numpy as np
import pytest

from ompd import SolverRunError, cli, experiments, losses
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


@pytest.fixture(scope="module")
def ex1_exact_run(tmp_path_factory):
    """One example1 run (T=40, exact) that tests copy before doctoring."""
    out = tmp_path_factory.mktemp("ex1") / "results"
    assert main(["run", "--experiment", "example1", "--seed", "7",
                 "--horizon", "40", "--variant", "exact",
                 "--out", str(out)]) == 0
    return out


def _with_cell(lines, row, column, text):
    parts = lines[row].split(",")
    parts[lines[0].split(",").index(column)] = text
    return lines[:row] + [",".join(parts)] + lines[row + 1:]


def _set_cell(path, row, column, text):
    lines = _with_cell(path.read_text().splitlines(), row, column, text)
    path.write_text("\n".join(lines) + "\n")


#: ways to spoil a CSV so that verify cannot read the whole run from it,
#: each applied to the list of the file's lines
UNREADABLE = {
    "non_numeric": lambda lines: lines[:3] + ["abc" + lines[3]] + lines[4:],
    "ragged_row": lambda lines: (lines[:3] + [lines[3].rsplit(",", 1)[0]]
                                 + lines[4:]),
    "header_only": lambda lines: lines[:1],
    "extra_column": lambda lines: lines[:1] + [ln + ",0" for ln in lines[1:]],
    "missing_rows": lambda lines: lines[:-10],
    "renamed_column": lambda lines: ([lines[0].replace(",f_x,", ",fx,")]
                                     + lines[1:]),
    "missing_column": lambda lines: [ln.rsplit(",", 1)[0] for ln in lines],
}

#: edits of trace.csv that verify used to reject; it no longer reads the file
TRACE_EDITS = {
    **UNREADABLE,
    "nan_f_x": lambda lines: _with_cell(lines, 5, "f_x", "nan"),
    "f_x_below_f_star": lambda lines: _with_cell(
        lines, 5, "f_x", repr(float(lines[5].split(",")[2]) - 1.0)),
}


def _cell(path, row, column):
    lines = path.read_text().splitlines()
    return float(lines[row].split(",")[lines[0].split(",").index(column)])


def _raised_played_losses(tmp_path, run):
    """A copy of the exact variant of ``run`` (T=40) whose f_x are raised
    by 1000 at every step, which breaks the bound; (out, state path)."""
    out = shutil.copytree(run, tmp_path / "res")
    path = out / "exact" / "bound_state.csv"
    for row in range(2, 42):
        _set_cell(path, row, "f_x", repr(_cell(path, row, "f_x") + 1000))
    return out, path


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
            assert keys == ["variant", "R_T", "R_T_over_T", "worst_margin"]

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

    @pytest.mark.parametrize("shared, first, second, stale, kept", [
        # a dropped variant
        (["--experiment", "example1", "--horizon", "20"],
         ["--variant", "both"], ["--variant", "exact"], ["inexact"],
         ["exact/trace.csv"]),
        # a snapshot past the shorter horizon
        (["--config", "ex2.cfg"], ["--horizon", "100"], ["--horizon", "60"],
         ["exact/snapshots/L_0100.csv", "exact/snapshots/S_0100.csv"],
         ["exact/snapshots/L_0050.csv", "exact/snapshots/S_0050.csv"]),
    ], ids=["example1-both-then-exact", "example2-T100-then-T60"])
    def test_overwrite_leaves_no_file_of_the_earlier_run(
            self, tmp_path, capsys, shared, first, second, stale, kept):
        """A rerun with --overwrite left the earlier run's files beside its
        own; it removes them, and nothing else in --out."""
        (tmp_path / "ex2.cfg").write_text(
            "[run]\nexperiment = example2\nvariant = exact\n"
            "[example2]\nframe_dim = 8\nwindow = 4\n")
        shared = [str(tmp_path / a) if a.endswith(".cfg") else a
                  for a in shared]
        out = tmp_path / "res"
        assert main(["run", *shared, *first, "--out", str(out)]) == 0
        for path in stale:
            assert (out / path).exists()
        (out / "partial_trace.csv").write_text("k,f_x\n1,0\n")
        (out / "notes.txt").write_text("mine\n")
        assert main(["run", *shared, *second, "--out", str(out),
                     "--overwrite"]) == 0
        for path in stale + ["partial_trace.csv"]:
            assert not (out / path).exists()
        for path in kept + ["notes.txt", "run_config.cfg"]:
            assert (out / path).exists()
        capsys.readouterr()
        assert main(["verify", "--out", str(out)]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1

    @pytest.mark.parametrize("under_file", [False, True])
    def test_out_that_cannot_be_a_directory_refused(self, tmp_path, capsys,
                                                    under_file):
        """--out at an existing file, or below one, exits 3 naming it."""
        (tmp_path / "results").write_text("not a directory\n")
        out = tmp_path / "results"
        if under_file:
            out = out / "run"
        code = main(["run", "--experiment", "example1", "--seed", "7",
                     "--horizon", "40", "--out", str(out), "--overwrite"])
        assert code == 3
        assert str(out) in capsys.readouterr().err
        assert (tmp_path / "results").read_text() == "not a directory\n"

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
        real = experiments.play

        def spy(row, cfg, domain, out_dir, variants, optimum_tol, **kw):
            seen.append(optimum_tol)
            return real(row, cfg, domain, out_dir, variants, optimum_tol,
                        **kw)

        monkeypatch.setattr(experiments, "play", spy)
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
    @pytest.mark.parametrize("key", ["mu_L", "mu_S", "lambda_L", "lambda_S"])
    def test_negative_separation_weight_exits_2(self, tmp_path, capsys,
                                                command, key):
        """mu_S = -1 used to run until the optimum search gave up."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(EX2_SMALL.replace("window = 8",
                                         f"window = 8\n{key} = -1"))
        code = main([command, "--config", str(cfg),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"{key} must be nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "verify"])
    @pytest.mark.parametrize("value", ["0", "-0.01", "nan", "inf"])
    @pytest.mark.parametrize("experiment, keys", [
        ("example1", ("step_size",)), ("example2", ("alpha_L", "alpha_S"))])
    def test_bad_step_size_names_key(self, tmp_path, capsys, command, value,
                                     experiment, keys):
        """A zero or negative step size ended in a traceback, and NaN ran
        to a NaN bound (example1) or named alpha_L == alpha_S (example2)."""
        lines = "".join(f"{key} = {value}\n" for key in keys)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(EX1_SMALL + "[example1]\n" + lines
                       if experiment == "example1"
                       else EX2_SMALL.replace("window = 8\n",
                                              "window = 8\n" + lines))
        code = main([command, "--config", str(cfg),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert (f"{keys[0]} must be positive and finite"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["run", "verify"])
    @pytest.mark.parametrize("experiment, key, value, message", [
        ("example1", "error_std", "nan", "must be nonnegative and finite"),
        ("example1", "error_std", "inf", "must be nonnegative and finite"),
        ("example1", "error_std", "-0.1", "must be nonnegative and finite"),
        ("example1", "obs_noise_std", "-1", "must be nonnegative and finite"),
        ("example1", "eta", "-0.05", "must be nonnegative and finite"),
        ("example1", "eta", "nan", "must be nonnegative and finite"),
        ("example1", "input_dim", "0", "must be at least 1"),
        ("example1", "active_set", "1, 1", "indices must be distinct"),
        ("example2", "error_std", "-0.1", "must be nonnegative and finite"),
        ("example2", "error_std", "nan", "must be nonnegative and finite"),
        ("example2", "noise_std", "-1", "must be nonnegative and finite"),
        ("example2", "mu_L", "inf", "must be nonnegative and finite"),
        ("example2", "mu_S", "inf", "must be nonnegative and finite"),
        ("example2", "lambda_L", "inf", "must be nonnegative and finite"),
        ("example2", "lambda_S", "nan", "must be nonnegative and finite"),
        ("example2", "background_scale", "-1",
         "must be nonnegative and finite"),
        ("example2", "foreground_scale", "nan",
         "must be nonnegative and finite"),
        ("example2", "rotation", "inf", "must be finite"),
        ("example2", "rotation", "nan", "must be finite"),
        ("example2", "synth_rank", "-1", "must be at least 0"),
        ("example2", "window", "1\nsynth_rank = 0", "must be at least 2"),
        ("example2", "frame_dim", "1\nsynth_rank = 0", "must be at least 2"),
    ])
    def test_bad_noise_weight_or_size_names_key(self, tmp_path, capsys,
                                                command, experiment, key,
                                                value, message):
        """NaN or inf error_std ran to a NaN regret; a negative std, eta or
        input_dim ended in a traceback, or ran the oracle to its budget. An
        infinite mu_L or rotation stopped the oracle at a NaN residual, a NaN
        foreground_scale overflowed, and a negative background_scale ran.
        A repeated active_set index was collapsed; a negative synth_rank, or
        one window row or frame coordinate at synth_rank 0, ended in a
        traceback. A value may carry a second key's line."""
        cfg = tmp_path / "run.cfg"
        text = (EX1_SMALL + "[example1]\n" if experiment == "example1"
                else EX2_SMALL)
        text = "".join(line for line in text.splitlines(True)
                       if not line.startswith(f"{key} = "))
        cfg.write_text(text.replace(f"[{experiment}]\n",
                                    f"[{experiment}]\n{key} = {value}\n"))
        code = main([command, "--config", str(cfg),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"{key} {message}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("experiment", ["example1", "example2"])
    def test_every_numeric_key_exits_without_a_traceback(self, tmp_path,
                                                         experiment):
        """Each numeric field alone at -1, 0, 1, nan and inf (an int field
        at -1, 0 and 1) runs, fails or is refused: exit 0, 1 or 2."""
        small = {"horizon": "3"}
        cases = []
        if experiment == "example2":
            small.update(frame_dim="8", window="4")
            cases.append({"synth_rank": "0", "window": "1"})
        fields = typing.get_type_hints(experiments.EXPERIMENTS[experiment]
                                       .config)
        for key, hint in fields.items():
            values = {int: ("-1", "0", "1"),
                      float: ("-1", "0", "1", "nan", "inf")}.get(hint, ())
            cases += [{key: value} for value in values]
        for i, case in enumerate(cases):
            lines = "".join(f"{key} = {value}\n"
                            for key, value in {**small, **case}.items())
            cfg = tmp_path / f"{i}.cfg"
            cfg.write_text(f"[run]\nexperiment = {experiment}\n"
                           f"variant = both\n[{experiment}]\n{lines}")
            code = main(["run", "--config", str(cfg),
                         "--out", str(tmp_path / f"o{i}")])
            assert code in (0, 1, 2), case

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", ["run", "verify"])
    @pytest.mark.parametrize("text, named", [
        (EX1_SMALL + "[example1]\nobs_noise_std = 1e308\n", "need finite ("),
        ("[run]\nexperiment = example1\nhorizon = 3\n"
         "[example1]\nobs_noise_std = 1e308\n", "need finite ||y_k||^2"),
        ("[run]\nexperiment = example2\nhorizon = 3\n[example2]\n"
         "frame_dim = 8\nwindow = 4\nbackground_scale = 1e300\n",
         "need finite ||M_k||^2"),
        (EX1_SMALL.replace("horizon = 30", "horizon = 5")
         + "[domain]\nkind = box\ndiameter = 1e308\n",
         "box diameter must be finite, got inf"),
        (EX1_SMALL + "[example1]\neta = 1e308\n",
         "need finite L_k and B_k >= 0; step 1 declares"),
        ("[run]\nexperiment = example2\nhorizon = 3\n[example2]\n"
         "frame_dim = 8\nwindow = 4\nmu_L = 1e308\n",
         "need finite L_k and B_k >= 0; step 1 declares L_k = inf"),
    ], ids=["infinite-draws", "huge-noise", "huge-background",
            "huge-diameter", "huge-eta", "huge-mu_L"])
    def test_data_a_stream_refuses_is_a_config_error(self, tmp_path, capsys,
                                                     command, text, named):
        """obs_noise_std = 1e308 draws infinite observations at T = 30, which
        lasso_stream refuses before the oracle meets them; at T = 3 the
        draws are finite but ||y_k||^2 overflows, a background of scale
        1e300 overflows ||M_k||^2, a box of diameter 1e308 has corners
        whose distance overflows, and eta = 1e308 (B_k) and mu_L = 1e308
        (L_k) overflow a declared constant. No overflow warning is
        printed."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        code = main([command, "--config", str(cfg),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"config error: {named}")

    @pytest.mark.parametrize("command", ["run", "verify"])
    @pytest.mark.parametrize("text, named", [
        (None, "config file not found"),
        (EX1_SMALL + "[example3]\nhorizon = 3\n", "section [example3]"),
        (EX2_SMALL + "[domain]\nkind = box\ndiameter = 1\n",
         "example2 runs on the whole space"),
        (EX1_SMALL + "[domain]\nkind = box\n", "key 'diameter'"),
        (EX1_SMALL + "[domain]\nkind = ball\ndiameter = 1\n", "key 'kind'"),
        ("[run]\nexperiment = example9\n", "key 'experiment'"),
        (EX1_SMALL + "variant = all\n", "key 'variant'"),
        # [custom] eta = 0.5 used to beat [example1] eta = 0.05, silently
        (EX1_SMALL + "[example1]\neta = 0.05\n\n[custom]\neta = 0.5\n",
         "sections [example1] and [custom]"),
    ], ids=["missing-file", "unknown-section", "example2-box",
            "box-without-diameter", "ball", "unknown-experiment",
            "variant-all", "example1-and-custom"])
    def test_config_error_names_key_or_section(self, tmp_path, capsys,
                                               command, text, named):
        """An explicit ``--config`` that does not exist is a config error
        for both commands; only a missing default OUT/run_config.cfg is
        ``verify``'s exit 4 (``test_missing_config_exit_4``)."""
        cfg = tmp_path / "run.cfg"
        if text is not None:
            cfg.write_text(text)
        code = main([command, "--config", str(cfg),
                     "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error:") and named in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["run", "verify"])
    @pytest.mark.parametrize("unreadable", ["directory", "permission"])
    def test_unreadable_config_is_a_config_error(self, tmp_path, capsys,
                                                 monkeypatch, command,
                                                 unreadable):
        """A ``--config`` path that cannot be read, a directory or a file
        without read permission, is exit 2 naming the path; it is not
        skipped for the defaults. Root reads any file, so the permission
        error is raised by a stand-in ``open``."""
        cfg = tmp_path / "run.cfg"
        if unreadable == "directory":
            cfg.mkdir()
        else:
            cfg.write_text(EX1_SMALL)

            def denied(path, *args, **kwargs):
                raise PermissionError(13, "Permission denied", str(path))

            monkeypatch.setattr(cli, "open", denied, raising=False)
        extra = (["--experiment", "example1", "--horizon", "5"]
                 if command == "run" else [])
        code = main([command, "--config", str(cfg), *extra,
                     "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"config error: config file {cfg} cannot be "
                              f"read: ")
        assert not (tmp_path / "o").exists()

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

    @pytest.mark.parametrize("command", ["run", "verify"])
    @pytest.mark.parametrize("value", ["-1", "0", "nan"])
    def test_bad_optimum_tol_names_key(self, tmp_path, capsys, command,
                                       value):
        """-1 or nan ran the oracle to its budget, then exited 1."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(EX1_SMALL + f"optimum_tol = {value}\n")
        code = main([command, "--config", str(cfg),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "'optimum_tol'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text", ROUND_TRIPS.values(),
                             ids=ROUND_TRIPS.keys())
    def test_run_config_rebuilds_the_run(self, tmp_path, monkeypatch, text):
        used = []

        def spy(row, cfg, domain, *args, _real=experiments.play, **kwargs):
            used.append((cfg, domain))
            return _real(row, cfg, domain, *args, **kwargs)
        monkeypatch.setattr(experiments, "play", spy)
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(text)
        out = tmp_path / "res"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        [(cfg, used_domain)] = used
        # the user's file and the recorded file both resolve to the run
        for path in (cfg_path, out / "run_config.cfg"):
            _, rebuilt, domain, _, _ = cli._resolve(path)
            assert rebuilt == cfg
            assert ((domain.kind, domain.diameter)
                    == (used_domain.kind, used_domain.diameter))
        assert main(["verify", "--out", str(out)]) == 0
        assert main(["verify", "--out", str(out),
                     "--config", str(cfg_path)]) == 0

    def test_verify_config_regenerates_the_played_stream(self, tmp_path,
                                                         monkeypatch):
        streams = []

        def spy(cfg, *args, _real=experiments.generate_gauss_markov, **kw):
            streams.append((cfg.seed, cfg.horizon))
            return _real(cfg, *args, **kw)

        monkeypatch.setattr(experiments, "generate_gauss_markov", spy)
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("[run]\nexperiment = example1\nseed = 5\n"
                            "[example1]\nhorizon = 30\n")
        out = tmp_path / "res"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert streams == [(5 ^ cli.STREAM_SEED_XOR, 30)]
        assert main(["verify", "--out", str(out),
                     "--config", str(cfg_path)]) == 0
        assert streams == [(5 ^ cli.STREAM_SEED_XOR, 30)] * 2

    @pytest.mark.parametrize("done", [3, 0])
    def test_failed_run_writes_partial_trace(self, tmp_path, monkeypatch,
                                             done):
        """The steps done before the failure, or only the header if the
        first step failed."""
        trace = experiments.run_example1(
            experiments.GaussMarkovConfig(horizon=6, seed=1),
            variants=("exact",))["exact"].trace

        def spy(*args, **kwargs):
            raise SolverRunError(f"subproblem failed at step {done + 1}",
                                 trace.truncated(done))

        monkeypatch.setattr(experiments, "run", spy)
        out = tmp_path / "res"
        assert main(["run", "--experiment", "example1",
                     "--out", str(out)]) == 1
        expected = "k,f_x\n" + "".join(
            f"{k},{f:.17g}\n"
            for k, f in enumerate(trace.f_played[:done], 1))
        assert (out / "partial_trace.csv").read_bytes() == expected.encode()

    @pytest.mark.parametrize("margin", [-1.0, np.nan], ids=["negative", "nan"])
    def test_violated_bound_exits_1_after_writing_the_run(
            self, tmp_path, monkeypatch, capsys, margin):
        """``run`` judges its margins as ``verify`` judges the directory:
        once every file and run_config.cfg are written, a negative or
        nonfinite one is ``error=bound_violated``, exit 1, for both."""
        monkeypatch.setattr(experiments, "certified_margin",
                            lambda regret, rhs: margin)
        cfg, out = tmp_path / "run.cfg", tmp_path / "res"
        cfg.write_text(EX1_SMALL)
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        tail = f" worst_margin={margin:.6g} error=bound_violated"
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == [
            "variant=exact", "variant=inexact"]
        assert all(line.endswith(tail) for line in lines)
        assert (out / "run_config.cfg").exists()
        for variant in ("exact", "inexact"):
            for name in ("trace.csv", "bound.csv", "bound_state.csv",
                         "coefficients.csv"):
                assert (out / variant / name).exists()
        assert main(["verify", "--out", str(out)]) == 1
        assert capsys.readouterr().out.splitlines() == [
            line.split()[0] + tail for line in lines]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("variant, code, tail", [
        ("exact", 0, " worst_margin=0"),
        ("inexact", 1, " worst_margin=inf error=bound_violated")])
    def test_overflowing_d_gives_no_nan_bound(self, tmp_path, capsys,
                                              variant, code, tail):
        """eta = 1e308 on one coefficient declares B_k = 1e308, so D =
        2 max_k B_k overflows to inf. The exact variant has P = 0 at every
        prefix, where D P and the recursion's D term are 0, not inf * 0 =
        NaN: run and verify certify it with margin 0. The inexact variant's
        D P is inf, so its margin is inf, which is not certified."""
        cfg, out = tmp_path / "run.cfg", tmp_path / "res"
        cfg.write_text("[run]\nexperiment = example1\nhorizon = 3\n"
                       "[example1]\nn_coeffs = 1\nactive_set = 1\n"
                       "eta = 1e308\n")
        assert main(["run", "--config", str(cfg), "--variant", variant,
                     "--out", str(out)]) == code
        assert capsys.readouterr().out.rstrip("\n").endswith(tail)
        assert main(["verify", "--out", str(out)]) == code
        assert capsys.readouterr().out == f"variant={variant}{tail}\n"

    @pytest.mark.parametrize("failure", ["optimum", "solver"])
    def test_failed_overwrite_leaves_nothing_to_verify(self, tmp_path,
                                                      monkeypatch, capsys,
                                                      failure):
        """A run that failed in the directory of an earlier run left that
        run's run_config.cfg, and verify certified the earlier run."""
        first, second = tmp_path / "first.cfg", tmp_path / "second.cfg"
        first.write_text(EX1_SMALL)
        # an oracle tolerance out of reach ends in OptimumError
        second.write_text("[run]\nexperiment = example2\nhorizon = 3\n"
                          "optimum_tol = 1e-14\n"
                          "[example2]\nframe_dim = 8\nwindow = 4\n")
        out = tmp_path / "res"
        assert main(["run", "--config", str(first), "--out", str(out)]) == 0
        if failure == "solver":
            trace = experiments.run_example1(
                experiments.GaussMarkovConfig(horizon=6, seed=1),
                variants=("exact",))["exact"].trace

            def spy(*args, **kwargs):
                raise SolverRunError("subproblem failed at step 4",
                                     trace.truncated(3))

            monkeypatch.setattr(experiments, "run", spy)
            second = first
        capsys.readouterr()
        assert main(["run", "--config", str(second), "--out", str(out),
                     "--overwrite"]) == 1
        assert "run failed" in capsys.readouterr().err
        assert not (out / "run_config.cfg").exists()
        assert main(["verify", "--out", str(out)]) == 4

    def test_library_run_over_a_cli_run_leaves_nothing_to_verify(
            self, tmp_path, capsys):
        """``play`` owns the whole run directory: a library run into the
        directory of an ``ompd run`` removes its run_config.cfg, which
        ``verify`` read against the library run's files (error=f_star
        step=1, exit 5)."""
        cfg, out = tmp_path / "run.cfg", tmp_path / "res"
        cfg.write_text(EX1_SMALL)
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        experiments.run_example1(
            experiments.GaussMarkovConfig(horizon=30, seed=99), str(out))
        assert not (out / "run_config.cfg").exists()
        capsys.readouterr()
        assert main(["verify", "--out", str(out)]) == 4
        assert capsys.readouterr().out == ""

    def test_run_and_verify_share_the_rows_generator(self, tmp_path,
                                                     monkeypatch, capsys):
        """The row builds the distance generator; replacing its
        construction once changes what run reports and verify certifies."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(EX1_SMALL)
        plain, out = tmp_path / "plain", tmp_path / "res"
        assert main(["run", "--config", str(cfg), "--out", str(plain)]) == 0
        plain_run = capsys.readouterr().out
        assert main(["verify", "--out", str(plain)]) == 0
        plain_verify = capsys.readouterr().out

        built = []

        def generator(_real=experiments.euclidean_generator):
            # a declared G_omega of 4 raises the bound's curvature terms
            built.append(dataclasses.replace(_real(), g_omega=4.0))
            return built[-1]

        monkeypatch.setattr(experiments, "euclidean_generator", generator)
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(built) == 1
        assert capsys.readouterr().out != plain_run
        assert main(["verify", "--out", str(out)]) == 0
        assert len(built) == 2
        assert capsys.readouterr().out != plain_verify
        # the generator does not move the iterates: with the plain one,
        # verify certifies these files as it certified the plain run's
        monkeypatch.undo()
        assert main(["verify", "--out", str(out)]) == 0
        assert capsys.readouterr().out == plain_verify

    def test_run_config_omits_the_stream_seed(self, tmp_path, capsys,
                                              ex1_exact_run):
        """[run] seed alone sets the stream; a recorded one is still read."""
        out = shutil.copytree(ex1_exact_run, tmp_path / "res")
        path = out / "run_config.cfg"
        parser = configparser.ConfigParser()
        parser.optionxform = str
        parser.read(path)
        assert parser["run"]["seed"] == "7"
        assert "seed" not in parser["example1"]
        assert main(["verify", "--out", str(out)]) == 0
        expected = capsys.readouterr().out
        parser["example1"]["seed"] = "12345"  # as earlier versions wrote it
        with open(path, "w", encoding="utf-8") as fh:
            parser.write(fh)
        assert main(["verify", "--out", str(out)]) == 0
        assert capsys.readouterr().out == expected

    def test_example2_records_its_default_optimum_tol(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(EX2_SMALL)
        out = tmp_path / "res"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert _recorded_optimum_tol(out) == 1e-6

    @pytest.mark.parametrize("command", ["run", "verify"])
    @pytest.mark.parametrize("text", [EX1_SMALL, EX2_SMALL],
                             ids=["example1", "example2"])
    @pytest.mark.parametrize("domain", ["", "kind = whole_space\n"],
                             ids=["no_kind", "whole_space"])
    def test_diameter_without_a_box_names_key(self, tmp_path, capsys,
                                              command, text, domain):
        """Such a run was played on the whole space, and its
        run_config.cfg kept the diameter, which reads as a bounded run."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text + f"[domain]\n{domain}diameter = 3.0\n")
        code = main([command, "--config", str(cfg),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "'diameter'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("error_std, runs", [(0.0, 1), (0.5, 2)])
    def test_equal_error_models_are_played_once(self, tmp_path, monkeypatch,
                                                error_std, runs):
        """At error_std 0 both variants have one error model: one run, two
        directories with the same bytes, and both verify."""
        models = []

        def spy(stream, config, model, *args, _real=experiments.run, **kw):
            models.append(model)
            return _real(stream, config, model, *args, **kw)

        monkeypatch.setattr(experiments, "run", spy)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[run]\nexperiment = example2\nseed = 2\n"
                       "variant = both\nhorizon = 20\n[example2]\n"
                       f"frame_dim = 8\nwindow = 4\nerror_std = {error_std}\n")
        out = tmp_path / "res"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(models) == len(set(models)) == runs
        exact, inexact = (sorted((p.relative_to(out / v), p.read_bytes())
                                 for p in (out / v).rglob("*.csv"))
                          for v in ("exact", "inexact"))
        assert (exact == inexact) == (runs == 1)
        assert main(["verify", "--out", str(out)]) == 0

    @pytest.mark.parametrize("name", ["example1", "example1_box",
                                      "example2"])
    def test_library_run_writes_the_cli_files(self, tmp_path, name):
        """The library seeds the error draws by the CLI's rule, so a
        resolved config played by the library writes ``ompd run``'s
        files, byte for byte, noisy variant included."""
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(ROUND_TRIPS[name])
        cli_out, lib_out = tmp_path / "cli", tmp_path / "lib"
        assert main(["run", "--config", str(cfg_path),
                     "--out", str(cli_out)]) == 0
        _, cfg, domain, variants, _ = cli._resolve(cfg_path)
        assert variants == ("exact", "inexact") and cfg.error_std > 0.0
        if name == "example2":
            experiments.run_example2(cfg, str(lib_out), variants=variants)
        else:
            experiments.run_example1(cfg, str(lib_out), domain=domain)
        for variant in variants:
            written = sorted(p.relative_to(cli_out / variant)
                             for p in (cli_out / variant).rglob("*.csv"))
            assert written == sorted(p.relative_to(lib_out / variant) for p
                                     in (lib_out / variant).rglob("*.csv"))
            for rel in written:
                assert ((lib_out / variant / rel).read_bytes()
                        == (cli_out / variant / rel).read_bytes()), rel


class TestVerify:
    def test_library_verify_prints_what_verify_prints(self, tmp_path,
                                                      capsys):
        """``experiments.verify`` certifies an untouched run directory,
        written by ``ompd run`` or by the library, with no error and the
        lines ``ompd verify`` prints."""
        code, out = _run_example1(tmp_path)
        assert code == 0
        capsys.readouterr()
        assert main(["verify", "--out", str(out)]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert len(printed) == 2
        exp, cfg, domain, variants, manifest = cli._resolve(
            out / "run_config.cfg")
        tol = manifest["optimum_tol"]
        lib = tmp_path / "lib"
        experiments.play(exp, cfg, domain, str(lib), variants, tol)
        for run_dir in (out, lib):
            assert (experiments.verify(exp, cfg, domain, str(run_dir),
                                       variants, tol)
                    == [(None, line) for line in printed])

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
        (out / "exact" / "bound_state.csv").unlink()
        assert main(["verify", "--out", str(out)]) == 4

    def test_missing_config_exit_4(self, tmp_path):
        assert main(["verify", "--out", str(tmp_path)]) == 4

    def test_doctored_state_exit_5(self, tmp_path, ex1_exact_run):
        """The bound reads f_x from bound_state.csv, so the gate does too."""
        out = shutil.copytree(ex1_exact_run, tmp_path / "res")
        path = out / "exact" / "bound_state.csv"
        header, *rows = path.read_text().splitlines()
        f_star = float(rows[4].split(",")[header.split(",").index("f_star")])
        _set_cell(path, 5, "f_x", repr(f_star - 1.0))
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

    def test_exact_constants_computed_once_and_never_sampled(self, tmp_path,
                                                             monkeypatch):
        """Both example1 variants are checked against the L_k of one
        rebuilt stream, computed once, and no sampled validation runs."""
        code, out = _run_example1(tmp_path)
        assert code == 0
        exact, sampled = [], []

        def spy(X, _real=experiments._lasso_smoothness):
            exact.append(len(X))
            return _real(X)

        monkeypatch.setattr(experiments, "_lasso_smoothness", spy)
        for module in (losses, cli):
            monkeypatch.setattr(module, "validate_constants",
                                lambda *args, **kw: sampled.append(args),
                                raising=False)
        assert main(["verify", "--out", str(out)]) == 0
        assert exact == [40]
        assert sampled == []

    @pytest.mark.parametrize("step, edits", [
        (2, {"L_k": lambda v: repr(0.01 * float(v)),
             "B_k": lambda v: repr(0.01 * float(v))}),
        (7, {"B_k": lambda v: "nan"}),
        (7, {"L_k": lambda v: "inf"}),
    ], ids=["step2_scaled", "nan_B_k", "inf_L_k"])
    def test_understated_constant_at_any_step_exit_6(self, tmp_path, capsys,
                                                    ex1_exact_run, step,
                                                    edits):
        """Every step is checked: steps 2 and 7 lie between the steps 1,
        10, 20, 30 and 40 that a five-step sample of this run would see."""
        out = shutil.copytree(ex1_exact_run, tmp_path / "res")
        path = out / "exact" / "bound_state.csv"
        header, *rows = path.read_text().splitlines()
        for column, edit in edits.items():
            cell = rows[step].split(",")[header.split(",").index(column)]
            _set_cell(path, step + 1, column, edit(cell))
        capsys.readouterr()
        assert main(["verify", "--out", str(out)]) == 6
        assert capsys.readouterr().out == (f"variant=exact error=constants "
                                           f"step={step}\n")

    def test_example2_understated_smoothness_exit_6(self, tmp_path, capsys):
        """1 % below example2's exact L_k: random point pairs cannot see
        it, as half of their curvature lies below the top eigenvalue."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(EX2_SMALL)
        out = tmp_path / "res"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        path = out / "exact" / "bound_state.csv"
        header, *rows = path.read_text().splitlines()
        L = float(rows[3].split(",")[header.split(",").index("L_k")])
        _set_cell(path, 4, "L_k", repr(0.99 * L))
        capsys.readouterr()
        assert main(["verify", "--out", str(out)]) == 6
        assert (capsys.readouterr().out
                == "variant=exact error=constants step=3\n")

    @pytest.mark.parametrize("variant", ["exact", "inexact"])
    def test_stale_smoothness_fails_only_its_variant(self, tmp_path, capsys,
                                                      variant):
        code, out = _run_example1(tmp_path)
        assert code == 0
        path = out / variant / "bound_state.csv"
        header, *rows = path.read_text().splitlines()
        L = float(rows[-1].split(",")[header.split(",").index("L_k")])
        _set_cell(path, len(rows), "L_k", repr(0.01 * L))
        capsys.readouterr()
        assert main(["verify", "--out", str(out)]) == 6
        for line in capsys.readouterr().out.splitlines():
            doctored = line.startswith(f"variant={variant} ")
            assert ("error=constants step=40" in line) == doctored
            assert ("worst_margin=" in line) != doctored

    def test_raised_constants_still_verify(self, tmp_path, capsys):
        """A recorded constant above the declared one is still an upper
        bound, so it verifies. Step k's L_k raised by 10 %, still below
        max_k L_k, leaves every margin as it was. One B_k raised by 10 %
        raises D = 2 max_k B_k, so no margin falls, and the inexact one,
        whose P is positive, grows."""
        code, out = _run_example1(tmp_path)
        assert code == 0
        capsys.readouterr()

        def margins():
            assert main(["verify", "--out", str(out)]) == 0
            return {line.split()[0]: line.split("worst_margin=")[1]
                    for line in capsys.readouterr().out.splitlines()}

        before = margins()
        for variant in ("exact", "inexact"):
            path = out / variant / "bound_state.csv"
            header, *rows = path.read_text().splitlines()
            j = header.split(",").index("L_k")
            L = [float(row.split(",")[j]) for row in rows[1:]]
            k = int(np.argmin(L)) + 1
            assert 1.1 * L[k - 1] < max(L)
            _set_cell(path, k + 1, "L_k", repr(1.1 * L[k - 1]))
        assert margins() == before
        for variant in ("exact", "inexact"):
            path = out / variant / "bound_state.csv"
            header, *rows = path.read_text().splitlines()
            B = float(rows[5].split(",")[header.split(",").index("B_k")])
            _set_cell(path, 6, "B_k", repr(1.1 * B))
        after = margins()
        assert float(after["variant=exact"]) >= float(before["variant=exact"])
        assert (float(after["variant=inexact"])
                > float(before["variant=inexact"]))

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
        capsys.readouterr()  # run prints worst_margin too
        main(["verify", "--out", str(out)])
        report = capsys.readouterr().out
        margins = [float(tok.split("=")[1]) for line in report.splitlines()
                   for tok in line.split() if tok.startswith("worst_margin=")]
        assert len(margins) == 2
        assert all(m >= 0.0 for m in margins)

    @pytest.mark.parametrize("text", [
        "[run]\nexperiment = example1\nseed = 3\nhorizon = 40\n",
        "[run]\nexperiment = example2\nhorizon = 10\n"
        "[example2]\nframe_dim = 8\nwindow = 4\n"],
        ids=["example1", "example2"])
    def test_run_and_verify_print_the_same_margin(self, tmp_path, capsys,
                                                  text):
        """Both commands print ``regret.certified_margin`` of the same
        prefix curves; ``run`` used to print the final-T RHS_T - R_T and
        ``verify`` the prefix minimum plus 1e-6 T'."""
        cfg, out = tmp_path / "run.cfg", tmp_path / "res"
        cfg.write_text(text)

        def margins(argv):
            assert main(argv) == 0
            return [" ".join(tok for tok in line.split()
                             if tok.startswith(("variant=", "worst_margin=")))
                    for line in capsys.readouterr().out.splitlines()]

        played = margins(["run", "--config", str(cfg), "--variant", "both",
                          "--out", str(out)])
        assert len(played) == 2
        assert margins(["verify", "--out", str(out)]) == played

    def test_nan_played_loss_is_not_certified(self, tmp_path, capsys,
                                              ex1_exact_run):
        out = shutil.copytree(ex1_exact_run, tmp_path / "res")
        _set_cell(out / "exact" / "bound_state.csv", 5, "f_x", "nan")
        assert main(["verify", "--out", str(out)]) == 5
        assert "error=sanity worst=nan" in capsys.readouterr().out

    def test_nan_start_point_is_not_certified(self, tmp_path, capsys,
                                              ex1_exact_run):
        """A NaN x0 (row k = 0) would leave the start cost, and the bound,
        NaN; it is not the start point the run played from."""
        out = shutil.copytree(ex1_exact_run, tmp_path / "res")
        _set_cell(out / "exact" / "bound_state.csv", 1, "xstar_0", "nan")
        assert main(["verify", "--out", str(out)]) == 5
        assert capsys.readouterr().out == "variant=exact error=x0\n"

    @pytest.mark.parametrize("column, step, text", [
        ("e_norm", 1, "-1000000.0"),
        ("eps", 40, "-1e-300"),
        ("eps", 7, "nan"),
        ("q_norm", 12, "-1.0"),
        ("q_norm", 3, "inf"),
        ("e_norm", 25, "-inf"),
    ], ids=["negative_e_norm", "negative_eps", "nan_eps", "negative_q_norm",
            "inf_q_norm", "minus_inf_e_norm"])
    def test_negative_or_nonfinite_norm_exit_5(self, tmp_path, capsys,
                                               ex1_exact_run, column, step,
                                               text):
        """Played losses raised by 1000 break the bound; a negative e_norm
        at step 1 used to mend it (the whole-space error term grows like
        C^2), and a NaN eps was reported as bound_violated."""
        out, path = _raised_played_losses(tmp_path, ex1_exact_run)
        capsys.readouterr()
        assert main(["verify", "--out", str(out)]) == 1
        assert "error=bound_violated" in capsys.readouterr().out
        _set_cell(path, step + 1, column, text)
        assert main(["verify", "--out", str(out)]) == 5
        assert (capsys.readouterr().out
                == f"variant=exact error=norms step={step}\n")

    @pytest.mark.parametrize("text", ["10000", "1e-300"])
    def test_start_point_must_be_the_played_one(self, tmp_path, capsys,
                                                ex1_exact_run, text):
        """Row k = 0 sets Z0 = V(x_1*, x0) / lam; an x0 of 1e4 used to
        certify losses raised by 1000 with worst_margin=5e+09."""
        out, path = _raised_played_losses(tmp_path, ex1_exact_run)
        _set_cell(path, 1, "xstar_0", text)
        capsys.readouterr()
        assert main(["verify", "--out", str(out)]) == 5
        assert capsys.readouterr().out == "variant=exact error=x0\n"

    def test_run_and_verify_share_the_initial_point(self, tmp_path,
                                                    monkeypatch, capsys,
                                                    ex1_exact_run):
        """``experiments.initial_point`` is the one definition of x0: a
        run that starts elsewhere verifies only against the same point."""
        out = tmp_path / "res"
        monkeypatch.setattr(experiments, "initial_point",
                            lambda dim: np.full(dim, 0.5))
        assert main(["run", "--experiment", "example1", "--seed", "7",
                     "--horizon", "40", "--variant", "exact",
                     "--out", str(out)]) == 0
        assert _cell(out / "exact" / "bound_state.csv", 1, "xstar_0") == 0.5
        capsys.readouterr()
        assert main(["verify", "--out", str(out)]) == 0
        assert "worst_margin=" in capsys.readouterr().out
        assert main(["verify", "--out", str(ex1_exact_run)]) == 5
        assert capsys.readouterr().out == "variant=exact error=x0\n"
        monkeypatch.undo()
        assert main(["verify", "--out", str(out)]) == 5
        assert capsys.readouterr().out == "variant=exact error=x0\n"

    @pytest.mark.parametrize("doctor", [None, *TRACE_EDITS.values()],
                             ids=["deleted", *TRACE_EDITS])
    def test_trace_csv_is_not_read(self, tmp_path, capsys, ex1_exact_run,
                                   doctor):
        """verify certifies from bound_state.csv alone."""
        assert main(["verify", "--out", str(ex1_exact_run)]) == 0
        expected = capsys.readouterr().out
        out = shutil.copytree(ex1_exact_run, tmp_path / "res")
        path = out / "exact" / "trace.csv"
        if doctor is None:
            path.unlink()
        else:
            path.write_text("\n".join(doctor(path.read_text().splitlines()))
                            + "\n")
        assert main(["verify", "--out", str(out)]) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("raise_f_star, step", [
        (lambda k, f_x, f_star: f_star + 0.9 * (f_x - f_star), 1),
        (lambda k, f_x, f_star: f_star * (1.0 + 1e-9) if k == 17 else f_star,
         17)], ids=["every_gap_by_90_percent", "one_by_1e-9_relative"])
    def test_raised_f_star_exit_5(self, tmp_path, capsys, raise_f_star,
                                  step):
        """verify recomputes f_star from the stored optima. The first case
        verified with worst_margin=5.35 while the file's f_star was
        trusted."""
        out = tmp_path / "res"
        assert main(["run", "--experiment", "example1", "--seed", "3",
                     "--horizon", "40", "--variant", "exact",
                     "--out", str(out)]) == 0
        path = out / "exact" / "bound_state.csv"
        for k in range(1, 41):
            _set_cell(path, k + 1, "f_star", repr(raise_f_star(
                k, _cell(path, k + 1, "f_x"), _cell(path, k + 1, "f_star"))))
        capsys.readouterr()
        assert main(["verify", "--out", str(out)]) == 5
        assert (capsys.readouterr().out
                == f"variant=exact error=f_star step={step}\n")

    @pytest.mark.parametrize("ulps, code", [(1, 0), (5, 5)])
    def test_f_star_may_differ_by_4_ulp(self, tmp_path, ex1_exact_run, ulps,
                                        code):
        """Files written before f_star came from the stream's evaluator
        differ from it by 1 ulp at a few example1 steps."""
        out = shutil.copytree(ex1_exact_run, tmp_path / "res")
        path = out / "exact" / "bound_state.csv"
        for row in (2, 21, 41):
            f_star = _cell(path, row, "f_star")
            for _ in range(ulps):
                f_star = np.nextafter(f_star, np.inf)
            _set_cell(path, row, "f_star", repr(float(f_star)))
        assert main(["verify", "--out", str(out)]) == code

    def test_nonfinite_example2_optimum_exit_5(self, tmp_path, capsys):
        """The SVD of the nuclear term refuses a NaN matrix; a NaN optimum
        is a named error, not a traceback."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(EX2_SMALL)
        out = tmp_path / "res"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        _set_cell(out / "exact" / "bound_state.csv", 3, "xstar_5", "nan")
        capsys.readouterr()
        assert main(["verify", "--out", str(out)]) == 5
        assert capsys.readouterr().out == "variant=exact error=f_star step=2\n"

    def test_step_size_above_the_rule_exit_1(self, tmp_path, capsys,
                                             ex1_exact_run):
        """verify applies run's rule lam <= 2 sigma_omega / max_k L_k to
        the recorded L_k. A run_config.cfg edited past it used to verify,
        while ``run --config`` of the same file exits 1."""
        out = shutil.copytree(ex1_exact_run, tmp_path / "res")
        path = out / "run_config.cfg"
        parser = configparser.ConfigParser()
        parser.optionxform = str
        parser.read(path)
        parser["example1"]["step_size"] = "0.2"
        with open(path, "w", encoding="utf-8") as fh:
            parser.write(fh)
        assert main(["verify", "--out", str(out)]) == 1
        assert capsys.readouterr().out == "variant=exact error=step_size\n"
        assert main(["run", "--config", str(path),
                     "--out", str(tmp_path / "rerun")]) == 1
        assert "exceeds 2*sigma_omega/L" in capsys.readouterr().err

    @pytest.mark.parametrize("doctor", UNREADABLE.values(),
                             ids=UNREADABLE.keys())
    @pytest.mark.parametrize("name", ["bound_state.csv"])
    def test_unreadable_csv_exit_4(self, tmp_path, capsys, ex1_exact_run,
                                   name, doctor):
        out = shutil.copytree(ex1_exact_run, tmp_path / "res")
        path = out / "exact" / name
        path.write_text("\n".join(doctor(path.read_text().splitlines()))
                        + "\n")
        assert main(["verify", "--out", str(out)]) == 4
        assert capsys.readouterr().out == ("variant=exact "
                                           "error=unreadable_trace\n")
