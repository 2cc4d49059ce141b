import os

import numpy as np
import pytest

from thermoelast1d.cli import main
from thermoelast1d.output import read_diagnostics_csv


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_no_subcommand_exits_2(capsys):
    assert main([]) == 2


def test_constants_output(capsys):
    rc = main(["constants", "--eta", "0.5", "--K", "1", "--omega", "0,1",
               "--material", "identity"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "Gamma1" in out and "Gamma2" in out
    assert "c1  = 1.41421356237" in out
    assert "c2  = 2" in out


def test_constants_bad_omega(capsys):
    assert main(["constants", "--omega", "1,0"]) == 2


def test_run_equilibrium_constant_energy(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "[grid]\nn_cells = 32\n"
        "[solver]\nt_end = 0.25\ndt = auto\n"
        "[initial_data]\nkind = equilibrium\ntheta_bar = 0.8\n"
        "[output]\nrecord_every = 8\n"
    )
    outdir = tmp_path / "out"
    rc = main(["run", "--config", str(cfg), "--output-dir", str(outdir)])
    assert rc == 0
    diag = read_diagnostics_csv(outdir / "diagnostics.csv")
    e = diag["E"]
    assert np.max(np.abs(e - e[0])) <= 1e-12 * max(1.0, abs(e[0]))


def test_run_config_error_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[solver]\nepsilon = -3\n")
    rc = main(["run", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "solver.epsilon" in err


def test_run_missing_config_exit_2(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 2


def test_run_with_plots(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "[grid]\nn_cells = 16\n"
        "[solver]\nt_end = 0.125\ndt = auto\n"
        "[initial_data]\nkind = standing_wave\namplitude = 0.1\n"
    )
    out_svg = tmp_path / "svg"
    assert main(["run", "--config", str(cfg), "--output-dir", str(out_svg),
                 "--plot", "svg"]) == 0
    assert (out_svg / "series.svg").exists()
    out_gp = tmp_path / "gp"
    assert main(["run", "--config", str(cfg), "--output-dir", str(out_gp),
                 "--plot", "gnuplot"]) == 0
    assert (out_gp / "plot.gp").exists() and (out_gp / "series.dat").exists()


def test_experiment_subcommand_writes_report(tmp_path, capsys):
    rc = main([
        "eps-cauchy", "--n-cells", "32", "--t-end", "0.125",
        "--output-dir", str(tmp_path / "rep"),
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "experiment eps-cauchy: PASS" in out
    assert (tmp_path / "rep" / "verdict.txt").exists()


def test_experiment_hard_fail_exit_1(tmp_path, capsys):
    # a truncated ladder cannot reach the 4x contraction: hard fail, exit 1
    rc = main([
        "eps-cauchy", "--n-cells", "32", "--t-end", "0.125",
        "--eps-ladder", "0.1,0.03,0.01",
        "--output-dir", str(tmp_path / "rep"),
    ])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL" in out


@pytest.mark.parametrize("argv, flag, item", [
    (["eps-cauchy", "--eps-ladder", "0.1,abc"], "--eps-ladder", "abc"),
    (["time-shift", "--shifts", "0.1,x"], "--shifts", "'x'"),
    (["time-shift", "--shifts", "0.1,,0.2"], "--shifts", "''"),
])
def test_bad_float_list_is_a_config_error(tmp_path, capsys, argv, flag, item):
    outdir = tmp_path / "rep"
    assert main(argv + ["--output-dir", str(outdir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and flag in err and item in err
    assert not outdir.exists()  # refused before the report directory is made


def test_output_root_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("THERMOELAST1D_OUTPUT_ROOT", str(tmp_path))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "[grid]\nn_cells = 16\n"
        "[solver]\nt_end = 0.125\ndt = auto\n"
        "[initial_data]\nkind = equilibrium\n"
        "[output]\ndirectory = subdir\n"
    )
    assert main(["run", "--config", str(cfg)]) == 0
    assert (tmp_path / "subdir" / "diagnostics.csv").exists()


def test_output_dir_that_is_a_file_fails_before_compute(tmp_path, capsys, monkeypatch):
    def no_compute(*args, **kwargs):
        raise AssertionError("computed before the output directory was checked")

    monkeypatch.setattr("thermoelast1d.cli.run_eps", no_compute)
    monkeypatch.setattr("thermoelast1d.cli.run_limit", no_compute)
    monkeypatch.setattr("thermoelast1d.experiments.exp_stability", no_compute)
    afile = tmp_path / "afile"
    afile.write_text("")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[grid]\nn_cells = 16\n[solver]\nt_end = 0.125\n")
    for argv in (["run", "--config", str(cfg)], ["stability"]):
        rc = main(argv + ["--output-dir", str(afile)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and str(afile) in err
        assert "Traceback" not in err
