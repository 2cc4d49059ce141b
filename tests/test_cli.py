import os

import numpy as np
import pytest

from thermoelast1d.cli import main
from thermoelast1d.config import parse_config
from thermoelast1d.materials import tabulated_material
from thermoelast1d.output import read_diagnostics_csv
from thermoelast1d.stepping import run_limit


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


@pytest.mark.parametrize("plot, plot_files", [("svg", {"series.svg"}),
                                              ("gnuplot", {"series.dat", "plot.gp"})])
def test_run_counts_the_plot_files_it_wrote(tmp_path, capsys, plot, plot_files):
    """The summary's file count is the number of files under the output
    directory, the plot files included."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "[grid]\nn_cells = 16\n"
        "[solver]\nt_end = 0.0625\ndt = 0.03125\n"
        "[initial_data]\nkind = standing_wave\namplitude = 0.1\n"
    )
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--output-dir", str(out), "--plot", plot]) == 0
    names = set(os.listdir(out))
    assert plot_files <= names
    assert f"wrote {len(names)} files under {out}" in capsys.readouterr().out


def test_experiment_counts_the_svg_it_wrote(tmp_path, capsys):
    """The report's file count is the number of files under the output
    directory, series.svg included."""
    out = tmp_path / "rep"
    assert main(["energy-audit", "--n-cells", "16", "--t-end", "0.05", "--plot", "svg",
                 "--output-dir", str(out)]) == 0
    names = set(os.listdir(out))
    assert "series.svg" in names
    assert f"report written under {out} ({len(names)} files)" in capsys.readouterr().out


def test_experiment_plot_takes_only_svg(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    outdir = tmp_path / "rep"
    with pytest.raises(SystemExit) as exc:
        main(["stability", "--plot", "gnuplot", "--output-dir", str(outdir)])
    assert exc.value.code == 2
    assert "invalid choice: 'gnuplot'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


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
    (["eps-cauchy", "--eps-ladder", "0.1,0.2"], "--eps-ladder", "strictly decreasing"),
    (["time-shift", "--shifts", "0.0033"], "--shifts", "0.0033"),
    (["time-shift", "--shifts", "0.05", "--dt", "0.01", "--t-end", "0.02"], "--shifts", "0.05"),
    (["time-shift", "--t-end", "0.101"], "--t-end", "0.101"),
    (["time-shift", "--dt", "0.05", "--shifts", "0.1"], "dt=0.05", "CFL restriction"),
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


@pytest.mark.parametrize("kind", ["step_strain", "sawtooth_strain", "random_L2_theta"])
def test_rough_data_n_cells_is_the_coarsest_level(tmp_path, capsys, kind):
    outdir = tmp_path / "rep"
    rc = main(["rough-data", "--kind", kind, "--n-cells", "8", "--t-end", "0.0625",
               "--output-dir", str(outdir)])
    err = capsys.readouterr().err
    assert rc in (0, 1) and "Traceback" not in err  # N = 8 is too coarse to pass
    assert '"n_levels": [8, 16, 32]' in (outdir / "verdict.txt").read_text()


_TABLE_CFG = ("[grid]\nn_cells = 16\n[material]\nkind = user_tabulated\ntable = {table}\n"
              "[solver]\nt_end = 0.125\n[initial_data]\nkind = standing_wave\n"
              "amplitude = 0.1\n")


@pytest.mark.parametrize("content, complaint", [
    (None, "not found"),
    ("0 0\n1 0.5\n2 abc\n", "could not convert string 'abc'"),
    ("0 0 0\n1 0.5 1\n2 0.7 2\n", "expected two numeric columns"),
])
def test_run_bad_table_is_a_config_error(tmp_path, capsys, content, complaint):
    table = tmp_path / "table.txt"
    if content is not None:
        table.write_text(content)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_TABLE_CFG.format(table=table))
    outdir = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--output-dir", str(outdir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and str(table) in err and complaint in err
    assert "Traceback" not in err
    assert not outdir.exists()


def test_run_tabulated_material(tmp_path, capsys):
    xs = np.linspace(0.0, 4.0, 17)
    table = tmp_path / "table.txt"
    np.savetxt(table, np.column_stack([xs, np.log1p(xs)]))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_TABLE_CFG.format(table=table))
    outdir = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--output-dir", str(outdir)]) == 0
    # the same run in process on the same samples gives the same energies
    run_cfg = parse_config(cfg.read_text())
    grid = run_cfg.build_grid()
    traj = run_limit(run_cfg.build_initial_state(grid), tabulated_material(xs, np.log1p(xs)),
                     run_cfg.build_solver_config(grid), grid)
    diag = read_diagnostics_csv(outdir / "diagnostics.csv")
    assert np.array_equal(diag["E"], traj.record_series("energy"))


@pytest.mark.parametrize("solver, complaint", [
    ("dt = 0.003\nt_end = 0.01\n", "solver.dt=0.003 does not divide solver.t_end=0.01"),
    ("dt = 0.05\nt_end = 0.1\n", "violates the wave CFL restriction"),
])
def test_run_bad_dt_fails_before_the_output_dir(tmp_path, capsys, solver, complaint):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[grid]\nn_cells = 16\n[solver]\n" + solver)
    outdir = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--output-dir", str(outdir)]) == 2
    assert complaint in capsys.readouterr().err
    assert not outdir.exists()


@pytest.mark.parametrize("argv, flag, value", [
    (["stability", "--n-cells", "1"], "--n-cells", "1"),
    (["rough-data", "--n-cells", "0"], "--n-cells", "0"),
    (["energy-audit", "--t-end", "-1"], "--t-end", "-1.0"),
    (["eps-cauchy", "--t-end", "nan"], "--t-end", "nan"),
    (["time-shift", "--dt", "0"], "--dt", "0.0"),
    (["time-shift", "--epsilon", "0"], "--epsilon", "0.0"),
    (["time-shift", "--shifts", "0.1,-0.05"], "--shifts", "-0.05"),
    (["eps-cauchy", "--eps-ladder", "0.1,0"], "--eps-ladder", "0.0"),
    (["constants", "--eta", "0"], "--eta", "0.0"),
    (["constants", "--K", "-2"], "--K", "-2.0"),
    (["constants", "--T", "inf"], "--T", "inf"),
])
def test_out_of_range_flag_is_a_config_error(tmp_path, capsys, argv, flag, value):
    outdir = tmp_path / "rep"
    extra = [] if argv[0] == "constants" else ["--output-dir", str(outdir)]
    assert main(argv + extra) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: bad " + flag) and value in err
    assert "Traceback" not in err
    assert not outdir.exists()  # refused before the report directory is made


@pytest.mark.parametrize("initial, complaint", [
    ("kind = random_smooth\nseed = 1.5\n", "initial_data.seed: cannot parse '1.5' as int"),
    ("kind = standing_wave\nmode = 2.5\n", "initial_data.mode: cannot parse '2.5' as int"),
    ("kind = standing_wave\namplitude = nan\n",
     "initial_data.amplitude: cannot parse 'nan' as finite float"),
    ("kind = step_strain\nheight = -inf\n",
     "initial_data.height: cannot parse '-inf' as finite float"),
    ("kind = random_smooth\nseed = -1\n", "initial_data: seed must be >= 0, got -1"),
    ("kind = random_L2_theta\nseed = -2\n", "initial_data: seed must be >= 0, got -2"),
    ("kind = sawtooth_strain\nteeth = 0\n", "initial_data: teeth must be >= 1, got 0"),
    ("kind = step_strain\njump = 2.0\n", "initial_data: strain jump must lie inside"),
    ("kind = equilibrium\ntheta_bar = -1\n", "initial_data: theta must be >= 0"),
])
def test_run_bad_initial_data_is_a_config_error(tmp_path, capsys, initial, complaint):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[grid]\nn_cells = 16\n[solver]\nt_end = 0.125\n[initial_data]\n" + initial)
    outdir = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--output-dir", str(outdir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: " + complaint)
    assert "Traceback" not in err
    assert not outdir.exists()


def test_run_integral_int_key_is_accepted(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[grid]\nn_cells = 16\n[solver]\nt_end = 0.125\n"
                   "[initial_data]\nkind = random_smooth\nseed = 3.0\nn_modes = 2\n")
    assert main(["run", "--config", str(cfg), "--output-dir", str(tmp_path / "out")]) == 0
