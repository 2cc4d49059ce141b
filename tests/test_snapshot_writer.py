"""`thermoelast1d run` formats its snapshot files in a writer process while
the run steps: the same bytes, paths and failures as an export after the run."""

import multiprocessing
import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest

from helpers import child_maxrss_kib
from thermoelast1d import cli, output, stepping
from thermoelast1d.cli import main
from thermoelast1d.config import parse_config
from thermoelast1d.errors import ContractError, Thermoelast1dError
from thermoelast1d.grid import Grid
from thermoelast1d.output import SnapshotWriter, export_trajectory, snapshot_writer
from thermoelast1d.state import make_state

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
FORMATS = (("csv",), ("json_lines",), ("csv", "json_lines"))
#: the stepper of each epsilon of the configs below (imex1 for eps > 0)
STEPPERS = {0.0: stepping.LimitStepper, 0.01: stepping.ImexStepper}
#: files a previous run left in the output directory
OLD_FILES = {"diagnostics.csv": b"old diagnostics\n", "snapshot_000000.csv": b"old snapshot\n",
             "snapshots.jsonl": b"old lines\n"}


def _config_text(epsilon, formats, record_every):
    """A 24-step run on 17 nodes."""
    return ("[grid]\nn_cells = 16\n"
            "[material]\nkind = log1p\n"
            f"[solver]\nepsilon = {epsilon!r}\ndt = 0.0078125\nt_end = 0.1875\n"
            "[initial_data]\nkind = random_smooth\nseed = 4\n"
            f"[output]\nrecord_every = {record_every}\nformats = {','.join(formats)}\n")


def _run_argv(tmp_path, outdir, epsilon=0.0, formats=("csv", "json_lines"), record_every=2):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_config_text(epsilon, formats, record_every))
    return ["run", "--config", str(cfg), "--output-dir", str(outdir)]


def _files(directory):
    """Every entry of ``directory``: a file's bytes, or None for a directory."""
    return {name: None if (directory / name).is_dir() else (directory / name).read_bytes()
            for name in os.listdir(directory)}


def _trajectory(text, **kwargs):
    cfg = parse_config(text)
    grid = cfg.build_grid()
    solver_cfg = cfg.build_solver_config(grid)
    run = stepping.run_eps if solver_cfg.epsilon > 0.0 else stepping.run_limit
    traj = run(cfg.build_initial_state(grid), cfg.build_material(), solver_cfg, grid,
               record_every=cfg.output.record_every, **kwargs)
    return cfg, traj


@pytest.fixture
def streamed(monkeypatch):
    """Every run streams its snapshots, whatever the CPU count."""
    monkeypatch.setattr(cli, "snapshot_writer", SnapshotWriter)


def _after_the_run(*args):
    return None


def _fail_at(monkeypatch, stepper, step, theta=None, exc=None):
    """``stepper.advance`` raises ``exc`` at the ``step``-th call on each
    stepper, or sets Theta at node 3 of that step to ``theta``."""
    advance = stepper.advance
    calls = {}

    def failing(self, v, u, th, t):
        k = calls[self] = calls.get(self, 0) + 1
        if k == step and exc is not None:
            raise exc
        v, u, th = advance(self, v, u, th, t)
        if k == step:
            th = th.copy()
            th[3] = theta
        return v, u, th

    monkeypatch.setattr(stepper, "advance", failing)


@pytest.mark.parametrize("formats", FORMATS)
@pytest.mark.parametrize("epsilon", [0.0, 0.01])
@pytest.mark.parametrize("record_every", [4, 5, 50])  # divides 24 steps, does not, exceeds
def test_run_writes_the_bytes_of_an_export_after_the_run(tmp_path, capsys, streamed,
                                                         formats, epsilon, record_every):
    argv = _run_argv(tmp_path, tmp_path / "streamed", epsilon, formats, record_every)
    assert main(argv) == 0
    out = capsys.readouterr().out
    _, traj = _trajectory(_config_text(epsilon, formats, record_every))
    written = export_trajectory(traj, tmp_path / "after", formats)
    assert _files(tmp_path / "streamed") == _files(tmp_path / "after")
    assert f"  wrote {len(written)} files under {tmp_path / 'streamed'}\n" in out


@pytest.mark.parametrize("formats", FORMATS)
@pytest.mark.parametrize("record_every", [1, 7])  # every state; a remainder of 3 steps
def test_a_run_keeping_its_end_states_writes_the_bytes_of_a_full_export(tmp_path, capsys,
                                                                        streamed, formats,
                                                                        record_every):
    assert main(_run_argv(tmp_path, tmp_path / "streamed", 0.0, formats, record_every)) == 0
    out = capsys.readouterr().out
    _, traj = _trajectory(_config_text(0.0, formats, record_every))
    written = export_trajectory(traj, tmp_path / "after", formats)
    got, want = _files(tmp_path / "streamed"), _files(tmp_path / "after")
    assert sorted(got) == sorted(want)
    assert got == want
    assert f"  wrote {len(written)} files under {tmp_path / 'streamed'}\n" in out


def test_a_streamed_run_exports_only_its_end_states(tmp_path, streamed, monkeypatch):
    exported = []
    export = cli.export_trajectory

    def keeping(traj, *args, **kwargs):
        exported.append(traj)
        return export(traj, *args, **kwargs)

    monkeypatch.setattr(cli, "export_trajectory", keeping)
    assert main(_run_argv(tmp_path, tmp_path / "out", record_every=1)) == 0
    (traj,) = exported
    _, full = _trajectory(_config_text(0.0, ("csv", "json_lines"), 1))
    assert len(full.states) == len(traj.records) == 25
    assert len(traj.states) == 2
    for kept, state in zip(traj.states, (full.states[0], full.states[-1])):
        assert kept.t == state.t and kept.block.tobytes() == state.block.tobytes()


@pytest.mark.parametrize("writer_steps, fed, formats", [
    (24, 0, ("csv", "json_lines")),   # never started
    (24, 20, ("csv", "json_lines")),  # its feed stopped short
    (24, 24, ("csv", "json_lines")),  # one step short
    (30, 25, ("csv", "json_lines")),  # a writer of a longer run
    (24, 25, ("csv",)),               # another format set
])
def test_a_writer_short_of_its_states_refuses_to_publish(tmp_path, writer_steps, fed, formats):
    text = _config_text(0.0, ("csv", "json_lines"), 5)
    outdir = tmp_path / "out"
    outdir.mkdir()
    for name, data in OLD_FILES.items():
        (outdir / name).write_bytes(data)
    writer = SnapshotWriter(str(outdir), formats, parse_config(text).build_grid(),
                            writer_steps, 5)

    def feed(state, record):
        if writer.handed < fed:
            writer(state, record)

    try:
        _, traj = _trajectory(text, recorder=feed)
        message = (f"the writer was handed {fed} steps and forwarded {writer.count} states "
                   f"in formats {formats}; the export has 25 steps and {writer.n_kept} states")
        with pytest.raises(ContractError, match=re.escape(message)):
            export_trajectory(traj, str(outdir), ("csv", "json_lines"), snapshots=writer)
    finally:
        writer.close()
    assert _files(outdir) == OLD_FILES


#: a child process: a streamed ``run`` of t_end / dt steps at N = 2049 that
#: writes every state, with the snapshot files stubbed out (the writer drains
#: its feed and publishes an empty snapshots.jsonl), so that only the memory
#: counts
_STREAMED_RUN = """
import contextlib, io
from thermoelast1d import cli, output
write = output._write_snapshots
def drain(directory, formats, x, states):
    for _ in states:
        pass
    write(directory, formats, x, ())
output._write_snapshots = drain
cli.snapshot_writer = output.SnapshotWriter
with open({config!r}, "w") as fh:
    fh.write("[grid]\\nn_cells = 2048\\n[material]\\nkind = identity\\n"
             "[solver]\\nepsilon = 0.0\\ndt = {dt!r}\\nt_end = {t_end!r}\\n"
             "[initial_data]\\nkind = random_smooth\\nseed = 4\\n"
             "[output]\\nrecord_every = 1\\nformats = json_lines\\n")
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["run", "--config", {config!r}, "--output-dir", {outdir!r}]) == 0
"""


def test_a_streamed_runs_peak_rss_does_not_grow_with_its_steps(tmp_path):
    dt = 2.0 ** -13  # h / 4 at N = 2049
    peak = {}
    for n_steps in (256, 1024):
        peak[n_steps] = 1024 * child_maxrss_kib(_STREAMED_RUN.format(
            config=str(tmp_path / f"run{n_steps}.cfg"), outdir=str(tmp_path / f"out{n_steps}"),
            dt=dt, t_end=n_steps * dt))
    # a store of every kept state grows by one (3, N) block per step
    store_growth = (1024 - 256) * 3 * 2049 * 8
    assert peak[1024] - peak[256] < store_growth / 4, (peak, store_growth)


@pytest.mark.parametrize("formats", FORMATS)
def test_streamed_export_returns_the_paths_of_an_export_after_the_run(tmp_path, formats):
    text = _config_text(0.0, formats, 5)
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    os.mkdir(a)
    cfg = parse_config(text)
    writer = SnapshotWriter(a, formats, cfg.build_grid(), 24, 5)
    try:
        _, traj = _trajectory(text, recorder=writer)
        streamed = export_trajectory(traj, a, formats, snapshots=writer)
    finally:
        writer.close()
    after = export_trajectory(traj, b, formats)
    assert [os.path.relpath(p, a) for p in streamed] == [os.path.relpath(p, b) for p in after]
    assert len(streamed) == 1 + len(traj.states) * ("csv" in formats) + ("json_lines" in formats)
    assert sorted(os.listdir(a)) == sorted(os.listdir(b))  # the staging directory is gone


@pytest.mark.parametrize("epsilon", [0.0, 0.01])
@pytest.mark.parametrize("theta, message", [(np.nan, "error: non-finite theta at step 13, "),
                                            (-1.0, "error: theta reached -1.000e+00 ")])
def test_a_run_failing_mid_run_leaves_the_output_dir_as_it_was(tmp_path, capsys, monkeypatch,
                                                               epsilon, theta, message):
    _fail_at(monkeypatch, STEPPERS[epsilon], 13, theta=theta)
    seen = []
    for mode, factory in (("streamed", SnapshotWriter), ("after", _after_the_run)):
        monkeypatch.setattr(cli, "snapshot_writer", factory)
        outdir = tmp_path / mode
        outdir.mkdir()
        for name, data in OLD_FILES.items():
            (outdir / name).write_bytes(data)
        rc = main(_run_argv(tmp_path, outdir, epsilon))
        err = capsys.readouterr().err
        assert rc == 1 and err.startswith(message), err
        assert _files(outdir) == OLD_FILES
        seen.append(err.replace(str(outdir), "<out>"))
    assert seen[0] == seen[1]


def test_a_snapshot_path_that_is_a_directory_fails_as_after_the_run(tmp_path, capsys,
                                                                    monkeypatch):
    left = {}
    for mode, factory in (("streamed", SnapshotWriter), ("after", _after_the_run)):
        monkeypatch.setattr(cli, "snapshot_writer", factory)
        outdir = tmp_path / mode
        (outdir / "snapshot_000003.csv").mkdir(parents=True)
        rc = main(_run_argv(tmp_path, outdir))
        err = capsys.readouterr().err
        path = os.path.join(str(outdir), "snapshot_000003.csv")
        assert rc == 1 and err.startswith(f"error: failed writing {path}: "), err
        assert "Traceback" not in err
        left[mode] = _files(outdir)
    assert sorted(left["streamed"]) == ["diagnostics.csv", "snapshot_000000.csv",
                                        "snapshot_000001.csv", "snapshot_000002.csv",
                                        "snapshot_000003.csv"]
    assert left["streamed"] == left["after"]


def test_an_error_in_the_writer_process_is_the_error_of_the_run(tmp_path, capsys, streamed,
                                                                 monkeypatch):
    write = output._write_snapshot_csv

    def failing(path, *args):
        if path.endswith("snapshot_000003.csv"):
            raise Thermoelast1dError(f"failed writing {path}: disk full")
        write(path, *args)

    monkeypatch.setattr(output, "_write_snapshot_csv", failing)  # in the fork as well
    outdir = tmp_path / "out"
    rc = main(_run_argv(tmp_path, outdir))
    err = capsys.readouterr().err
    assert rc == 1 and err.startswith("error: failed writing "), err
    assert err.endswith("snapshot_000003.csv: disk full\n")
    assert not [name for name in os.listdir(outdir) if name.startswith(".")]


def test_a_send_to_a_stopped_writer_raises_its_error(tmp_path, monkeypatch):
    def failing(path, *args):
        raise Thermoelast1dError(f"failed writing {path}: disk full")

    monkeypatch.setattr(output, "_write_snapshot_csv", failing)
    grid = Grid(0.0, 1.0, 8)
    state = make_state(0.0, np.zeros(9), np.zeros(9), np.ones(9))
    writer = SnapshotWriter(str(tmp_path), ("csv",), grid, 10 ** 9, 1)
    deadline = time.monotonic() + 30.0
    try:
        with pytest.raises(Thermoelast1dError, match="snapshot_000000.csv: disk full"):
            while time.monotonic() < deadline:  # until the stopped writer's pipe breaks
                writer(state, None)
    finally:
        writer.close()
    assert os.listdir(tmp_path) == []


def test_a_writer_without_its_directory_names_it(tmp_path):
    missing = str(tmp_path / "missing")
    writer = SnapshotWriter(missing, ("csv",), Grid(0.0, 1.0, 8), 4, 1)
    state = make_state(0.0, np.zeros(9), np.zeros(9), np.ones(9))
    try:
        with pytest.raises(Thermoelast1dError, match=re.escape(f"failed writing {missing}: ")):
            writer(state, None)
    finally:
        writer.close()


def test_an_interrupted_run_stops_its_writer(tmp_path, streamed, monkeypatch):
    _fail_at(monkeypatch, stepping.LimitStepper, 13, exc=KeyboardInterrupt())
    outdir = tmp_path / "out"
    outdir.mkdir()
    for name, data in OLD_FILES.items():
        (outdir / name).write_bytes(data)
    with pytest.raises(KeyboardInterrupt):
        main(_run_argv(tmp_path, outdir))
    assert not multiprocessing.active_children()
    assert _files(outdir) == OLD_FILES


def test_snapshots_are_formatted_after_the_run_without_fork_or_a_second_cpu(tmp_path,
                                                                            monkeypatch):
    args = (str(tmp_path), ("csv",), Grid(0.0, 1.0, 8), 10, 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert snapshot_writer(*args) is None
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert isinstance(snapshot_writer(*args), SnapshotWriter)
    monkeypatch.delattr(os, "fork")
    assert snapshot_writer(*args) is None


def test_importing_the_cli_leaves_multiprocessing_unimported():
    code = "import sys, thermoelast1d.cli; assert 'multiprocessing' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": SRC})
