"""`thermoelast1d run` formats its snapshot files while the run steps, in a
writer process or in its own: the same bytes, paths and failures as an
export after the run."""

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
from thermoelast1d.output import SnapshotWriter, export_trajectory
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


#: the affinity sets that pick each transport of the writer; the fork's id is
#: hidden, so the fork variants carry the plain test names
TRANSPORTS = [pytest.param({0, 1}, id=pytest.HIDDEN_PARAM),
              pytest.param({0}, id="in_process")]


@pytest.fixture(params=TRANSPORTS)
def streamed(request, monkeypatch):
    """The affinity set this process reports, so that every writer formats
    its snapshots in a forked process (2 CPUs) or in this one (1 CPU)."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: request.param, raising=False)
    return request.param


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
def test_a_writer_short_of_its_states_refuses_to_publish(tmp_path, streamed, writer_steps, fed,
                                                          formats):
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


#: a child process: a ``run`` of t_end / dt steps at N = 2049 that writes
#: every state, with this process's affinity set reported as ``cpus`` and
#: the snapshot lines stubbed out (snapshots.jsonl is published empty), so
#: that only the memory counts
_STREAMED_RUN = """
import contextlib, io, os
from thermoelast1d import cli, output
os.sched_getaffinity = lambda pid: {cpus!r}
output._snapshot_line = lambda t, block: ""
with open({config!r}, "w") as fh:
    fh.write("[grid]\\nn_cells = 2048\\n[material]\\nkind = identity\\n"
             "[solver]\\nepsilon = 0.0\\ndt = {dt!r}\\nt_end = {t_end!r}\\n"
             "[initial_data]\\nkind = random_smooth\\nseed = 4\\n"
             "[output]\\nrecord_every = 1\\nformats = json_lines\\n")
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["run", "--config", {config!r}, "--output-dir", {outdir!r}]) == 0
"""


def test_a_streamed_runs_peak_rss_does_not_grow_with_its_steps(tmp_path, streamed):
    """On either transport, the run keeps only its end states: a store of
    every state would add 36.5 MiB from 256 to 1,024 steps."""
    dt = 2.0 ** -13  # h / 4 at N = 2049
    peak = {}
    for n_steps in (256, 1024):
        peak[n_steps] = 1024 * child_maxrss_kib(_STREAMED_RUN.format(
            cpus=streamed, config=str(tmp_path / f"run{n_steps}.cfg"),
            outdir=str(tmp_path / f"out{n_steps}"), dt=dt, t_end=n_steps * dt))
    # a store of every kept state grows by one (3, N) block per step
    store_growth = (1024 - 256) * 3 * 2049 * 8
    assert peak[1024] - peak[256] < store_growth / 4, (peak, store_growth)


@pytest.mark.parametrize("formats", FORMATS)
def test_streamed_export_returns_the_paths_of_an_export_after_the_run(tmp_path, streamed,
                                                                      formats):
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
                                                               streamed, epsilon, theta,
                                                               message):
    """It fails with the error of a run that keeps every state."""
    _fail_at(monkeypatch, STEPPERS[epsilon], 13, theta=theta)
    outdir = tmp_path / "out"
    outdir.mkdir()
    for name, data in OLD_FILES.items():
        (outdir / name).write_bytes(data)
    rc = main(_run_argv(tmp_path, outdir, epsilon))
    err = capsys.readouterr().err
    assert rc == 1 and err.startswith(message), err
    assert _files(outdir) == OLD_FILES
    with pytest.raises(Thermoelast1dError) as kept_every_state:
        _trajectory(_config_text(epsilon, ("csv", "json_lines"), 1))
    assert err == f"error: {kept_every_state.value}\n"


def test_a_snapshot_path_that_is_a_directory_fails_as_after_the_run(tmp_path, capsys, streamed):
    """It fails as the export of a run that keeps every state does, and
    leaves the same files."""
    left = {}
    for mode in ("streamed", "after"):
        outdir = tmp_path / mode
        (outdir / "snapshot_000003.csv").mkdir(parents=True)
    assert main(_run_argv(tmp_path, tmp_path / "streamed")) == 1
    errors = {"streamed": capsys.readouterr().err}
    _, traj = _trajectory(_config_text(0.0, ("csv", "json_lines"), 2))
    with pytest.raises(Thermoelast1dError) as after:
        export_trajectory(traj, str(tmp_path / "after"), ("csv", "json_lines"))
    errors["after"] = f"error: {after.value}\n"
    for mode, err in errors.items():
        path = os.path.join(str(tmp_path / mode), "snapshot_000003.csv")
        assert err.startswith(f"error: failed writing {path}: "), err
        assert "Traceback" not in err
        left[mode] = _files(tmp_path / mode)
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


def test_a_send_to_a_stopped_writer_raises_its_error(tmp_path, streamed, monkeypatch):
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


def test_the_writer_forks_only_with_fork_and_a_second_cpu(tmp_path, monkeypatch):
    """Its transport follows ``os.fork`` and the affinity set; both write
    the same files."""
    grid = Grid(0.0, 1.0, 8)
    state = make_state(0.0, np.zeros(9), np.zeros(9), np.ones(9))
    published = {}
    for name, cpus, fork in (("two", {0, 1}, True), ("one", {0}, True),
                             ("no_fork", {0, 1}, False)):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        if not fork:
            monkeypatch.delattr(os, "fork")
        outdir = tmp_path / name
        outdir.mkdir()
        writer = SnapshotWriter(str(outdir), ("csv", "json_lines"), grid, 1, 1)
        try:
            writer(state, None)
            forked = [p.name for p in multiprocessing.active_children()]
            writer(state, None)
            published[name] = [os.path.basename(p) for p in writer.publish()]
        finally:
            writer.close()
        assert forked == (["snapshot-writer"] if name == "two" else []), name
    assert published["two"] == published["one"] == published["no_fork"] == [
        "snapshot_000000.csv", "snapshot_000001.csv", "snapshots.jsonl"]


#: a child process: a one-step ``run`` with this process's affinity set
#: reported as ``cpus``; it prints whether multiprocessing was imported
_IMPORTS_RUN = """
import contextlib, io, os, sys
import thermoelast1d.cli
os.sched_getaffinity = lambda pid: {cpus!r}
with contextlib.redirect_stdout(io.StringIO()):
    assert thermoelast1d.cli.main(["run", "--config", {config!r}, "--output-dir", {outdir!r}]) == 0
print("multiprocessing" in sys.modules)
"""


def test_importing_the_cli_leaves_multiprocessing_unimported(tmp_path):
    """As does a run on one CPU; the writer process imports it."""
    code = "import sys, thermoelast1d.cli; assert 'multiprocessing' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": SRC})
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_config_text(0.0, ("csv", "json_lines"), 1))
    for cpus, imported in (({0}, "False"), ({0, 1}, "True")):
        done = subprocess.run(
            [sys.executable, "-c", _IMPORTS_RUN.format(
                cpus=cpus, config=str(cfg), outdir=str(tmp_path / f"out{len(cpus)}"))],
            check=True, capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC})
        assert done.stdout.split() == [imported], (cpus, done.stdout)
