"""Result persistence: diagnostics CSV, field snapshots, plot emission.

All float formatting uses %.17g, which round-trips IEEE double exactly;
column order is fixed (documented in FORMATS.md) so diffs across runs and
versions stay meaningful.  Writes are bit-stable across reruns.

The CSV writers format a block of at most ``ROW_BLOCK`` rows with one ``%``
over a row template.  ``%`` converts each value alone with ``float``, so the
bytes equal one ``"%.17g" % float(x)`` per value.  A snapshot template holds
its t (formatted once per file) and x (once per grid) as literal text, safe
as a ``%.17g`` string never contains ``%``.  Write failures name the path.

The snapshot files of ``thermoelast1d run`` are formatted while the run
steps, by a :class:`SnapshotWriter` in a forked process, through the same
routine as the export after a run (:func:`_write_snapshots`).  The writer
picks the states of its own ``record_every`` from every step it is handed,
so such a run keeps only its t = 0 and final states, and its memory does
not grow with the states it writes.  diagnostics.csv is written after the
run, in the run's process, by :func:`export_trajectory`.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import tempfile
from contextlib import contextmanager, nullcontext
from typing import Dict, Optional, Sequence

import numpy as np

from .errors import ContractError, Thermoelast1dError
from .state import Trajectory, kept_count, kept_steps

#: diagnostics.csv header, as in FORMATS.md
DIAG_COLUMNS = tuple(
    "t,E,int_Theta,theta_min,theta_max,y,y_valid,thetax_l2sq,thetaxx_l2sq,"
    "vx_l2sq,vxx_l2sq,uxx_l2sq,diss_thetax,diss_eps".split(",")
)

_G = "%.17g"
#: most rows formatted by one ``%`` (one write): 16 or 32 rows format as fast
#: as larger blocks and keep each block's template and value tuple small.
#: (Larger blocks once stranded a finished run's freed state store, 13 MiB on
#: run-large, in the C heap; only a run without a writer process keeps one.)
ROW_BLOCK = 32
#: the formats of :func:`export_trajectory`
FORMATS = ("csv", "json_lines")


def make_output_dir(directory) -> None:
    """Create ``directory`` if missing; an OSError names it."""
    try:
        os.makedirs(directory, exist_ok=True)
    except OSError as exc:
        raise Thermoelast1dError(f"cannot create {directory}: {exc}") from exc


@contextmanager
def _writing(path):
    """Text file open for writing; an OSError of the open or the writes names ``path``."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
    except OSError as exc:
        raise Thermoelast1dError(f"failed writing {path}: {exc}") from exc


def _write_columns(fh, columns, sep: str) -> None:
    """Rows of ``columns`` (1-D arrays) joined by ``sep``, one ``%.17g`` per
    value; where a column is shorter than the longest its cells are empty."""
    lengths = [len(c) for c in columns]
    n = max(lengths, default=0)
    cuts = sorted({*range(0, n, ROW_BLOCK), *lengths, n})
    for lo, hi in zip(cuts, cuts[1:]):
        present = [c[lo:hi] for c, m in zip(columns, lengths) if m > lo]
        row = sep.join(_G if m > lo else "" for m in lengths) + "\n"
        fh.write(row * (hi - lo) % tuple(np.column_stack(present).ravel().tolist()))


def _csv_x_rows(x) -> list:
    """Row j of a snapshot CSV template after its t: node j's x, then a
    ``%.17g`` slot for each of v, u and Theta ("%%" stays as "%")."""
    x = x.tolist()
    return ((_G + ",%%.17g,%%.17g,%%.17g\n") * len(x) % tuple(x)).splitlines(True)


def _write_snapshot_csv(path, t: float, block: np.ndarray, x_rows: list) -> None:
    """snapshot_NNNNNN.csv of the state ``(t, block)``: t,x,v,u,theta per node."""
    prefix = _G % t + ","
    vals = block.T.ravel().tolist()
    with _writing(path) as fh:
        fh.write("t,x,v,u,theta\n")
        for lo in range(0, len(x_rows), ROW_BLOCK):
            template = prefix + prefix.join(x_rows[lo:lo + ROW_BLOCK])
            fh.write(template % tuple(vals[3 * lo:3 * (lo + ROW_BLOCK)]))


def _snapshot_line(t: float, block: np.ndarray) -> str:
    """The snapshots.jsonl line of the state ``(t, block)``."""
    v, u, theta = block.tolist()
    return json.dumps({"t": t, "v": v, "u": u, "theta": theta}) + "\n"


def _snapshot_names(formats: Sequence[str], n_states: int) -> list:
    """The snapshot files of ``n_states`` kept states, in export order."""
    names = [f"snapshot_{idx:06d}.csv" for idx in range(n_states)] if "csv" in formats else []
    return names + ["snapshots.jsonl"] * ("json_lines" in formats)


def export_trajectory(traj: Trajectory, directory, formats: Sequence[str] = ("csv",),
                      snapshots: Optional["SnapshotWriter"] = None):
    """Write per-step diagnostics plus field snapshots.

    csv:        diagnostics.csv + one snapshot_NNNNNN.csv per recorded time
    json_lines: diagnostics.csv + snapshots.jsonl (streamable, one snapshot
                per line)

    With ``snapshots``, the writer that was the run's recorder, the snapshot
    files are those it formatted during the run: after diagnostics.csv this
    waits for it and moves its files into ``directory``.  The writer keeps
    the states of its own ``record_every``, whatever ``traj`` stored; it
    must have been handed every step of ``traj.records`` and have forwarded
    each state its rule keeps of them, else a ContractError names both
    counts before anything is written.

    Returns the list of written paths.
    """
    for f in formats:
        if f not in FORMATS:
            raise ContractError(f"unknown export format {f!r}")
    if snapshots is not None:
        want = (tuple(formats), len(traj.records), snapshots.n_kept)
        if (snapshots.formats, snapshots.handed, snapshots.count) != want:
            raise ContractError(f"the writer was handed {snapshots.handed} steps and forwarded "
                                f"{snapshots.count} states in formats {snapshots.formats}; "
                                f"the export has {len(traj.records)} steps and "
                                f"{snapshots.n_kept} states to write in {tuple(formats)}")
    make_output_dir(directory)

    diag_path = os.path.join(directory, "diagnostics.csv")
    with _writing(diag_path) as fh:
        fh.write(",".join(DIAG_COLUMNS) + "\n")
        _write_columns(fh, traj.rows.T, ",")

    if snapshots is not None:
        return [diag_path] + snapshots.publish()
    # one format at a time: every CSV is written before snapshots.jsonl is
    # opened, so a failing CSV path leaves no snapshots.jsonl behind
    for f in FORMATS:
        if f in formats:
            _write_snapshots(directory, (f,), traj.grid.nodes,
                             ((s.t, s.block) for s in traj.states))
    return [diag_path] + [os.path.join(directory, name)
                          for name in _snapshot_names(formats, len(traj.states))]


# ---------------------------------------------------------------------------
# snapshot files formatted in a writer process during a run
# ---------------------------------------------------------------------------

#: bytes asked of the writer's pipe (Linux ``F_SETPIPE_SZ``; 1 MiB is the
#: default limit for unprivileged processes): at N = 4097 about ten kept
#: states fit, so a send waits only when the writer falls that far behind
PIPE_BYTES = 1 << 20


def _write_snapshots(directory, formats: Sequence[str], x, states) -> None:
    """The snapshot files of the ``(t, block)`` items of ``states``, each
    written as it comes: the writer process and :func:`export_trajectory`
    run this."""
    x_rows = _csv_x_rows(x)
    jsonl = (_writing(os.path.join(directory, "snapshots.jsonl")) if "json_lines" in formats
             else nullcontext())
    with jsonl as fh:
        for idx, (t, block) in enumerate(states):
            if "csv" in formats:
                _write_snapshot_csv(os.path.join(directory, f"snapshot_{idx:06d}.csv"),
                                    t, block, x_rows)
            if fh is not None:
                fh.write(_snapshot_line(t, block))


def _received(feed, n_nodes: int):
    """The ``(t, block)`` of each message of ``feed`` up to an empty one."""
    while True:
        message = feed.recv_bytes()
        if not message:
            return
        values = np.frombuffer(message)
        yield float(values[0]), values[1:].reshape(3, n_nodes)


def _serve(feed, reply, directory, formats, x, parent_ends) -> None:
    """Body of the writer process: the states of ``feed`` up to an empty
    message, then ``None`` on ``reply``, or the message of the error that
    stopped it."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent stops the writer
    for end in parent_ends:  # so that the feed ends when the parent does
        end.close()
    try:
        _write_snapshots(directory, formats, x, _received(feed, len(x)))
    except EOFError:  # the parent closed the feed without its end mark: stopped
        return
    except Thermoelast1dError as exc:
        reply.send(str(exc))
        return
    reply.send(None)


class SnapshotWriter:
    """The snapshot files of a run, formatted in a forked process while the
    run steps.

    Passed to ``run_eps``/``run_limit`` as ``recorder``: of the states it is
    given it forwards those a trajectory of its ``record_every`` keeps
    (:func:`~.state.kept_steps`), whatever the run keeps, over a one-way
    pipe, each as one message of raw float64 bytes: t, then the ``(3, N)``
    block; an empty message ends the feed.  The process
    starts with the first state (t = 0), so the fork and the import of
    :mod:`multiprocessing` fall in the run's first step; it writes into a
    hidden staging directory under ``directory``.  :func:`export_trajectory`
    with ``snapshots=`` calls :meth:`publish`; :meth:`close` stops the
    writer and removes what it staged, and leaves the files published."""

    def __init__(self, directory, formats: Sequence[str], grid, n_steps: int,
                 record_every: int):
        self.directory = directory
        self.formats = tuple(formats)
        self.handed = 0  # states given
        self.count = 0  # states forwarded
        self._steps = n_steps, record_every
        self.n_kept = kept_count(n_steps, record_every)  # states a full run forwards
        self._x = grid.nodes
        # the message of a state: t, then its block's values
        self._message = np.empty(1 + 3 * grid.n_nodes)
        self._proc = self._staging = None

    def __call__(self, state, record) -> None:
        if kept_steps(self.handed, 1, *self._steps):
            if self._proc is None:
                self._start()
            message = self._message
            message[0] = state.t
            message[1:].reshape(state.block.shape)[...] = state.block
            self._send(message)
            self.count += 1
        self.handed += 1

    def _start(self) -> None:
        import fcntl
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        try:
            self._staging = tempfile.mkdtemp(prefix=".snapshots-", dir=self.directory)
        except OSError as exc:
            raise Thermoelast1dError(f"failed writing {self.directory}: {exc}") from exc
        feed_out, self._feed = ctx.Pipe(duplex=False)
        self._reply, reply_in = ctx.Pipe(duplex=False)
        try:
            fcntl.fcntl(self._feed.fileno(), fcntl.F_SETPIPE_SZ, PIPE_BYTES)
        except (AttributeError, OSError):  # not Linux, or over the limit: the default size
            pass
        proc = ctx.Process(target=_serve, daemon=True, name="snapshot-writer", args=(
            feed_out, reply_in, self._staging, self.formats, self._x, (self._feed, self._reply)))
        proc.start()
        self._proc = proc
        feed_out.close()
        reply_in.close()

    def _send(self, message) -> None:
        try:
            self._feed.send_bytes(message)
        except OSError:  # the writer stopped: its error
            self._outcome()
            raise

    def _outcome(self) -> None:
        """Wait for the writer to end; raise the error that stopped it."""
        try:
            error = self._reply.recv()
        except EOFError:  # it ended without a word
            error = ""
        self._proc.join()
        if error is not None:
            raise Thermoelast1dError(error or "snapshot writer exited with code "
                                     f"{self._proc.exitcode}")

    def publish(self) -> list:
        """Wait for the writer, then move its files into ``directory`` in
        export order; their paths.  An error names the file."""
        written = []
        if self._proc is None:
            return written
        self._send(b"")
        self._feed.close()
        self._outcome()
        for name in _snapshot_names(self.formats, self.count):
            path = os.path.join(self.directory, name)
            try:
                os.replace(os.path.join(self._staging, name), path)
            except OSError as exc:
                raise Thermoelast1dError(f"failed writing {path}: {exc}") from exc
            written.append(path)
        os.rmdir(self._staging)
        return written

    def close(self) -> None:
        """Stop the writer if it runs, wait for it and remove its staging
        directory; safe to call more than once."""
        if self._proc is not None:
            self._feed.close()
            if self._proc.is_alive():
                self._proc.terminate()
            self._proc.join()
            self._reply.close()
        if self._staging is not None:
            shutil.rmtree(self._staging, ignore_errors=True)


def snapshot_writer(directory, formats: Sequence[str], grid, n_steps: int,
                    record_every: int) -> Optional[SnapshotWriter]:
    """A :class:`SnapshotWriter` for a run, or None where the snapshots are
    formatted after the run in this process: where there is no ``fork`` or
    fewer than 2 CPUs are available to this process."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    if not hasattr(os, "fork") or (cpus or 1) < 2:
        return None
    return SnapshotWriter(directory, formats, grid, n_steps, record_every)


def read_snapshot_csv(path) -> Dict[str, np.ndarray]:
    """Read back one snapshot file (exact values, for round-trip checks)."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    cols = {name: np.array([float(r[i]) for r in rows]) for i, name in enumerate(header)}
    return cols


def read_diagnostics_csv(path) -> Dict[str, np.ndarray]:
    return read_snapshot_csv(path)


# ---------------------------------------------------------------------------
# plot emission (data + script, or standalone SVG; no graphics deps)
# ---------------------------------------------------------------------------


def write_gnuplot(traj: Trajectory, directory) -> list:
    """Emit series.dat plus a gnuplot script rendering the main series."""
    make_output_dir(directory)
    dat = os.path.join(directory, "series.dat")
    with _writing(dat) as fh:
        fh.write("# " + " ".join(DIAG_COLUMNS) + "\n")
        _write_columns(fh, traj.rows.T, " ")
    gp = os.path.join(directory, "plot.gp")
    with _writing(gp) as fh:
        fh.write(
            "set terminal svg size 900,600\n"
            "set output 'series.svg'\n"
            "set xlabel 't'\n"
            "set key outside\n"
            "plot 'series.dat' using 1:2 with lines title 'E', \\\n"
            "     'series.dat' using 1:3 with lines title 'int Theta', \\\n"
            "     'series.dat' using 1:4 with lines title 'min Theta', \\\n"
            "     'series.dat' using 1:5 with lines title 'max Theta'\n"
        )
    return [dat, gp]


def _unit_map(lo: float, hi: float):
    """v -> (v - lo) / (hi - lo), so that finite data always plot: where
    hi - lo overflows a double the values are halved first, and where it is
    0 (a single value too large for the +1 widening) every value maps to 0."""
    s = 1.0 if hi - lo < float("inf") else 0.5
    lo_s, span = lo * s, (hi * s - lo * s) or 1.0
    return lambda v: (v * s - lo_s) / span


def write_svg_series(series: Dict[str, np.ndarray], t: np.ndarray, path,
                     width: int = 900, height: int = 600) -> str:
    """Standalone SVG line plot of named series against t (no dependencies)."""
    t = np.asarray(t, float)
    margin = 50.0
    finite_vals = np.concatenate(
        [np.asarray(v, float)[np.isfinite(np.asarray(v, float))] for v in series.values()]
    )
    if finite_vals.size == 0:
        finite_vals = np.array([0.0, 1.0])
    ymin, ymax = float(finite_vals.min()), float(finite_vals.max())
    if ymax - ymin < 1e-300:
        ymax = ymin + 1.0
    tmin, tmax = float(t.min()), float(t.max())
    if tmax - tmin < 1e-300:
        tmax = tmin + 1.0

    to_t, to_y = _unit_map(tmin, tmax), _unit_map(ymin, ymax)

    def sx(tv):
        return margin + to_t(tv) * (width - 2 * margin)

    def sy(yv):
        return height - margin - to_y(yv) * (height - 2 * margin)

    colors = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>',
        f'<text x="{margin}" y="20" font-size="13">t in [{tmin:.6g}, {tmax:.6g}], '
        f'range [{ymin:.6g}, {ymax:.6g}]</text>',
    ]
    for i, (name, vals) in enumerate(series.items()):
        n = min(len(t), len(vals))
        vals = np.asarray(vals, float)[:n]
        ok = np.isfinite(vals)
        pts = " ".join(["%.2f,%.2f"] * int(ok.sum())) % tuple(
            np.column_stack((sx(t[:n][ok]), sy(vals[ok]))).ravel().tolist()
        )
        color = colors[i % len(colors)]
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>'
        )
        parts.append(
            f'<text x="{width - margin + 4}" y="{margin + 16 * i}" font-size="12" '
            f'fill="{color}">{name}</text>'
        )
    parts.append("</svg>")
    with _writing(path) as fh:
        fh.write("\n".join(parts) + "\n")
    return str(path)


def write_report(report, directory) -> list:
    """Persist an experiment report: verdict.txt plus one CSV per series."""
    make_output_dir(directory)
    written = []
    verdict = os.path.join(directory, "verdict.txt")
    with _writing(verdict) as fh:
        fh.write(report.summary() + "\n")
        fh.write(f"params: {json.dumps(report.params, default=str, sort_keys=True)}\n")
    written.append(verdict)
    for name, table in report.series.items():
        path = os.path.join(directory, f"series_{name}.csv")
        with _writing(path) as fh:
            fh.write(",".join(table) + "\n")
            _write_columns(fh, [np.atleast_1d(col) for col in table.values()], ",")
        written.append(path)
    return written
