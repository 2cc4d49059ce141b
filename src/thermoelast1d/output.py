"""Result persistence: diagnostics CSV, field snapshots, plot emission.

All float formatting uses %.17g, which round-trips IEEE double exactly;
column order is fixed (documented in FORMATS.md) so diffs across runs and
versions stay meaningful.  Writes are bit-stable across reruns.

The CSV writers format a block of at most ``ROW_BLOCK`` rows with one ``%``
over a row template.  ``%`` converts each value alone with ``float``, so the
bytes equal one ``"%.17g" % float(x)`` per value.  A snapshot template holds
its t (formatted once per file) and x (once per grid) as literal text, safe
as a ``%.17g`` string never contains ``%``.  Write failures name the path.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import fields
from typing import Dict, Sequence

import numpy as np

from .errors import ContractError, Thermoelast1dError
from .state import DiagnosticsRecord, Trajectory

#: diagnostics.csv header, as in FORMATS.md
DIAG_COLUMNS = tuple(
    "t,E,int_Theta,theta_min,theta_max,y,y_valid,thetax_l2sq,thetaxx_l2sq,"
    "vx_l2sq,vxx_l2sq,uxx_l2sq,diss_thetax,diss_eps".split(",")
)

_G = "%.17g"
#: most rows formatted by one ``%`` (one write).  Small on purpose: on run-large,
#: 64 or more rows per block stranded a finished run's freed states (13 MiB) in
#: the C heap and raised the next run's peak RSS; 16 or 32 rows, as fast, did not.
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


def export_trajectory(traj: Trajectory, directory, formats: Sequence[str] = ("csv",)):
    """Write per-step diagnostics plus field snapshots.

    csv:        diagnostics.csv + one snapshot_NNNNNN.csv per recorded time
    json_lines: diagnostics.csv + snapshots.jsonl (streamable, one snapshot
                per line)

    Returns the list of written paths.
    """
    for f in formats:
        if f not in FORMATS:
            raise ContractError(f"unknown export format {f!r}")
    make_output_dir(directory)
    written = []

    diag_path = os.path.join(directory, "diagnostics.csv")
    with _writing(diag_path) as fh:
        fh.write(",".join(DIAG_COLUMNS) + "\n")
        _write_columns(fh, [traj.record_series(f.name) for f in fields(DiagnosticsRecord)], ",")
    written.append(diag_path)

    if "csv" in formats:
        # x_rows[j]: node j's row after its t; "%%" stays as "%" of a value slot
        x = traj.grid.nodes.tolist()
        x_rows = ((_G + ",%%.17g,%%.17g,%%.17g\n") * len(x) % tuple(x)).splitlines(True)
        for idx, s in enumerate(traj.states):
            path = os.path.join(directory, f"snapshot_{idx:06d}.csv")
            prefix = _G % s.t + ","
            vals = np.column_stack((s.v.values, s.u.values, s.theta.values)).ravel().tolist()
            with _writing(path) as fh:
                fh.write("t,x,v,u,theta\n")
                for lo in range(0, len(x), ROW_BLOCK):
                    template = prefix + prefix.join(x_rows[lo:lo + ROW_BLOCK])
                    fh.write(template % tuple(vals[3 * lo:3 * (lo + ROW_BLOCK)]))
            written.append(path)
    if "json_lines" in formats:
        path = os.path.join(directory, "snapshots.jsonl")
        with _writing(path) as fh:
            for s in traj.states:
                fh.write(json.dumps({"t": s.t, "v": s.v.values.tolist(), "u": s.u.values.tolist(),
                                     "theta": s.theta.values.tolist()}) + "\n")
        written.append(path)
    return written


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
        _write_columns(fh, [traj.record_series(f.name) for f in fields(DiagnosticsRecord)], " ")
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
