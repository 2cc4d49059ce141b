"""Command-line surface.

Subcommands: run, energy-audit, stability, eps-cauchy, time-shift,
rough-data, mms, constants.  Exit status: 0 on success, 1 when an
experiment's verdict has a hard failure, 2 on configuration or usage
errors.  THERMOELAST1D_OUTPUT_ROOT sets the default output root.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import bounds, experiments
from .config import parse_config
from .errors import ConfigError, Thermoelast1dError
from .grid import Grid, gn_constants
from .materials import make_material
from .output import (export_trajectory, make_output_dir, write_gnuplot, write_report,
                     write_svg_series)
from .stepping import run_eps, run_limit

OUTPUT_ROOT_ENV = "THERMOELAST1D_OUTPUT_ROOT"


def _output_root() -> str:
    return os.environ.get(OUTPUT_ROOT_ENV, ".")


def _add_plot_flag(p):
    p.add_argument(
        "--plot",
        choices=("gnuplot", "svg"),
        help="emit plot artifacts: gnuplot data+script, or a standalone SVG",
    )


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="thermoelast1d",
        description=(
            "1D nonlinear thermoelasticity: simulation runs and "
            "well-posedness verification experiments"
        ),
    )
    sub = p.add_subparsers(dest="command")

    runp = sub.add_parser("run", help="execute one simulation from a config file")
    runp.add_argument("--config", required=True, help="path to a run config")
    runp.add_argument("--output-dir", help="override [output] directory")
    _add_plot_flag(runp)

    for name, helptext in (
        ("energy-audit", "energy identity drift and refinement study"),
        ("stability", "continuous dependence under initial perturbations"),
        ("eps-cauchy", "regularization-parameter convergence ladder"),
        ("time-shift", "time-shift stability against the explicit constant"),
        ("rough-data", "low-regularity data refinement study"),
        ("mms", "manufactured-solution convergence orders"),
    ):
        ep = sub.add_parser(name, help=helptext)
        ep.add_argument("--output-dir", help="directory for the report")
        ep.add_argument("--material", default="identity",
                        choices=("identity", "log1p", "rational_saturating"))
        _add_plot_flag(ep)
        if name in ("energy-audit", "stability", "eps-cauchy", "rough-data"):
            ep.add_argument("--n-cells", type=int, help=(
                "coarsest level N of the doubling ladder N, 2N, 4N (default 256)"
                if name == "rough-data" else None))
            ep.add_argument("--t-end", type=float)
        if name == "eps-cauchy":
            ep.add_argument("--eps-ladder", type=str,
                            help="comma list, strictly decreasing")
        if name == "time-shift":
            ep.add_argument("--epsilon", type=float, default=1e-2)
            ep.add_argument("--shifts", type=str, help="comma list of time shifts")
            ep.add_argument("--dt", type=float)
            ep.add_argument("--t-end", type=float)
            ep.add_argument("--n-cells", type=int)
        if name == "rough-data":
            ep.add_argument("--kind", default="step_strain",
                            choices=("step_strain", "sawtooth_strain",
                                     "random_L2_theta"))

    cp = sub.add_parser("constants", help="print the stability-constants ledger")
    cp.add_argument("--eta", type=float, default=0.5)
    cp.add_argument("--K", type=float, default=1.0)
    cp.add_argument("--T", type=float, default=1.0)
    cp.add_argument("--omega", type=str, default="0,1",
                    help="interval endpoints 'a,b'")
    cp.add_argument("--material", default="identity",
                    choices=("identity", "log1p", "rational_saturating"))
    return p


def _cmd_run(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = parse_config(fh.read())
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    grid = cfg.build_grid()
    material = cfg.build_material()
    solver_cfg = cfg.build_solver_config(grid)
    init = cfg.build_initial_state(grid)
    solver_cfg.check_cfl(grid)  # a ConfigError, reported by main like a parse error
    outdir = args.output_dir or os.path.join(_output_root(), cfg.output.directory)
    make_output_dir(outdir)  # an unusable path fails before any step is taken

    if solver_cfg.epsilon > 0.0:
        traj = run_eps(init, material, solver_cfg, grid,
                       record_every=cfg.output.record_every)
    else:
        traj = run_limit(init, material, solver_cfg, grid,
                         record_every=cfg.output.record_every)

    written = export_trajectory(traj, outdir, cfg.output.formats)
    _maybe_plot(args, traj, outdir)
    last = traj.records[-1]
    first = traj.records[0]
    print(f"run complete: {len(traj.records) - 1} steps to t = {last.t:g}")
    print(f"  E(0) = {first.energy:.12g}   E(T) = {last.energy:.12g}   "
          f"drift = {last.energy - first.energy:+.3e}")
    print(f"  min Theta = {min(r.theta_min for r in traj.records):.6g}   "
          f"int_0^T |Theta_x|^2 = {last.dissipation_accum:.6g}")
    print(f"  wrote {len(written)} files under {outdir}")
    return 0


def _maybe_plot(args, traj, outdir):
    if getattr(args, "plot", None) == "gnuplot":
        write_gnuplot(traj, outdir)
    elif getattr(args, "plot", None) == "svg":
        t = traj.record_times
        write_svg_series(
            {
                "E": traj.record_series("energy"),
                "int_Theta": traj.record_series("theta_mass"),
                "min_Theta": traj.record_series("theta_min"),
                "max_Theta": traj.record_series("theta_max"),
            },
            t,
            os.path.join(outdir, "series.svg"),
        )


#: float flags whose value must be finite and > 0
_POSITIVE_FLAGS = ("t_end", "dt", "epsilon", "eta", "K", "T")


def _float_list(flag: str, text: str) -> tuple:
    try:
        values = tuple(float(item) for item in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad {flag} {text!r}: {exc}") from None
    bad = [f"bad {flag} {text!r}: item {v!r} must be finite and > 0"
           for v in values if not 0.0 < v < math.inf]
    if bad:
        raise ConfigError(bad)
    return values


def _check_ranges(args) -> None:
    """Refuse every out-of-range numeric flag, naming the flag and its value."""
    errors = []
    n_cells = getattr(args, "n_cells", None)
    if n_cells is not None and n_cells < 2:
        errors.append(f"bad --n-cells {n_cells}: must be >= 2")
    for key in _POSITIVE_FLAGS:
        value = getattr(args, key, None)
        if value is not None and not 0.0 < value < math.inf:
            errors.append(f"bad --{key.replace('_', '-')} {value!r}: must be finite and > 0")
    if errors:
        raise ConfigError(errors)


def _kwargs_common(args):
    _check_ranges(args)
    kw = {}
    for flag, key in (("--eps-ladder", "eps_ladder"), ("--shifts", "shifts")):
        if getattr(args, key, None):
            kw[key] = _float_list(flag, getattr(args, key))
    if getattr(args, "n_cells", None) is not None:
        kw["n_cells"] = args.n_cells
    if getattr(args, "t_end", None) is not None:
        kw["t_end"] = args.t_end
    if getattr(args, "material", None):
        kw["material"] = make_material(args.material)
    return kw


def _cmd_experiment(args) -> int:
    name = args.command
    outdir = args.output_dir or os.path.join(_output_root(), f"report-{name}")
    kw = _kwargs_common(args)  # a bad list fails before the directory is made
    make_output_dir(outdir)
    if name == "energy-audit":
        report = experiments.exp_energy_audit(**kw)
    elif name == "stability":
        report = experiments.exp_stability(**kw)
    elif name == "eps-cauchy":
        report = experiments.exp_eps_cauchy(**kw)
    elif name == "time-shift":
        if args.dt is not None:
            kw["dt"] = args.dt
        kw["epsilon"] = args.epsilon
        report = experiments.exp_time_shift(**kw)
    elif name == "rough-data":
        if "n_cells" in kw:
            n = kw.pop("n_cells")
            kw["n_levels"] = (n, 2 * n, 4 * n)
        kw["kind"] = args.kind
        report = experiments.exp_rough_data(**kw)
    elif name == "mms":
        report = experiments.exp_mms(**kw)
    else:  # pragma: no cover
        raise AssertionError(name)

    print(report.summary())
    written = write_report(report, outdir)
    if getattr(args, "plot", None) == "svg" and report.series:
        first = next(iter(report.series.values()))
        cols = list(first.keys())
        if len(cols) >= 2:
            write_svg_series(
                {cols[1]: np.atleast_1d(first[cols[1]])},
                np.atleast_1d(first[cols[0]]),
                os.path.join(outdir, "series.svg"),
            )
    print(f"report written under {outdir} ({len(written)} files)")
    return 0 if report.passed else 1


def _cmd_constants(args) -> int:
    _check_ranges(args)
    try:
        a_str, b_str = args.omega.split(",")
        grid = Grid(float(a_str), float(b_str), 8)
    except (ValueError, Thermoelast1dError) as exc:
        print(f"config error: bad --omega {args.omega!r}: {exc}", file=sys.stderr)
        return 2
    material = make_material(args.material)
    ledger = bounds.build_ledger(args.eta, args.K, args.T, grid, material)
    print(ledger.describe())
    gn = gn_constants(grid)
    g1_half = bounds.gamma1(0.5, args.K, gn.c1, gn.c2, material.c3, material.c4)
    print(f"  Gamma1(1/2, K) = {g1_half:.12g}   (Gronwall building block)")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "constants":
            return _cmd_constants(args)
        return _cmd_experiment(args)
    except ConfigError as exc:
        for e in exc.errors:
            print(f"config error: {e}", file=sys.stderr)
        return 2
    except Thermoelast1dError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
