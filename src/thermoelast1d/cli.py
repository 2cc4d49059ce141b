"""Command-line surface.

Subcommands: run, energy-audit, stability, eps-cauchy, time-shift,
rough-data, mms, constants.  Exit status: 0 on success, 1 when an
experiment's verdict has a hard failure, 2 on configuration or usage
errors.  THERMOELAST1D_OUTPUT_ROOT sets the default output root.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import math
import os
import sys

import numpy as np

from . import bounds, experiments
from .config import parse_config
from .errors import ConfigError, ContractError, Thermoelast1dError
from .grid import Grid, gn_constants
from .initial_data import ROUGH_KINDS
from .materials import KIND_TABULATED, KINDS, make_material
from .output import (SnapshotWriter, export_trajectory, make_output_dir, write_gnuplot,
                     write_report, write_svg_series)
from .state import SolverConfig, eps_grid_problem, whole_steps
from .stepping import run_eps, run_limit

OUTPUT_ROOT_ENV = "THERMOELAST1D_OUTPUT_ROOT"

#: the material kinds a flag can name (a tabulated one needs a config)
_MATERIALS = tuple(k for k in KINDS if k != KIND_TABULATED)


def _output_root() -> str:
    return os.environ.get(OUTPUT_ROOT_ENV, ".")


def _rough_levels(kw, params) -> None:
    if "n_cells" in kw:
        n = kw.pop("n_cells")
        kw["n_levels"] = (n, 2 * n, 4 * n)


def _check_eps_grid(epsilon, n_cells) -> None:
    problem = eps_grid_problem(epsilon, n_cells)
    if problem:
        raise ConfigError(f"bad --n-cells {n_cells}: {problem}")


def _check_eps_ladder(kw, params) -> None:
    ladder = params["eps_ladder"]
    if any(e2 >= e1 for e1, e2 in zip(ladder, ladder[1:])):
        raise ConfigError(f"bad --eps-ladder {ladder}: must be strictly decreasing")
    _check_eps_grid(ladder[0], params["n_cells"])


def _check_time_shift(kw, params) -> None:
    _check_eps_grid(params["epsilon"], params["n_cells"])
    dt, t_end = params["dt"], params["t_end"]
    n_steps = whole_steps(t_end, dt)
    if n_steps is None:
        raise ConfigError(f"bad --t-end {t_end!r}: not a multiple of --dt {dt!r}")
    for shift in params["shifts"]:
        k = whole_steps(shift, dt)
        if k is None or k > n_steps:
            raise ConfigError(f"bad --shifts item {shift!r}: not a multiple of --dt {dt!r} "
                              f"up to --t-end {t_end!r}")
    grid = Grid(*experiments.OMEGA, params["n_cells"])
    SolverConfig(dt=dt, t_end=t_end).check_cfl(grid)


_N_CELLS = ("--n-cells", dict(type=int))
_T_END = ("--t-end", dict(type=float))
_LIST_FLAGS = ("--eps-ladder", "--shifts")

#: experiment subcommand -> (help, flags beyond --output-dir/--material/--plot,
#: hook(kwargs, parameters) that checks or adapts the call before the report
#: directory is made); each runs ``experiments.exp_<name>``
_EXPERIMENTS = {
    "energy-audit": ("energy identity drift and refinement study", (_N_CELLS, _T_END), None),
    "stability": ("continuous dependence under initial perturbations",
                  (_N_CELLS, _T_END), None),
    "eps-cauchy": ("regularization-parameter convergence ladder", (
        _N_CELLS, _T_END,
        ("--eps-ladder", dict(type=str, help="comma list, strictly decreasing")),
    ), _check_eps_ladder),
    "time-shift": ("time-shift stability against the explicit constant", (
        ("--epsilon", dict(type=float, default=1e-2)),
        ("--shifts", dict(type=str, help="comma list of time shifts")),
        ("--dt", dict(type=float)),
        _T_END, _N_CELLS,
    ), _check_time_shift),
    "rough-data": ("low-regularity data refinement study", (
        ("--n-cells", dict(type=int, help=(
            "coarsest level N of the doubling ladder N, 2N, 4N (default 256)"))),
        _T_END,
        ("--kind", dict(default="step_strain", choices=ROUGH_KINDS)),
    ), _rough_levels),
    "mms": ("manufactured-solution convergence orders", (), None),
}


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
    runp.add_argument("--plot", choices=("gnuplot", "svg"),
                      help="emit plot artifacts: gnuplot data+script, or a standalone SVG")

    for name, (helptext, flags, _) in _EXPERIMENTS.items():
        ep = sub.add_parser(name, help=helptext)
        ep.add_argument("--output-dir", help="directory for the report")
        ep.add_argument("--material", default="identity", choices=_MATERIALS)
        ep.add_argument("--plot", choices=("svg",),
                        help="emit a standalone SVG of the report's first series")
        for flag, kwargs in flags:
            ep.add_argument(flag, **kwargs)

    cp = sub.add_parser("constants", help="print the stability-constants ledger")
    cp.add_argument("--eta", type=float, default=0.5)
    cp.add_argument("--K", type=float, default=1.0)
    cp.add_argument("--T", type=float, default=1.0)
    cp.add_argument("--omega", type=str, default="0,1",
                    help="interval endpoints 'a,b'")
    cp.add_argument("--material", default="identity", choices=_MATERIALS)
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
    try:
        init = cfg.build_initial_state(grid)
    except ContractError as exc:  # a value the builder refuses, as teeth = 0
        raise ConfigError(f"initial_data: {exc}") from None
    solver_cfg.check_cfl(grid)  # a ConfigError, reported by main like a parse error
    outdir = args.output_dir or os.path.join(_output_root(), cfg.output.directory)
    make_output_dir(outdir)  # an unusable path fails before any step is taken

    # the writer formats the kept states as the run makes them, so the
    # trajectory keeps only its end states
    n_steps = solver_cfg.n_steps()
    writer = SnapshotWriter(outdir, cfg.output.formats, grid, n_steps, cfg.output.record_every)
    try:
        run = run_eps if solver_cfg.epsilon > 0.0 else run_limit
        traj = run(init, material, solver_cfg, grid, recorder=writer, record_every=n_steps)
        written = export_trajectory(traj, outdir, cfg.output.formats, snapshots=writer)
    finally:
        writer.close()
    written += _maybe_plot(args, traj, outdir)
    last = traj.records[-1]
    first = traj.records[0]
    print(f"run complete: {len(traj.records) - 1} steps to t = {last.t:g}")
    print(f"  E(0) = {first.energy:.12g}   E(T) = {last.energy:.12g}   "
          f"drift = {last.energy - first.energy:+.3e}")
    print(f"  min Theta = {min(traj.record_series('theta_min').tolist()):.6g}   "
          f"int_0^T |Theta_x|^2 = {last.dissipation_accum:.6g}")
    print(f"  wrote {len(written)} files under {outdir}")
    return 0


def _maybe_plot(args, traj, outdir) -> list:
    """The plot files of ``--plot`` written under ``outdir``: their paths."""
    if args.plot == "gnuplot":
        return write_gnuplot(traj, outdir)
    if args.plot == "svg":
        t = traj.record_times
        return [write_svg_series(
            {
                "E": traj.record_series("energy"),
                "int_Theta": traj.record_series("theta_mass"),
                "min_Theta": traj.record_series("theta_min"),
                "max_Theta": traj.record_series("theta_max"),
            },
            t,
            os.path.join(outdir, "series.svg"),
        )]
    return []


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
    if n_cells is not None:
        try:
            Grid(0.0, 1.0, n_cells)  # the grid owns the n_cells rule
        except ContractError as exc:
            errors.append(f"bad --n-cells {n_cells}: {exc}")
    for key in _POSITIVE_FLAGS:
        value = getattr(args, key, None)
        if value is not None and not 0.0 < value < math.inf:
            errors.append(f"bad --{key.replace('_', '-')} {value!r}: must be finite and > 0")
    if errors:
        raise ConfigError(errors)


def _cmd_experiment(args) -> int:
    name = args.command
    outdir = args.output_dir or os.path.join(_output_root(), f"report-{name}")
    _, flags, hook = _EXPERIMENTS[name]
    run = getattr(experiments, "exp_" + name.replace("-", "_"))
    # every flag is checked before the report directory is made
    _check_ranges(args)
    kw = {"material": make_material(args.material)}
    for flag, _ in flags:
        key = flag[2:].replace("-", "_")
        value = getattr(args, key)
        if value is not None and value != "":
            kw[key] = _float_list(flag, value) if flag in _LIST_FLAGS else value
    if hook is not None:
        defaults = {k: p.default for k, p in inspect.signature(run).parameters.items()}
        hook(kw, {**defaults, **kw})
    make_output_dir(outdir)
    report = run(**kw)

    print(report.summary())
    written = write_report(report, outdir)
    if args.plot == "svg" and report.series:
        first = next(iter(report.series.values()))
        cols = list(first.keys())
        if len(cols) >= 2:
            written.append(write_svg_series(
                {cols[1]: np.atleast_1d(first[cols[1]])},
                np.atleast_1d(first[cols[0]]),
                os.path.join(outdir, "series.svg"),
            ))
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
    try:
        ledger = bounds.build_ledger(args.eta, args.K, args.T, grid, material)
        gn = gn_constants(grid)
        g1_half = bounds.gamma1(0.5, args.K, gn.c1, gn.c2, material.c3, material.c4)
        values = [getattr(ledger, f.name) for f in dataclasses.fields(ledger)] + [g1_half]
        finite = all(math.isfinite(v) for v in values if isinstance(v, float))
    except OverflowError:  # a float power out of range
        finite = False
    if not finite:
        raise ConfigError(f"a ledger constant is not finite for --omega {args.omega!r}, "
                          f"--eta {args.eta!r}, --K {args.K!r}, --T {args.T!r}")
    print(ledger.describe())
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
