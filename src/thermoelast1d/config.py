"""Run configuration: sectioned key = value text, strict parsing.

Format (see FORMATS.md for byte-level examples)::

    [grid]
    a = 0.0
    b = 1.0
    n_cells = 256

    [solver]
    epsilon = 0.01
    dt = auto            # or a number; auto = largest CFL-safe divisor of t_end
    t_end = 1.0
    scheme = imex1

Full-line comments start with ``#`` or ``;``.  Parsing collects *every*
problem (syntax with line numbers, semantic with field paths) before
failing; unknown keys and duplicate keys are rejected with locations.
Configs round-trip losslessly through :func:`serialize_config`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .errors import ConfigError
from .grid import Grid
from .initial_data import (
    equilibrium,
    random_l2_theta,
    random_smooth,
    sawtooth_strain,
    standing_wave,
    step_strain,
)
from .materials import Material, make_material
from .state import SCHEMES, SolverConfig, State, cfl_dt, whole_steps

_FORMATS = ("csv", "json_lines")

_INITIAL_KINDS: Dict[str, Tuple[str, ...]] = {
    "equilibrium": ("theta_bar",),
    "standing_wave": (
        "amplitude", "mode", "v_amplitude", "v_mode",
        "theta_base", "theta_amplitude", "theta_mode",
    ),
    "random_smooth": (
        "seed", "u_amplitude", "v_amplitude", "theta_floor",
        "theta_amplitude", "n_modes",
    ),
    "step_strain": ("jump", "height", "v_amplitude", "theta_bar"),
    "sawtooth_strain": ("teeth", "amplitude", "theta_bar"),
    "random_L2_theta": ("seed", "amplitude", "theta_base"),
}

_INT_PARAMS = {"mode", "v_mode", "theta_mode", "seed", "n_modes", "teeth"}


@dataclass(frozen=True)
class GridSpec:
    a: float = 0.0
    b: float = 1.0
    n_cells: int = 128


@dataclass(frozen=True)
class MaterialSpec:
    kind: str = "identity"
    rho_floor: float = 1e-8
    table: Optional[str] = None


@dataclass(frozen=True)
class SolverSpec:
    epsilon: float = 0.0
    dt: Optional[float] = None  # None = auto (largest CFL-safe divisor of t_end)
    t_end: float = 1.0
    scheme: str = "imex1"
    cfl_safety: float = 0.5
    positivity_tol: float = 1e-12


@dataclass(frozen=True)
class InitialDataSpec:
    kind: str = "standing_wave"
    params: Tuple[Tuple[str, float], ...] = ()

    def as_dict(self) -> Dict[str, float]:
        return dict(self.params)


@dataclass(frozen=True)
class OutputSpec:
    record_every: int = 1
    directory: str = "out"
    formats: Tuple[str, ...] = ("csv",)


@dataclass(frozen=True)
class RunConfig:
    grid: GridSpec = GridSpec()
    material: MaterialSpec = MaterialSpec()
    solver: SolverSpec = SolverSpec()
    initial_data: InitialDataSpec = InitialDataSpec()
    output: OutputSpec = OutputSpec()

    # -- builders ----------------------------------------------------------
    def build_grid(self) -> Grid:
        return Grid(self.grid.a, self.grid.b, self.grid.n_cells)

    def build_material(self) -> Material:
        return make_material(
            self.material.kind,
            rho_floor=self.material.rho_floor,
            table_path=self.material.table,
        )

    def resolve_dt(self, grid: Grid) -> float:
        if self.solver.dt is not None:
            return self.solver.dt
        return cfl_dt(grid, self.solver.t_end, self.solver.cfl_safety)

    def build_solver_config(self, grid: Grid) -> SolverConfig:
        return SolverConfig(
            dt=self.resolve_dt(grid),
            t_end=self.solver.t_end,
            epsilon=self.solver.epsilon,
            scheme=self.solver.scheme,
            cfl_safety=self.solver.cfl_safety,
            positivity_tol=self.solver.positivity_tol,
        )

    def build_initial_state(self, grid: Grid) -> State:
        kind = self.initial_data.kind
        params = self.initial_data.as_dict()
        builders = {
            "equilibrium": equilibrium,
            "standing_wave": standing_wave,
            "random_smooth": random_smooth,
            "step_strain": step_strain,
            "sawtooth_strain": sawtooth_strain,
            "random_L2_theta": random_l2_theta,
        }
        typed = {
            k: (int(v) if k in _INT_PARAMS else v) for k, v in params.items()
        }
        return builders[kind](grid, **typed)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_SCHEMA = {
    "grid": {"a": float, "b": float, "n_cells": int},
    "material": {"kind": str, "rho_floor": float, "table": str},
    "solver": {
        "epsilon": float, "dt": float, "t_end": float, "scheme": str,
        "cfl_safety": float, "positivity_tol": float,
    },
    "initial_data": None,  # open schema, validated per kind
    "output": {"record_every": int, "directory": str, "formats": str},
}

_DEPRECATED_KEYS = {("solver", "newton_tol"), ("solver", "newton_max_iters")}  # ignored


def parse_config(text: str) -> RunConfig:
    errors = []
    section = None
    seen: Dict[Tuple[str, str], int] = {}
    raw: Dict[str, Dict[str, str]] = {name: {} for name in _SCHEMA}

    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith(("#", ";")):
            continue
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                errors.append(f"line {lineno}: malformed section header {stripped!r}")
                section = None
                continue
            name = stripped[1:-1].strip()
            if name not in _SCHEMA:
                errors.append(f"line {lineno}: unknown section [{name}]")
                section = None
            else:
                section = name
            continue
        if "=" not in stripped:
            errors.append(f"line {lineno}: expected 'key = value', got {stripped!r}")
            continue
        if section is None:
            errors.append(f"line {lineno}: key outside any section")
            continue
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        prev = seen.get((section, key))
        if prev is not None:
            errors.append(
                f"line {lineno}: duplicate key '{key}' in [{section}] "
                f"(first set on line {prev})"
            )
            continue
        seen[(section, key)] = lineno
        schema = _SCHEMA[section]
        if (section, key) in _DEPRECATED_KEYS:
            warnings.warn(f"line {lineno}: '{section}.{key}' is deprecated and "
                          "ignored (no shipped scheme iterates)", DeprecationWarning,
                          stacklevel=2)
            continue
        if schema is not None and key not in schema:
            errors.append(f"line {lineno}: unknown key '{section}.{key}'")
            continue
        raw[section][key] = value

    def take(section, key, conv, default, allow_auto=False):
        if key not in raw[section]:
            return default
        sval = raw[section][key]
        if allow_auto and sval == "auto":
            return None
        try:
            return conv(sval)
        except ValueError:
            errors.append(
                f"{section}.{key}: cannot parse {sval!r} as {conv.__name__}"
            )
            return default

    grid = GridSpec(
        a=take("grid", "a", float, 0.0),
        b=take("grid", "b", float, 1.0),
        n_cells=take("grid", "n_cells", int, 128),
    )
    material = MaterialSpec(
        kind=take("material", "kind", str, "identity"),
        rho_floor=take("material", "rho_floor", float, 1e-8),
        table=take("material", "table", str, None),
    )
    solver = SolverSpec(
        epsilon=take("solver", "epsilon", float, 0.0),
        dt=take("solver", "dt", float, None, allow_auto=True),
        t_end=take("solver", "t_end", float, 1.0),
        scheme=take("solver", "scheme", str, "imex1"),
        cfl_safety=take("solver", "cfl_safety", float, 0.5),
        positivity_tol=take("solver", "positivity_tol", float, 1e-12),
    )
    kind = raw["initial_data"].pop("kind", "standing_wave")
    params = []
    if kind not in _INITIAL_KINDS:
        errors.append(
            f"initial_data.kind: unknown kind {kind!r}; "
            f"choose from {sorted(_INITIAL_KINDS)}"
        )
    else:
        allowed = _INITIAL_KINDS[kind]
        for key, sval in raw["initial_data"].items():
            if key not in allowed:
                errors.append(
                    f"initial_data.{key}: not valid for kind {kind!r} "
                    f"(allowed: {', '.join(allowed)})"
                )
                continue
            try:
                params.append((key, float(sval)))
            except ValueError:
                errors.append(f"initial_data.{key}: cannot parse {sval!r} as float")
    initial = InitialDataSpec(kind=kind, params=tuple(sorted(params)))
    formats = tuple(
        s.strip() for s in take("output", "formats", str, "csv").split(",") if s.strip()
    )
    output = OutputSpec(
        record_every=take("output", "record_every", int, 1),
        directory=take("output", "directory", str, "out"),
        formats=formats,
    )

    cfg = RunConfig(grid=grid, material=material, solver=solver,
                    initial_data=initial, output=output)
    errors.extend(_semantic_errors(cfg))
    if errors:
        raise ConfigError(errors)
    return cfg


def _semantic_errors(cfg: RunConfig):
    errs = []
    g, m, s, o = cfg.grid, cfg.material, cfg.solver, cfg.output
    if not g.b > g.a:
        errs.append(f"grid: requires b > a, got a={g.a}, b={g.b}")
    if g.n_cells < 2:
        errs.append(f"grid.n_cells must be >= 2, got {g.n_cells}")
    if m.kind not in ("identity", "log1p", "rational_saturating", "user_tabulated"):
        errs.append(f"material.kind: unknown kind {m.kind!r}")
    if m.kind == "user_tabulated" and not m.table:
        errs.append("material.table is required for kind user_tabulated")
    if not m.rho_floor > 0:
        errs.append(f"material.rho_floor must be > 0, got {m.rho_floor}")
    if s.epsilon < 0:
        errs.append(f"solver.epsilon must be >= 0, got {s.epsilon}")
    if s.dt is not None and not s.dt > 0:
        errs.append(f"solver.dt must be > 0 (or auto), got {s.dt}")
    if not 0 < s.t_end < math.inf:
        errs.append(f"solver.t_end must be finite and > 0, got {s.t_end}")
    elif s.dt is not None and s.dt > 0:
        if s.dt > s.t_end:
            errs.append(f"solver.dt={s.dt} exceeds solver.t_end={s.t_end}")
        elif whole_steps(s.t_end, s.dt) is None:
            errs.append(f"solver.dt={s.dt} does not divide solver.t_end={s.t_end}")
    if s.scheme not in SCHEMES:
        errs.append(f"solver.scheme must be one of {SCHEMES}, got {s.scheme!r}")
    if not s.cfl_safety > 0:
        errs.append(f"solver.cfl_safety must be > 0, got {s.cfl_safety}")
    if s.positivity_tol < 0:
        errs.append(f"solver.positivity_tol must be >= 0, got {s.positivity_tol}")
    if o.record_every < 1:
        errs.append(f"output.record_every must be >= 1, got {o.record_every}")
    for f in o.formats:
        if f not in _FORMATS:
            errs.append(f"output.formats: unknown format {f!r} (have {_FORMATS})")
    if not o.formats:
        errs.append("output.formats must name at least one format")
    return errs


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form; parse(serialize(cfg)) == cfg."""

    def num(x):
        if isinstance(x, float):
            return repr(x)
        return str(x)

    lines = ["[grid]"]
    lines += [f"a = {num(cfg.grid.a)}", f"b = {num(cfg.grid.b)}",
              f"n_cells = {cfg.grid.n_cells}", ""]
    lines += ["[material]", f"kind = {cfg.material.kind}",
              f"rho_floor = {num(cfg.material.rho_floor)}"]
    if cfg.material.table:
        lines.append(f"table = {cfg.material.table}")
    lines.append("")
    s = cfg.solver
    lines += [
        "[solver]",
        f"epsilon = {num(s.epsilon)}",
        f"dt = {'auto' if s.dt is None else num(s.dt)}",
        f"t_end = {num(s.t_end)}",
        f"scheme = {s.scheme}",
        f"cfl_safety = {num(s.cfl_safety)}",
        f"positivity_tol = {num(s.positivity_tol)}",
        "",
        "[initial_data]",
        f"kind = {cfg.initial_data.kind}",
    ]
    for key, val in cfg.initial_data.params:
        lines.append(f"{key} = {num(val)}")
    lines += [
        "",
        "[output]",
        f"record_every = {cfg.output.record_every}",
        f"directory = {cfg.output.directory}",
        f"formats = {','.join(cfg.output.formats)}",
        "",
    ]
    return "\n".join(lines)
