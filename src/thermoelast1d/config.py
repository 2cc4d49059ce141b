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

import inspect
import math
import warnings
from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from .errors import ConfigError, ContractError
from .grid import Grid
from .initial_data import KINDS as _INITIAL_KINDS
from .materials import KIND_TABULATED, KINDS as _MATERIAL_KINDS, Material, make_material
from .output import FORMATS
from .state import (SolverConfig, State, cfl_dt, eps_grid_problem, solver_problems,
                    whole_steps)


def _initial_keys(kind: str) -> Dict[str, bool]:
    """The config keys of an initial-data kind, each with whether it takes an
    int: the keyword parameters of the kind's builder."""
    params = list(inspect.signature(_INITIAL_KINDS[kind]).parameters.values())[1:]
    return {p.name: p.annotation in (int, "int") for p in params}


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
        # SolverSpec's fields are SolverConfig's, with dt resolved
        return SolverConfig(**{**vars(self.solver), "dt": self.resolve_dt(grid)})

    def build_initial_state(self, grid: Grid) -> State:
        ints = _initial_keys(self.initial_data.kind)
        params = {k: int(v) if ints[k] else v for k, v in self.initial_data.params}
        return _INITIAL_KINDS[self.initial_data.kind](grid, **params)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def _name_list(text: str) -> Tuple[str, ...]:
    return tuple(s.strip() for s in text.split(",") if s.strip())


#: section -> key -> converter of the value text; each key's default is its Spec field's
_SCHEMA = {
    "grid": {"a": float, "b": float, "n_cells": int},
    "material": {"kind": str, "rho_floor": float, "table": str},
    "solver": {
        "epsilon": float, "dt": float, "t_end": float, "scheme": str,
        "cfl_safety": float, "positivity_tol": float,
    },
    "initial_data": None,  # open schema, validated per kind
    "output": {"record_every": int, "directory": str, "formats": _name_list},
}

_DEFAULTS = RunConfig()
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

    specs = {}
    for section, schema in _SCHEMA.items():
        if schema is None:
            specs[section] = _initial_data_spec(raw[section], errors)
            continue
        values = {}
        for key, conv in schema.items():
            sval = raw[section].get(key)
            if sval is None:
                continue
            try:
                values[key] = None if (key, sval) == ("dt", "auto") else conv(sval)
            except ValueError:
                errors.append(f"{section}.{key}: cannot parse {sval!r} as {conv.__name__}")
        specs[section] = replace(getattr(_DEFAULTS, section), **values)

    cfg = RunConfig(**specs)
    errors.extend(_semantic_errors(cfg))
    if errors:
        raise ConfigError(errors)
    return cfg


def _initial_data_spec(raw: Dict[str, str], errors) -> InitialDataSpec:
    kind = raw.pop("kind", _DEFAULTS.initial_data.kind)
    if kind not in _INITIAL_KINDS:
        errors.append(
            f"initial_data.kind: unknown kind {kind!r}; "
            f"choose from {sorted(_INITIAL_KINDS)}"
        )
        return InitialDataSpec(kind=kind)
    allowed = _initial_keys(kind)
    params = []
    for key, sval in raw.items():
        if key not in allowed:
            errors.append(
                f"initial_data.{key}: not valid for kind {kind!r} "
                f"(allowed: {', '.join(allowed)})"
            )
            continue
        try:
            value = float(sval)
        except ValueError:
            errors.append(f"initial_data.{key}: cannot parse {sval!r} as float")
            continue
        if not (value.is_integer() if allowed[key] else math.isfinite(value)):
            want = "int" if allowed[key] else "finite float"
            errors.append(f"initial_data.{key}: cannot parse {sval!r} as {want}")
            continue
        params.append((key, value))
    return InitialDataSpec(kind=kind, params=tuple(sorted(params)))


def _semantic_errors(cfg: RunConfig):
    errs = []
    m, s, o = cfg.material, cfg.solver, cfg.output
    try:
        grid = cfg.build_grid()
    except ContractError as exc:
        grid = None
        errs.append(str(exc))
    if m.kind not in _MATERIAL_KINDS:
        errs.append(f"material.kind: unknown kind {m.kind!r}")
    if m.kind == KIND_TABULATED and not m.table:
        errs.append("material.table is required for kind user_tabulated")
    if not m.rho_floor > 0:
        errs.append(f"material.rho_floor must be > 0, got {m.rho_floor}")
    solver = solver_problems(**vars(s))
    errs.extend(solver)
    cells = eps_grid_problem(s.epsilon, grid.n_cells) if grid is not None else None
    if cells:
        errs.append(f"grid.n_cells: {cells}")
    if not solver and s.dt is not None and whole_steps(s.t_end, s.dt) is None:
        errs.append(f"solver.dt={s.dt} does not divide solver.t_end={s.t_end}")
    elif not solver and s.dt is None and grid is not None:
        try:
            cfg.resolve_dt(grid)  # auto dt: a step count that a float tells apart
        except ConfigError as exc:
            errs.extend(exc.errors)
    if o.record_every < 1:
        errs.append(f"output.record_every must be >= 1, got {o.record_every}")
    for f in o.formats:
        if f not in FORMATS:
            errs.append(f"output.formats: unknown format {f!r} (have {FORMATS})")
    if not o.formats:
        errs.append("output.formats must name at least one format")
    return errs


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form; parse(serialize(cfg)) == cfg."""
    lines = []
    for section, schema in _SCHEMA.items():
        spec = getattr(cfg, section)
        if schema is None:
            items = [("kind", spec.kind), *spec.params]
        else:
            items = [(key, getattr(spec, key)) for key in schema]
        lines.append(f"[{section}]")
        for key, value in items:
            if key == "table" and not value:
                continue  # written only when set
            if value is None:  # dt
                value = "auto"
            elif isinstance(value, float):
                value = repr(value)
            elif isinstance(value, tuple):
                value = ",".join(value)
            lines.append(f"{key} = {value}")
        lines.append("")
    return "\n".join(lines)
