"""Simulation state, solver configuration, and trajectory containers."""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import FrozenInstanceError, dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from .errors import ConfigError, ContractError, StructuralError
from .grid import BC_DIRICHLET, BC_HINGED, BC_NEUMANN, Field, Grid

SCHEME_IMEX1 = "imex1"
SCHEME_IMEX2 = "imex2"
SCHEMES = (SCHEME_IMEX1, SCHEME_IMEX2)
#: relative slack of the CFL check dt <= cfl_safety * h
_CFL_SLACK = 1 + 1e-12


class _Frozen:
    """Slotted and immutable: assigning or deleting an attribute raises."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class State(_Frozen):
    """Time-stamped nodal triple (v ~ u_t, u, Theta).

    A thin, immutable view of one read-only ``(3, N)`` block with rows v, u
    and Theta (:attr:`block`).  ``v``, ``u`` and ``theta`` are Fields built
    when read, views of the block's rows.  ``State(t, v, u, theta)`` checks
    the three Fields and copies their values into a fresh block;
    :func:`make_state` builds one from raw arrays."""

    __slots__ = ("t", "block")

    def __init__(self, t: float, v: Field, u: Field, theta: Field):
        if v.bc_kind != BC_HINGED:
            raise ContractError(f"v must be hinged, got {v.bc_kind}")
        if u.bc_kind != BC_DIRICHLET:
            raise ContractError(f"u must be dirichlet_zero, got {u.bc_kind}")
        if theta.bc_kind != BC_NEUMANN:
            raise ContractError(f"theta must be neumann_zero, got {theta.bc_kind}")
        n = len(v)
        if len(u) != n or len(theta) != n:
            raise StructuralError("state fields live on different grids")
        block = np.array((v.values, u.values, theta.values))
        block.flags.writeable = False
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "block", block)

    def __repr__(self):
        return f"State(t={self.t!r}, n_nodes={self.n_nodes})"

    def __reduce__(self):
        return make_state, (self.t, *self.block)

    @property
    def v(self) -> Field:
        return Field(self.block[0], BC_HINGED)

    @property
    def u(self) -> Field:
        return Field(self.block[1], BC_DIRICHLET)

    @property
    def theta(self) -> Field:
        return Field(self.block[2], BC_NEUMANN)

    @property
    def n_nodes(self) -> int:
        return self.block.shape[1]


def make_state(t, v, u, theta) -> State:
    """State from raw arrays, pinning the zero-value boundary entries.

    The arrays are copied once into a fresh ``(3, N)`` block (rows v, u,
    Theta), which is set read-only and becomes the State's
    :attr:`~State.block`."""
    n = len(v)
    if len(u) != n or len(theta) != n:
        raise StructuralError("state fields live on different grids")
    block = np.array((v, u, theta), dtype=float)
    if block.ndim != 2:
        raise StructuralError(f"field values must be 1D, got shape {block.shape[1:]}")
    block[:2, 0] = 0.0
    block[:2, -1] = 0.0
    block.flags.writeable = False
    return state_on(float(t), block)


_new_state = object.__new__
_set_t, _set_block = State.t.__set__, State.block.__set__


def state_on(t: float, block: np.ndarray) -> State:
    """The State of ``block`` as it is: no copy, pin or check (the run loop
    passes read-only ``(3, N)`` blocks with pinned v and u ends)."""
    state = _new_state(State)
    _set_t(state, t)
    _set_block(state, block)
    return state


@dataclass(frozen=True)
class SolverConfig:
    """Time-integration parameters."""

    dt: float
    t_end: float
    epsilon: float = 0.0
    scheme: str = SCHEME_IMEX1
    cfl_safety: float = 0.5
    positivity_tol: float = 1e-12

    def __post_init__(self):
        problems = solver_problems(**vars(self))
        if problems:
            raise ContractError("; ".join(problems))

    def n_steps(self) -> int:
        """Number of steps; t_end must be an integer multiple of dt."""
        n = whole_steps(self.t_end, self.dt)
        if n is None:
            raise ContractError(f"solver.t_end={self.t_end} is not an integer multiple "
                                f"of solver.dt={self.dt}")
        return n

    def check_cfl(self, grid: Grid) -> None:
        limit = self.cfl_safety * grid.h
        if self.dt > limit * _CFL_SLACK:
            raise ConfigError(f"solver.dt={self.dt:g} violates the wave CFL restriction "
                              f"dt <= cfl_safety*h = {limit:g}")


def solver_problems(dt: Optional[float], t_end: float, epsilon: float, scheme: str,
                    cfl_safety: float, positivity_tol: float) -> List[str]:
    """One message, named by config key, per :class:`SolverConfig` rule the values
    break (``dt=None``, auto, skips dt's); ``n_steps`` checks that dt divides t_end."""
    problems = []
    if dt is not None and not dt > 0.0:
        problems.append(f"solver.dt must be > 0, got {dt}")
    if not 0.0 < t_end < math.inf:
        problems.append(f"solver.t_end must be finite and > 0, got {t_end}")
    elif dt is not None and dt > t_end * (1 + 1e-12):
        problems.append(f"solver.dt={dt} exceeds solver.t_end={t_end}")
    if not epsilon >= 0.0:
        problems.append(f"solver.epsilon must be >= 0, got {epsilon}")
    if scheme not in SCHEMES:
        problems.append(f"solver.scheme must be one of {SCHEMES}, got {scheme!r}")
    if not cfl_safety > 0.0:
        problems.append(f"solver.cfl_safety must be > 0, got {cfl_safety}")
    if not positivity_tol >= 0.0:
        problems.append(f"solver.positivity_tol must be >= 0, got {positivity_tol}")
    problems += [f"solver.{key} must be finite, got {value}" for key, value in (
        ("epsilon", epsilon), ("cfl_safety", cfl_safety), ("positivity_tol", positivity_tol),
    ) if value == math.inf]
    return problems


#: fewest grid cells of an eps > 0 run: the 5-point stencil of its hinged
#: fourth-order operator
EPS_MIN_CELLS = 4


def eps_grid_problem(epsilon: float, n_cells: int) -> Optional[str]:
    """The grid rule of the eps > 0 systems, read by the config and the
    command line (the operator refuses a smaller grid by the same
    constant): the message when ``n_cells`` breaks it, else None."""
    if epsilon > 0.0 and n_cells < EPS_MIN_CELLS:
        return f"epsilon = {epsilon!r} > 0 needs n_cells >= {EPS_MIN_CELLS}, got {n_cells}"
    return None


def whole_steps(t_end: float, dt: float) -> Optional[int]:
    """The step count n >= 1 with n * dt = t_end to a relative 1e-9, or None
    when dt does not divide t_end."""
    q = t_end / dt
    n = int(round(q)) if abs(q) < math.inf else 0  # no n for nan or an overflowed q
    if n < 1 or abs(n * dt - t_end) > 1e-9 * max(t_end, 1.0):
        return None
    return n


def cfl_dt(grid: Grid, t_end: float, cfl_safety: float = 0.5) -> float:
    """The largest CFL-safe divisor of t_end: t_end / n for the fewest
    steps n whose dt passes :meth:`SolverConfig.check_cfl`."""
    bound = cfl_safety * grid.h * _CFL_SLACK
    if not t_end < 2 ** 53 * bound:  # from 2**53 on, n + 1 and n are one float
        raise ConfigError(f"solver.t_end={t_end} needs 2**53 or more steps of "
                          f"dt <= cfl_safety*h = {cfl_safety * grid.h:g}")
    n = max(1, math.ceil(t_end / bound))
    while n > 1 and t_end / (n - 1) <= bound:  # the float quotient may put n one off
        n -= 1
    while t_end / n > bound:
        n += 1
    return t_end / n


#: the fields of a :class:`DiagnosticsRecord`, in the order of the
#: diagnostics.csv columns: the columns of a :class:`Trajectory`'s rows
RECORD_FIELDS = ("t", "energy", "theta_mass", "theta_min", "theta_max", "hfunc",
                 "hfunc_valid", "thetax_l2sq", "thetaxx_l2sq", "vx_l2sq", "vxx_l2sq",
                 "uxx_l2sq", "dissipation_accum", "eps_dissipation_accum")
_HFUNC, _VALID = 5, 6


class DiagnosticsRecord(_Frozen):
    """Per-step scalars tracked along every run.

    ``energy``  E = 1/2 |v|^2 + 1/2 |u_x|^2 + int Theta
    ``hfunc``   y = 1 + 1/2 |v_x|^2 + 1/2 |u_xx|^2 + 1/2 int rho(Theta) Theta_x^2,
                None (with ``hfunc_valid=False``) whenever min Theta dips
                below the material's rho floor
    ``dissipation_accum``      int_0^t |Theta_x|^2
    ``eps_dissipation_accum``  eps int_0^t (|v_xx|^2 + |u_xx|^2)
    both accumulated by the trapezoid rule over the recorded steps.

    A thin, immutable view of one read-only row of 14 doubles (:attr:`row`),
    a :data:`RECORD_FIELDS` column each, with ``hfunc`` nan and
    ``hfunc_valid`` 0.0 where y is undefined; fields read as Python floats
    (``hfunc_valid`` a bool).  ``DiagnosticsRecord(t, energy, ...)`` copies
    the values into a fresh row; :func:`record_on` views a row as it is."""

    __slots__ = ("row",)

    def __init__(self, t, energy, theta_mass, theta_min, theta_max, hfunc, hfunc_valid,
                 thetax_l2sq, thetaxx_l2sq, vx_l2sq, vxx_l2sq, uxx_l2sq, dissipation_accum,
                 eps_dissipation_accum):
        if (hfunc is None) == bool(hfunc_valid):
            raise ContractError(f"hfunc is None exactly when hfunc_valid is false, got "
                                f"{hfunc!r} and {hfunc_valid!r}")
        row = np.array((t, energy, theta_mass, theta_min, theta_max,
                        math.nan if hfunc is None else hfunc, hfunc_valid, thetax_l2sq,
                        thetaxx_l2sq, vx_l2sq, vxx_l2sq, uxx_l2sq, dissipation_accum,
                        eps_dissipation_accum), dtype=float)
        row.flags.writeable = False
        object.__setattr__(self, "row", row)

    def _values(self) -> tuple:
        values = self.row.tolist()
        values[_HFUNC:_VALID + 1] = self.hfunc, self.hfunc_valid
        return tuple(values)

    def __eq__(self, other):
        if type(other) is not DiagnosticsRecord:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return "DiagnosticsRecord(" + ", ".join(
            f"{name}={value!r}" for name, value in zip(RECORD_FIELDS, self._values())) + ")"

    def __reduce__(self):
        return DiagnosticsRecord, self._values()

    @property
    def hfunc(self) -> Optional[float]:
        return self.row.item(_HFUNC) if self.row.item(_VALID) else None

    @property
    def hfunc_valid(self) -> bool:
        return self.row.item(_VALID) != 0.0


for _k, _name in enumerate(RECORD_FIELDS):
    if _name not in vars(DiagnosticsRecord):
        setattr(DiagnosticsRecord, _name, property(lambda record, k=_k: record.row.item(k)))

_new_record, _set_row = object.__new__, DiagnosticsRecord.row.__set__


def record_on(row: np.ndarray) -> DiagnosticsRecord:
    """The DiagnosticsRecord of ``row`` as it is: no copy or check (a run
    passes read-only rows of its trajectory)."""
    record = _new_record(DiagnosticsRecord)
    _set_row(record, row)
    return record


#: most values per field in one block of C = :func:`block_rows` rows, so in a
#: chunk of the run loop (its rows formed in one pass over its ``(C, 3, N)``
#: stack), a forcing table of the limit stepper and a block of the trajectory
#: diagnostics: their working memory is bounded for any run.  Stacked rows
#: cost less per step than single ones wherever C > 1, C = 2 and 3 at
#: N = 2049 .. 3585 included (2 vCPUs, numpy 2.4), and more at N = 4097 with
#: C = 3, so C = 1 from there
BLOCK_VALUES = 1 << 13


def block_rows(n_nodes: int) -> int:
    """Rows of N nodes per block: within :data:`BLOCK_VALUES`, and at least 1."""
    return max(1, BLOCK_VALUES // n_nodes)


def kept_steps(first: int, m: int, n_steps: int, record_every: int) -> List[int]:
    """The offsets j in ``range(m)`` of the steps ``first + j`` of a run of
    ``n_steps`` steps that its trajectory keeps: every ``record_every``-th
    step from step 0 (t = 0) on, and the last step."""
    keep = list(range(-first % record_every, m, record_every))
    if first + m - 1 == n_steps and n_steps % record_every:
        keep.append(m - 1)
    return keep


def kept_count(n_steps: int, record_every: int) -> int:
    """How many states :func:`kept_steps` keeps of a run of ``n_steps``
    steps: t = 0, then ceil(n_steps / record_every)."""
    return 1 - (-n_steps // record_every)


class _Views(Sequence):
    """A read-only sequence whose item i is ``make(i)``, built when read."""

    __slots__ = ("_make", "_range")

    def __init__(self, make, n: int):
        self._make, self._range = make, range(n)

    def __len__(self):
        return len(self._range)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(map(self._make, self._range[i]))
        return self._make(self._range[i])


class Trajectory:
    """Recorded run as read-only arrays: ``rows``, one row of
    :data:`RECORD_FIELDS` per time step (t = 0 included), and the
    ``times`` and C-contiguous ``(n_kept, 3, N)`` ``store`` of the states
    kept (every ``record_every``-th step and the last, t = 0 in slot 0).
    ``records`` and ``states`` are read-only sequences of their views,
    built when read.  ``Trajectory(grid, epsilon, scheme, states, records)``
    copies lists; :meth:`of_arrays` takes the arrays as they are."""

    def __init__(self, grid: Grid, epsilon: float, scheme: str,
                 states: Sequence[State] = (), records: Sequence[DiagnosticsRecord] = ()):
        if any(s.n_nodes != grid.n_nodes for s in states):
            raise StructuralError("states do not live on the trajectory's grid")
        self._set(grid, epsilon, scheme, np.array([s.t for s in states], dtype=float),
                  np.array([s.block for s in states], dtype=float).reshape(-1, 3, grid.n_nodes),
                  np.array([r.row for r in records], dtype=float).reshape(-1, len(RECORD_FIELDS)))

    @classmethod
    def of_arrays(cls, grid: Grid, epsilon: float, scheme: str, times: np.ndarray,
                  store: np.ndarray, rows: np.ndarray) -> Trajectory:
        """The trajectory of the arrays as they are, set read-only."""
        traj = cls.__new__(cls)
        traj._set(grid, epsilon, scheme, times, store, rows)
        return traj

    def _set(self, grid, epsilon, scheme, times, store, rows):
        self.grid, self.epsilon, self.scheme = grid, float(epsilon), scheme
        for a in (times, store, rows):
            a.flags.writeable = False
        self.times, self.store, self.rows = times, store, rows
        # the views hold the arrays, not the trajectory: no reference cycle
        self.states = _Views(lambda i: state_on(times.item(i), store[i]), len(times))
        self.records = _Views(lambda i: record_on(rows[i]), len(rows))

    @property
    def record_times(self) -> np.ndarray:
        return self.record_series("t")

    @property
    def final_state(self) -> State:
        return self.states[-1]

    @property
    def block_size(self) -> int:
        """States per block: :func:`block_rows` of the grid's node count."""
        return block_rows(self.grid.n_nodes)

    def blocks(self, start: int, stop: int) -> Iterator[Tuple[int, int]]:
        """``(lo, hi)`` bounds splitting ``range(start, stop)`` of the stored
        states into blocks of at most :attr:`block_size`."""
        for lo in range(start, stop, self.block_size):
            yield lo, min(lo + self.block_size, stop)

    def record_series(self, name: str) -> np.ndarray:
        """A copy of the column ``name`` of the rows (``hfunc`` nan where
        undefined, ``hfunc_valid`` 1.0 or 0.0)."""
        return self.rows[:, RECORD_FIELDS.index(name)].copy()

    def __len__(self):
        return len(self.times)
