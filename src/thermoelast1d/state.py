"""Simulation state, solver configuration, and trajectory containers."""

from __future__ import annotations

import math
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


class State:
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

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

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


@dataclass(frozen=True, slots=True)
class DiagnosticsRecord:
    """Per-step scalars tracked along every run.

    ``energy``  E = 1/2 |v|^2 + 1/2 |u_x|^2 + int Theta
    ``hfunc``   y = 1 + 1/2 |v_x|^2 + 1/2 |u_xx|^2 + 1/2 int rho(Theta) Theta_x^2,
                None (with ``hfunc_valid=False``) whenever min Theta dips
                below the material's rho floor
    ``dissipation_accum``      int_0^t |Theta_x|^2
    ``eps_dissipation_accum``  eps int_0^t (|v_xx|^2 + |u_xx|^2)
    both accumulated by the trapezoid rule over the recorded steps.
    """

    t: float
    energy: float
    theta_mass: float
    theta_min: float
    theta_max: float
    hfunc: Optional[float]
    hfunc_valid: bool
    thetax_l2sq: float
    thetaxx_l2sq: float
    vx_l2sq: float
    vxx_l2sq: float
    uxx_l2sq: float
    dissipation_accum: float
    eps_dissipation_accum: float


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


class Trajectory:
    """Recorded run: per-step diagnostics plus state snapshots.

    ``records`` has one entry per time step (including t=0); ``states``
    holds snapshots at every ``record_every``-th step plus the final one.
    Stored states are immutable and safe to share across threads.
    """

    def __init__(self, grid: Grid, epsilon: float, scheme: str):
        self.grid = grid
        self.epsilon = float(epsilon)
        self.scheme = scheme
        self.states: List[State] = []
        self.records: List[DiagnosticsRecord] = []

    @property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.states])

    @property
    def record_times(self) -> np.ndarray:
        return np.array([r.t for r in self.records])

    @property
    def final_state(self) -> State:
        return self.states[-1]

    @property
    def block_size(self) -> int:
        """States per block: :func:`block_rows` of the grid's node count."""
        return block_rows(self.grid.n_nodes)

    def blocks(self, start: int, stop: int) -> Iterator[Tuple[int, int]]:
        """``(lo, hi)`` bounds splitting ``range(start, stop)`` of the stored
        states into blocks of at most :attr:`block_size`; :meth:`gather`
        reads such a block with all three fields."""
        for lo in range(start, stop, self.block_size):
            yield lo, min(lo + self.block_size, stop)

    def gather(self, start: int, stop: int) -> np.ndarray:
        """The blocks of ``states[start:stop]`` as one C-contiguous
        ``(stop - start, 3, N)`` array, copied in one pass: its ``[:, 0]``,
        ``[:, 1]`` and ``[:, 2]`` are the v, u and Theta rows."""
        return np.array([s.block for s in self.states[start:stop]])

    def record_series(self, name: str) -> np.ndarray:
        vals = [getattr(r, name) for r in self.records]
        return np.array([np.nan if v is None else v for v in vals], dtype=float)

    def __len__(self):
        return len(self.states)
