"""Time stepping: the paper's two integrators, their single steps and one
run loop.  eps > 0: :func:`step_eps`/:func:`run_eps` with the stepper of
``cfg.scheme`` (:class:`ImexStepper`, :class:`Imex2Stepper`); eps = 0:
:func:`step_limit`/:func:`run_limit` with :class:`LimitStepper`.

The stiff linear parts (the fourth-order velocity regularization and every
second-order diffusion) are treated implicitly through sparse LU
factorizations cached per (grid, dt, epsilon); the wave/constitutive
coupling is explicit under the CFL-type restriction dt <= cfl_safety * h.

The steppers work on raw arrays with the stencil kernels of :mod:`.grid`
(the ones behind the public ``dx``/``dxx``; the leapfrog's wave parts with
its interior kernels alone), so no Field is built in the hot loop and the
summation-by-parts cancellations the diagnostics rely on hold exactly.

Each step of :func:`run_simulation` only advances (:class:`LimitStepper`
carries its closing half-kick into the next step's opening one) and copies
the stepper's raw (v, u, Theta) into its slot of the chunk's ``(C, 3, N)``
stack.  The rest is done per chunk of C =
:func:`~thermoelast1d.state.block_rows` steps (248 at N = 33, 15 at
N = 513, 1 from N = 4097 on), whose opening times the stepper gets first
(``open_chunk``), in one pass over the rows written: the finite and
Theta >= -positivity_tol tests as array reductions (:func:`check_step`
builds the message of the first failing step), the pins of the v and u
ends, one indexed copy of the kept states into the run's one
``(n_kept, 3, N)`` store, the chunk's rows of the run's one
``(n_steps + 1, 14)`` array by one
:func:`~thermoelast1d.diagnostics.chunk_records` pass, and the recorder,
once per step in step order, at most one chunk late, with views.  So
stepping may run up to C - 1 steps past a failing step; those are
discarded, and the steps before it are recorded first.  Every value is as
in a chain of fresh single steps.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .diagnostics import chunk_records, compute_record
from .errors import ContractError, PositivityError, SchemeError
from .grid import (BC_DIRICHLET, BC_HINGED, BC_NEUMANN, Grid, dx_interior, dx_values,
                   dxx_interior, dxx_values)
# eval_f is unused here; bench/probes.py patches it by name
from .materials import Material, eval_f, f_kernel  # noqa: F401
from .state import (EPS_MIN_CELLS, RECORD_FIELDS, SolverConfig, State, Trajectory, block_rows,
                    kept_steps, make_state, record_on, state_on)

#: (S_v, S_theta): each maps the node array and a ``(C, 1)`` column of times
#: to a ``(C, N)`` array, one row per time
Forcing = Tuple[Callable[[np.ndarray, np.ndarray], np.ndarray],
                Callable[[np.ndarray, np.ndarray], np.ndarray]]


# ---------------------------------------------------------------------------
# implicit system matrices (boundary rows encode the boundary conditions)
# ---------------------------------------------------------------------------


def heat_system(grid: Grid, c: float, bc_kind: str) -> sp.csc_matrix:
    """I - c*D2 with identity boundary rows for ``dirichlet_zero`` (value
    pinned) or reflected-ghost rows for ``neumann_zero`` (zero flux)."""
    n = grid.n_nodes
    r = c / grid.h ** 2
    main = np.full(n, 1.0 + 2.0 * r)
    lower = np.full(n - 1, -r)
    upper = np.full(n - 1, -r)
    if bc_kind == BC_DIRICHLET:
        main[0] = main[-1] = 1.0
        upper[0] = lower[-1] = 0.0
    else:
        upper[0] = lower[-1] = -2.0 * r
    return sp.diags([lower, main, upper], [-1, 0, 1], format="csc")


def biharmonic_system_hinged(grid: Grid, c: float) -> sp.csc_matrix:
    """I + c*D4 with identity rows at the ends and antisymmetric-ghost
    closures next to them (value and curvature pinned to zero)."""
    if grid.n_cells < EPS_MIN_CELLS:
        raise ContractError(f"fourth-order operator needs n_cells >= {EPS_MIN_CELLS}")
    n = grid.n_nodes
    q = c / grid.h ** 4
    main = np.full(n, 1.0 + 6.0 * q)
    # hinged closure: ghost v[-1] = -v[1] folds onto the diagonal
    main[1] = main[-2] = 1.0 + 5.0 * q
    main[0] = main[-1] = 1.0
    # identity rows at the ends carry no off-diagonal entries
    up1, lo1 = np.full(n - 1, -4.0 * q), np.full(n - 1, -4.0 * q)
    up2, lo2 = np.full(n - 2, q), np.full(n - 2, q)
    up1[0] = up2[0] = lo1[-1] = lo2[-1] = 0.0
    m = sp.diags([lo2, lo1, main, up1, up2], [-2, -1, 0, 1, 2], format="csc")
    # same sparsity and entry order as an entry-by-entry assembly
    m.eliminate_zeros()
    m.sort_indices()
    return m


@lru_cache(maxsize=64)
def _cached_factors(grid: Grid, dt: float, epsilon: float, scheme: str):
    """LU factorizations reused across every step of a run: c = dt for backward
    Euler (imex1, limit), c = dt/4 and the ``mul_*`` matrices (-c) for imex2's
    Crank-Nicolson halves; v and u have systems only for eps > 0."""
    c = 0.25 * dt if scheme == "imex2" else dt
    f = dict.fromkeys(("lu_v", "mul_v", "lu_u", "mul_u", "mul_th"))
    try:
        f["lu_th"] = splu(heat_system(grid, c, BC_NEUMANN))
        if epsilon > 0.0:
            f["lu_v"] = splu(biharmonic_system_hinged(grid, epsilon * c))
            f["lu_u"] = splu(heat_system(grid, epsilon * c, BC_DIRICHLET))
    except RuntimeError as exc:  # SuperLU failures (singular factor)
        raise SchemeError(f"linear solve factorization failed: {exc}") from exc
    if scheme == "imex2":
        f["mul_th"] = heat_system(grid, -c, BC_NEUMANN).tocsr()
        if epsilon > 0.0:
            f["mul_v"] = biharmonic_system_hinged(grid, -epsilon * c).tocsr()
            f["mul_u"] = heat_system(grid, -epsilon * c, BC_DIRICHLET).tocsr()
    return f


def _pin(arr: np.ndarray) -> np.ndarray:
    arr[0] = 0.0
    arr[-1] = 0.0
    return arr


def _f_of(material: Material, th: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    # undershoots within the positivity tolerance are evaluated as f(0) = 0,
    # so the kernel's argument (in ``out`` if given) is >= 0 by construction
    return f_kernel(material, np.maximum(th, 0.0, out=out))


def _wave(material: Material, u: np.ndarray, th: np.ndarray, h: float):
    """u_xx - (f(Theta))_x on the pinned/zero-flux closures, and f(Theta)."""
    fth = _f_of(material, th)
    wave = dxx_values(u, h, BC_DIRICHLET)
    wave -= dx_values(fth, h, BC_NEUMANN)
    return wave, fth


class _Stepper:
    """Grid, material, config and the factors of scheme ``label``; a subclass adds ``advance``."""

    label: str

    def __init__(self, grid: Grid, material: Material, cfg: SolverConfig):
        self.grid = grid
        self.material = material
        self.cfg = cfg
        self.f = _cached_factors(grid, cfg.dt, cfg.epsilon, self.label)


class ImexStepper(_Stepper):
    """First-order splitting for the regularized system

        v_t     = -eps v_xxxx + u_xx - (f(Theta))_x
        u_t     =  eps u_xx + v
        Theta_t =  Theta_xx - f(Theta) v_x

    with v = v_xx = 0, u = 0, Theta_x = 0 on the boundary: explicit coupling
    at the old level, then backward-Euler solves for the stiff linear parts.
    The constitutive flux (f(Theta))_x is discretized conservatively (central
    difference of nodal f values), and f(Theta) v_x pairs with it in the
    discrete summation-by-parts sense, so the energy and mass bookkeeping
    cancel at the grid level."""

    label = "imex1"

    def advance(self, v, u, th, t):
        dt = self.cfg.dt
        h = self.grid.h
        wave, fth = _wave(self.material, u, th, h)
        rhs_v = _pin(v + dt * wave)
        rhs_u = _pin(u + dt * v)
        rhs_th = th - dt * fth * dx_values(v, h, BC_HINGED)
        v1 = self.f["lu_v"].solve(rhs_v) if self.f["lu_v"] is not None else rhs_v
        u1 = self.f["lu_u"].solve(rhs_u) if self.f["lu_u"] is not None else rhs_u
        th1 = self.f["lu_th"].solve(rhs_th)
        return _pin(v1), _pin(u1), th1


class Imex2Stepper(_Stepper):
    """Second-order Strang arrangement for the regularized system of
    :class:`ImexStepper`: half Crank-Nicolson diffusion, full explicit
    coupling step with the constitutive terms at the half level, half
    Crank-Nicolson diffusion.

    No positivity guarantee for Theta with grid-scale structure: each
    Crank-Nicolson half multiplies Theta by I + (dt/4) D2, which has
    nonnegative entries only for dt <= 2 h^2, far below the wave CFL dt; a
    Theta0 >= 0 with node-to-node jumps can go negative in one step."""

    label = "imex2"

    def _diffuse_half(self, v, u, th):
        f = self.f
        th = f["lu_th"].solve(f["mul_th"] @ th)
        if f["lu_v"] is not None:
            v = _pin(f["lu_v"].solve(f["mul_v"] @ v))
            u = _pin(f["lu_u"].solve(f["mul_u"] @ u))
        return v, u, th

    def _couple(self, v, u, th):
        dt = self.cfg.dt
        h = self.grid.h
        m = self.material
        wave, fth = _wave(m, u, th, h)
        v_half = _pin(v + 0.5 * dt * wave)
        u1 = _pin(u + dt * v_half)
        g = dx_values(v_half, h, BC_HINGED)
        th_mid = th - 0.5 * dt * fth * g
        th1 = th - dt * _f_of(m, th_mid) * g
        v1 = _pin(v_half + 0.5 * dt * _wave(m, u1, th1, h)[0])
        return v1, u1, th1

    def advance(self, v, u, th, t):
        v, u, th = self._diffuse_half(v, u, th)
        v, u, th = self._couple(v, u, th)
        return self._diffuse_half(v, u, th)


class LimitStepper(_Stepper):
    """Direct integrator for the limit system (eps = 0)

        u_tt    = u_xx - (f(Theta))_x
        Theta_t = Theta_xx - f(Theta) u_xt

    written as a first-order system in (v, u, Theta) with v = u_t.  The wave
    part is advanced by a kick-drift-kick leapfrog (explicit,
    CFL-restricted), the heat part by an unconditionally stable backward-Euler
    step with the constitutive factor lagged.  Supports rough initial data:
    H1 displacement with strain jumps, bounded discontinuous velocity, L2
    temperature.  An optional :data:`Forcing` (manufactured solutions) adds
    S_v to the velocity equation and S_theta to the heat equation.

    Consecutive half-kicks share one evaluation of the wave part
    u_xx - (f(Theta))_x: ``advance`` returns read-only u and Theta and keeps
    the closing wave part, force and f(Theta) for them, and the next call
    reuses them if it gets the same u and Theta arrays back; with forcing at
    another t (an ulp off), the opening force is the kept wave part + S_v(t).

    v_half, its hinged dx and the heat right-hand side are formed in a
    scratch array, and each wave part (the opening one where the carry
    misses, and the closing one) by :meth:`_wave_part` into the next of two
    buffer sets, used in turn: the kept set is never written by the step
    that reads it, so a step that raises part way leaves the carry whole.  A
    stepper is not reentrant; the arrays it returns are fresh.

    A forcing is evaluated once per chunk of :func:`run_simulation`, at the
    opening times (k - 1) dt it hands to :meth:`open_chunk`: S_v and
    S_theta at the closing times (k - 1) dt + dt, and S_v at the opening
    times only where one differs from the previous closing time (and at the
    chunk's first).  A step at a t the tables do not open next (a single
    step) tabulates that one row."""

    label = "limit"

    def __init__(self, grid: Grid, material: Material, cfg: SolverConfig,
                 forcing: Optional[Forcing] = None):
        if cfg.epsilon != 0.0:
            raise ContractError(f"limit integrator requires epsilon = 0, got {cfg.epsilon}")
        super().__init__(grid, material, cfg)
        self.forcing = forcing
        # (u, Theta, t, wave part, force, f(Theta)) of the last closing half-kick
        self._carry = None
        # opening times of the chunk, its S_v, S_v(+dt), S_theta(+dt) tables, last row
        self._times, self._tables, self._row = [], None, -1
        # v_half, g = its dx, the heat right-hand side, and a wave part's
        # Neumann dx of f(Theta), whose ends stay 0.0
        scratch = np.empty((4, grid.n_nodes))
        scratch[3, [0, -1]] = 0.0
        self._scratch, self._dfth = tuple(scratch[:3]), scratch[3]
        # two sets of (wave part, force, max(Theta, 0)), filled in turn; a wave
        # part's ends stay -0.0, _wave's for pinned u (v_half and v1 are pinned)
        sets = np.empty((2, 3, grid.n_nodes))
        sets[:, 0, [0, -1]] = -0.0
        self._sets, self._turn, self._half_dt = [tuple(s) for s in sets], 0, 0.5 * cfg.dt

    def open_chunk(self, t_open: Sequence[float]) -> None:
        """Tabulate the forcing for the next steps, opening at the times
        ``t_open`` (:func:`run_simulation` hands over each chunk's)."""
        if self.forcing is None:
            return
        (s_v, s_th), x = self.forcing, self.grid.nodes
        t_open = np.array(t_open, dtype=float)[:, None]
        t_close = t_open + self.cfg.dt
        # an opening time equal to the previous closing time reuses that S_v row
        fresh = np.append(True, t_open[1:, 0] != t_close[:-1, 0])
        s_v_close = s_v(x, t_close)
        s_v_open = np.empty_like(s_v_close)
        s_v_open[1:] = s_v_close[:-1]
        s_v_open[fresh] = s_v(x, t_open[fresh])
        self._times = t_open.ravel().tolist()
        self._tables = s_v_open, s_v_close, s_th(x, t_close)
        self._row = -1

    def _sources(self, t):
        """S_v(t), S_v(t + dt) and S_theta(t + dt): the next row of the
        tables, or one tabulated at t where that row does not open at t;
        0.0 without forcing."""
        if self.forcing is None:
            return 0.0, 0.0, 0.0
        i = self._row + 1
        if i >= len(self._times) or self._times[i] != t:
            self.open_chunk([t])
            i = 0
        self._row = i
        s_v, s_v1, s_th1 = self._tables
        return s_v[i], s_v1[i], s_th1[i]

    def _wave_part(self, u, th, s_v):
        """The wave part u_xx - (f(Theta))_x of (u, Theta) by grid's interior
        kernels, as :func:`_wave` forms it, + S_v and f(Theta), in the next set."""
        wave, force, pos = self._sets[self._turn]
        self._turn ^= 1
        h = self.grid.h
        fth = _f_of(self.material, th, out=pos)
        dxx_interior(wave, u, h * h)
        dx_interior(self._dfth, fth, h)
        np.subtract(wave, self._dfth, wave)
        return wave, np.add(wave, s_v, force), fth

    def advance(self, v, u, th, t):
        dt, half_dt = self.cfg.dt, self._half_dt
        v_half, g, rhs = self._scratch
        s_v, s_v1, s_th1 = self._sources(t)
        carry = self._carry
        if carry is not None and carry[0] is u and carry[1] is th:
            wave, force, fth = carry[3:]
            if self.forcing is not None and carry[2] != t:
                force = wave + s_v
        else:
            wave, force, fth = self._wave_part(u, th, s_v)
        # v_half = v + dt/2 force; u1 = u + dt v_half
        np.multiply(force, half_dt, v_half)
        _pin(np.add(v, v_half, v_half))
        u1 = np.multiply(v_half, dt)
        _pin(np.add(u, u1, u1))
        dx_values(v_half, self.grid.h, BC_HINGED, out=g)
        # th + dt (S_theta - f g), equal bit for bit to th + dt (-f g + S_theta)
        np.multiply(fth, g, rhs)
        np.subtract(s_th1, rhs, rhs)
        rhs *= dt
        th1 = self.f["lu_th"].solve(np.add(th, rhs, rhs))
        u1.flags.writeable = th1.flags.writeable = False
        wave1, force1, fth1 = self._wave_part(u1, th1, s_v1)
        self._carry = (u1, th1, t + dt, wave1, force1, fth1)
        v1 = np.multiply(force1, half_dt)
        return _pin(np.add(v_half, v1, v1)), u1, th1


def check_step(v: np.ndarray, u: np.ndarray, th: np.ndarray, step: int, t: float,
               cfg: SolverConfig, grid: Grid) -> None:
    """Post-step checks of every stepping entry point: finite v, u, Theta,
    then Theta >= -positivity_tol.  A failure names the step (k of t_k = k dt),
    t, the fields and the node (first non-finite, or argmin Theta) with its x.
    :func:`run_simulation` tests its chunk's raw rows first and calls this
    on the rows of the first failing step only."""
    bad = [(n, a) for n, a in (("v", v), ("u", u), ("theta", th))
           if not np.isfinite(a).all()]
    if bad:
        name, arr = bad[0]
        i = int(np.argmin(np.isfinite(arr)))
        raise SchemeError(
            f"non-finite {', '.join(n for n, _ in bad)} at step {step}, t = {t:.6g}; "
            f"first at {name} node {i} (x = {grid.nodes[i]:.6g}): {arr[i]}", t=t)
    th_min = float(th.min())
    if th_min < -cfg.positivity_tol:
        i = int(np.argmin(th))
        raise PositivityError(
            f"theta reached {th_min:.3e} < -positivity_tol at step {step}, "
            f"t = {t:.6g}, node {i} (x = {grid.nodes[i]:.6g})", t=t)


def run_simulation(
    stepper,
    init: State,
    material: Material,
    cfg: SolverConfig,
    grid: Grid,
    record_every: int = 1,
    recorder=None,
) -> Trajectory:
    """March ``init`` to t_end with ``stepper`` (``advance``, ``label`` and,
    if it has one, ``open_chunk``), streaming per-step diagnostics.

    The steps are checked, pinned, kept and given their rows per chunk of
    C = :func:`~thermoelast1d.state.block_rows` steps, so stepping goes on
    for up to C - 1 steps past a failing one; those steps are discarded.
    ``recorder(state, record)`` is called once per step, in step order: for
    t = 0 before step 1, then for each step when its chunk ends (at most one
    chunk late).  It may keep any state or record (a view of the step's
    row) it is given, as no block is reused;
    but a state the trajectory does not keep is a view of its chunk's
    ``(C, 3, N)`` stack, which it then keeps alive whole (C times the
    state's size), so a recorder that keeps such states should keep copies
    (``make_state(s.t, *s.block)``).

    Deterministic: identical inputs produce bit-identical trajectories, and
    the rows equal :func:`~thermoelast1d.diagnostics.compute_record` chained
    over single steps.  Step failures propagate with the failing time
    attached; a :class:`SchemeError` or :class:`PositivityError` at step k
    comes after the rows of steps 1 .. k - 1 are formed and recorded, and
    carries the row of step k - 1 as ``last_record``.  When ``advance``
    raises, the steps before it are checked and recorded first, so a failing
    one among them wins.
    """
    if init.t != 0.0:
        raise ContractError(f"runs start at t = 0, got init.t = {init.t}")
    if init.n_nodes != grid.n_nodes:
        raise ContractError("initial state does not live on the run grid")
    if record_every < 1:
        raise ContractError(f"record_every must be >= 1, got {record_every}")
    cfg.check_cfl(grid)
    n_steps = cfg.n_steps()

    n = grid.n_nodes
    dt, floor = cfg.dt, -cfg.positivity_tol
    size = block_rows(n)
    # the states kept_steps keeps, t = 0 in slot 0, and one row per step
    times = np.array([k * dt for k in kept_steps(0, n_steps + 1, n_steps, record_every)])
    store = np.empty((len(times), 3, n))
    rows = np.empty((n_steps + 1, len(RECORD_FIELDS)))
    store[0] = init.block
    rec = compute_record(init, material, grid, cfg.epsilon, None)
    rows[0] = rec.row
    if recorder is not None:
        recorder(init, rec)
    slot, last = 1, 0
    open_chunk = getattr(stepper, "open_chunk", None)

    def finish(first, stack):
        """Check the steps first, first + 1, ... whose raw (v, u, Theta) are
        the rows of ``stack`` and record them; a failing step raises after
        the steps before it are recorded."""
        if not len(stack):
            return
        th_min = stack[:, 2].min(axis=1)
        if not (np.isfinite(stack).all() and th_min.min() >= floor):
            bad = np.logical_not(np.isfinite(stack).all(axis=(1, 2))) | (th_min < floor)
            j = int(np.argmax(bad))
            if j:
                record(first, stack[:j], th_min[:j])
            check_step(*stack[j], first + j, (first + j) * dt, cfg, grid)
        record(first, stack, th_min)

    # not a recursion of finish: a closure that calls itself holds its own
    # cell, a cycle that keeps the run's store alive until gc collects it
    def record(first, stack, th_min):
        """Pin, keep and record the checked steps of ``stack``."""
        nonlocal slot, last
        m = len(stack)
        stack[:, :2, 0] = 0.0
        stack[:, :2, -1] = 0.0
        stack.flags.writeable = False
        t = [k * dt for k in range(first, first + m)]
        done = chunk_records(stack, t, th_min.tolist(), material, grid, cfg.epsilon,
                             rows[first - 1:first + m])
        keep = kept_steps(first, m, n_steps, record_every)
        blocks = store[slot:slot + len(keep)]
        np.take(stack, keep, axis=0, out=blocks, mode="clip")
        blocks.flags.writeable = False
        slot += len(keep)
        last = first + m - 1
        if recorder is not None:
            done.flags.writeable = False
            views = blocks  # the blocks of kept steps are the store's
            if len(keep) < m:
                views = list(stack)
                for j, block in zip(keep, blocks):
                    views[j] = block
            states = list(map(state_on, t, views))
            for state, record in zip(states, list(map(record_on, done))):
                recorder(state, record)

    v, u, th = init.block.copy()
    try:
        for first in range(1, n_steps + 1, size):
            # fresh per chunk: a recorder may keep any state, so no block is reused
            stack = np.empty((min(size, n_steps + 1 - first), 3, n))
            t_open = [(k - 1) * dt for k in range(first, first + len(stack))]
            if open_chunk is not None:
                open_chunk(t_open)
            m = 0
            try:
                for t in t_open:
                    v, u, th = stepper.advance(v, u, th, t)
                    stack[m] = v, u, th
                    m += 1
            except Exception:  # the steps before it are checked first
                finish(first, stack[:m])
                raise
            finish(first, stack)
    except (SchemeError, PositivityError) as exc:
        rows.flags.writeable = False
        exc.last_record = record_on(rows[last])
        raise
    return Trajectory.of_arrays(grid, cfg.epsilon, stepper.label, times, store, rows)


#: the eps > 0 stepper of each ``cfg.scheme``
_EPS_STEPPERS = {"imex1": ImexStepper, "imex2": Imex2Stepper}


def _step(stepper_class, state: State, material: Material, cfg: SolverConfig,
          grid: Grid) -> State:
    """One step of size cfg.dt from ``state`` with a fresh stepper."""
    cfg.check_cfl(grid)
    v, u, th = stepper_class(grid, material, cfg).advance(*state.block.copy(), state.t)
    t_new = state.t + cfg.dt
    check_step(v, u, th, round(t_new / cfg.dt), t_new, cfg, grid)
    return make_state(t_new, v, u, th)


def step_eps(state: State, material: Material, cfg: SolverConfig, grid: Grid) -> State:
    """Advance the regularized system one step of size cfg.dt."""
    return _step(_EPS_STEPPERS[cfg.scheme], state, material, cfg, grid)


def step_limit(state: State, material: Material, cfg: SolverConfig, grid: Grid) -> State:
    """One leapfrog/implicit-heat step of the limit system; requires cfg.epsilon = 0."""
    return _step(LimitStepper, state, material, cfg, grid)


def run_eps(init: State, material: Material, cfg: SolverConfig, grid: Grid,
            recorder=None, record_every: int = 1) -> Trajectory:
    """Integrate the regularized system from t = 0 to cfg.t_end."""
    stepper = _EPS_STEPPERS[cfg.scheme](grid, material, cfg)
    return run_simulation(stepper, init, material, cfg, grid, record_every, recorder)


def run_limit(init: State, material: Material, cfg: SolverConfig, grid: Grid,
              recorder=None, record_every: int = 1,
              forcing: Optional[Forcing] = None) -> Trajectory:
    """Integrate the limit system from t = 0 to cfg.t_end; requires
    cfg.epsilon = 0.  ``forcing`` (S_v, S_theta) is for the
    manufactured-solution study (production runs leave it None); it is
    evaluated per chunk of steps as :class:`LimitStepper` says."""
    stepper = LimitStepper(grid, material, cfg, forcing=forcing)
    return run_simulation(stepper, init, material, cfg, grid, record_every, recorder)
