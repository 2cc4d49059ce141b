"""Time stepping: the paper's two integrators, their single steps and one
run loop.  eps > 0: :func:`step_eps`/:func:`run_eps` with the stepper of
``cfg.scheme`` (:class:`ImexStepper`, :class:`Imex2Stepper`); eps = 0:
:func:`step_limit`/:func:`run_limit` with :class:`LimitStepper`.

The stiff linear parts (the fourth-order velocity regularization and every
second-order diffusion) are treated implicitly through sparse LU
factorizations cached per (grid, dt, epsilon); the wave/constitutive
coupling is explicit under the CFL-type restriction dt <= cfl_safety * h.

The steppers work on raw arrays with the stencil kernels of :mod:`.grid`
(the ones behind the public ``dx``/``dxx``), so no Field is built in the hot
loop and the summation-by-parts cancellations the diagnostics rely on hold
exactly.

Each step of :func:`run_simulation` is one pass, with every value as in a
chain of fresh single steps:

* :class:`LimitStepper` carries its closing half-kick into the next step's
  opening one, and its carried f(Theta) also gives the row's rho = f'/f;
* the new (v, u, Theta) are copied once into the State's read-only
  ``(3, N)`` block (:func:`~thermoelast1d.state.make_state`): a slot of the
  run's one ``(n_kept, 3, N)`` store for a state the trajectory keeps, a
  fresh block otherwise.  The block is checked with one finite test and one
  min Theta (:func:`check_step` builds the message only on failure), and
  :func:`~thermoelast1d.diagnostics.compute_record` takes its row from it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Optional, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .diagnostics import compute_record
from .errors import ContractError, PositivityError, SchemeError
from .grid import BC_DIRICHLET, BC_HINGED, BC_NEUMANN, Grid, dx_values, dxx_values
# eval_f is unused here; bench/probes.py patches it by name
from .materials import Material, eval_f, f_kernel  # noqa: F401
from .state import SolverConfig, State, Trajectory, block_rows, make_state

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
    n = grid.n_nodes
    if n < 5:
        raise ContractError("fourth-order operator needs n_cells >= 4")
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


def _f_of(material: Material, th: np.ndarray) -> np.ndarray:
    # undershoots within the positivity tolerance are evaluated as f(0) = 0,
    # so the kernel's argument is >= 0 by construction
    return f_kernel(material, np.maximum(th, 0.0))


def _wave(material: Material, u: np.ndarray, th: np.ndarray, h: float):
    """u_xx - (f(Theta))_x on the pinned/zero-flux closures, and f(Theta)."""
    fth = _f_of(material, th)
    return dxx_values(u, h, BC_DIRICHLET) - dx_values(fth, h, BC_NEUMANN), fth


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
    Crank-Nicolson diffusion."""

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
    :meth:`f_theta` gives the kept f(Theta).

    A forcing is evaluated once per chunk of at most
    :func:`~thermoelast1d.state.block_rows` steps: S_v and S_theta at the
    closing times (k - 1) dt + dt, formed as :func:`run_simulation` forms
    them, and S_v at the opening times (k - 1) dt only where one differs
    from the previous closing time (and at the chunk's first).  A t off
    that grid is one row."""

    label = "limit"

    def __init__(self, grid: Grid, material: Material, cfg: SolverConfig,
                 forcing: Optional[Forcing] = None):
        if cfg.epsilon != 0.0:
            raise ContractError(f"limit integrator requires epsilon = 0, got {cfg.epsilon}")
        super().__init__(grid, material, cfg)
        self.forcing = forcing
        self.nodes = grid.nodes
        # (u, Theta, t, wave part, force, f(Theta)) of the last closing half-kick
        self._carry = None
        # opening times of the chunk, its S_v, S_v(+dt), S_theta(+dt) tables, last row
        self._times, self._tables, self._row = [], None, -1

    def _sources(self, t):
        """S_v(t), S_v(t + dt) and S_theta(t + dt); 0.0 without forcing."""
        if self.forcing is None:
            return 0.0, 0.0, 0.0
        i = self._row + 1
        if i >= len(self._times) or self._times[i] != t:
            dt = self.cfg.dt
            k = round(t / dt)
            if k * dt == t:  # t_k = k dt: tabulate the steps left, up to a block
                rows = max(1, min(block_rows(self.grid.n_nodes), round(self.cfg.t_end / dt) - k))
                t_open = np.arange(k, k + rows, dtype=float)[:, None] * dt
            else:
                t_open = np.array([[t]])
            (s_v, s_th), x = self.forcing, self.nodes
            t_close = t_open + dt
            # an opening time equal to the previous closing time reuses that S_v row
            fresh = np.append(True, t_open[1:, 0] != t_close[:-1, 0])
            s_v_close = s_v(x, t_close)
            s_v_open = np.empty_like(s_v_close)
            s_v_open[1:] = s_v_close[:-1]
            s_v_open[fresh] = s_v(x, t_open[fresh])
            self._times = t_open.ravel().tolist()
            self._tables = s_v_open, s_v_close, s_th(x, t_close)
            i = 0
        self._row = i
        s_v, s_v1, s_th1 = self._tables
        return s_v[i], s_v1[i], s_th1[i]

    def f_theta(self, th: np.ndarray) -> Optional[np.ndarray]:
        """f(max(Theta, 0)) kept from the last step if ``th`` is its Theta."""
        carry = self._carry
        return carry[5] if carry is not None and carry[1] is th else None

    def advance(self, v, u, th, t):
        dt = self.cfg.dt
        s_v, s_v1, s_th1 = self._sources(t)
        carry = self._carry
        if carry is not None and carry[0] is u and carry[1] is th:
            wave, force, fth = carry[3:]
            if self.forcing is not None and carry[2] != t:
                force = wave + s_v
        else:
            wave, fth = _wave(self.material, u, th, self.grid.h)
            force = wave + s_v
        v_half = _pin(v + 0.5 * dt * force)
        u1 = _pin(u + dt * v_half)
        g = dx_values(v_half, self.grid.h, BC_HINGED)
        rhs_th = th + dt * (-fth * g + s_th1)
        th1 = self.f["lu_th"].solve(rhs_th)
        u1.flags.writeable = th1.flags.writeable = False
        wave1, fth1 = _wave(self.material, u1, th1, self.grid.h)
        force1 = wave1 + s_v1
        self._carry = (u1, th1, t + dt, wave1, force1, fth1)
        return _pin(v_half + 0.5 * dt * force1), u1, th1


def check_step(v: np.ndarray, u: np.ndarray, th: np.ndarray, step: int, t: float,
               cfg: SolverConfig, grid: Grid) -> None:
    """Post-step checks of every stepping entry point: finite v, u, Theta,
    then Theta >= -positivity_tol.  A failure names the step (k of t_k = k dt),
    t, the fields and the node (first non-finite, or argmin Theta) with its x.
    :func:`run_simulation` tests the step's block first and calls this only
    when that test fails."""
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
    """March ``init`` to t_end with ``stepper`` (``advance`` and ``label``),
    streaming per-step diagnostics.

    Deterministic: identical inputs produce bit-identical trajectories.
    Step failures propagate with the failing time attached, and a
    :class:`SchemeError` or :class:`PositivityError` carries the last good
    row as ``last_record``.
    """
    if init.t != 0.0:
        raise ContractError(f"runs start at t = 0, got init.t = {init.t}")
    if init.n_nodes != grid.n_nodes:
        raise ContractError("initial state does not live on the run grid")
    if record_every < 1:
        raise ContractError(f"record_every must be >= 1, got {record_every}")
    cfg.check_cfl(grid)
    n_steps = cfg.n_steps()

    traj = Trajectory(grid, cfg.epsilon, stepper.label)
    rec = compute_record(init, material, grid, cfg.epsilon, None)
    traj.records.append(rec)
    traj.states.append(init)
    if recorder is not None:
        recorder(init, rec)

    kept_f = getattr(stepper, "f_theta", None)
    # one slot per kept state; a recorder may keep any state, so no block is reused
    n_kept = n_steps // record_every + (n_steps % record_every != 0)
    store = np.empty((n_kept, 3, grid.n_nodes))
    v, u, th = init.block.copy()
    try:
        for k in range(1, n_steps + 1):
            t_new = k * cfg.dt
            v, u, th = stepper.advance(v, u, th, (k - 1) * cfg.dt)
            kept = k % record_every == 0 or k == n_steps
            state = make_state(t_new, v, u, th, out=store[len(traj.states) - 1] if kept else None)
            block = state.block
            th_min = float(block[2].min())
            # the block's pinned ends are 0, so nonzero (or non-finite) ends
            # of the stepper's v and u go to the full check as well
            if (not np.isfinite(block).all() or th_min < -cfg.positivity_tol
                    or v[0] or v[-1] or u[0] or u[-1]):
                check_step(v, u, th, k, t_new, cfg, grid)
            rec = compute_record(state, material, grid, cfg.epsilon, rec, theta_min=th_min,
                                 f_theta=kept_f(th) if kept_f is not None else None)
            traj.records.append(rec)
            if kept:
                traj.states.append(state)
            if recorder is not None:
                recorder(state, rec)
    except (SchemeError, PositivityError) as exc:
        exc.last_record = rec
        raise
    return traj


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
