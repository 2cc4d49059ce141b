"""Time integrator for the regularized system

    v_t     = -eps v_xxxx + u_xx - (f(Theta))_x
    u_t     =  eps u_xx + v
    Theta_t =  Theta_xx - f(Theta) v_x

with v = v_xx = 0, u = 0, Theta_x = 0 on the boundary.

Two schemes: ``imex1`` (backward-Euler stiff parts, coupling at the old
level) and ``imex2`` (Strang arrangement, second order).  The constitutive
flux (f(Theta))_x is discretized conservatively (central difference of
nodal f values), and f(Theta) v_x pairs with it in the discrete
summation-by-parts sense, so the energy and mass bookkeeping cancel at the
grid level.
"""

from __future__ import annotations

from .grid import Grid
from .materials import Material
from .state import SolverConfig, State, Trajectory, make_state
from .stepping import check_step, make_eps_stepper, run_simulation


def step_eps(state: State, material: Material, cfg: SolverConfig, grid: Grid) -> State:
    """Advance one step of size cfg.dt."""
    cfg.check_cfl(grid)
    stepper = make_eps_stepper(grid, material, cfg)
    v, u, th = stepper.advance(
        state.v.values.copy(), state.u.values.copy(), state.theta.values.copy(), state.t
    )
    t_new = state.t + cfg.dt
    check_step(v, u, th, round(t_new / cfg.dt), t_new, cfg, grid)
    return make_state(t_new, v, u, th)


def run_eps(
    init: State,
    material: Material,
    cfg: SolverConfig,
    grid: Grid,
    recorder=None,
    record_every: int = 1,
) -> Trajectory:
    """Integrate from t = 0 to cfg.t_end with per-step diagnostics."""
    stepper = make_eps_stepper(grid, material, cfg)
    return run_simulation(
        stepper, init, material, cfg, grid, record_every=record_every, recorder=recorder
    )
