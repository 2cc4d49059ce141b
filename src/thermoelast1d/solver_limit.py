"""Direct integrator for the limit system (eps = 0)

    u_tt    = u_xx - (f(Theta))_x
    Theta_t = Theta_xx - f(Theta) u_xt

written as a first-order system in (v, u, Theta) with v = u_t.  The wave
part is advanced by a kick-drift-kick leapfrog (explicit, CFL-restricted),
the heat part by an unconditionally stable implicit step with the
constitutive factor lagged.  Supports rough initial data: H1 displacement
with strain jumps, bounded discontinuous velocity, L2 temperature.
"""

from __future__ import annotations

from typing import Optional

from .errors import ContractError
from .grid import Grid
from .initial_data import ROUGH_KINDS, prepare_rough_data  # re-exported surface
from .materials import Material
from .state import SolverConfig, State, Trajectory, make_state
from .stepping import Forcing, LimitStepper, check_step, run_simulation

__all__ = [
    "step_limit",
    "run_limit",
    "prepare_rough_data",
    "ROUGH_KINDS",
]


def step_limit(state: State, material: Material, cfg: SolverConfig, grid: Grid) -> State:
    """One leapfrog/implicit-heat step; requires cfg.epsilon = 0."""
    cfg.check_cfl(grid)
    stepper = LimitStepper(grid, material, cfg)
    v, u, th = stepper.advance(
        state.v.values.copy(), state.u.values.copy(), state.theta.values.copy(), state.t
    )
    t_new = state.t + cfg.dt
    check_step(v, u, th, round(t_new / cfg.dt), t_new, cfg, grid)
    return make_state(t_new, v, u, th)


def run_limit(
    init: State,
    material: Material,
    cfg: SolverConfig,
    grid: Grid,
    recorder=None,
    record_every: int = 1,
    forcing: Optional[Forcing] = None,
) -> Trajectory:
    """Integrate the limit system from t = 0 to cfg.t_end.

    ``forcing`` is a pair of callables (S_v, S_theta) used by the
    manufactured-solution study; production runs leave it None.  Each maps
    the nodes and a ``(C, 1)`` column of times to ``(C, N)``, and is called
    once per chunk of C steps; where a step's closing time and the next
    opening time differ by an ulp, the carried wave part u_xx - (f(Theta))_x
    serves the opening.
    """
    if cfg.epsilon != 0.0:
        raise ContractError(f"run_limit requires epsilon = 0, got {cfg.epsilon}")
    stepper = LimitStepper(grid, material, cfg, forcing=forcing)
    return run_simulation(
        stepper, init, material, cfg, grid, record_every=record_every, recorder=recorder
    )
