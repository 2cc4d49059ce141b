"""1D nonlinear thermoelasticity: simulation and well-posedness verification.

A finite-difference simulator for the coupled hyperbolic-parabolic system

    u_tt    = u_xx - (f(Theta))_x
    Theta_t = Theta_xx - f(Theta) u_xt        (u = 0, Theta_x = 0 on the boundary)

its fourth-order parabolic regularization, and a harness that numerically
certifies the estimates behind well-posedness for rough initial data:
energy/mass identities, temperature positivity, explicit Gronwall
constants, regularization-parameter convergence, and continuous dependence.
"""

from .grid import (
    BC_DIRICHLET,
    BC_FREE,
    BC_HINGED,
    BC_NEUMANN,
    Field,
    Grid,
    dx,
    dxx,
    gn_constants,
    norms,
)
from .materials import (
    Material,
    eval_f,
    eval_fp,
    eval_fpp,
    hypothesis_report,
    identity_material,
    log1p_material,
    make_material,
    material_from_file,
    rational_saturating_material,
    rho,
    tabulated_material,
)
from .state import DiagnosticsRecord, SolverConfig, State, Trajectory, make_state
from .initial_data import prepare_rough_data
from .stepping import run_eps, run_limit, step_eps, step_limit
from . import bounds, diagnostics, experiments, initial_data, solver_eps, solver_limit

__version__ = "0.1.0"
