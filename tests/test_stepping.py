"""The stepping module: the single-step mass identity of every scheme, and
the package's public surface, whose solver modules re-export stepping."""

import json
import os
import subprocess
import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import thermoelast1d
from helpers import float_bits, limit_step_reference
from thermoelast1d import initial_data, solver_eps, solver_limit, state, stepping
from thermoelast1d.experiments import Manufactured
from thermoelast1d.grid import BC_DIRICHLET, BC_HINGED, BC_NEUMANN, Grid, dx_values, dxx_values
from thermoelast1d.materials import (eval_f, identity_material, log1p_material,
                                     rational_saturating_material, tabulated_material)
from thermoelast1d.state import SolverConfig, make_state
from thermoelast1d.stepping import Imex2Stepper, LimitStepper, step_eps, step_limit

_XI = np.linspace(0.0, 4.0, 9)
MATERIALS = [identity_material(), log1p_material(), rational_saturating_material(),
             tabulated_material(_XI, np.log1p(_XI) + 0.25 * _XI)]


def _flux(scheme, material, cfg, grid, init):
    """f(Theta*) v*_x of one step: the nodal heat source -f(Theta) v_x at the
    levels the scheme evaluates it.  imex1: the old level.  limit: Theta^n
    and the half-kick velocity.  imex2: after the first Crank-Nicolson half
    step, the half-kick velocity and the midpoint Theta of the coupling."""
    v, u, th = init.block
    dt, h = cfg.dt, grid.h
    if scheme == "imex2":
        v, u, th = Imex2Stepper(grid, material, cfg)._diffuse_half(v, u, th)
    f0 = eval_f(material, np.maximum(th, 0.0))
    if scheme == "imex1":
        return f0 * dx_values(v, h, BC_HINGED)
    v_half = v + 0.5 * dt * (dxx_values(u, h, BC_DIRICHLET) - dx_values(f0, h, BC_NEUMANN))
    v_half[0] = v_half[-1] = 0.0
    g = dx_values(v_half, h, BC_HINGED)
    if scheme == "limit":
        return f0 * g
    return eval_f(material, np.maximum(th - 0.5 * dt * f0 * g, 0.0)) * g


@settings(max_examples=60, deadline=None)
@given(
    a=st.floats(-2.0, 2.0),
    length=st.floats(0.1, 5.0),
    n_cells=st.integers(4, 160),
    scheme=st.sampled_from(["limit", "imex1", "imex2"]),
    epsilon=st.sampled_from([0.0, 1e-3, 1e-1]),
    material=st.sampled_from(MATERIALS),
    dt_frac=st.floats(0.05, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_single_step_mass_identity(a, length, n_cells, scheme, epsilon, material, dt_frac,
                                   seed):
    """w.Theta_1 - w.Theta_0 = -dt w.(f(Theta*) v*_x) for one step of every
    scheme (w the trapezoid weights): the Neumann heat matrices keep the
    trapezoid sum, w^T (I - c D2) = w^T, so only the coupling changes the mass.

    Round-off bound: 8 u (N + 4 dt/h^2) (w.|Theta_0| + w.|Theta_1| +
    dt w.|f v_x|), u the unit round-off.  N covers the sums, and 1 + 4 dt/h^2
    the column sums of |I - c D2| that bound w.(A x - b) for a backward-stable
    solve (and a Crank-Nicolson product) of size c <= dt."""
    g = Grid(a, a + length, n_cells)
    rng = np.random.default_rng(seed)
    x = (g.nodes - g.a) / g.length
    modes = np.sin(np.pi * np.outer(np.arange(1, 5), x))
    v = rng.uniform(-0.5, 0.5, 4) @ modes
    u = rng.uniform(-0.5, 0.5, 4) @ modes * g.length
    theta = rng.uniform(0.2, 2.0) + rng.uniform(0.0, 1.0) * rng.uniform(0.0, 1.0, g.n_nodes)
    init = make_state(0.0, v, u, theta)
    dt = dt_frac * 0.5 * g.h
    if scheme == "limit":
        cfg = SolverConfig(dt=dt, t_end=dt)
        new = step_limit(init, material, cfg, g)
    else:
        cfg = SolverConfig(dt=dt, t_end=dt, epsilon=epsilon, scheme=scheme)
        new = step_eps(init, material, cfg, g)
    w = g.quad_weights()
    flux = _flux(scheme, material, cfg, g, init)
    th0, th1 = init.block[2], new.block[2]
    residual = (w @ th1 - w @ th0) + dt * (w @ flux)
    scale = w @ np.abs(th0) + w @ np.abs(th1) + dt * (w @ np.abs(flux))
    bound = 8 * np.finfo(float).eps * (g.n_nodes + 4 * dt / g.h**2) * scale
    assert abs(residual) <= bound


@settings(max_examples=60, deadline=None)
@given(
    a=st.floats(-2.0, 2.0),
    length=st.floats(0.1, 5.0),
    n_cells=st.integers(4, 600),
    material=st.sampled_from(MATERIALS),
    dt_frac=st.floats(0.05, 1.0),
    kind=st.sampled_from(["random_smooth", "random_L2_theta"]),
    seed=st.integers(0, 2**16),
)
def test_single_step_heat_l2_identity(a, length, n_cells, material, dt_frac, kind, seed):
    """The heat part of one limit step, Theta_1 - dt D2 Theta_1 = Theta_0 - dt f(Theta_0+)
    D_x v_half, tested against Theta_1 in the trapezoid weights w:

        1/2|Theta_1|_w^2 - 1/2|Theta_0|_w^2 + 1/2|Theta_1 - Theta_0|_w^2
            + dt h sum (D+ Theta_1)^2 = dt <-f(Theta_0+) D_x v_half, Theta_1>_w,

    since -w.(Theta D2 Theta) = h sum (D+ Theta)^2 for the Neumann D2 (summation
    by parts).  The residual stays within 1e-11 of the largest term."""
    g = Grid(a, a + length, n_cells)
    init = initial_data.KINDS[kind](g, seed=seed)
    dt = dt_frac * 0.5 * g.h
    new = step_limit(init, material, SolverConfig(dt=dt, t_end=dt), g)
    v, u, th0 = init.block
    th1 = new.block[2]
    wave, f0 = stepping._wave(material, u, th0, g.h)
    v_half = stepping._pin(v + 0.5 * dt * wave)
    w = g.quad_weights()
    terms = (0.5 * (w @ th1 ** 2), -0.5 * (w @ th0 ** 2), 0.5 * (w @ (th1 - th0) ** 2),
             dt * g.h * np.sum((np.diff(th1) / g.h) ** 2),
             -dt * (w @ (-f0 * dx_values(v_half, g.h, BC_HINGED) * th1)))
    assert abs(sum(terms)) <= 1e-11 * max(abs(t) for t in terms)


@settings(max_examples=60, deadline=None)
@given(
    a=st.floats(-2.0, 2.0),
    length=st.floats(0.1, 5.0),
    n_cells=st.integers(4, 600),
    material=st.sampled_from(MATERIALS),
    dt_frac=st.floats(0.05, 1.0),
    kind=st.sampled_from(["random_smooth", "random_L2_theta"]),
    seed=st.integers(0, 2**16),
    amp_v=st.floats(-5.0, 5.0),
    amp_th=st.floats(0.0, 5.0),
)
def test_single_step_forced_heat_l2_identity(a, length, n_cells, material, dt_frac, kind,
                                             seed, amp_v, amp_th):
    """The heat L2 identity of test_single_step_heat_l2_identity for one
    forced run_limit step: S_v(0) enters the half-kick velocity, and
    S_theta(dt) adds dt <S_theta, Theta_1>_w to the right-hand side,

        1/2|Theta_1|_w^2 - 1/2|Theta_0|_w^2 + 1/2|Theta_1 - Theta_0|_w^2
            + dt h sum (D+ Theta_1)^2
            = dt <-f(Theta_0+) D_x v_half, Theta_1>_w + dt <S_theta(dt), Theta_1>_w,

    within 1e-11 of the largest term."""
    g = Grid(a, a + length, n_cells)
    init = initial_data.KINDS[kind](g, seed=seed)
    dt = dt_frac * 0.5 * g.h
    xh = (g.nodes - g.a) / g.length
    forcing = (lambda x, t: amp_v * (1.0 + t) * np.sin(np.pi * xh),
               lambda x, t: amp_th * (1.0 + t) * (1.0 + np.cos(3 * np.pi * xh)))
    traj = stepping.run_limit(init, material, SolverConfig(dt=dt, t_end=dt), g,
                              forcing=forcing)
    v, u, th0 = init.block
    th1 = traj.final_state.block[2]
    wave, f0 = stepping._wave(material, u, th0, g.h)
    v_half = stepping._pin(v + 0.5 * dt * (wave + forcing[0](g.nodes, np.zeros((1, 1)))[0]))
    s_th = forcing[1](g.nodes, np.full((1, 1), dt))[0]
    w = g.quad_weights()
    terms = (0.5 * (w @ th1 ** 2), -0.5 * (w @ th0 ** 2), 0.5 * (w @ (th1 - th0) ** 2),
             dt * g.h * np.sum((np.diff(th1) / g.h) ** 2),
             -dt * (w @ (-f0 * dx_values(v_half, g.h, BC_HINGED) * th1)),
             -dt * (w @ (s_th * th1)))
    assert abs(sum(terms)) <= 1e-11 * max(abs(t) for t in terms)


def _bits(arrays):
    return [float_bits(a) for a in arrays]


@settings(max_examples=60, deadline=None)
@given(
    n_cells=st.integers(2, 300),
    material=st.sampled_from(MATERIALS),
    dt_frac=st.sampled_from([1.0, 0.74, 0.6, 0.2]),
    forced=st.sampled_from(["none", "on_grid", "off_grid"]),
    first=st.integers(0, 3),
    undershoot=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_limit_steps_equal_the_reference_formula_bitwise(n_cells, material, dt_frac, forced,
                                                         first, undershoot, seed):
    """Eight limit steps equal ``helpers.limit_step_reference`` chained bit
    for bit: ``run_limit`` and a chained stepper (the closing wave part is
    carried), ``step_limit`` and a fresh stepper per step (it is not).
    Forced steps use the manufactured forcing at on-grid times k dt, where
    for most grids (k - 1) dt + dt differs from k dt by an ulp at some k <=
    8, or at times an ulp past them.  An undershoot sets Theta0 at two
    nodes to -positivity_tol / 2, which f reads as 0."""
    g = Grid(-0.5, 1.5, n_cells)
    dt = dt_frac * 0.5 * g.h
    n_steps = 8
    cfg = SolverConfig(dt=dt, t_end=n_steps * dt)
    rng = np.random.default_rng(seed)
    v0, u0 = 0.01 * rng.normal(size=(2, g.n_nodes))
    th0 = 0.5 + np.abs(rng.normal(scale=0.4, size=g.n_nodes))
    if undershoot:
        th0[rng.integers(g.n_nodes, size=2)] = -0.5 * cfg.positivity_tol
    init = make_state(0.0, v0, u0, th0)
    forcing = None
    if forced != "none":
        forcing = Manufactured(g.a, g.b).forcing(material)
    if forced == "off_grid":
        times = [float(np.nextafter((first + k) * dt, np.inf)) for k in range(n_steps)]
    else:
        times = [k * dt for k in range(n_steps)]

    ref, block, admissible = [], tuple(init.block), True
    for t in times:
        block = limit_step_reference(*block, t, material, cfg, g, forcing)
        ref.append(_bits(block))
        admissible &= block[2].min() >= -cfg.positivity_tol

    chained = LimitStepper(g, material, cfg, forcing=forcing)
    got = {"chained": [], "fresh": []}
    block = init.block.copy()
    for t in times:
        block = chained.advance(*block, t)
        got["chained"].append(_bits(block))
    block = init.block.copy()
    for t in times:
        block = LimitStepper(g, material, cfg, forcing=forcing).advance(*block, t)
        got["fresh"].append(_bits(block))
    # run_limit and step_limit stop where Theta falls below -positivity_tol
    # (a coarse grid's large dt with the forcing, or an undershoot node)
    if forced != "off_grid" and admissible:
        traj = stepping.run_limit(init, material, cfg, g, forcing=forcing)
        got["run_limit"] = [_bits(s.block) for s in traj.states[1:]]
    if forced == "none" and admissible:
        state, got["step_limit"] = init, []
        for _ in times:
            state = step_limit(state, material, cfg, g)
            got["step_limit"].append(_bits(state.block))
    for name, steps in got.items():
        assert steps == ref, name


#: the names ``import thermoelast1d`` gives, apart from submodules and dunders
PUBLIC_NAMES = {
    "BC_DIRICHLET", "BC_FREE", "BC_HINGED", "BC_NEUMANN", "DiagnosticsRecord", "Field",
    "Grid", "Material", "SolverConfig", "State", "Trajectory", "dx", "dxx",
    "eval_f", "eval_fp", "eval_fpp", "gn_constants", "hypothesis_report",
    "identity_material", "log1p_material", "make_material", "make_state",
    "material_from_file", "norms", "prepare_rough_data", "rational_saturating_material",
    "rho", "run_eps", "run_limit", "step_eps", "step_limit", "tabulated_material",
}
PUBLIC_MODULES = {"bounds", "diagnostics", "errors", "experiments", "grid", "initial_data",
                  "materials", "solver_eps", "solver_limit", "state", "stepping"}


def test_package_exports():
    """A fresh ``import thermoelast1d`` (in a child process: importing any
    submodule adds it to the package) gives exactly these names."""
    code = ("import json, types, thermoelast1d as t; "
            "print(json.dumps({k: isinstance(v, types.ModuleType) "
            "for k, v in vars(t).items() if not k.startswith('_')}))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    is_module = json.loads(out)
    assert {k for k, m in is_module.items() if not m} == PUBLIC_NAMES
    assert {k for k, m in is_module.items() if m} == PUBLIC_MODULES


def test_solver_modules_re_export_stepping():
    """solver_eps/solver_limit define nothing: each name is the stepping,
    state or initial_data object."""
    for module, names in ((solver_eps, ("run_eps", "step_eps", "run_simulation")),
                          (solver_limit, ("run_limit", "step_limit", "run_simulation"))):
        for name in names:
            assert getattr(module, name) is getattr(stepping, name)
        assert module.make_state is state.make_state
    for name in ("run_eps", "step_eps", "run_limit", "step_limit"):
        assert getattr(thermoelast1d, name) is getattr(stepping, name)
    assert solver_limit.prepare_rough_data is initial_data.prepare_rough_data
    assert solver_limit.ROUGH_KINDS is initial_data.ROUGH_KINDS
    assert thermoelast1d.prepare_rough_data is initial_data.prepare_rough_data
    for module in (solver_eps, solver_limit):
        defined = [k for k, v in vars(module).items()
                   if getattr(v, "__module__", None) == module.__name__]
        assert not defined
