import dataclasses
import re

import numpy as np
import pytest
import scipy.sparse as sp

from helpers import energy, record_bits
from thermoelast1d.diagnostics import energy_identity_residual
from thermoelast1d.errors import ConfigError, ContractError, PositivityError, SchemeError
from thermoelast1d.grid import Grid, dxx, l2_norm_sq
from thermoelast1d.initial_data import equilibrium, standing_wave
from thermoelast1d.materials import identity_material, log1p_material
from thermoelast1d.solver_eps import run_eps, step_eps
from thermoelast1d.solver_limit import step_limit
from thermoelast1d.state import SolverConfig, make_state
from thermoelast1d.stepping import LimitStepper, biharmonic_system_hinged, run_simulation


@pytest.fixture
def grid():
    return Grid(0.0, 1.0, 64)


MAT = identity_material()


def cfg_for(grid, *, dt=None, t_end=0.1, epsilon=1e-2, scheme="imex1"):
    return SolverConfig(
        dt=grid.h / 2 if dt is None else dt,
        t_end=t_end,
        epsilon=epsilon,
        scheme=scheme,
    )


@pytest.mark.parametrize("scheme", ["imex1", "imex2"])
def test_constant_equilibrium_is_steady(grid, scheme):
    init = equilibrium(grid, theta_bar=0.9)
    cfg = SolverConfig(dt=grid.h / 2, t_end=1.0, epsilon=1e-2, scheme=scheme)
    traj = run_eps(init, MAT, cfg, grid, record_every=1000)
    s = traj.final_state
    assert np.max(np.abs(s.v.values)) <= 1e-12
    assert np.max(np.abs(s.u.values)) <= 1e-12
    assert np.max(np.abs(s.theta.values - 0.9)) <= 1e-12


def test_zero_data_stays_zero(grid):
    n = grid.n_nodes
    init = make_state(0.0, np.zeros(n), np.zeros(n), np.zeros(n))
    cfg = cfg_for(grid, t_end=0.5)
    traj = run_eps(init, MAT, cfg, grid, record_every=100)
    s = traj.final_state
    assert np.all(s.v.values == 0.0)
    assert np.all(s.u.values == 0.0)
    assert np.all(s.theta.values == 0.0)


def test_step_bookkeeping_exact(grid):
    dt = 1e-3
    cfg = SolverConfig(dt=dt, t_end=3 * dt, epsilon=1e-2)
    init = standing_wave(grid, amplitude=0.1, theta_amplitude=0.1)
    traj = run_eps(init, MAT, cfg, grid)
    assert len(traj.records) == 4  # t = 0 plus three steps
    assert abs(traj.records[-1].t - 3 * dt) <= 1e-14


def test_t_end_must_divide(grid):
    with pytest.raises(ContractError, match="integer multiple"):
        SolverConfig(dt=3e-3, t_end=0.01, epsilon=1e-2).n_steps()


def test_cfl_guard(grid):
    cfg = SolverConfig(dt=grid.h * 2.0, t_end=grid.h * 2.0, epsilon=1e-2)
    init = equilibrium(grid)
    with pytest.raises(ConfigError, match="CFL"):
        run_eps(init, MAT, cfg, grid)


def test_single_step_matches_run(grid):
    cfg = cfg_for(grid, dt=1e-3, t_end=1e-3)
    init = standing_wave(grid, amplitude=0.2, theta_amplitude=0.1)
    one = step_eps(init, MAT, cfg, grid)
    traj = run_eps(init, MAT, cfg, grid)
    assert np.array_equal(one.v.values, traj.final_state.v.values)
    assert np.array_equal(one.theta.values, traj.final_state.theta.values)


def test_determinism_bit_identical(grid):
    cfg = cfg_for(grid, dt=1e-3, t_end=0.05, scheme="imex2")
    init = standing_wave(grid, amplitude=0.3, theta_amplitude=0.2)
    t1 = run_eps(init, MAT, cfg, grid)
    t2 = run_eps(init, MAT, cfg, grid)
    for a, b in zip(t1.states, t2.states):
        assert np.array_equal(a.v.values, b.v.values)
        assert np.array_equal(a.u.values, b.u.values)
        assert np.array_equal(a.theta.values, b.theta.values)


@pytest.mark.parametrize("scheme", ["imex1", "imex2"])
def test_single_step_dissipation_identity(scheme):
    """One step of size dt changes E by -dt*eps*(|v_xx|^2 + |u_xx|^2) up to
    O(dt^2); oracle = a dt=1e-6 reference run over the same horizon."""
    g = Grid(0.0, 1.0, 64)
    x = g.nodes
    init = make_state(0.0, np.sin(np.pi * x), np.zeros_like(x), np.ones_like(x))
    e0 = energy(init, g)
    predicted = -1e-3 * 0.1 * (
        l2_norm_sq(dxx(init.v, g).values, g) + l2_norm_sq(dxx(init.u, g).values, g)
    )
    dt = 1e-3
    cfg = SolverConfig(dt=dt, t_end=dt, epsilon=0.1, scheme=scheme)
    de_one = run_eps(init, MAT, cfg, g).records[-1].energy - e0
    cfg_ref = SolverConfig(dt=1e-6, t_end=dt, epsilon=0.1, scheme=scheme)
    de_ref = run_eps(init, MAT, cfg_ref, g, record_every=1000).records[-1].energy - e0
    # scheme-local error against the resolved reference
    assert abs(de_one - de_ref) <= 100.0 * dt**2
    # and the identity itself within its own Taylor remainder + O(dt^2)
    assert abs(de_one - predicted) <= abs(de_ref - predicted) + 100.0 * dt**2


def test_energy_nonincreasing_for_positive_eps(grid):
    cfg = cfg_for(grid, t_end=0.5, epsilon=1e-2, scheme="imex2")
    init = standing_wave(grid, amplitude=0.3, theta_amplitude=0.2)
    traj = run_eps(init, MAT, cfg, grid)
    e = traj.record_series("energy")
    # allow the per-step splitting residual
    assert np.all(np.diff(e) <= 1e-6 * e[0])


@pytest.mark.parametrize("scheme,order,tol", [("imex1", 1.0, 0.15), ("imex2", 2.0, 0.2)])
def test_temporal_order(scheme, order, tol):
    g = Grid(0.0, 1.0, 32)
    init = standing_wave(g, amplitude=0.3, theta_amplitude=0.2)

    def final(dt):
        cfg = SolverConfig(dt=dt, t_end=0.1, epsilon=1e-2, scheme=scheme)
        return run_eps(init, MAT, cfg, g, record_every=10**9).final_state

    ref = final(1e-5)
    errs = []
    for dt in (2e-3, 1e-3, 5e-4):
        s = final(dt)
        errs.append(
            np.sqrt(l2_norm_sq(s.v.values - ref.v.values, g))
            + np.sqrt(l2_norm_sq(s.u.values - ref.u.values, g))
            + np.sqrt(l2_norm_sq(s.theta.values - ref.theta.values, g))
        )
    observed = np.polyfit(np.log([2e-3, 1e-3, 5e-4]), np.log(errs), 1)[0]
    assert abs(observed - order) <= tol


def test_identity_residual_orders():
    """Cumulative |E - E0 + eps-dissipation|: first order in dt for imex1,
    second order under joint (h, dt) refinement for imex2."""
    init_of = lambda g: standing_wave(g, amplitude=0.3, theta_amplitude=0.2)
    g = Grid(0.0, 1.0, 64)
    res1 = []
    for div in (1, 2, 4):
        cfg = SolverConfig(dt=g.h / 2 / div, t_end=0.25, epsilon=1e-2, scheme="imex1")
        traj = run_eps(init_of(g), MAT, cfg, g, record_every=10**9)
        r = energy_identity_residual(traj)
        res1.append(np.max(np.abs(r)))
    orders1 = [np.log2(res1[i] / res1[i + 1]) for i in range(2)]
    assert all(abs(o - 1.0) <= 0.3 for o in orders1)

    res2 = []
    for n in (64, 128, 256):
        gg = Grid(0.0, 1.0, n)
        cfg = SolverConfig(dt=gg.h / 2, t_end=0.25, epsilon=1e-2, scheme="imex2")
        traj = run_eps(init_of(gg), MAT, cfg, gg, record_every=10**9)
        res2.append(np.max(np.abs(energy_identity_residual(traj))))
    orders2 = [np.log2(res2[i] / res2[i + 1]) for i in range(2)]
    assert all(abs(o - 2.0) <= 0.4 for o in orders2)


def test_positivity_violation_raises():
    """A forced undershoot must surface as PositivityError, not be clamped."""
    g = Grid(0.0, 1.0, 32)
    x = g.nodes
    # violent velocity gradient against a small temperature, explicit source
    # dominates: theta* = theta (1 - dt f'(...) v_x) goes negative when
    # dt * v_x > 1 locally; disable the CFL guard to reach that regime
    init = make_state(
        0.0, 60.0 * np.sin(np.pi * x), np.zeros_like(x), 0.01 * np.ones_like(x)
    )
    cfg = SolverConfig(
        dt=0.02, t_end=0.2, epsilon=1e-2, scheme="imex1", cfl_safety=5.0
    )
    with pytest.raises(PositivityError) as exc:
        run_eps(init, MAT, cfg, g)
    assert exc.value.t is not None
    # the message names the step, the argmin node of Theta and its x
    m = re.search(r"at step (\d+), t = (\S+), node (\d+) \(x = (\S+)\)", str(exc.value))
    assert m is not None
    step, node = int(m.group(1)), int(m.group(3))
    assert step == round(exc.value.t / cfg.dt) and step >= 1
    assert 0 <= node < g.n_nodes and m.group(4) == f"{x[node]:.6g}"


def test_nonidentity_material_runs(grid):
    cfg = cfg_for(grid, dt=2e-3, t_end=0.1, scheme="imex2")
    init = standing_wave(grid, amplitude=0.2, theta_amplitude=0.3)
    traj = run_eps(init, log1p_material(), cfg, grid, record_every=50)
    assert traj.records[-1].theta_min > 0.0
    assert np.isfinite(traj.records[-1].energy)


def test_run_requires_t0(grid):
    init = standing_wave(grid)
    shifted = make_state(0.5, init.v.values, init.u.values, init.theta.values)
    with pytest.raises(ContractError, match="t = 0"):
        run_eps(shifted, MAT, cfg_for(grid), grid)


def test_recorder_streams(grid):
    seen = []
    cfg = cfg_for(grid, dt=grid.h / 2, t_end=grid.h * 2)
    init = equilibrium(grid)
    run_eps(init, MAT, cfg, grid, recorder=lambda s, r: seen.append(r.t))
    assert len(seen) == cfg.n_steps() + 1


def _biharmonic_entrywise(grid, c):
    """I + c*D4 with hinged closures, assembled entry by entry."""
    n = grid.n_nodes
    q = c / grid.h ** 4
    m = sp.lil_matrix((n, n))
    for i in range(2, n - 2):
        m[i, i - 2] = q
        m[i, i - 1] = -4.0 * q
        m[i, i] = 1.0 + 6.0 * q
        m[i, i + 1] = -4.0 * q
        m[i, i + 2] = q
    m[1, 0] = -4.0 * q
    m[1, 1] = 1.0 + 5.0 * q
    m[1, 2] = -4.0 * q
    m[1, 3] = q
    m[n - 2, n - 1] = -4.0 * q
    m[n - 2, n - 2] = 1.0 + 5.0 * q
    m[n - 2, n - 3] = -4.0 * q
    m[n - 2, n - 4] = q
    m[0, 0] = 1.0
    m[n - 1, n - 1] = 1.0
    return m.tocsc()


@pytest.mark.parametrize("n_cells", list(range(4, 65)))
@pytest.mark.parametrize("c", [2.5e-9, -2.5e-9, 0.0])
def test_biharmonic_matrix_same_csc_arrays(n_cells, c):
    """The banded assembly hands SuperLU the very arrays of the entry-by-entry
    one (c = 0 checks that zero bands are dropped the same way)."""
    g = Grid(0.0, 1.0, n_cells)
    got, ref = biharmonic_system_hinged(g, c), _biharmonic_entrywise(g, c)
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(ref, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def _d4(g, f):
    """The solver's hinged D4 of ``f``: (I + D4) f - f."""
    return biharmonic_system_hinged(g, 1.0) @ f - f


def test_biharmonic_d4_of_a_cubic_vanishes_inside():
    g = Grid(0.0, 1.0, 16)
    cubic = g.nodes ** 3
    cubic[0] = cubic[-1] = 0.0
    # pinning breaks the profile at the ends; the deep interior is a real cubic
    assert np.allclose(_d4(g, cubic)[4:-4], 0.0, atol=1e-9)


def test_biharmonic_d4_of_a_sine():
    g = Grid(0.0, 1.0, 64)
    f = np.sin(np.pi * g.nodes)
    f[0] = f[-1] = 0.0
    assert _d4(g, f)[g.n_nodes // 2] == pytest.approx(np.pi ** 4, rel=0.01)


def test_biharmonic_needs_four_cells():
    with pytest.raises(ContractError):
        biharmonic_system_hinged(Grid(0.0, 1.0, 3), 1.0)


class _NaNInU:
    label = "stub"

    def advance(self, v, u, th, t):
        u = u.copy()
        u[1] = np.nan
        return v, u, th


def test_nonfinite_u_raises_scheme_error_with_time(grid):
    cfg = cfg_for(grid, t_end=grid.h)
    with pytest.raises(SchemeError, match=r"non-finite u at step 1") as exc:
        run_simulation(_NaNInU(), standing_wave(grid), MAT, cfg, grid)
    assert exc.value.t == cfg.dt


@pytest.mark.parametrize("step_fn,epsilon,scheme", [
    (step_eps, 1e-2, "imex1"), (step_eps, 1e-2, "imex2"), (step_limit, 0.0, "imex1"),
])
@pytest.mark.parametrize("field", ["v", "theta"])
def test_single_step_nonfinite_raises_scheme_error(step_fn, epsilon, scheme, field):
    g = Grid(0.0, 1.0, 16)
    s = standing_wave(g, amplitude=0.2, theta_amplitude=0.2)
    arrays = {"v": s.v.values.copy(), "u": s.u.values, "theta": s.theta.values.copy()}
    arrays[field][5] = np.nan
    state = make_state(0.0, arrays["v"], arrays["u"], arrays["theta"])
    cfg = SolverConfig(dt=g.h / 2, t_end=4 * g.h, epsilon=epsilon, scheme=scheme)
    where = r"non-finite .*at step 1, .*node \d+ \(x = "
    with pytest.raises(SchemeError, match=where) as exc:
        step_fn(state, MAT, cfg, g)
    assert exc.value.t == cfg.dt
    named = str(exc.value).split(" at step")[0].removeprefix("non-finite ").split(", ")
    assert field in named


class _ThetaSetAt:
    """The limit stepper, with one node of Theta set to ``value`` at step ``k``."""

    label = "stub"

    def __init__(self, grid, cfg, k, value):
        self.stepper, self.k, self.value, self.calls = LimitStepper(grid, MAT, cfg), k, value, 0

    def advance(self, v, u, th, t):
        self.calls += 1
        v, u, th = self.stepper.advance(v, u, th, t)
        if self.calls == self.k:
            th = th.copy()
            th[3] = self.value
        return v, u, th


@pytest.mark.parametrize("value,error", [(-1.0, PositivityError), (np.nan, SchemeError)])
def test_run_failure_carries_last_good_record(value, error):
    """A failure at step k carries the row of step k - 1: the last row of
    the same run stopped one step earlier."""
    g = Grid(0.0, 1.0, 16)
    init = standing_wave(g, amplitude=0.2, theta_amplitude=0.2)
    cfg = SolverConfig(dt=g.h / 2, t_end=8 * g.h / 2)
    k = 3
    with pytest.raises(error, match=f"at step {k}, ") as exc:
        run_simulation(_ThetaSetAt(g, cfg, k, value), init, MAT, cfg, g)
    assert exc.value.t == k * cfg.dt
    last = exc.value.last_record
    assert last.t == (k - 1) * cfg.dt
    before = run_simulation(_ThetaSetAt(g, cfg, k, value), init, MAT,
                            dataclasses.replace(cfg, t_end=(k - 1) * cfg.dt), g)
    assert record_bits(last) == record_bits(before.records[-1])
