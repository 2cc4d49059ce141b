import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import record_bits
from thermoelast1d.diagnostics import compute_record, energy_identity_residual
from thermoelast1d.errors import ConfigError, ContractError
from thermoelast1d.grid import Grid, dx, l2_norm_sq
from thermoelast1d.initial_data import (
    equilibrium,
    prepare_rough_data,
    random_l2_theta,
    sawtooth_strain,
    standing_wave,
    step_strain,
)
from thermoelast1d.materials import (
    identity_material,
    log1p_material,
    rational_saturating_material,
    tabulated_material,
)
from thermoelast1d.solver_eps import run_eps, step_eps
from thermoelast1d.solver_limit import run_limit, step_limit
from thermoelast1d.state import SolverConfig, block_rows, make_state
from thermoelast1d.stepping import LimitStepper

MAT = identity_material()


def test_requires_epsilon_zero():
    g = Grid(0.0, 1.0, 16)
    cfg = SolverConfig(dt=g.h / 2, t_end=g.h, epsilon=1e-3)
    with pytest.raises(ContractError, match="epsilon"):
        run_limit(equilibrium(g), MAT, cfg, g)


def test_cfl_violation_is_config_error():
    g = Grid(0.0, 1.0, 16)
    cfg = SolverConfig(dt=g.h, t_end=g.h, epsilon=0.0)
    with pytest.raises(ConfigError, match="CFL"):
        run_limit(equilibrium(g), MAT, cfg, g)


@settings(max_examples=40, deadline=None)
@given(
    a=st.floats(-3.0, 3.0),
    length=st.floats(0.05, 8.0),
    n_cells=st.integers(4, 96),
    cfl_safety=st.floats(0.01, 2.0),
    scheme=st.sampled_from(["imex1", "imex2"]),
)
def test_cfl_edge_passes_at_the_limit_and_fails_just_above(a, length, n_cells, cfl_safety,
                                                         scheme):
    """dt = cfl_safety h runs in all four entry points; dt one part in 1e9
    above it is refused by each with a ConfigError naming the CFL bound."""
    g = Grid(a, a + length, n_cells)
    init = equilibrium(g)
    for dt, ok in ((cfl_safety * g.h, True), (cfl_safety * g.h * (1 + 1e-9), False)):
        lim = SolverConfig(dt=dt, t_end=dt, epsilon=0.0, cfl_safety=cfl_safety)
        eps = SolverConfig(dt=dt, t_end=dt, epsilon=1e-2, scheme=scheme, cfl_safety=cfl_safety)
        calls = (lambda: run_limit(init, MAT, lim, g), lambda: step_limit(init, MAT, lim, g),
                 lambda: run_eps(init, MAT, eps, g), lambda: step_eps(init, MAT, eps, g))
        for call in calls:
            if ok:
                call()
            else:
                with pytest.raises(ConfigError, match="CFL"):
                    call()


def test_equilibrium_unchanged():
    g = Grid(0.0, 1.0, 64)
    cfg = SolverConfig(dt=g.h / 2, t_end=1.0, epsilon=0.0)
    traj = run_limit(equilibrium(g, 1.3), MAT, cfg, g, record_every=10**9)
    s = traj.final_state
    assert np.max(np.abs(s.v.values)) <= 1e-12
    assert np.max(np.abs(s.u.values)) <= 1e-12
    assert np.max(np.abs(s.theta.values - 1.3)) <= 1e-12


def test_linear_wave_oracle():
    """Theta0 = 0 decouples: f(0) = 0 kills both couplings, leaving the
    linear wave; exact solution cos(pi t) sin(pi x)."""
    g = Grid(0.0, 1.0, 256)
    cfg = SolverConfig(dt=g.h / 2, t_end=1.0, epsilon=0.0)
    init = standing_wave(g, amplitude=1.0, theta_base=0.0, theta_amplitude=0.0)
    traj = run_limit(init, MAT, cfg, g, record_every=10**9)
    exact = np.cos(np.pi) * np.sin(np.pi * g.nodes)
    err = np.sqrt(l2_norm_sq(traj.final_state.u.values - exact, g))
    assert err <= 5e-3
    assert np.max(np.abs(traj.final_state.theta.values)) == 0.0


def test_theta_identically_zero_preserved():
    g = Grid(0.0, 1.0, 64)
    cfg = SolverConfig(dt=g.h / 2, t_end=0.5, epsilon=0.0)
    init = step_strain(g, theta_bar=0.0)
    traj = run_limit(init, MAT, cfg, g, record_every=8)
    for s in traj.states:
        assert np.max(np.abs(s.theta.values)) <= 1e-13


def test_energy_identity_smooth():
    g = Grid(0.0, 1.0, 256)
    cfg = SolverConfig(dt=g.h / 2, t_end=1.0, epsilon=0.0)
    init = standing_wave(g, amplitude=0.3, theta_amplitude=0.2)
    traj = run_limit(init, MAT, cfg, g, record_every=64)
    r = energy_identity_residual(traj)
    assert np.max(np.abs(r)) / traj.records[0].energy <= 1e-3


def test_verlet_invariant_linear_wave():
    """For the decoupled linear wave the kick-drift-kick update conserves
    its modified quadratic energy to round-off (the oracle invariant)."""
    g = Grid(0.0, 1.0, 128)
    cfg = SolverConfig(dt=g.h / 2, t_end=1.0, epsilon=0.0)
    init = standing_wave(g, amplitude=1.0, theta_base=0.0, theta_amplitude=0.0)
    traj = run_limit(init, MAT, cfg, g)
    n, h = g.n_nodes, g.h
    lap = sp.diags(
        [np.full(n - 3, -1.0), np.full(n - 2, 2.0), np.full(n - 3, -1.0)],
        [-1, 0, 1],
    ).toarray() / h**2
    e_mod = []
    for s in traj.states:
        vi = s.v.values[1:-1]
        ui = s.u.values[1:-1]
        au = lap @ ui
        e_mod.append(h * (0.5 * vi @ vi + 0.5 * ui @ au - cfg.dt**2 / 8.0 * (au @ au)))
    e_mod = np.array(e_mod)
    assert np.max(np.abs(e_mod - e_mod[0])) / abs(e_mod[0]) <= 1e-10


def test_step_limit_single():
    g = Grid(0.0, 1.0, 32)
    cfg = SolverConfig(dt=g.h / 4, t_end=g.h / 4, epsilon=0.0)
    init = standing_wave(g, amplitude=0.2, theta_amplitude=0.1)
    s1 = step_limit(init, MAT, cfg, g)
    traj = run_limit(init, MAT, cfg, g)
    assert np.array_equal(s1.u.values, traj.final_state.u.values)
    assert s1.t == pytest.approx(cfg.dt)


# --- rough data constructors -------------------------------------------------


def test_tent_map_default():
    g = Grid(0.0, 1.0, 128)
    s = prepare_rough_data("step_strain", g)
    x = g.nodes
    assert np.allclose(s.u.values, np.minimum(x, 1.0 - x), atol=1e-15)
    ux = np.diff(s.u.values) / g.h
    assert ux[0] == pytest.approx(1.0)
    assert ux[-1] == pytest.approx(-1.0)


def test_sawtooth_strain_sup_slope():
    g = Grid(0.0, 1.0, 512)
    s = sawtooth_strain(g, teeth=4, amplitude=0.1)
    ux = np.diff(s.u.values) / g.h
    assert np.max(np.abs(ux)) == pytest.approx(0.8, rel=1e-12)
    assert s.u.values[0] == 0.0 and s.u.values[-1] == 0.0


def test_sawtooth_strain_rejects_negative_temperature():
    g = Grid(0.0, 1.0, 64)
    with pytest.raises(ContractError, match="theta must be >= 0"):
        sawtooth_strain(g, theta_bar=-1.0)
    with pytest.raises(ContractError, match="theta must be >= 0"):
        prepare_rough_data("sawtooth_strain", g, theta_bar=-1e-12)
    assert np.all(sawtooth_strain(g, theta_bar=0.0).theta.values == 0.0)


def test_random_theta_zero_amplitude():
    g = Grid(0.0, 1.0, 64)
    s = random_l2_theta(g, seed=3, amplitude=0.0)
    assert np.all(s.theta.values == 0.0)


def test_random_theta_nonnegative_and_seeded():
    g = Grid(0.0, 1.0, 64)
    s1 = random_l2_theta(g, seed=42, amplitude=2.0)
    s2 = random_l2_theta(g, seed=42, amplitude=2.0)
    assert np.all(s1.theta.values >= 0.0)
    assert np.array_equal(s1.theta.values, s2.theta.values)


def test_negative_sample_rejected():
    g = Grid(0.0, 1.0, 16)
    with pytest.raises(ContractError):
        random_l2_theta(g, amplitude=-1.0)
    with pytest.raises(ContractError):
        prepare_rough_data("nope", g)


def test_rough_run_dissipation_finite():
    g = Grid(0.0, 1.0, 256)
    cfg = SolverConfig(dt=g.h / 2, t_end=0.5, epsilon=0.0)
    init = prepare_rough_data("random_L2_theta", g, seed=5, amplitude=1.0)
    traj = run_limit(init, MAT, cfg, g, record_every=64)
    assert np.isfinite(traj.records[-1].dissipation_accum)
    assert min(r.theta_min for r in traj.records) >= -1e-12


def test_uniqueness_probe_schemes_agree():
    """Independent integrators (direct limit vs regularized at tiny eps)
    land on the same trajectory as eps, dt, h shrink."""
    from thermoelast1d.solver_eps import run_eps

    dists = []
    for n, dt, eps in ((64, 2.5e-3, 4e-6), (128, 1.25e-3, 1e-6)):
        g = Grid(0.0, 1.0, n)
        init = standing_wave(g, amplitude=0.3, theta_amplitude=0.2)
        cfg_l = SolverConfig(dt=dt, t_end=0.25, epsilon=0.0)
        cfg_e = SolverConfig(dt=dt, t_end=0.25, epsilon=eps, scheme="imex2")
        a = run_limit(init, MAT, cfg_l, g, record_every=10**9).final_state
        b = run_eps(init, MAT, cfg_e, g, record_every=10**9).final_state
        d = (
            np.sqrt(l2_norm_sq(a.v.values - b.v.values, g))
            + np.sqrt(l2_norm_sq(dx(a.u, g).values - dx(b.u, g).values, g))
            + np.sqrt(l2_norm_sq(a.theta.values - b.theta.values, g))
        )
        dists.append(d)
    assert dists[1] < dists[0]
    assert dists[1] < 1e-3


# --- the fused run loop == a chain of fresh single steps ----------------------


def _state_bits(s):
    return (s.t, s.v.values.tobytes(), s.u.values.tobytes(), s.theta.values.tobytes())


def _assert_run_equals_chain(traj, chain, record_every):
    """Records of every step and the stored states equal bit for bit."""
    states, records = chain
    n = len(records) - 1
    assert [record_bits(r) for r in traj.records] == [record_bits(r) for r in records]
    kept = [0] + [k for k in range(1, n + 1) if k % record_every == 0 or k == n]
    assert [_state_bits(s) for s in traj.states] == [_state_bits(states[k]) for k in kept]


def _chain(init, material, cfg, g, step):
    """Fresh single steps; state k is stamped t = k dt, as the run loop does."""
    states = [init]
    records = [compute_record(init, material, g, cfg.epsilon, None)]
    for k in range(1, cfg.n_steps() + 1):
        s = step(states[-1], k)
        states.append(make_state(k * cfg.dt, s.v.values, s.u.values, s.theta.values))
        records.append(compute_record(states[-1], material, g, cfg.epsilon, records[-1]))
    return states, records


def _materials():
    xi = np.linspace(0.0, 4.0, 9)
    return [identity_material(), log1p_material(), rational_saturating_material(),
            tabulated_material(xi, np.log1p(xi) + 0.25 * xi)]


@pytest.mark.parametrize("material", _materials(), ids=lambda m: m.kind)
@pytest.mark.parametrize("scheme", ["limit", "imex1", "imex2"])
@pytest.mark.parametrize("record_every", [1, 3])
@pytest.mark.parametrize("theta_low", [0.5, "floor", 0.0, -5e-13])
def test_run_loop_equals_chain_of_single_steps(material, scheme, record_every, theta_low):
    """run_limit/run_eps (carried force, one block per step, stacked row) equal
    step_limit/step_eps plus compute_record bit for bit, with Theta above,
    at and below the rho floor (rows without hfunc, undershoots within the
    positivity tolerance)."""
    g = Grid(-0.5, 1.2, 13)
    x = (g.nodes - g.a) / g.length
    floor = material.rho_floor if theta_low == "floor" else theta_low
    theta = floor + 0.4 * (1.0 + np.cos(np.pi * x)) ** 2
    init = make_state(0.0, 0.3 * np.sin(2 * np.pi * x), 0.2 * np.sin(np.pi * x), theta)
    if scheme == "limit":
        cfg = SolverConfig(dt=0.37 * g.h, t_end=7 * 0.37 * g.h)
        traj = run_limit(init, material, cfg, g, record_every=record_every)
        chain = _chain(init, material, cfg, g, lambda s, k: step_limit(s, material, cfg, g))
    else:
        cfg = SolverConfig(dt=0.37 * g.h, t_end=7 * 0.37 * g.h, epsilon=1e-2, scheme=scheme)
        traj = run_eps(init, material, cfg, g, record_every=record_every)
        chain = _chain(init, material, cfg, g, lambda s, k: step_eps(s, material, cfg, g))
    assert traj.records[0].hfunc_valid == (theta_low in (0.5, "floor"))
    _assert_run_equals_chain(traj, chain, record_every)


@pytest.mark.parametrize("material", _materials(), ids=lambda m: m.kind)
@pytest.mark.parametrize("source, n_cells, record_every",
                         [("mms", 20, 1), ("linear", 20, 1),
                          ("mms", 4096, 3), ("linear", 4096, 3)],
                         ids=["mms", "linear", "mms-chunks", "linear-chunks"])
def test_forced_run_equals_fresh_stepper_per_step(material, source, n_cells, record_every):
    """With forcing the opening half-kick reuses the closing force only at an
    equal t: (k - 1) dt + dt differs from k dt at some steps of this run.  A
    source linear in t, started from rest, changes the force with the last
    bit of t, so a carry that ignored t would fail here.  At N = 4096 the
    forcing tables hold 3 steps, so the run crosses three chunk boundaries."""
    from thermoelast1d.experiments import Manufactured

    g = Grid(0.0, 1.0, n_cells)
    ref = Manufactured(g.a, g.b)
    x = g.nodes
    if source == "mms":
        forcing = ref.forcing(material)
        init = make_state(0.0, ref.v(x, 0.0), ref.u(x, 0.0), ref.theta(x, 0.0))
    else:
        # from rest, the source dominates the half-kick force
        forcing = (lambda x, t: t * np.sin(np.pi * x), lambda x, t: 0.5 * t * np.cos(np.pi * x))
        init = equilibrium(g, 0.8)
    cfg = SolverConfig(dt=0.1 * g.h, t_end=12 * 0.1 * g.h)
    n = cfg.n_steps()
    assert any((k - 1) * cfg.dt + cfg.dt != k * cfg.dt for k in range(2, n + 1))
    assert n_cells == 20 or block_rows(g.n_nodes) == 3  # chunks open at steps 1, 4, 7, 10
    traj = run_limit(init, material, cfg, g, forcing=forcing, record_every=record_every)

    def step(s, k):
        stepper = LimitStepper(g, material, cfg, forcing=forcing)
        v, u, th = stepper.advance(s.v.values, s.u.values, s.theta.values, (k - 1) * cfg.dt)
        return make_state(k * cfg.dt, v, u, th)

    _assert_run_equals_chain(traj, _chain(init, material, cfg, g, step), record_every)


@settings(max_examples=30, deadline=None)
@given(
    n_cells=st.integers(4, 80),
    n_steps=st.integers(1, 9),
    record_every=st.integers(1, 5),
    scheme=st.sampled_from(["limit", "imex1", "imex2"]),
    material=st.sampled_from(_materials()),
)
def test_recorder_keeps_states_of_one_read_only_store(n_cells, n_steps, record_every,
                                                      scheme, material):
    """Every (state, record) a recorder keeps still equals the chain of fresh
    single steps after the run.  The stored states are read-only views of
    one store; the states not stored share no memory with it."""
    g = Grid(0.0, 1.0, n_cells)
    init = standing_wave(g, amplitude=0.3, theta_amplitude=0.2)
    kept = []
    recorder = lambda s, r: kept.append((s, r))  # noqa: E731
    dt = 0.37 * g.h
    if scheme == "limit":
        cfg = SolverConfig(dt=dt, t_end=n_steps * dt)
        traj = run_limit(init, material, cfg, g, record_every=record_every, recorder=recorder)
        step = lambda s, k: step_limit(s, material, cfg, g)  # noqa: E731
    else:
        cfg = SolverConfig(dt=dt, t_end=n_steps * dt, epsilon=1e-2, scheme=scheme)
        traj = run_eps(init, material, cfg, g, record_every=record_every, recorder=recorder)
        step = lambda s, k: step_eps(s, material, cfg, g)  # noqa: E731
    states, records = _chain(init, material, cfg, g, step)
    assert [_state_bits(s) for s, _ in kept] == [_state_bits(s) for s in states]
    assert [record_bits(r) for _, r in kept] == [record_bits(r) for r in records]
    _assert_run_equals_chain(traj, (states, records), record_every)

    assert traj.states[0] is init and kept[0][0] is init
    stored = traj.states[1:]
    assert len(stored) == -(-n_steps // record_every)
    store = stored[0].block.base
    assert store.shape == (len(stored), 3, g.n_nodes)
    assert all(s.block.base is store and np.shares_memory(s.block, store) for s in stored)
    stored_ids = {id(s) for s in stored}
    for s, _ in kept[1:]:
        assert (id(s) in stored_ids) == np.shares_memory(s.block, store)
        with pytest.raises(ValueError, match="read-only"):
            s.block[2, 0] = 1.0


@pytest.mark.parametrize("n_cells, dt_factor, n_steps",
                         [(64, 0.3, 8), (64, 0.1, 40), (37, 0.37, 25), (4096, 0.1, 12)])
def test_forcing_evaluates_only_the_opening_rows_it_reads(n_cells, dt_factor, n_steps):
    """S_v is evaluated at every closing time, and at an opening time only
    where it differs from the previous closing time, or opens a chunk."""
    from thermoelast1d.experiments import Manufactured

    g = Grid(0.0, 1.0, n_cells)
    ref = Manufactured(g.a, g.b)
    x = g.nodes
    s_v, s_th = ref.forcing(MAT)
    rows = []

    def counted_s_v(x, t):
        rows.append(t.shape[0])
        return s_v(x, t)

    init = make_state(0.0, ref.v(x, 0.0), ref.u(x, 0.0), ref.theta(x, 0.0))
    dt = dt_factor * g.h
    cfg = SolverConfig(dt=dt, t_end=n_steps * dt)
    run_limit(init, MAT, cfg, g, forcing=(counted_s_v, s_th))
    chunk = block_rows(g.n_nodes)
    opens = range(1, n_steps + 1, chunk)
    # step k opens at (k - 1) dt; step k - 1 closed at (k - 2) dt + dt
    mismatched = [k for k in range(2, n_steps + 1)
                  if k not in opens and (k - 2) * dt + dt != (k - 1) * dt]
    assert n_steps <= chunk or n_cells == 4096  # one chunk, except at N = 4096
    assert mismatched or n_cells == 4096
    assert sum(rows) == n_steps + len(mismatched) + len(opens)
