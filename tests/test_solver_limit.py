import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import float_bits, record_bits
from thermoelast1d import state, stepping
from thermoelast1d.diagnostics import compute_record, energy_identity_residual
from thermoelast1d.errors import ConfigError, ContractError, PositivityError, SchemeError
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
from thermoelast1d.stepping import LimitStepper, run_simulation

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
def test_forced_run_equals_fresh_stepper_per_step(material, source, n_cells, record_every,
                                                  monkeypatch):
    """With forcing the opening half-kick reuses the closing force only at an
    equal t: (k - 1) dt + dt differs from k dt at some steps of this run.  A
    source linear in t, started from rest, changes the force with the last
    bit of t, so a carry that ignored t would fail here.  At N = 4096 the
    forcing tables hold 3 steps (BLOCK_VALUES = 3 N), so the run crosses
    three chunk boundaries."""
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
    if n_cells == 4096:
        monkeypatch.setattr(state, "BLOCK_VALUES", 3 * g.n_nodes)
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
    one ``(n_kept, 3, N)`` store, t = 0 in slot 0, and the records of one
    ``(n_steps + 1, 14)`` block of rows; of the states the recorder was
    given, those not stored share no memory with the store."""
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

    assert kept[0][0] is init and _state_bits(traj.states[0]) == _state_bits(init)
    stored = traj.states
    assert len(stored) == 1 - (-n_steps // record_every)
    store = traj.store
    assert store.shape == (len(stored), 3, g.n_nodes) and store.flags.c_contiguous
    assert all(s.block.base is store and not s.block.flags.writeable for s in stored)
    assert traj.rows.shape == (n_steps + 1, len(state.RECORD_FIELDS))
    assert all(r.row.base is traj.rows and not r.row.flags.writeable for r in traj.records)
    stored_steps = {k for k in range(n_steps + 1) if k % record_every == 0 or k == n_steps}
    for k, (s, r) in enumerate(kept[1:], start=1):
        assert (k in stored_steps) == np.shares_memory(s.block, store)
        assert np.shares_memory(r.row, traj.rows)
        for array in (s.block, r.row):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0


class _FailAt:
    """``stepper`` with node ``node`` of ``field`` set to ``value`` at step
    ``k``, in a copy.  A finite value (at an end the run pins) is taken back
    at the next step, so the run goes on as the chain does; any other value
    is handed on.  With ``then_raise`` the step after k raises
    ContractError."""

    def __init__(self, stepper, k, field, node, value, then_raise=False):
        self.stepper, self.k, self.calls = stepper, k, 0
        self.field, self.node, self.value, self.then_raise = field, node, value, then_raise
        self.label = stepper.label
        self.swap = None  # (returned, original) of the changed array

    def _original(self, a):
        return self.swap[1] if self.swap is not None and a is self.swap[0] else a

    def advance(self, v, u, th, t):
        self.calls += 1
        if self.then_raise and self.calls == self.k + 1:
            raise ContractError("advance refused its input")
        if np.isfinite(self.value):
            v, u, th = map(self._original, (v, u, th))
        out = list(self.stepper.advance(v, u, th, t))
        if self.calls == self.k:
            i = ("v", "u", "theta").index(self.field)
            changed = out[i].copy()
            changed[self.node] = self.value
            self.swap = changed, out[i]
            out[i] = changed
        return tuple(out)


#: (field, node, value, then_raise) of a changed step and the error it raises:
#: negative or NaN Theta, a finite nonzero v end (pinned, no error), a NaN v
#: end, and a Theta failure before an advance that raises
_CHANGES = [
    (("theta", 3, -1.0, False), PositivityError, "at step {k}, "),
    (("theta", 3, np.nan, False), SchemeError, "non-finite theta at step {k}, "),
    (("v", 0, 0.25, False), None, None),
    (("v", 0, np.nan, False), SchemeError,
     r"non-finite v at step {k}, t = [^;]*; first at v node 0 "),
    (("theta", 3, -1.0, True), PositivityError, "at step {k}, "),
]


def test_chunk_size_follows_the_node_count():
    """C = BLOCK_VALUES // N steps per chunk, and 1 from N > BLOCK_VALUES / 2
    (run-large's N = 4097 steps one state at a time)."""
    assert block_rows(33) == state.BLOCK_VALUES // 33 > 100
    assert block_rows(513) == state.BLOCK_VALUES // 513 > 1
    assert block_rows(4097) == block_rows(10**6) == 1


@settings(max_examples=60, deadline=None)
@given(
    n_cells=st.integers(4, 60) | st.just(4100),
    chunk=st.sampled_from([None, 1, 2, 3, 5]),
    n_steps=st.integers(1, 11),
    record_every=st.integers(1, 11),
    scheme=st.sampled_from(["limit", "imex1", "imex2"]),
    material=st.sampled_from(_materials()),
    forced=st.booleans(),
    fail=st.none() | st.tuples(st.integers(1, 11), st.sampled_from(_CHANGES)),
)
def test_chunked_run_equals_chain_of_single_steps(n_cells, chunk, n_steps, record_every,
                                                  scheme, material, forced, fail):
    """The run loop forms its rows per chunk of C steps (``chunk``: C set
    through BLOCK_VALUES, None: the node-count rule, C = 1 at N = 4101 and
    C > n_steps on the small grids).  Records and stored states equal the
    chain of fresh single steps and compute_record bit for bit, for every
    scheme, material and record_every in 1..n_steps, with and without
    forcing.  The recorder sees every step once, in order, t = 0 first, and
    no state it was given changes after the run.  A failure at step k, in
    any place of its chunk, names step k (field and node for a non-finite
    value) and carries the chain's row k - 1, also when the next advance
    raises.  A finite nonzero v end from the stepper is no failure: every
    state kept or recorded has its v and u ends pinned to 0."""
    record_every = min(record_every, n_steps)
    g = Grid(0.0, 1.0, n_cells)
    init = standing_wave(g, amplitude=0.3, theta_amplitude=0.2)
    dt = 0.37 * g.h
    forcing = None
    if scheme == "limit":
        cfg = SolverConfig(dt=dt, t_end=n_steps * dt)
        if forced:
            forcing = (lambda x, t: t * np.sin(np.pi * x),
                       lambda x, t: 0.5 * (1.0 + t) * (1.0 + np.cos(np.pi * x)))
        stepper = LimitStepper(g, material, cfg, forcing=forcing)

        def step(s, k):
            fresh = LimitStepper(g, material, cfg, forcing=forcing)
            return make_state(k * dt, *fresh.advance(*s.block.copy(), (k - 1) * dt))
    else:
        cfg = SolverConfig(dt=dt, t_end=n_steps * dt, epsilon=1e-2, scheme=scheme)
        stepper = stepping._EPS_STEPPERS[scheme](g, material, cfg)
        step = lambda s, k: step_eps(s, material, cfg, g)  # noqa: E731
    states, records = _chain(init, material, cfg, g, step)

    seen = []
    recorder = lambda s, r: seen.append((s, r, s.block.tobytes()))  # noqa: E731
    with pytest.MonkeyPatch.context() as mp:
        if chunk is not None:
            mp.setattr(state, "BLOCK_VALUES", chunk * g.n_nodes)
            assert block_rows(g.n_nodes) == chunk
        elif n_cells == 4100:
            assert block_rows(g.n_nodes) == 1
        if fail is not None and fail[0] <= n_steps:
            k, (change, error, message) = fail
            stepper = _FailAt(stepper, k, *change)
        if fail is None or fail[0] > n_steps or error is None:
            traj = run_simulation(stepper, init, material, cfg, g, record_every, recorder)
            _assert_run_equals_chain(traj, (states, records), record_every)
            ends = [s.block[:2, [0, -1]] for s in [*traj.states, *(s for s, _, _ in seen)]]
            assert not np.any(ends)
            n_seen = n_steps + 1
        else:
            with pytest.raises(error, match=message.format(k=k)) as exc:
                run_simulation(stepper, init, material, cfg, g, record_every, recorder)
            assert record_bits(exc.value.last_record) == record_bits(records[k - 1])
            n_seen = k
    assert [s.t for s, _, _ in seen] == [k * dt for k in range(n_seen)]
    assert [record_bits(r) for _, r, _ in seen] == [record_bits(r) for r in records[:n_seen]]
    assert all(s.block.tobytes() == bits for s, _, bits in seen)


class _Counted:
    """``stepper`` with a count of its ``advance`` calls and a list of the
    opening times each chunk hands over."""

    def __init__(self, stepper):
        self.stepper, self.label, self.calls, self.opened = stepper, stepper.label, 0, []

    def open_chunk(self, t_open):
        self.opened.append(list(t_open))
        self.stepper.open_chunk(t_open)

    def advance(self, v, u, th, t):
        self.calls += 1
        return self.stepper.advance(v, u, th, t)


@settings(max_examples=40, deadline=None)
@given(n_cells=st.integers(4, 40), rows=st.integers(1, 5), n_steps=st.integers(1, 17),
       forced=st.booleans())
def test_chunks_and_forcing_tables_are_the_blocks_of_the_trajectory(n_cells, rows, n_steps,
                                                                    forced):
    """With BLOCK_VALUES = rows * N, the run loop's chunks are the blocks
    ``traj.blocks(1, n_steps + 1)``: the recorder sees the steps of a block
    only after the advance of its last step.  The run loop hands the
    stepper each block's opening times (k - 1) dt before its first advance,
    and the forced limit stepper evaluates S_theta once per block, at that
    block's closing times."""
    g = Grid(0.0, 1.0, n_cells)
    init = standing_wave(g, amplitude=0.3, theta_amplitude=0.2)
    dt = 0.37 * g.h
    cfg = SolverConfig(dt=dt, t_end=n_steps * dt)
    s_th_times = []
    forcing = None
    if forced:
        def s_th(x, t):
            s_th_times.append(t.ravel().tolist())
            return 0.5 * (1.0 + t) * (1.0 + np.cos(np.pi * x))

        forcing = (lambda x, t: t * np.sin(np.pi * x), s_th)
    stepper = _Counted(LimitStepper(g, MAT, cfg, forcing=forcing))
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(state, "BLOCK_VALUES", rows * g.n_nodes)
        traj = run_simulation(stepper, init, MAT, cfg, g,
                              recorder=lambda s, r: seen.append(stepper.calls))
        blocks = list(traj.blocks(1, n_steps + 1))
    assert all(hi - lo <= rows for lo, hi in blocks)
    assert seen == [0] + [hi - 1 for lo, hi in blocks for _ in range(lo, hi)]
    opening = [[(k - 1) * dt for k in range(lo, hi)] for lo, hi in blocks]
    assert [float_bits(t) for t in stepper.opened] == [float_bits(t) for t in opening]
    closing = [[(k - 1) * dt + dt for k in range(lo, hi)] for lo, hi in blocks]
    assert s_th_times == (closing if forced else [])


@pytest.mark.parametrize("n_cells, dt_factor, n_steps",
                         [(64, 0.3, 8), (64, 0.1, 40), (37, 0.37, 25), (4096, 0.1, 12)])
def test_forcing_evaluates_only_the_opening_rows_it_reads(n_cells, dt_factor, n_steps,
                                                          monkeypatch):
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
    if n_cells == 4096:  # 3-row tables, so that a table holds a mismatch
        monkeypatch.setattr(state, "BLOCK_VALUES", 3 * g.n_nodes)
    run_limit(init, MAT, cfg, g, forcing=(counted_s_v, s_th))
    chunk = block_rows(g.n_nodes)
    opens = range(1, n_steps + 1, chunk)
    # step k opens at (k - 1) dt; step k - 1 closed at (k - 2) dt + dt
    mismatched = [k for k in range(2, n_steps + 1)
                  if k not in opens and (k - 2) * dt + dt != (k - 1) * dt]
    assert n_steps <= chunk or n_cells == 4096  # one chunk, except at N = 4096
    assert mismatched or n_cells == 4096
    assert sum(rows) == n_steps + len(mismatched) + len(opens)


@pytest.mark.parametrize("forced", [False, True])
def test_steppers_on_one_grid_share_no_working_memory(forced):
    """Two LimitSteppers on one grid (one set of LU factors), advanced
    alternately, equal their separate runs bit for bit, and no array that
    ``advance`` returned changes on later steps of either."""
    g = Grid(0.0, 1.0, 24)
    cfg = SolverConfig(dt=0.3 * g.h, t_end=6 * 0.3 * g.h)
    forcing = None
    if forced:
        forcing = (lambda x, t: t * np.sin(np.pi * x), lambda x, t: 0.5 * t * np.cos(np.pi * x))
    inits = [standing_wave(g, amplitude=0.3, theta_amplitude=0.2),
             standing_wave(g, amplitude=0.1, theta_amplitude=0.4)]
    materials = [log1p_material(), MAT]

    def states(stepper, block, k):
        return stepper.advance(*block, (k - 1) * cfg.dt)

    alone = []
    for init, material in zip(inits, materials):
        stepper = LimitStepper(g, material, cfg, forcing=forcing)
        block, out = init.block.copy(), []
        for k in range(1, cfg.n_steps() + 1):
            block = states(stepper, block, k)
            out.append([a.tobytes() for a in block])
        alone.append(out)

    steppers = [LimitStepper(g, m, cfg, forcing=forcing) for m in materials]
    blocks = [init.block.copy() for init in inits]
    returned = [[], []]
    for k in range(1, cfg.n_steps() + 1):
        for i, stepper in enumerate(steppers):
            blocks[i] = states(stepper, blocks[i], k)
            returned[i].append((blocks[i], [a.tobytes() for a in blocks[i]]))
    for i in range(2):
        assert [bits for _, bits in returned[i]] == alone[i]
        assert all([a.tobytes() for a in arrays] == bits for arrays, bits in returned[i])


@pytest.mark.parametrize("scheme", ["limit", "imex1"])
def test_run_frees_its_store_without_the_cycle_collector(scheme):
    """Nothing of a run is left in a reference cycle: with the cycle
    collector off, the state store and the chunk stacks are freed as soon as
    the trajectory is dropped, so a run's memory never waits for gc."""
    import gc
    import weakref

    g = Grid(0.0, 1.0, 40)
    init = standing_wave(g, amplitude=0.3, theta_amplitude=0.2)
    dt = 0.37 * g.h
    eps = 0.0 if scheme == "limit" else 1e-2
    cfg = SolverConfig(dt=dt, t_end=9 * dt, epsilon=eps, scheme="imex1")
    run = run_limit if scheme == "limit" else run_eps
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(state, "BLOCK_VALUES", 4 * g.n_nodes)
        gc.collect()
        gc.disable()
        try:
            traj = run(init, MAT, cfg, g, record_every=2,
                       recorder=lambda s, r: s.t and seen.append(weakref.ref(s.block.base)))
            store = weakref.ref(traj.states[-1].block.base)
            assert len(seen) == 9 and store() is not None
            del traj
            assert store() is None and all(ref() is None for ref in seen)
        finally:
            gc.enable()
