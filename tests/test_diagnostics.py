import dataclasses
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    _restrict,
    composed_row,
    difference_norms_loop,
    energy,
    float_bits,
    hfunc,
    mass_identity_residual_loop,
    record_bits,
    squared_differences_loop,
    weak_form_residual_loop,
)
from thermoelast1d.diagnostics import (
    DifferenceAccumulator,
    DifferenceNorms,
    SpaceTimeTestFunction,
    chunk_records,
    compute_record,
    default_test_bank,
    difference_norms,
    energy_identity_residual,
    mass_identity_residual,
    squared_differences,
    weak_form_residual,
)
from thermoelast1d.errors import ContractError, StructuralError
from thermoelast1d.experiments import Manufactured
from thermoelast1d.grid import Field, Grid, l2_norm_sq
from thermoelast1d.initial_data import equilibrium, random_l2_theta, random_smooth, standing_wave
from thermoelast1d.materials import (
    identity_material,
    log1p_material,
    rational_saturating_material,
    tabulated_material,
)
from thermoelast1d.solver_eps import run_eps
from thermoelast1d.solver_limit import run_limit
from thermoelast1d.state import (
    BLOCK_VALUES,
    RECORD_FIELDS,
    SolverConfig,
    Trajectory,
    make_state,
    record_on,
)

MAT = identity_material()


def small_run(n=64, t_end=0.25, epsilon=0.0, scheme="imex1", dt=None, amplitude=0.3,
              theta_amplitude=0.2, record_every=1):
    g = Grid(0.0, 1.0, n)
    cfg = SolverConfig(
        dt=g.h / 2 if dt is None else dt, t_end=t_end, epsilon=epsilon, scheme=scheme
    )
    init = standing_wave(g, amplitude=amplitude, theta_amplitude=theta_amplitude)
    if epsilon > 0:
        return g, cfg, run_eps(init, MAT, cfg, g, record_every=record_every)
    return g, cfg, run_limit(init, MAT, cfg, g, record_every=record_every)


def test_equilibrium_energy_residual_exact_zero():
    g = Grid(0.0, 1.0, 64)
    cfg = SolverConfig(dt=g.h / 2, t_end=0.5, epsilon=0.0)
    traj = run_limit(equilibrium(g, 0.7), MAT, cfg, g)
    r = energy_identity_residual(traj)
    assert np.max(np.abs(r)) <= 1e-13


def test_linear_wave_residual_through_verlet_invariant():
    """The continuous E oscillates at O(dt^2) for the leapfrog wave; the
    residual must stay at that level and show no secular drift."""
    g = Grid(0.0, 1.0, 128)
    cfg = SolverConfig(dt=g.h / 2, t_end=1.0, epsilon=0.0)
    init = standing_wave(g, amplitude=1.0, theta_base=0.0, theta_amplitude=0.0)
    traj = run_limit(init, MAT, cfg, g)
    r = energy_identity_residual(traj)
    assert np.max(np.abs(r)) <= 0.5 * cfg.dt**2 * traj.records[0].energy * 50
    # no drift: residual at T comparable to its running maximum
    assert abs(r[-1]) <= np.max(np.abs(r)) + 1e-15


def test_eps_residual_decays_with_dt():
    out = []
    for dt in (1e-3, 5e-4, 2.5e-4):
        g, cfg, traj = small_run(n=64, t_end=0.25, epsilon=1e-2, dt=dt)
        out.append(np.max(np.abs(energy_identity_residual(traj))))
    assert out[2] < out[1] < out[0]
    order = np.log2(out[0] / out[1])
    assert order > 0.7


# --- mass identity -----------------------------------------------------------


def test_mass_residual_zero_theta():
    g = Grid(0.0, 1.0, 64)
    cfg = SolverConfig(dt=g.h / 2, t_end=0.25, epsilon=0.0)
    init = standing_wave(g, amplitude=0.4, theta_base=0.0, theta_amplitude=0.0)
    traj = run_limit(init, MAT, cfg, g)
    assert np.max(np.abs(mass_identity_residual(traj, MAT))) == 0.0


def test_mass_residual_equilibrium_single_step():
    g = Grid(0.0, 1.0, 64)
    dt = 1e-3
    cfg = SolverConfig(dt=dt, t_end=dt, epsilon=0.0)
    traj = run_limit(equilibrium(g, 1.0), MAT, cfg, g)
    r = mass_identity_residual(traj, MAT)
    assert np.max(np.abs(r)) <= dt**2


def test_mass_residual_refines():
    out = []
    for dt in (1e-3, 5e-4):
        g, cfg, traj = small_run(n=128, t_end=0.25, dt=dt)
        out.append(np.max(np.abs(mass_identity_residual(traj, MAT))))
    assert out[1] <= out[0] / 1.7  # order >= ~1


def test_mass_residual_refuses_an_empty_trajectory():
    traj = Trajectory(Grid(0.0, 1.0, 8), 0.0, "limit")
    with pytest.raises(StructuralError, match="needs a stored state, got 0"):
        mass_identity_residual(traj, MAT)


# --- weak form ---------------------------------------------------------------


@pytest.mark.parametrize("n_states", [0, 1])
def test_weak_form_refuses_fewer_than_two_states(n_states):
    g = Grid(0.0, 1.0, 8)
    traj = Trajectory(g, 0.0, "limit", states=[equilibrium(g)][:n_states])
    with pytest.raises(StructuralError, match=f"at least two snapshots, got {n_states}"):
        weak_form_residual(traj, MAT, default_test_bank(g, 0.25, n=2))


def test_weak_form_zero_solution():
    g = Grid(0.0, 1.0, 32)
    cfg = SolverConfig(dt=g.h / 2, t_end=0.25, epsilon=0.0)
    init = standing_wave(g, amplitude=0.0, theta_base=0.0, theta_amplitude=0.0)
    traj = run_limit(init, MAT, cfg, g)
    res = weak_form_residual(traj, MAT, default_test_bank(g, 0.25, n=6))
    assert res.max_wu == 0.0
    assert res.max_wt == 0.0


def test_weak_form_equilibrium_quadrature_tolerance():
    g = Grid(0.0, 1.0, 32)
    cfg = SolverConfig(dt=4e-5, t_end=0.5, epsilon=0.0)
    traj = run_limit(equilibrium(g, 0.7), MAT, cfg, g)
    res = weak_form_residual(traj, MAT, default_test_bank(g, 0.5, n=10))
    assert max(res.max_wu, res.max_wt) <= 1e-8


def test_weak_form_refines():
    out = []
    for n in (64, 128):
        g, cfg, traj = small_run(n=n, t_end=0.25)
        bank = default_test_bank(g, 0.25, n=6)
        res = weak_form_residual(traj, MAT, bank)
        out.append(max(res.max_wu, res.max_wt))
    assert np.log2(out[0] / out[1]) >= 0.9


def test_weak_form_support_validation():
    g, cfg, traj = small_run(n=32, t_end=0.25)
    bad_horizon = default_test_bank(g, 0.5, n=2)
    with pytest.raises(ContractError, match="horizon"):
        weak_form_residual(traj, MAT, bad_horizon)
    from thermoelast1d.diagnostics import SpaceTimeTestFunction

    bad_space = SpaceTimeTestFunction(
        target="wu",
        X=lambda x: np.ones_like(x),
        Xp=lambda x: np.zeros_like(x),
        T=lambda t: 1.0 - t / 0.25,
        Tp=lambda t: -4.0,
        Tpp=lambda t: 0.0,
        t_end=0.25,
    )
    with pytest.raises(ContractError, match="vanish"):
        weak_form_residual(traj, MAT, [bad_space])


# --- difference norms --------------------------------------------------------


def test_difference_norms_self_is_zero():
    g, cfg, traj = small_run(n=32, t_end=0.1, dt=1e-3)
    d = difference_norms(traj, traj)
    assert d.total() == 0.0


def test_difference_norms_vs_zero_gives_self_norms():
    g, cfg, traj = small_run(n=32, t_end=0.1, dt=1e-3)
    n = g.n_nodes
    zero = Trajectory(g, 0.0, "limit", states=[
        make_state(s.t, np.zeros(n), np.zeros(n), np.zeros(n)) for s in traj.states])
    d = difference_norms(traj, zero)
    from thermoelast1d.grid import dx, l2_norm_sq

    sup_v = max(l2_norm_sq(s.v.values, g) for s in traj.states)
    assert d.sup_v_l2 == pytest.approx(sup_v, rel=1e-12)


def test_difference_norms_symmetry_and_triangle():
    rng = np.random.default_rng(0)
    g = Grid(0.0, 1.0, 24)
    times = np.linspace(0.0, 0.2, 6)

    def synth(seed):
        r = np.random.default_rng(seed)
        states = []
        for t in times:
            vals = [r.normal(size=g.n_nodes) for _ in range(3)]
            th = np.abs(vals[2])
            states.append(make_state(t, vals[0], vals[1], th))
        return Trajectory(g, 0.0, "limit", states=states)

    a, b, c = synth(1), synth(2), synth(3)
    dab = difference_norms(a, b)
    dba = difference_norms(b, a)
    assert dab == dba
    dac = difference_norms(a, c)
    dbc = difference_norms(b, c)
    for name in ("sup_v_l2", "sup_ux_l2", "sup_theta_l2", "thetax_l2l2"):
        # triangle inequality in the non-squared interpretation
        assert np.sqrt(getattr(dac, name)) <= (
            np.sqrt(getattr(dab, name)) + np.sqrt(getattr(dbc, name)) + 1e-12
        )


def test_difference_norms_grid_mismatch():
    _, _, ta = small_run(n=32, t_end=0.1, dt=1e-3)
    _, _, tb = small_run(n=64, t_end=0.1, dt=1e-3)
    with pytest.raises(StructuralError):
        difference_norms(ta, tb)


def test_difference_norms_timeline_mismatch():
    _, _, ta = small_run(n=32, t_end=0.1, dt=1e-3)
    _, _, tb = small_run(n=32, t_end=0.1, dt=5e-4)
    with pytest.raises(StructuralError):
        difference_norms(ta, tb)


def test_difference_accumulator_refuses_a_state_off_its_reference_time():
    """Fed as the recorder of a run at half the reference's dt."""
    g, _, ref = small_run(n=32, t_end=0.01, dt=1e-3)
    cfg = SolverConfig(dt=5e-4, t_end=0.01)
    with pytest.raises(StructuralError,
                       match=r"step 1 at t = 0\.0005 is off its reference time 0\.001 by "
                             r"more than 1e-12"):
        run_limit(standing_wave(g, amplitude=0.3, theta_amplitude=0.2), MAT, cfg, g,
                  recorder=DifferenceAccumulator(ref))


def test_difference_accumulator_refuses_a_node_count_off_the_reference_after_its_stride():
    _, _, ref = small_run(n=32, t_end=0.01, dt=1e-3)
    _, _, fine = small_run(n=64, t_end=0.01, dt=1e-3)
    for stride, nodes in ((1, 65), (3, 22)):
        acc = DifferenceAccumulator(ref, stride=stride)
        with pytest.raises(StructuralError, match=f"{nodes} nodes at stride {stride}, "
                                                  "the reference 33"):
            acc.feed(fine.times, fine.store)


def test_difference_accumulator_needs_every_reference_time_matched():
    _, _, ref = small_run(n=32, t_end=0.02, dt=1e-3)
    _, _, short = small_run(n=32, t_end=0.01, dt=1e-3)
    acc = DifferenceAccumulator(ref)
    acc.feed(short.times, short.store)
    with pytest.raises(ContractError, match="the run reached 11 of the reference's 21 times"):
        acc.result()
    # a state past the reference's last time has none to meet
    with pytest.raises(StructuralError, match=r"step 11 at t = 0\.011 is off its reference "
                                              r"time inf"):
        DifferenceAccumulator(short).feed(ref.times, ref.store)


def test_state_rejects_wrong_bc_kinds():
    from thermoelast1d.errors import ContractError
    from thermoelast1d.grid import BC_DIRICHLET, BC_HINGED, BC_NEUMANN, Field
    from thermoelast1d.state import State

    n = 9
    v = Field(np.zeros(n), BC_HINGED)
    u = Field(np.zeros(n), BC_DIRICHLET)
    th = Field(np.ones(n), BC_NEUMANN)
    State(0.0, v, u, th)  # valid triple
    with pytest.raises(ContractError):
        State(0.0, u, u, th)  # v must be hinged
    with pytest.raises(ContractError):
        State(0.0, v, u, Field(np.zeros(n), BC_DIRICHLET))  # theta bc wrong
    with pytest.raises(StructuralError):
        State(0.0, v, u, Field(np.ones(n + 2), BC_NEUMANN))


# --- record bookkeeping ------------------------------------------------------


def test_dissipation_accumulator_matches_trapezoid():
    g, cfg, traj = small_run(n=64, t_end=0.25, epsilon=1e-2)
    t = traj.record_times
    s = traj.record_series("thetax_l2sq")
    acc = np.concatenate([[0.0], np.cumsum(0.5 * (s[1:] + s[:-1]) * np.diff(t))])
    assert np.max(np.abs(acc - traj.record_series("dissipation_accum"))) <= 1e-12


def test_hfunc_flagged_below_floor():
    g = Grid(0.0, 1.0, 16)
    n = g.n_nodes
    s = make_state(0.0, np.zeros(n), np.zeros(n), np.zeros(n))  # theta = 0 < floor
    rec = compute_record(s, MAT, g, 0.0, None)
    assert rec.hfunc is None
    assert not rec.hfunc_valid
    ok = make_state(0.0, np.zeros(n), np.zeros(n), np.ones(n))
    rec2 = compute_record(ok, MAT, g, 0.0, None)
    assert rec2.hfunc_valid
    assert rec2.hfunc == pytest.approx(1.0)


def test_energy_and_hfunc_values():
    g = Grid(0.0, 1.0, 256)
    init = standing_wave(g, amplitude=0.3, theta_amplitude=0.0, theta_base=2.0)
    # E = 1/2 |u_x|^2 + int Theta = 0.09 pi^2 / 4 + 2
    assert energy(init, g) == pytest.approx(0.09 * np.pi**2 / 4 + 2.0, rel=1e-4)
    y = hfunc(init, MAT, g)
    # y = 1 + 1/2 |u_xx|^2 = 1 + 0.09 pi^4 / 4
    assert y == pytest.approx(1.0 + 0.09 * np.pi**4 / 4, rel=1e-3)


def _bits(rec):
    return [x.hex() if isinstance(x, float) else x
            for x in (getattr(rec, name) for name in RECORD_FIELDS)]


_XI = np.linspace(0.0, 3.0, 7)
MATERIALS = [
    identity_material(),
    log1p_material(),
    rational_saturating_material(),
    tabulated_material(_XI, _XI / (1.0 + 0.5 * _XI)),
]


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(4, 300),
    seed=st.integers(0, 10_000),
    mat=st.sampled_from(MATERIALS),
    theta_base=st.sampled_from([-0.2, 0.0, 0.05, 1.0, 4.0]),
    epsilon=st.sampled_from([0.0, 1e-2]),
)
def test_compute_record_equals_composed_row_bitwise(n, seed, mat, theta_base, epsilon):
    g = Grid(-0.5, 1.5, n)
    rng = np.random.default_rng(seed)

    def state(t):
        k = g.n_nodes
        theta = max(theta_base, 0.0) + np.abs(rng.normal(scale=0.3, size=k))
        if theta_base <= 0.0:
            theta[rng.integers(k)] = theta_base  # at or below the rho floor
        return make_state(t, rng.normal(size=k), rng.normal(size=k), theta)

    s0, s1 = state(0.0), state(0.01)
    prev = compute_record(s0, mat, g, epsilon, None)
    assert _bits(prev) == _bits(composed_row(s0, mat, g, epsilon, None))
    rec = compute_record(s1, mat, g, epsilon, prev)
    assert _bits(rec) == _bits(composed_row(s1, mat, g, epsilon, prev))
    assert rec.hfunc_valid == (theta_base > 0.0)


@settings(max_examples=60, deadline=None)
@given(
    c=st.integers(1, 40),
    n=st.integers(4, 120),
    n_low=st.integers(0, 40),
    low=st.sampled_from([-1e-3, 0.0, 5e-9]),
    seed=st.integers(0, 10_000),
    mat=st.sampled_from(MATERIALS),
    epsilon=st.sampled_from([0.0, 1e-2]),
    chained=st.booleans(),
)
def test_chunk_records_equal_compute_record_chained(c, n, n_low, low, seed, mat, epsilon,
                                                    chained):
    """The rows of a ``(C, 3, N)`` stack, n_low of its states with a node
    below the rho floor (at any place in the chunk), equal
    ``helpers.composed_row`` chained state by state, bit for bit, from
    ``prev`` (the row before the C written) or from None (C rows only); the
    row before is not written."""
    g = Grid(-0.5, 1.5, n)
    rng = np.random.default_rng(seed)
    k = g.n_nodes
    stack = rng.normal(size=(c, 3, k))
    stack[:, :2, [0, -1]] = 0.0  # v and u ends pinned, as in every state
    stack[:, 2] = 0.05 + np.abs(stack[:, 2])
    for j in np.flatnonzero(rng.permutation(c) < n_low):
        stack[j, 2, rng.integers(k)] = low
    times = (1.0 + np.cumsum(rng.uniform(0.5, 1.5, c))).tolist()
    prev = None
    if chained:
        prev = composed_row(make_state(0.0, *rng.normal(size=(3, k))), mat, g, epsilon, None)
    out = np.empty((c + chained, len(RECORD_FIELDS)))
    if chained:
        out[0] = prev.row
    written = chunk_records(stack, times, stack[:, 2].min(axis=1).tolist(), mat, g, epsilon, out)
    assert written.base is out and written.shape == (c, len(RECORD_FIELDS))
    assert not chained or out[0].tobytes() == prev.row.tobytes()
    got = [record_on(row) for row in written]
    ref = []
    for t, block in zip(times, stack):
        prev = composed_row(make_state(t, *block), mat, g, epsilon, prev)
        ref.append(prev)
    assert [record_bits(r) for r in got] == [record_bits(r) for r in ref]
    assert [r.hfunc_valid for r in got] == [not np.any(b[2] < mat.rho_floor) for b in stack]


def test_compute_record_rejects_grid_mismatch():
    g = Grid(0.0, 1.0, 16)
    s = equilibrium(Grid(0.0, 1.0, 8))
    with pytest.raises(StructuralError):
        compute_record(s, MAT, g, 0.0, None)


@pytest.mark.parametrize("epsilon", [0.0, 1e-2])
def test_per_step_fields_and_weights_are_fixed(monkeypatch, epsilon):
    """No step builds a Field, and the trapezoid weights are looked up
    through the grid a fixed number of times, not once per step.
    The limit run evaluates f once per step: the closing half-kick's f(Theta)
    serves the next opening half-kick.  The rows evaluate f once per chunk
    for rho (one chunk per run here).  A forced limit run adds one evaluation
    of each forcing table per run of one chunk.
    f is counted at ``f_kernel``, which every evaluation reaches once, through
    the checked ``eval_f`` or directly."""
    import thermoelast1d.diagnostics as diagnostics_mod
    import thermoelast1d.materials as materials_mod
    import thermoelast1d.stepping as stepping_mod

    counts = Counter()
    post_init, quad_weights = Field.__post_init__, Grid.quad_weights
    f_kernel = materials_mod.f_kernel

    def counted_post_init(self, *args):
        counts["fields"] += 1
        post_init(self, *args)

    def counted_quad_weights(self):
        counts["weights"] += 1
        return quad_weights(self)

    def counted_f_kernel(*args):
        counts["eval_f"] += 1
        return f_kernel(*args)

    monkeypatch.setattr(Field, "__post_init__", counted_post_init)
    monkeypatch.setattr(Grid, "quad_weights", counted_quad_weights)
    for module in (materials_mod, stepping_mod, diagnostics_mod):
        monkeypatch.setattr(module, "f_kernel", counted_f_kernel)
    g = Grid(0.0, 1.0, 64)
    init = standing_wave(g, amplitude=0.3, theta_amplitude=0.2)
    seen, fields, f_calls = {}, {}, {}
    for k in (4, 8):
        cfg = SolverConfig(dt=g.h / 2, t_end=k * g.h / 2, epsilon=epsilon)
        counts.clear()
        traj = (run_eps if epsilon > 0 else run_limit)(init, MAT, cfg, g)
        assert all(r.hfunc_valid for r in traj.records)  # every row uses rho
        seen[k] = counts["weights"]
        fields[k] = counts["fields"]
        f_calls[k] = counts["eval_f"]
    assert seen[4] == seen[8]
    assert fields[4] == fields[8]
    if epsilon > 0.0:
        return
    assert f_calls[8] - f_calls[4] == 4  # one f evaluation per step
    # and the first opening, the t = 0 row and the chunk's rows
    assert f_calls[4] == 4 + 3 and f_calls[8] == 8 + 3

    # forced: the tables of S_v and S_theta are one chunk per run, and where
    # (k - 1) dt + dt != k dt (steps 6 and 7) the carried wave part serves
    # the opening half-kick
    ref = Manufactured(g.a, g.b)
    x = g.nodes
    init = make_state(0.0, ref.v(x, 0.0), ref.u(x, 0.0), ref.theta(x, 0.0))
    dt = 0.3 * g.h
    assert [k for k in range(2, 9) if (k - 1) * dt + dt != k * dt] == [6, 7]

    def counted(name, source):
        def call(x, t):
            counts[name] += 1
            return source(x, t)
        return call

    s_v, s_th = ref.forcing(MAT)
    forcing = (counted("s_v", s_v), counted("s_th", s_th))
    calls = {}
    for k in (4, 8):
        cfg = SolverConfig(dt=dt, t_end=k * dt, epsilon=0.0)
        counts.clear()
        run_limit(init, MAT, cfg, g, forcing=forcing)
        calls[k] = counts["fields"], counts["eval_f"], counts["s_v"], counts["s_th"]
    assert calls[4][0] == calls[8][0]
    # one f per step, the first opening, the t = 0 row, the chunk's rows and
    # one S_theta table
    assert calls[4][1] == 4 + 4 and calls[8][1] == 8 + 4
    assert calls[4][2:] == calls[8][2:] == (2, 1)


# --- blocked trajectory diagnostics == the per-state loop references --------


def _random_trajectory(g, times, rng, undershoot):
    k = g.n_nodes
    states = []
    for t in times:
        theta = 0.5 + np.abs(rng.normal(scale=0.4, size=k))
        if undershoot:
            # undershoot nodes take the np.maximum(Theta, 0) path
            theta[rng.integers(k, size=2)] = -1e-3
        states.append(make_state(t, rng.normal(size=k), rng.normal(size=k), theta))
    return Trajectory(g, 0.0, "limit", states=states)


def _scalar_time_factor_bank(g, t_end):
    """Hand-built members whose time derivatives return Python scalars."""
    a, b = g.a, g.b
    wt = SpaceTimeTestFunction(
        target="wt",
        X=lambda x: 1.0 + 0.5 * x,
        Xp=lambda x: np.full_like(x, 0.5),
        T=lambda t: 1.0 - t / t_end,
        Tp=lambda t: -1.0 / t_end,
        Tpp=lambda t: 0.0,
        t_end=t_end,
        label="wt-linear",
    )
    wu = SpaceTimeTestFunction(
        target="wu",
        X=lambda x: (x - a) * (b - x),
        Xp=lambda x: (b - x) - (x - a),
        T=lambda t: (1.0 - t / t_end) * (1.0 - t / t_end),
        Tp=lambda t: -2.0 * (1.0 - t / t_end) / t_end,
        Tpp=lambda t: 2.0 / t_end ** 2,
        t_end=t_end,
        label="wu-quadratic",
    )
    return [wt, wu]


def test_block_size_bounds_states_and_values():
    for n_cells, size in ((16, BLOCK_VALUES // 17), (63, BLOCK_VALUES // 64),
                          (64, BLOCK_VALUES // 65), (4096, 1),
                          (BLOCK_VALUES, 1), (4 * BLOCK_VALUES, 1)):
        traj = Trajectory(Grid(0.0, 1.0, n_cells), 0.0, "limit")
        assert traj.block_size == size
        assert list(traj.blocks(1, 2 * size + 2)) == [
            (1, size + 1), (size + 1, 2 * size + 1), (2 * size + 1, 2 * size + 2)]


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(4, 200),
    # state count as (blocks, extra): 2, block - 1, block, block + 1, 2 block + 3
    count=st.sampled_from([(0, 2), (1, -1), (1, 0), (1, 1), (2, 3)]),
    seed=st.integers(0, 10_000),
    mat=st.sampled_from(MATERIALS),
    undershoot=st.booleans(),
)
# the time factors square by multiplication: on a scalar, ``** 2`` is libm pow,
# which misrounds here at time 2 of 46, while the array path's is x * x
@example(n=177, count=(1, 0), seed=676, mat=MATERIALS[1], undershoot=False)
def test_blocked_diagnostics_equal_loop_references_bitwise(n, count, seed, mat,
                                                           undershoot):
    g = Grid(-0.5, 1.5, n)
    block = Trajectory(g, 0.0, "limit").block_size
    n_states = max(2, count[0] * block + count[1])
    rng = np.random.default_rng(seed)
    times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.5, 1.5, n_states - 1))])
    times *= 0.3 / times[-1]
    traj_a = _random_trajectory(g, times, rng, undershoot)
    traj_b = _random_trajectory(g, times, rng, undershoot)
    t_end = float(times[-1])
    bank = default_test_bank(g, t_end, n=4, seed=seed)
    bank += _scalar_time_factor_bank(g, t_end)

    got = weak_form_residual(traj_a, mat, bank)
    ref = weak_form_residual_loop(traj_a, mat, bank)
    assert np.array_equal(got.r_wu, ref.r_wu) and np.array_equal(got.r_wt, ref.r_wt)
    assert np.array_equal(mass_identity_residual(traj_a, mat),
                          mass_identity_residual_loop(traj_a, mat))
    assert difference_norms(traj_a, traj_b) == difference_norms_loop(traj_a, traj_b)


#: the rough and smooth data of the runs below; L2 Theta as trajectory-analysis draws it
_RUN_DATA = {"random_smooth": random_smooth,
             "random_L2_theta": lambda g, seed: random_l2_theta(g, seed=seed, theta_base=0.5)}


@settings(max_examples=30, deadline=None)
@given(
    # N = 2101 and its restriction to 1051 nodes: 3 and 7 states per block
    n_cells=st.sampled_from([8, 40, 130, 2100]),
    scheme=st.sampled_from(["limit", "imex1", "imex2"]),
    n_steps=st.integers(1, 24),
    record_every=st.integers(1, 3),
    restrict=st.booleans(),
    kind=st.sampled_from(sorted(_RUN_DATA)),
    mat=st.sampled_from(MATERIALS),
    seed=st.integers(0, 1000),
    shift=st.integers(1, 4),
)
def test_gathered_diagnostics_of_runs_equal_loop_references_bitwise(
        n_cells, scheme, n_steps, record_every, restrict, kind, mat, seed, shift):
    """The trajectory diagnostics of run_limit and run_eps trajectories,
    whose stored states after t = 0 are views of the run's store, and of
    their ``helpers._restrict``ion to every second node, equal the loop
    references bit for bit; so do the rows of ``squared_differences`` with
    ``shift`` over the blocks exp_time_shift reads."""
    g = Grid(0.0, 1.0, n_cells)
    epsilon = 0.0 if scheme == "limit" else 1e-2
    cfg = SolverConfig(dt=0.4 * g.h, t_end=n_steps * 0.4 * g.h, epsilon=epsilon,
                       scheme="imex1" if scheme == "limit" else scheme)
    run = run_eps if epsilon > 0.0 else run_limit
    trajs = [run(_RUN_DATA[kind](g, seed=s), mat, cfg, g, record_every=record_every)
             for s in (seed, seed + 1)]
    assert trajs[0].states[-1].block.base is not None  # a view of the run's store
    if restrict:
        trajs = [_restrict(t, Grid(0.0, 1.0, n_cells // 2), 2) for t in trajs]
    traj_a, traj_b = trajs

    bank = default_test_bank(traj_a.grid, float(traj_a.times[-1]), n=4, seed=seed)
    got = weak_form_residual(traj_a, mat, bank)
    ref = weak_form_residual_loop(traj_a, mat, bank)
    assert float_bits(got.r_wu) == float_bits(ref.r_wu)
    assert float_bits(got.r_wt) == float_bits(ref.r_wt)
    assert float_bits(mass_identity_residual(traj_a, mat)) == float_bits(
        mass_identity_residual_loop(traj_a, mat))
    assert difference_norms(traj_a, traj_b) == difference_norms_loop(traj_a, traj_b)

    n_states = len(traj_a)
    if shift < n_states:
        for lo, hi in [(0, 1), *traj_a.blocks(1, n_states - shift)]:
            got = squared_differences(traj_a.grid, traj_a.store[lo + shift:hi + shift],
                                      traj_a.store[lo:hi])
            ref = squared_differences_loop(traj_a, traj_a, lo, hi, shift)
            assert [float_bits(a) for a in got] == [float_bits(a) for a in ref]


@settings(max_examples=40, deadline=None)
@given(
    # N = 2101 and every second of its nodes: 3 and 7 states per block
    n_cells=st.sampled_from([8, 40, 130, 2100]),
    scheme=st.sampled_from(["limit", "imex1", "imex2"]),
    every=st.integers(1, 3),
    n_kept=st.integers(1, 8),
    stride=st.sampled_from([1, 2]),
    feed=st.integers(1, 5),
    kind=st.sampled_from(sorted(_RUN_DATA)),
    mat=st.sampled_from(MATERIALS),
    seed=st.integers(0, 1000),
)
def test_difference_accumulator_equals_the_loop_reference_bitwise(
        n_cells, scheme, every, n_kept, stride, feed, kind, mat, seed):
    """The accumulator of a stored run kept every ``every``-th step and
    restricted to every ``stride``-th node, fed a second run as its
    recorder (a run that keeps only its end states) and fed that run's
    stored states ``feed`` at a time, equals
    ``difference_norms_loop`` of the reference and the second run kept and
    restricted alike, bit for bit."""
    g = Grid(0.0, 1.0, n_cells)
    coarse = Grid(0.0, 1.0, n_cells // stride)
    epsilon = 0.0 if scheme == "limit" else 1e-2
    n_steps = every * n_kept
    cfg = SolverConfig(dt=0.4 * g.h, t_end=n_steps * 0.4 * g.h, epsilon=epsilon,
                       scheme="imex1" if scheme == "limit" else scheme)
    run = run_eps if epsilon > 0.0 else run_limit
    ref = _restrict(run(_RUN_DATA[kind](g, seed=seed + 1), mat, cfg, g, record_every=every),
                   coarse, stride)
    by_recorder = DifferenceAccumulator(ref, every=every, stride=stride)
    # the recorder gets views of the run loop's chunks, as the last rough-data level's does
    run(_RUN_DATA[kind](g, seed=seed), mat, cfg, g, recorder=by_recorder, record_every=n_steps)
    traj = run(_RUN_DATA[kind](g, seed=seed), mat, cfg, g)
    by_blocks = DifferenceAccumulator(ref, every=every, stride=stride)
    for lo in range(0, len(traj), feed):
        by_blocks.feed(traj.times[lo:lo + feed], traj.store[lo:lo + feed])
    kept = Trajectory.of_arrays(g, epsilon, traj.scheme, traj.times[::every],
                                traj.store[::every], traj.rows)
    want = difference_norms_loop(ref, _restrict(kept, coarse, stride))
    for got in (by_recorder.result(), by_blocks.result()):
        assert float_bits(dataclasses.astuple(got)) == float_bits(dataclasses.astuple(want))
