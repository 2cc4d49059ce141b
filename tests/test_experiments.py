import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import mms_s_th_scalar, mms_s_v_scalar
from thermoelast1d.errors import ContractError
from thermoelast1d.experiments import (
    _run_bound_quantities,
    exp_energy_audit,
    exp_eps_cauchy,
    exp_mms,
    exp_rough_data,
    exp_stability,
    exp_time_shift,
)
from thermoelast1d.grid import Grid, dx, l2_norm_sq
from thermoelast1d.initial_data import standing_wave
from thermoelast1d.materials import (
    identity_material,
    log1p_material,
    rational_saturating_material,
    tabulated_material,
)
from thermoelast1d.solver_eps import run_eps
from thermoelast1d.state import SolverConfig


def test_energy_audit_small():
    # pre-asymptotic sizes: a looser (but still >1) gain than the pinned 1.8
    rep = exp_energy_audit(n_cells=64, t_end=0.5, levels=2)
    drift, gain = rep.checks
    assert drift.passed and gain.name == "refinement gain level 0 -> 1"
    assert gain.value >= 1.5
    assert "residual_by_level" in rep.series


def test_energy_audit_deterministic():
    r1 = exp_energy_audit(n_cells=32, t_end=0.25, levels=2)
    r2 = exp_energy_audit(n_cells=32, t_end=0.25, levels=2)
    assert r1.checks == r2.checks
    for name in r1.series:
        for col in r1.series[name]:
            assert np.array_equal(r1.series[name][col], r2.series[name][col])


def test_stability_small():
    rep = exp_stability(n_cells=64, t_end=0.25, deltas=(1e-2, 1e-3))
    assert rep.passed
    tab = rep.series["scaling"]
    assert np.all(np.diff(tab["input_sq"]) < 0)
    assert np.all(np.diff(tab["output_sq"]) < 0)


def test_eps_cauchy_single_rung_vacuous():
    rep = exp_eps_cauchy(eps_ladder=(1e-2,), n_cells=32, t_end=0.125)
    assert rep.series["ladder"]["distance"].size == 0
    assert rep.passed  # nothing to violate


def test_eps_cauchy_requires_decreasing():
    with pytest.raises(ContractError):
        exp_eps_cauchy(eps_ladder=(1e-3, 1e-2), n_cells=32, t_end=0.125)


def test_time_shift_small():
    rep = exp_time_shift(shifts=(0.025, 0.05), n_cells=32, dt=2.5e-3, t_end=0.25)
    assert rep.passed
    assert np.isfinite(rep.params["log_C"])


def test_time_shift_equilibrium_vacuous():
    # equilibrium data: both sides vanish; reported as a vacuous pass
    import thermoelast1d.experiments as ex
    from thermoelast1d.grid import Grid
    from thermoelast1d.initial_data import equilibrium
    from thermoelast1d.materials import (
    identity_material,
    log1p_material,
    rational_saturating_material,
    tabulated_material,
)
    from thermoelast1d.solver_eps import run_eps
    from thermoelast1d.state import SolverConfig

    # drive through the public function by constructing an equilibrium-like
    # standing wave with zero amplitudes via monkey data is clumsier than
    # asserting the underlying ratio convention here:
    g = Grid(0.0, 1.0, 32)
    cfg = SolverConfig(dt=2.5e-3, t_end=0.25, epsilon=1e-2, scheme="imex2")
    traj = run_eps(equilibrium(g, 1.0), identity_material(), cfg, g)
    s0, sk = traj.states[0], traj.states[10]
    assert np.max(np.abs(sk.theta.values - s0.theta.values)) <= 1e-12


def test_time_shift_rejects_misaligned_shift():
    with pytest.raises(ContractError, match="multiple"):
        exp_time_shift(shifts=(0.0126,), n_cells=32, dt=2.5e-3, t_end=0.25)


def test_time_shift_ratios_and_run_bounds_equal_per_state_loop_bitwise():
    """A run longer than one block of states: the blocked ratios and the run
    bound quantities equal the one-state-at-a-time loop bit for bit."""
    shifts = (2.5e-3, 0.1)
    rep = exp_time_shift(shifts=shifts, n_cells=32, dt=2.5e-3, t_end=1.0)
    g = Grid(0.0, 1.0, 32)
    cfg = SolverConfig(dt=2.5e-3, t_end=1.0, epsilon=1e-2, scheme="imex2")
    init = standing_wave(g, amplitude=0.3, theta_amplitude=0.2)
    traj = run_eps(init, identity_material(), cfg, g)
    states = traj.states
    assert len(states) > traj.block_size + 1

    def triple_sq(i, j):
        si, sj = states[i], states[j]
        return (
            l2_norm_sq(si.v.values - sj.v.values, g)
            + l2_norm_sq(dx(si.u, g).values - dx(sj.u, g).values, g)
            + l2_norm_sq(si.theta.values - sj.theta.values, g)
        )

    for hshift in shifts:
        k = round(hshift / cfg.dt)
        ref = [triple_sq(j + k, j) / triple_sq(k, 0) for j in range(1, len(states) - k)]
        assert np.array_equal(rep.series[f"shift_{hshift:g}"]["ratio"], np.array(ref))
    sup_v = max(math.sqrt(l2_norm_sq(s.v.values, g)) for s in states)
    sup_th1 = max(abs(r.theta_mass) for r in traj.records)
    assert _run_bound_quantities(traj, g)[:2] == (sup_v, sup_th1)


def test_time_shift_rejects_shift_beyond_horizon(monkeypatch):
    """The shifts are checked against the step count before any run."""
    def no_run(*args, **kwargs):
        raise AssertionError("ran before the shifts were checked")

    monkeypatch.setattr("thermoelast1d.experiments.run_eps", no_run)
    with pytest.raises(ContractError, match="within t_end"):
        exp_time_shift(shifts=(0.5,), n_cells=16, dt=2.5e-2, t_end=0.25)


def test_rough_data_small():
    rep = exp_rough_data(kind="step_strain", n_levels=(64, 128, 256), t_end=0.5)
    assert rep.passed
    assert rep.series["refinement"]["distance"].size == 2


def test_rough_data_levels_share_their_snapshot_times():
    """At t_end = 0.1 the half-CFL step counts of N = 16, 32, 64 are 4, 7 and
    13; each level takes the coarse dt / 2**l, so the snapshots line up."""
    rep = exp_rough_data(n_levels=(16, 32, 64), t_end=0.1)
    assert [c.name for c in rep.checks] == [
        "energy identity at N=32", "dissipation stabilization (top pair)",
        "min Theta over all runs", "refinement distances decreasing"]


def test_rough_data_sawtooth_runs():
    rep = exp_rough_data(
        kind="sawtooth_strain", n_levels=(64, 128), t_end=0.25,
        teeth=4, amplitude=0.1,
    )
    assert "by_level" in rep.series
    assert min(rep.series["by_level"]["theta_min"]) >= -1e-12


def test_mms_zero_manufactured_solution():
    """Zero reference: zero sources, zero error (machine level)."""
    from thermoelast1d.experiments import Manufactured, _mms_run
    from thermoelast1d.grid import Grid
    from thermoelast1d.materials import (
    identity_material,
    log1p_material,
    rational_saturating_material,
    tabulated_material,
)
    from thermoelast1d.state import SolverConfig

    ref = Manufactured(0.0, 1.0, u_amp=0.0, th_amp=0.0)
    # theta* = 1 identically: the only state is the constant equilibrium
    g = Grid(0.0, 1.0, 32)
    cfg = SolverConfig(dt=1e-3, t_end=0.05, epsilon=0.0)
    errs = _mms_run(ref, identity_material(), g, cfg)
    assert sum(errs) <= 1e-12


def test_mms_fast_window():
    rep = exp_mms(
        spatial_levels=(16, 32),
        temporal_dts=(1.5e-3, 7.5e-4),
        temporal_n_cells=256,
        t_end=0.12,
    )
    by_name = {c.name: c for c in rep.checks}
    assert by_name["spatial convergence order"].value >= 1.8
    assert abs(by_name["temporal convergence order"].value - 1.0) <= 0.35


def _materials():
    xi = np.linspace(0.0, 4.0, 9)
    return [identity_material(), log1p_material(), rational_saturating_material(),
            tabulated_material(xi, np.log1p(xi) + 0.25 * xi)]


@settings(max_examples=60, deadline=None)
@example(a=0.0, length=1.0, n_cells=128, dt=0.24 / 19661, k0=0, n_times=300, kind=0)
@given(
    a=st.floats(-3.0, 3.0),
    length=st.floats(0.05, 8.0),
    n_cells=st.integers(2, 300),
    dt=st.floats(1e-7, 1e-2),
    k0=st.integers(0, 10**5),
    n_times=st.integers(1, 300),
    kind=st.sampled_from(range(4)),
)
def test_mms_forcing_column_equals_scalar_reference(a, length, n_cells, dt, k0, n_times,
                                                     kind):
    """Each row of S_v and S_theta on a (C, 1) column of times equals the
    scalar-t formulas bit for bit, at opening times k dt and at closing times
    k dt + dt, which differ from (k + 1) dt by an ulp at some k (at 77 of the
    300 steps of the explicit example, the N = 128 run of ``exp_mms``)."""
    from thermoelast1d.experiments import Manufactured

    material = _materials()[kind]
    g = Grid(a, a + length, n_cells)
    ref = Manufactured(g.a, g.b)
    s_v, s_th = ref.forcing(material)
    t_open = np.arange(k0, k0 + n_times, dtype=float)[:, None] * dt
    for t in (t_open, t_open + dt):
        rows_v, rows_th = s_v(g.nodes, t), s_th(g.nodes, t)
        assert rows_v.shape == rows_th.shape == (n_times, g.n_nodes)
        for j, tj in enumerate(t.ravel().tolist()):
            assert rows_v[j].tobytes() == mms_s_v_scalar(ref, material, g.nodes, tj).tobytes()
            assert rows_th[j].tobytes() == mms_s_th_scalar(ref, material, g.nodes, tj).tobytes()

