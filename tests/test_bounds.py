import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import empirical_range_bounds, pl_h1_sq, pl_l2_sq, pl_l4_4
from thermoelast1d import bounds
from thermoelast1d.errors import DomainError
from thermoelast1d.grid import Grid, gn_constants
from thermoelast1d.materials import identity_material, log1p_material


def mp_gamma1(eta, K, c1, c2, c3, c4):
    """Independent oracle: re-evaluate every constituent coefficient from
    its defining display in 50-digit arithmetic and sum the groups."""
    mpmath.mp.dps = 50
    eta, K, c1, c2, c3, c4 = map(mpmath.mpf, (eta, K, c1, c2, c3, c4))
    c5 = (2 / eta) ** (mpmath.mpf(1) / 3) * (c1 * c4) ** (mpmath.mpf(4) / 3)
    c6 = (6 / eta) ** (mpmath.mpf(1) / 3) * (c1 * c3) ** (mpmath.mpf(4) / 3)
    c7 = (12 / eta) ** 3 * (c1 * c3 * K) ** 4 + 3 * c1**2 * c3**2 * K**2 / eta
    c8 = 6 * c1**4 * c4**2 * K**2 / eta + 2 * c1**2 * c4 * K
    c9 = (8 / eta) ** 3 * (c1 * c3 * K) ** 4 + 2 * c1**2 * c3**2 * K**2 / eta
    total = (
        (c3**2 / (2 * eta) + c5 + c1 * c4)
        + (c5 + c1 * c4)
        + (c6 + c1 * c3 + c7 + c8)
        + (c9 + c2 * c3**2 * K**2 / eta + c2 * c3**2 / eta)
    )
    return float(total)


def test_gamma1_closed_form_identity_material():
    # eta=1, K=1, f = id on the unit interval: c5 = c8 = 0 and
    # Gamma1 = 1/2 + [24^(1/3) + sqrt(2) + (12^3*4 + 6)] + [(8^3*4 + 4) + 2 + 2]
    c1, c2 = math.sqrt(2.0), 2.0
    got = bounds.gamma1(1.0, 1.0, c1, c2, 1.0, 0.0)
    by_hand = (
        0.5
        + (24.0 ** (1.0 / 3.0) + math.sqrt(2.0) + (12**3 * 4 + 6))
        + ((8**3 * 4 + 4) + 2.0 + 2.0)
    )
    assert got == pytest.approx(by_hand, rel=1e-14)
    assert got == pytest.approx(mp_gamma1(1.0, 1.0, c1, c2, 1.0, 0.0), rel=1e-13)


def test_gamma1_closed_form_generic_inputs():
    for args in ((0.5, 1.0, math.sqrt(2), 2.0, 1.0, 1.0),
                 (0.25, 3.0, 2.0, 32.0, 1.0, 2.0),
                 (2.0, 0.7, math.sqrt(2), 8.0, 0.6, 0.3)):
        assert bounds.gamma1(*args) == pytest.approx(mp_gamma1(*args), rel=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    eta=st.floats(0.05, 5.0, allow_nan=False),
    k=st.floats(0.1, 10.0, allow_nan=False),
)
def test_constant_monotonicity(eta, k):
    # every eta appears with a negative exponent, every K-term is a
    # nonnegative power of K, and the Gronwall constants inherit both
    c1, c2, c3, c4 = math.sqrt(2.0), 2.0, 1.0, 1.0
    g = bounds.gamma1(eta, k, c1, c2, c3, c4)
    assert bounds.gamma1(eta, 2 * k, c1, c2, c3, c4) >= g
    assert bounds.gamma1(eta / 8.0, k, c1, c2, c3, c4) >= g
    assert bounds.log_gamma3(2 * k, 1.0, c1, c2, c3, c4) >= bounds.log_gamma3(
        k, 1.0, c1, c2, c3, c4
    )
    assert bounds.log_gamma4(2 * k, 1.0, 1.0, c1, c2, c3, c4) >= bounds.log_gamma4(
        k, 1.0, 1.0, c1, c2, c3, c4
    )


def test_gamma1_domain_errors():
    with pytest.raises(DomainError):
        bounds.gamma1(0.0, 1.0, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        bounds.gamma1(1.0, -1.0, 1.0, 1.0, 1.0, 1.0)


def test_gamma2_is_twice_gamma1_at_half():
    rng = np.random.default_rng(2)
    for _ in range(10):
        k = rng.uniform(0.1, 5.0)
        ratio = bounds.gamma2(k, math.sqrt(2), 2.0, 1.0, 1.0) / bounds.gamma1(
            0.5, k, math.sqrt(2), 2.0, 1.0, 1.0
        )
        assert ratio == pytest.approx(2.0, rel=1e-15)


def test_gamma3_small_horizon_floor():
    # T -> 0+: the exponent tends to (Gamma1 + Gamma2) K > 0, so the
    # constant never drops below the trivial 2
    lg = bounds.log_gamma3(1.0, 1e-12, math.sqrt(2), 2.0, 1.0, 0.0)
    assert lg >= math.log(2.0)


def test_gamma3_log_vs_direct_small_inputs():
    # with tiny material constants the direct value is representable
    lg = bounds.log_gamma3(0.01, 0.01, 0.05, 0.05, 0.01, 0.0)
    g3 = bounds.gamma3(0.01, 0.01, 0.05, 0.05, 0.01, 0.0)
    assert math.isfinite(g3)
    c2bar = bounds.gronwall_exponent(0.01, 0.01, 0.05, 0.05, 0.01, 0.0)
    expected = 2.0 * max(math.exp(c2bar), 1.0 + c2bar * math.exp(c2bar))
    assert g3 == pytest.approx(expected, rel=1e-12)
    assert lg == pytest.approx(math.log(expected), rel=1e-12)


def test_gamma3_huge_inputs_no_overflow():
    lg = bounds.log_gamma3(5.0, 10.0, math.sqrt(2), 2.0, 1.0, 1.0)
    assert math.isfinite(lg)
    assert bounds.gamma3(5.0, 10.0, math.sqrt(2), 2.0, 1.0, 1.0) == math.inf


def test_gamma3_unit_ledger_against_independent_evaluation():
    # K = 1, T = 1, f = id on the unit interval, re-derived in 60-digit
    # arithmetic: c2bar = 3 Gamma1(1/2, 1) * 2 and
    # log Gamma3 = log 2 + log(1 + c2bar e^c2bar)
    mpmath.mp.dps = 60
    c1, c2 = math.sqrt(2.0), 2.0
    g1 = mpmath.mpf(mp_gamma1(0.5, 1.0, c1, c2, 1.0, 0.0))
    c2bar = 3 * g1 * 2
    expected = mpmath.log(2) + mpmath.log(1 + c2bar * mpmath.exp(c2bar))
    got = bounds.log_gamma3(1.0, 1.0, c1, c2, 1.0, 0.0)
    assert got == pytest.approx(float(expected), rel=1e-10)


def test_gamma4_composition_monotone_in_K():
    l1 = bounds.log_gamma4(0.5, 1.0, 1.0, math.sqrt(2), 2.0, 1.0, 0.0)
    l2 = bounds.log_gamma4(1.0, 1.0, 1.0, math.sqrt(2), 2.0, 1.0, 0.0)
    assert math.isfinite(l1) and math.isfinite(l2)
    assert l2 >= l1


def test_bit_identical_reevaluation():
    a = bounds.gamma1(0.37, 2.2, 1.5, 3.0, 0.9, 0.4)
    b = bounds.gamma1(0.37, 2.2, 1.5, 3.0, 0.9, 0.4)
    assert a == b  # pure arithmetic, no hidden state


# --- tau bound ----------------------------------------------------------------


def test_tau_formulas_by_substitution():
    # f = id with Theta in [1, 2]: c1=1, c2=2, c3=c4=1, c5=0
    rb = bounds.RangeBounds(c1=1.0, c2=2.0, c3=1.0, c4=1.0, c5=0.0)
    tb = bounds.tau_bound(1.0, rb, c10=2.0)
    assert tb.c6 == pytest.approx(0.5)
    assert tb.c7 == pytest.approx(1.0)
    assert tb.c8 == pytest.approx(1.0)
    assert tb.c9 == pytest.approx(1.0 / (8 * 0.5) + 1.0 + 4.0 * 1.0 / 4.0)  # 2.25
    c11 = 1.0 + 8.0 * 2.25**2 * 4.0 / 0.5**4
    assert tb.c11 == pytest.approx(c11)
    assert tb.tau == pytest.approx(1.0 / (4.0 * c11))
    assert tb.dissipation_cap == pytest.approx(
        (4.0 / 0.5) * (1.0 + math.sqrt(8.0) * c11)
    )


def test_tau_scales_inverse_square_of_y0():
    rb = bounds.RangeBounds(c1=1.0, c2=2.0, c3=1.0, c4=1.0, c5=0.0)
    t1 = bounds.tau_bound(1.0, rb, c10=2.0).tau
    t2 = bounds.tau_bound(2.0, rb, c10=2.0).tau
    assert t2 == pytest.approx(t1 / 4.0)


def test_y_cap_is_sqrt2_y0():
    rb = bounds.RangeBounds(c1=0.5, c2=1.5, c3=0.4, c4=1.1, c5=0.3)
    for y0 in (1.0, 3.7, 10.0):
        assert bounds.tau_bound(y0, rb, 2.0).y_cap == pytest.approx(
            math.sqrt(2.0) * y0
        )


def test_tau_rejects_bad_bounds():
    with pytest.raises(DomainError):
        bounds.tau_bound(1.0, bounds.RangeBounds(0.0, 1.0, 1.0, 1.0, 0.0), 2.0)


# --- quartic embedding constant ------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(4, 60),
       length=st.floats(0.2, 5.0, allow_nan=False))
def test_c10_quartic_inequality_on_pl_functions(seed, n, length):
    """|phi|_4^4 <= c10 |phi_x|_2 |phi|_2^3 for piecewise-linear phi
    vanishing at the left endpoint (norms segment-exact)."""
    rng = np.random.default_rng(seed)
    g = Grid(0.0, length, n)
    vals = rng.normal(size=g.n_nodes)
    vals[0] = 0.0
    c10 = bounds.c10_quartic(g.length)
    lhs = pl_l4_4(vals, g.h)
    rhs = c10 * math.sqrt(pl_h1_sq(vals, g.h)) * pl_l2_sq(vals, g.h) ** 1.5
    assert lhs <= rhs * (1 + 1e-12) + 1e-14


# --- gronwall check -------------------------------------------------------------


def test_gronwall_constant_series_ok():
    t = np.linspace(0, 1, 50)
    chk = bounds.gronwall_check(t, np.full_like(t, 2.0), np.zeros_like(t))
    assert chk.ok
    assert chk.max_ratio == pytest.approx(1.0)


def test_gronwall_detects_violation():
    t = np.linspace(0, 1, 200)
    y = 3.0 * np.exp(2.0 * t)
    b = np.ones_like(t)
    chk = bounds.gronwall_check(t, y, b)
    assert not chk.ok
    assert chk.max_ratio > 2.0


def test_gronwall_on_run_data():
    """Difference of two perturbed runs obeys its Gronwall envelope with the
    measured coefficient series."""
    from thermoelast1d.grid import dx, l2_norm_sq
    from thermoelast1d.initial_data import standing_wave
    from thermoelast1d.solver_limit import run_limit
    from thermoelast1d.state import SolverConfig, make_state

    g = Grid(0.0, 1.0, 128)
    m = identity_material()
    cfg = SolverConfig(dt=g.h / 2, t_end=0.5, epsilon=0.0)
    a = standing_wave(g, amplitude=0.3, theta_amplitude=0.2)
    b_init = make_state(
        0.0, a.v.values, a.u.values,
        a.theta.values + 1e-3 * np.cos(np.pi * g.nodes),
    )
    ta = run_limit(a, m, cfg, g)
    tb = run_limit(b_init, m, cfg, g)
    gn = gn_constants(g)
    times = ta.times
    y = np.empty(times.shape)
    sup_v = 0.0
    sup_th1 = 0.0
    for j, (sa, sb) in enumerate(zip(ta.states, tb.states)):
        y[j] = (
            0.5 * l2_norm_sq(sa.v.values - sb.v.values, g)
            + 0.5 * l2_norm_sq(dx(sa.u, g).values - dx(sb.u, g).values, g)
            + l2_norm_sq(sa.theta.values - sb.theta.values, g)
        )
        sup_v = max(
            sup_v,
            math.sqrt(l2_norm_sq(sa.v.values, g)),
            math.sqrt(l2_norm_sq(sb.v.values, g)),
        )
        sup_th1 = max(sup_th1, abs(np.trapezoid(sa.theta.values, g.nodes)))
    K = max(sup_v + sup_th1, ta.records[-1].dissipation_accum)
    g1 = bounds.gamma1(0.5, K, gn.c1, gn.c2, m.c3, m.c4)
    thx = ta.record_series("thetax_l2sq")[:: 1]
    coef = (g1 + 2.0 * g1) * (1.0 + thx)
    chk = bounds.gronwall_check(times, y, coef[: len(times)], y0=y[0])
    assert chk.ok


# --- empirical range bounds -----------------------------------------------------


def test_empirical_range_bounds_identity():
    from thermoelast1d.initial_data import standing_wave
    from thermoelast1d.solver_eps import run_eps
    from thermoelast1d.state import SolverConfig

    g = Grid(0.0, 1.0, 64)
    cfg = SolverConfig(dt=1e-3, t_end=0.05, epsilon=1e-3, scheme="imex2")
    init = standing_wave(g, amplitude=0.1, theta_amplitude=0.2)
    traj = run_eps(init, identity_material(), cfg, g, record_every=10)
    rb = empirical_range_bounds(traj, identity_material())
    assert 0.7 <= rb.c1 <= 0.9  # min Theta ~ 0.8
    assert 1.1 <= rb.c2 <= 1.3  # max Theta ~ 1.2
    assert rb.c3 == 1.0 and rb.c4 == 1.0 and rb.c5 == 0.0


# --- ledger ---------------------------------------------------------------------


def test_ledger_describe_contains_all_constants():
    g = Grid(0.0, 1.0, 8)
    ledger = bounds.build_ledger(0.5, 1.0, 1.0, g, log1p_material())
    text = ledger.describe()
    for token in ("Gamma1", "Gamma2", "Gamma3", "Gamma4", "c1", "c2", "c10"):
        assert token in text
