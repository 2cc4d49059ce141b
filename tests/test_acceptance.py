"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
are produced; tolerances are pinned here and nowhere else.
"""

import math
import time

import numpy as np
import pytest

from helpers import empirical_range_bounds, hfunc, trig_field
from thermoelast1d import bounds
from thermoelast1d.diagnostics import (
    default_test_bank,
    energy_identity_residual,
    weak_form_residual,
)
from thermoelast1d.experiments import (
    exp_energy_audit,
    exp_eps_cauchy,
    exp_mms,
    exp_rough_data,
    exp_stability,
    exp_time_shift,
)
from thermoelast1d.grid import Grid, gn_constants, integrate, l2_norm_sq
from thermoelast1d.initial_data import random_smooth, standing_wave
from thermoelast1d.materials import (
    eval_f,
    eval_fp,
    identity_material,
    log1p_material,
)
from thermoelast1d.solver_eps import run_eps
from thermoelast1d.solver_limit import run_limit
from thermoelast1d.state import SolverConfig

MAT = identity_material()


def _report(num, desc, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {desc} -- {detail}"
    print(line)
    assert ok, line


def test_criterion_01_energy_identity():
    t0 = time.time()
    rep = exp_energy_audit(n_cells=256, t_end=1.0, levels=2)
    elapsed = time.time() - t0
    resid = rep.series["residual_by_level"]["max_relative_residual"]
    ok = rep.passed and elapsed <= 10.0
    _report(
        1, "energy identity (eps = 0)", ok,
        f"max|E-E0|/E0 = {resid[0]:.3e} <= 1e-3, gain {resid[0]/resid[1]:.2f} >= 1.8, "
        f"runtime {elapsed:.1f}s <= 10s",
    )


def test_criterion_02_eps_dissipation_identity():
    g = Grid(0.0, 1.0, 256)
    init = standing_wave(g, amplitude=0.3, theta_amplitude=0.2)
    cfg = SolverConfig(dt=g.h / 2, t_end=1.0, epsilon=1e-2, scheme="imex1")
    traj = run_eps(init, MAT, cfg, g, record_every=64)
    r = energy_identity_residual(traj)
    e0 = traj.records[0].energy
    base = float(np.max(np.abs(r))) / e0

    res = []
    for div in (1, 2, 4):
        cfg_d = SolverConfig(dt=g.h / 2 / div, t_end=0.5, epsilon=1e-2, scheme="imex1")
        tr = run_eps(init, MAT, cfg_d, g, record_every=10**9)
        res.append(np.max(np.abs(energy_identity_residual(tr))))
    order = float(np.polyfit(np.log([1.0, 0.5, 0.25]), np.log(res), 1)[0])
    ok = base <= 5e-3 and abs(order - 1.0) <= 0.35
    _report(
        2, "eps-dissipation identity (eps = 1e-2, imex1)", ok,
        f"max|E-E0+diss|/E0 = {base:.3e} <= 5e-3, dt-refinement order "
        f"{order:.2f} ~ scheme order 1",
    )


def test_criterion_03_positivity():
    g = Grid(0.0, 1.0, 128)
    cfg = SolverConfig(dt=g.h / 2, t_end=1.0, epsilon=1e-2, scheme="imex1")
    min_a = math.inf
    min_b = math.inf
    for seed in range(10):
        init = random_smooth(g, seed=seed, theta_floor=0.1, theta_amplitude=0.4,
                             u_amplitude=0.3, v_amplitude=0.3)
        traj = run_eps(init, MAT, cfg, g, record_every=256)
        min_a = min(min_a, min(r.theta_min for r in traj.records))
        init = random_smooth(g, seed=seed, theta_floor=0.5, theta_amplitude=0.4,
                             u_amplitude=0.3, v_amplitude=0.3)
        traj = run_eps(init, MAT, cfg, g, record_every=256)
        min_b = min(min_b, min(r.theta_min for r in traj.records))
    ok = min_a >= -1e-12 and min_b >= 1e-3
    _report(
        3, "temperature positivity (10 randomized runs)", ok,
        f"min Theta = {min_a:.3e} >= -1e-12 (floor 0.1 data); "
        f"min Theta = {min_b:.3e} stays positive (floor 0.5 data)",
    )


def test_criterion_04_gamma1_admissibility():
    g = Grid(0.0, 1.0, 256)
    x = g.nodes
    rng = np.random.default_rng(20240817)
    eta, K = 0.5, 1.0
    gn = gn_constants(g)
    mats = [identity_material(), log1p_material()]
    worst = math.inf
    violations = 0
    for trial in range(200):
        m = mats[trial % 2]
        g1 = bounds.gamma1(eta, K, gn.c1, gn.c2, m.c3, m.c4)
        v, _ = trig_field(rng, x)
        vh, _ = trig_field(rng, x)
        z, zp = trig_field(rng, x)
        th, thx = z**2, 2 * z * zp
        z2, zp2 = trig_field(rng, x)
        thh, thhx = z2**2, 2 * z2 * zp2
        # the smallness hypothesis |v^|_2 + |Theta|_1 <= K, scaled to hold
        q = math.sqrt(l2_norm_sq(vh, g)) + integrate(np.abs(th), g)
        s = rng.uniform(0.3, 1.0) * K / q
        vh, th, thx = vh * s, th * s, thx * s
        fp, fph = eval_fp(m, th), eval_fp(m, thh)
        f, fh = eval_f(m, th), eval_f(m, thh)
        dv, dth, dthx = v - vh, th - thh, thx - thhx
        budget = eta * l2_norm_sq(dthx, g) + g1 * (1.0 + integrate(thx**2, g)) * (
            l2_norm_sq(dv, g) + l2_norm_sq(dth, g)
        )
        lhs1 = -integrate((fp * thx - fph * thhx) * dv, g)
        lhs2 = integrate((fp * thx * v - fph * thhx * vh) * dth, g) + integrate(
            (f * v - fh * vh) * dthx, g
        )
        worst = min(worst, budget - lhs1, budget - lhs2)
        violations += (lhs1 > budget) + (lhs2 > budget)
    ok = violations == 0
    _report(
        4, "Gamma1 admissibility (200 randomized tuples, K=1, eta=1/2)", ok,
        f"violations = {violations}, smallest slack = {worst:.3e} >= 0",
    )


def test_criterion_05_continuous_dependence():
    t0 = time.time()
    rep = exp_stability(n_cells=256, t_end=0.5, deltas=(1e-2, 1e-3, 1e-4))
    elapsed = time.time() - t0
    by_name = {c.name: c for c in rep.checks}
    slope = by_name["output/input scaling exponent"].value
    ok = rep.passed and elapsed <= 60.0
    _report(
        5, "continuous dependence (delta ladder on Theta0)", ok,
        f"scaling exponent {slope:.3f} in [0.9, 1.1], "
        f"LHS <= Gamma3*RHS for all deltas, runtime {elapsed:.1f}s <= 60s",
    )


def test_criterion_06_eps_cauchy():
    rep = exp_eps_cauchy(eps_ladder=(1e-1, 3e-2, 1e-2, 3e-3, 1e-3))
    d = rep.series["ladder"]["distance"]
    ok = rep.passed
    _report(
        6, "eps -> 0 Cauchy ladder", ok,
        f"pair distances {np.array2string(d, precision=3)} monotone within 10%, "
        f"final/first = {d[-1]/d[0]:.3f} <= 0.25",
    )


def test_criterion_07_time_shift():
    rep = exp_time_shift(shifts=(0.01, 0.05, 0.1), epsilon=1e-2, t_end=1.0)
    ok = rep.passed and math.isfinite(rep.params["log_C"])
    _report(
        7, "time-shift estimate (eps = 1e-2)", ok,
        f"max ratio {rep.params['max_ratio']:.4g} <= exp({rep.params['log_C']:.3e}); "
        f"ledger evaluation finite in log domain",
    )


def test_criterion_08_short_time_regularity():
    g = Grid(0.0, 1.0, 64)
    init = standing_wave(g, amplitude=0.05, theta_amplitude=0.02)
    y0 = hfunc(init, MAT, g)
    cfg = SolverConfig(dt=2e-4, t_end=0.02, epsilon=1e-3, scheme="imex2")
    traj = run_eps(init, MAT, cfg, g)
    rb = empirical_range_bounds(traj, MAT)
    tb = bounds.tau_bound(y0, rb, bounds.c10_quartic(g.length))
    ts = traj.record_times
    ys = traj.record_series("hfunc")
    inside = ts < tb.tau
    n_inside = int(np.sum(inside)) - 1  # steps strictly inside the horizon
    y_max = float(np.max(ys[inside]))
    thxx = traj.record_series("thetaxx_l2sq")
    k = int(np.searchsorted(ts, tb.tau))
    diss = float(np.trapezoid(thxx[:k], ts[:k])) if k > 1 else 0.0
    ok = (
        n_inside >= 5
        and np.all(np.isfinite(ys))
        and y_max <= tb.y_cap
        and diss <= tb.dissipation_cap
    )
    _report(
        8, "short-time regularity horizon (eps = 1e-3)", ok,
        f"tau = {tb.tau:.3e} ({n_inside} recorded steps inside), "
        f"max y = {y_max:.6f} <= sqrt(2) y0 = {tb.y_cap:.6f}, "
        f"curvature dissipation {diss:.3e} <= {tb.dissipation_cap:.3e}",
    )


def test_criterion_09_rough_data():
    rep = exp_rough_data(kind="step_strain", n_levels=(256, 512, 1024), t_end=1.0)
    lv = rep.series["by_level"]
    d = rep.series["refinement"]["distance"]
    ok = rep.passed
    _report(
        9, "rough data (tent strain, Theta0 = 1)", ok,
        f"energy residual N=512: {lv['energy_residual'][1]:.3e} <= 1e-2, "
        f"dissipation change {abs(lv['thetax_dissipation'][2] - lv['thetax_dissipation'][1]) / lv['thetax_dissipation'][1]:.3%} <= 10%, "
        f"refinement distances {np.array2string(d, precision=3)} decreasing",
    )


def test_criterion_10_mms():
    t0 = time.time()
    rep = exp_mms()
    elapsed = time.time() - t0
    by_name = {c.name: c for c in rep.checks}
    sp = by_name["spatial convergence order"].value
    tm = by_name["temporal convergence order"].value
    ok = rep.passed and elapsed <= 30.0
    _report(
        10, "manufactured-solution convergence", ok,
        f"spatial order {sp:.3f} >= 1.9, temporal order {tm:.3f} within 0.2 of "
        f"scheme order 1, runtime {elapsed:.1f}s <= 30s",
    )


def test_criterion_11_weak_form_residuals():
    hs = []
    wu = []
    wt = []
    for n in (64, 128, 256):
        g = Grid(0.0, 1.0, n)
        cfg = SolverConfig(dt=g.h / 2, t_end=0.5, epsilon=0.0)
        init = standing_wave(g, amplitude=0.3, theta_amplitude=0.2)
        traj = run_limit(init, MAT, cfg, g)
        bank = default_test_bank(g, 0.5, n=10)
        res = weak_form_residual(traj, MAT, bank)
        hs.append(g.h)
        wu.append(res.max_wu)
        wt.append(res.max_wt)
    order_wu = float(np.polyfit(np.log(hs), np.log(wu), 1)[0])
    order_wt = float(np.polyfit(np.log(hs), np.log(wt), 1)[0])
    ok = order_wu >= 1.0 and order_wt >= 1.0
    _report(
        11, "weak-form residual decay (bank of 10)", ok,
        f"observed orders: displacement identity {order_wu:.2f}, "
        f"temperature identity {order_wt:.2f}, both >= 1",
    )
