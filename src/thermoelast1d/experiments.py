"""End-to-end studies that turn the qualitative well-posedness statements
into falsifiable numerical checks.

Every experiment runs on the interval :data:`OMEGA`, is deterministic
given its parameters and seed, never mutates shared state, and returns an
:class:`ExperimentReport` carrying a machine-readable verdict (one pass/fail
per criterion, each judged by a pinned threshold) plus the raw series
behind it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import bounds
from .diagnostics import (DifferenceAccumulator, difference_norms, energy_identity_residual,
                          squared_differences)
from .errors import ContractError
from .grid import Grid, gn_constants, l2_norm_sq, trapezoid_weights
from .initial_data import prepare_rough_data, standing_wave
from .materials import Material, eval_f, eval_fp, identity_material
from .state import (SCHEME_IMEX2, SolverConfig, State, Trajectory, cfl_dt, make_state,
                    whole_steps)
from .stepping import run_eps, run_limit

#: the interval Omega = (a, b) of every study
OMEGA = (0.0, 1.0)
#: the scheme of the regularized (eps > 0) runs
EPS_SCHEME = SCHEME_IMEX2


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    value: float
    threshold: float
    comparison: str = "<="
    detail: str = ""

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        extra = f"  ({self.detail})" if self.detail else ""
        return (
            f"[{tag}] {self.name}: {self.value:.6g} {self.comparison} "
            f"{self.threshold:.6g}{extra}"
        )


@dataclass
class ExperimentReport:
    name: str
    params: Dict
    checks: List[CheckResult] = field(default_factory=list)
    series: Dict[str, Dict[str, np.ndarray]] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def summary(self) -> str:
        head = f"experiment {self.name}: {'PASS' if self.passed else 'FAIL'}"
        return "\n".join([head] + ["  " + c.line() for c in self.checks])


def _check_le(name, value, threshold, detail="") -> CheckResult:
    return CheckResult(name, bool(value <= threshold), float(value),
                       float(threshold), "<=", detail)


def _check_ge(name, value, threshold, detail="") -> CheckResult:
    return CheckResult(name, bool(value >= threshold), float(value),
                       float(threshold), ">=", detail)


def _half_cfl_config(grid: Grid, t_end: float, epsilon: float = 0.0,
                     scheme: str = "imex1") -> SolverConfig:
    return SolverConfig(dt=cfl_dt(grid, t_end), t_end=t_end, epsilon=epsilon, scheme=scheme)


def _triple_distance(d) -> float:
    """Aggregated sup-in-time L2 distance of (v, u_x, Theta), non-squared."""
    return math.sqrt(d.sup_v_l2 + d.sup_ux_l2 + d.sup_theta_l2)


def _wave_data(grid: Grid) -> State:
    """The smooth standing wave the energy, stability, eps and time-shift
    studies start from."""
    return standing_wave(grid, amplitude=0.3, theta_amplitude=0.2)


def _energy_drift(traj: Trajectory) -> Tuple[np.ndarray, float]:
    """The energy identity residual r of a run and its drift max|r| / E0."""
    r = energy_identity_residual(traj)
    return r, float(np.max(np.abs(r))) / traj.records[0].energy


def _loglog_slope(x, y) -> float:
    """Slope of the least-squares line through (log x, log y)."""
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


# ---------------------------------------------------------------------------
# energy audit
# ---------------------------------------------------------------------------


def exp_energy_audit(
    n_cells: int = 256,
    t_end: float = 1.0,
    levels: int = 3,
    material: Optional[Material] = None,
) -> ExperimentReport:
    """Energy-identity audit for the limit system: relative drift of
    E = 1/2|u_t|^2 + 1/2|u_x|^2 + int Theta, and its decay under joint
    (N, dt) refinement."""
    material = material or identity_material()
    residuals = []
    series: Dict[str, Dict[str, np.ndarray]] = {}
    for lvl in range(levels):
        grid = Grid(*OMEGA, n_cells * 2 ** lvl)
        cfg = _half_cfl_config(grid, t_end)
        # the report reads only the rows: keep the end states alone
        traj = run_limit(_wave_data(grid), material, cfg, grid, record_every=cfg.n_steps())
        r, drift = _energy_drift(traj)
        residuals.append(drift)
        series[f"level{lvl}"] = {
            "t": traj.record_times,
            "energy_residual": r,
        }
    report = ExperimentReport(
        name="energy-audit",
        params=dict(n_cells=n_cells, t_end=t_end, levels=levels,
                    material=material.kind),
        series=series,
    )
    report.checks.append(
        _check_le("max |E - E0| / E0 at base level", residuals[0], 1e-3)
    )
    for lvl in range(1, levels):
        gain = residuals[lvl - 1] / residuals[lvl] if residuals[lvl] > 0 else math.inf
        report.checks.append(
            _check_ge(f"refinement gain level {lvl - 1} -> {lvl}", gain, 1.8)
        )
    report.series["residual_by_level"] = {
        "level": np.arange(levels, dtype=float),
        "max_relative_residual": np.array(residuals),
    }
    return report


# ---------------------------------------------------------------------------
# continuous dependence
# ---------------------------------------------------------------------------


def exp_stability(
    n_cells: int = 256,
    t_end: float = 0.5,
    deltas: Sequence[float] = (1e-2, 1e-3, 1e-4),
    material: Optional[Material] = None,
) -> ExperimentReport:
    """Perturb Theta_0 by delta * cos(pi x^) and measure the response in the
    stability norms; checks the Lipschitz-type scaling exponent and the
    explicit constant gamma3 instantiated with run-measured bounds."""
    material = material or identity_material()
    grid = Grid(*OMEGA, n_cells)
    cfg = _half_cfl_config(grid, t_end)
    base_init = _wave_data(grid)
    base = run_limit(base_init, material, cfg, grid)

    xh = (grid.nodes - grid.a) / grid.length
    bump = np.cos(np.pi * xh)
    inputs = []
    outputs = []
    k_quantities = [_run_bound_quantities(base, grid)]
    for d in deltas:
        init = make_state(0.0, *base_init.block[:2], base_init.block[2] + d * bump)
        pert = run_limit(init, material, cfg, grid)
        inputs.append(l2_norm_sq(d * bump, grid))  # squared initial L2 difference
        outputs.append(difference_norms(base, pert).total())
        k_quantities.append(_run_bound_quantities(pert, grid))
    # K must dominate |v|_2 of either run at any time plus |Theta|_1 of the
    # other at any (possibly different) time, and the dissipation integrals
    K = max(
        max(q[0] for q in k_quantities) + max(q[1] for q in k_quantities),
        max(q[2] for q in k_quantities),
    )
    gn = gn_constants(grid)
    lg3 = bounds.log_gamma3(K, t_end, gn.c1, gn.c2, material.c3, material.c4)

    report = ExperimentReport(
        name="stability",
        params=dict(n_cells=n_cells, t_end=t_end, deltas=list(deltas),
                    material=material.kind, K_measured=K),
        series={
            "scaling": {
                "delta": np.array(list(deltas)),
                "input_sq": np.array(inputs),
                "output_sq": np.array(outputs),
            }
        },
    )
    if len(deltas) >= 2:
        slope = _loglog_slope(inputs, outputs)
        lo, hi = 0.9, 1.1  # the Lipschitz exponent is 1
        report.checks.append(CheckResult("output/input scaling exponent", bool(lo <= slope <= hi),
                                         slope, hi, "in", detail=f"window [{lo}, {hi}]"))
    for d, rhs, lhs in zip(deltas, inputs, outputs):
        margin = lg3 + math.log(rhs) - math.log(max(lhs, 1e-300))
        report.checks.append(_check_ge(f"log bound margin, delta = {d:g}", margin, 0.0,
                                       detail="log(Gamma3 * RHS) - log(LHS)"))
    return report


def _run_bound_quantities(traj: Trajectory, grid: Grid) -> Tuple[float, float, float]:
    """(sup_t |v|_2, sup_t |Theta|_1, int_0^T |Theta_x|^2): the quantities
    the stability constants are conditional on, measured from the run.
    Kept as separate sups so the caller can bound mixed-time pairings
    (velocity at one time against temperature at another)."""
    w = trapezoid_weights(grid)  # sqrt is monotone: sqrt of the sup of the squares
    sup_v = math.sqrt(max(float(np.vecdot(traj.store[lo:hi, 0] ** 2, w).max())
                          for lo, hi in traj.blocks(0, len(traj))))
    sup_th1 = float(np.max(np.abs(traj.record_series("theta_mass"))))
    diss = traj.records[-1].dissipation_accum
    return sup_v, sup_th1, diss


# ---------------------------------------------------------------------------
# regularization-parameter convergence
# ---------------------------------------------------------------------------


def exp_eps_cauchy(
    eps_ladder: Sequence[float] = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3),
    n_cells: int = 128,
    t_end: float = 0.5,
    material: Optional[Material] = None,
) -> ExperimentReport:
    """Cauchy behaviour of the regularized runs as eps decreases, plus an
    extrapolation check against the direct eps = 0 integrator."""
    if any(e2 >= e1 for e1, e2 in zip(eps_ladder, eps_ladder[1:])):
        raise ContractError("eps_ladder must be strictly decreasing")
    material = material or identity_material()
    grid = Grid(*OMEGA, n_cells)
    init = _wave_data(grid)

    # each run is compared with the one before while it steps: two stored at most
    prev, distances = None, []
    for eps in eps_ladder:
        cfg = _half_cfl_config(grid, t_end, epsilon=eps, scheme=EPS_SCHEME)
        pair = None if prev is None else DifferenceAccumulator(prev)
        prev = run_eps(init, material, cfg, grid, recorder=pair)
        if pair is not None:
            distances.append(_triple_distance(pair.result()))
    cfg0 = _half_cfl_config(grid, t_end)
    to_limit = None if prev is None else DifferenceAccumulator(prev)
    run_limit(init, material, cfg0, grid, recorder=to_limit, record_every=cfg0.n_steps())
    report = ExperimentReport(
        name="eps-cauchy",
        params=dict(eps_ladder=list(eps_ladder), n_cells=n_cells, t_end=t_end,
                    scheme=EPS_SCHEME, material=material.kind),
        series={
            "ladder": {
                "eps_high": np.array(list(eps_ladder[:-1])),
                "eps_low": np.array(list(eps_ladder[1:])),
                "distance": np.array(distances),
            }
        },
    )
    for i in range(1, len(distances)):
        d, prev = distances[i], distances[i - 1]
        report.checks.append(_check_le(f"monotone decrease pair {i}", d, 1.1 * prev,
                                       detail=f"d={d:.3e} vs 1.1 * {prev:.3e}"))
    if distances:
        report.checks.append(
            _check_le("final pair <= 1/4 of first pair", distances[-1],
                      0.25 * distances[0])
        )
        d_limit = _triple_distance(to_limit.result())
        report.series["limit"] = {
            "eps": np.array([eps_ladder[-1]]),
            "distance_to_limit": np.array([d_limit]),
        }
        report.checks.append(
            _check_le("extrapolated limit distance <= 2 * last pair", d_limit,
                      2.0 * distances[-1])
        )
    return report


# ---------------------------------------------------------------------------
# time-shift stability
# ---------------------------------------------------------------------------


def exp_time_shift(
    shifts: Sequence[float] = (0.01, 0.05, 0.1),
    epsilon: float = 1e-2,
    n_cells: int = 128,
    dt: float = 2.5e-3,
    t_end: float = 1.0,
    material: Optional[Material] = None,
) -> ExperimentReport:
    """Shifted-vs-unshifted trajectory distances of the autonomous
    regularized flow, compared against the explicit constant C(T) built
    from the run's own bound quantities."""
    if epsilon <= 0.0:
        raise ContractError("time-shift study needs epsilon > 0")
    material = material or identity_material()
    grid = Grid(*OMEGA, n_cells)
    cfg = SolverConfig(dt=dt, t_end=t_end, epsilon=epsilon, scheme=EPS_SCHEME)
    n_states = cfg.n_steps() + 1  # the run keeps every state
    steps = [whole_steps(hshift, dt) for hshift in shifts]
    for hshift, k in zip(shifts, steps):
        if k is None or k >= n_states:
            raise ContractError(
                f"shift {hshift} is not a multiple of dt = {dt} within t_end = {t_end}"
            )
    traj = run_eps(_wave_data(grid), material, cfg, grid)

    times = traj.times
    sup_v, sup_th1, diss = _run_bound_quantities(traj, grid)
    gn = gn_constants(grid)
    log_c = bounds.log_timeshift_constant(
        sup_v + sup_th1, diss, t_end, gn.c1, gn.c2, material.c3, material.c4
    )

    def triple_sq(lo, hi, k):
        """|(v, u_x, Theta)(t_{j+k}) - (v, u_x, Theta)(t_j)|^2 for j in [lo, hi)."""
        dv, dux, dth, _ = squared_differences(grid, traj.store[lo + k:hi + k], traj.store[lo:hi])
        return dv + dux + dth

    report = ExperimentReport(
        name="time-shift",
        params=dict(shifts=list(shifts), epsilon=epsilon, n_cells=n_cells,
                    dt=dt, t_end=t_end, scheme=EPS_SCHEME, log_C=log_c),
    )
    worst = -math.inf
    for hshift, k in zip(shifts, steps):
        rhs = float(triple_sq(0, 1, k)[0])
        ratios = np.zeros(max(n_states - k - 1, 0))
        if rhs > 0:
            for lo, hi in traj.blocks(1, n_states - k):
                ratios[lo - 1:hi - 1] = triple_sq(lo, hi, k) / rhs
        vacuous = rhs <= 1e-28
        max_ratio = 0.0 if vacuous else float(np.max(ratios)) if ratios.size else 0.0
        worst = max(worst, max_ratio)
        report.series[f"shift_{hshift:g}"] = {
            "t": times[1 : n_states - k],
            "ratio": ratios,
        }
        detail = "vacuous (equilibrium)" if vacuous else f"max ratio {max_ratio:.4g}"
        report.checks.append(_check_le(f"log max ratio, shift {hshift:g}",
                                       math.log(max(max_ratio, 1e-300)), log_c, detail=detail))
    report.checks.append(CheckResult("ledger constant finite", bool(math.isfinite(log_c)), log_c,
                                     math.inf, "<", detail="log C(T)"))
    report.params["max_ratio"] = worst
    return report


# ---------------------------------------------------------------------------
# rough-data refinement
# ---------------------------------------------------------------------------


def exp_rough_data(
    kind: str = "step_strain",
    n_levels: Sequence[int] = (256, 512, 1024),
    t_end: float = 1.0,
    material: Optional[Material] = None,
    **data_params,
) -> ExperimentReport:
    """Low-regularity data under mesh refinement: energy identity,
    stabilization of the temperature-gradient dissipation, positivity,
    and a refinement Cauchy check on the trajectories themselves."""
    material = material or identity_material()
    if any(n2 != 2 * n1 for n1, n2 in zip(n_levels, n_levels[1:])):
        raise ContractError("n_levels must double at each refinement")
    prev, dists, e_resid, diss, th_min = None, [], [], [], []
    series: Dict[str, Dict[str, np.ndarray]] = {}
    # level l takes dt / 2**l (exact) and is compared with the stored l - 1 as it steps
    dt = cfl_dt(Grid(*OMEGA, n_levels[0]), t_end)
    for lvl, n in enumerate(n_levels):
        grid = Grid(*OMEGA, n)
        cfg = SolverConfig(dt=dt / 2 ** lvl, t_end=t_end)
        init = prepare_rough_data(kind, grid, **data_params)
        pair = None if prev is None else DifferenceAccumulator(prev, every=2 ** lvl, stride=2)
        keep = len(n_levels) >= 3 and lvl < len(n_levels) - 1  # a later pair reads it
        traj = run_limit(init, material, cfg, grid, recorder=pair,
                         record_every=2 ** lvl if keep else cfg.n_steps())
        if pair is not None:
            dists.append(_triple_distance(pair.result()))
        prev = traj if keep else None
        r, drift = _energy_drift(traj)
        series[f"N{n}"] = {"t": traj.record_times, "energy_residual": r}
        e_resid.append(drift)
        diss.append(traj.records[-1].dissipation_accum)
        th_min.append(min(traj.record_series("theta_min").tolist()))

    report = ExperimentReport(
        name="rough-data",
        params=dict(kind=kind, n_levels=list(n_levels), t_end=t_end,
                    material=material.kind, **data_params),
        series=series,
    )
    report.series["by_level"] = {
        "n_cells": np.array(list(n_levels), dtype=float),
        "energy_residual": np.array(e_resid),
        "thetax_dissipation": np.array(diss),
        "theta_min": np.array(th_min),
    }
    mid = min(1, len(n_levels) - 1)
    report.checks.append(_check_le(f"energy identity at N={n_levels[mid]}", e_resid[mid], 1e-2))
    if len(n_levels) >= 2:
        change = abs(diss[-1] - diss[-2]) / max(diss[-2], 1e-300)
        report.checks.append(_check_le("dissipation stabilization (top pair)", change, 0.10))
    report.checks.append(
        _check_ge("min Theta over all runs", min(th_min), -1e-12)
    )
    if len(n_levels) >= 3:
        report.series["refinement"] = {
            "pair": np.arange(len(dists), dtype=float),
            "distance": np.array(dists),
        }
        report.checks.append(
            _check_le("refinement distances decreasing", dists[-1], dists[0])
        )
    return report


# ---------------------------------------------------------------------------
# manufactured solutions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Manufactured:
    """Closed-form reference solution and derivatives on (a, b)."""

    a: float
    b: float
    u_amp: float = 0.4
    omega: float = 2.0
    th_amp: float = 0.3
    decay: float = 2.0

    def _xi(self, x):
        return np.pi * (x - self.a) / (self.b - self.a)

    @property
    def _k(self):
        return np.pi / (self.b - self.a)

    def u(self, x, t):
        return self.u_amp * np.sin(self._xi(x)) * math.cos(self.omega * t)

    def v(self, x, t):
        return -self.u_amp * self.omega * np.sin(self._xi(x)) * math.sin(self.omega * t)

    def theta(self, x, t):
        return 1.0 + self.th_amp * np.cos(self._xi(x)) * math.exp(-self.decay * t)

    def forcing(self, material: Material):
        """(S_v, S_theta) as a :data:`~thermoelast1d.stepping.Forcing`: the
        spatial factors are kept per read-only node array, the time factors
        are ``math`` functions of each time of the column."""
        amp, w, th_amp, decay, k = self.u_amp, self.omega, self.th_amp, self.decay, self._k
        kept = {}

        def space(x):
            # the stepper passes the same read-only node array every chunk
            if kept.get("x") is not x or x.flags.writeable:
                s, c = np.sin(self._xi(x)), np.cos(self._xi(x))
                kept.update(x=x, u_tt=-amp * w ** 2 * s, u_xx=-amp * k ** 2 * s,
                            th=th_amp * c, th_x=-th_amp * k * s, th_t=-decay * th_amp * c,
                            th_xx=-th_amp * k ** 2 * c, u_xt=-amp * w * k * c)
            return kept

        def at(fn, scale, t):
            """fn(scale * t) for each time of the column ``t``, as a column."""
            return np.array([fn(scale * ti) for ti in t.ravel().tolist()])[:, None]

        def s_v(x, t):
            f, cos_wt, e = space(x), at(math.cos, w, t), at(math.exp, -decay, t)
            return (f["u_tt"] * cos_wt - f["u_xx"] * cos_wt
                    + eval_fp(material, 1.0 + f["th"] * e) * (f["th_x"] * e))

        def s_th(x, t):
            f, e = space(x), at(math.exp, -decay, t)
            return (f["th_t"] * e - f["th_xx"] * e
                    + eval_f(material, 1.0 + f["th"] * e) * (f["u_xt"] * at(math.sin, w, t)))

        return (s_v, s_th)


def _mms_field_errors(traj: Trajectory, ref: Manufactured, grid: Grid):
    """Final-time L2 errors per field (v, u, theta)."""
    s = traj.final_state
    x = grid.nodes
    t = s.t
    return (
        math.sqrt(l2_norm_sq(s.v.values - ref.v(x, t), grid)),
        math.sqrt(l2_norm_sq(s.u.values - ref.u(x, t), grid)),
        math.sqrt(l2_norm_sq(s.theta.values - ref.theta(x, t), grid)),
    )


def _mms_run(ref: Manufactured, material: Material, grid: Grid,
             cfg: SolverConfig):
    x = grid.nodes
    init = make_state(0.0, ref.v(x, 0.0), ref.u(x, 0.0), ref.theta(x, 0.0))
    traj = run_limit(init, material, cfg, grid, record_every=max(1, cfg.n_steps()),
                     forcing=ref.forcing(material))
    return _mms_field_errors(traj, ref, grid)


def _orders(sizes, errors):
    """(errors as an array with columns v, u, theta, their sum over the
    fields, the order of the sum, the order of each field) of one sweep."""
    err = np.array(errors)
    total = err.sum(axis=1)
    return err, total, _loglog_slope(sizes, total), [_loglog_slope(sizes, e) for e in err.T]


def exp_mms(
    spatial_levels: Sequence[int] = (32, 64, 128),
    temporal_dts: Sequence[float] = (8e-4, 4e-4, 2e-4),
    temporal_n_cells: int = 512,
    t_end: float = 0.24,
    material: Optional[Material] = None,
) -> ExperimentReport:
    """Manufactured-solution convergence study for the limit integrator.

    Spatial sweep holds dt proportional to h^2 (the integrator's implicit
    heat substep is first order in time, so this isolates the h^2 stencil
    error); temporal sweep holds the grid fine and sweeps dt.
    """
    material = material or identity_material()
    ref = Manufactured(*OMEGA)

    sp_err = []
    sp_h = []
    for n in spatial_levels:
        grid = Grid(*OMEGA, n)
        dt_target = 0.2 * grid.h ** 2 / max(1.0, grid.length ** 2)
        n_steps = max(1, round(t_end / dt_target))
        cfg = SolverConfig(dt=t_end / n_steps, t_end=t_end, epsilon=0.0)
        sp_err.append(_mms_run(ref, material, grid, cfg))
        sp_h.append(grid.h)
    sp_err, sp_total, spatial_order, spatial_by_field = _orders(sp_h, sp_err)

    grid_t = Grid(*OMEGA, temporal_n_cells)
    tm_err = [_mms_run(ref, material, grid_t, SolverConfig(dt=dt, t_end=t_end, epsilon=0.0))
              for dt in temporal_dts]
    tm_err, tm_total, temporal_order, temporal_by_field = _orders(temporal_dts, tm_err)
    scheme_order = 1.0  # leapfrog wave part, first-order implicit heat substep

    report = ExperimentReport(
        name="mms",
        params=dict(spatial_levels=list(spatial_levels),
                    temporal_dts=list(temporal_dts),
                    temporal_n_cells=temporal_n_cells, t_end=t_end,
                    material=material.kind, scheme_order=scheme_order,
                    spatial_order_by_field=dict(
                        zip(("v", "u", "theta"), spatial_by_field)
                    ),
                    temporal_order_by_field=dict(
                        zip(("v", "u", "theta"), temporal_by_field)
                    )),
        series={
            "spatial": {"h": np.array(sp_h), "error": sp_total,
                        "error_v": sp_err[:, 0], "error_u": sp_err[:, 1],
                        "error_theta": sp_err[:, 2]},
            "temporal": {"dt": np.array(list(temporal_dts)), "error": tm_total,
                         "error_v": tm_err[:, 0], "error_u": tm_err[:, 1],
                         "error_theta": tm_err[:, 2]},
        },
    )
    report.checks.append(_check_ge("spatial convergence order", spatial_order, 1.9))
    report.checks.append(
        CheckResult(
            "temporal convergence order",
            bool(abs(temporal_order - scheme_order) <= 0.2),
            temporal_order,
            scheme_order,
            "within +/-0.2 of",
        )
    )
    return report
