"""Shared test utilities.

Piecewise-linear (PL) exact norms: a nodal vector is interpreted as the
continuous piecewise-linear interpolant, and its L1/L2/L4/H1/sup norms are
integrated segment-exactly.  The interval embedding inequalities hold
rigorously for such interpolants, which makes slack >= 0 a mathematical
fact rather than a quadrature accident.
"""

import math
import os
import subprocess
import sys

import numpy as np
from scipy.sparse.linalg import splu

import thermoelast1d
from thermoelast1d.bounds import RangeBounds
from thermoelast1d.diagnostics import (
    DifferenceNorms,
    WeakFormResiduals,
    _cumtrapz,
    _validate_test_function,
)
from thermoelast1d.errors import DomainError, StructuralError
from thermoelast1d.experiments import (OMEGA, ExperimentReport, _check_ge, _check_le,
                                       _energy_drift, _triple_distance)
from thermoelast1d.grid import (BC_DIRICHLET, BC_HINGED, BC_NEUMANN, Grid, dx, dx_values, dxx,
                                dxx_values, integrate, l2_norm_sq)
from thermoelast1d.initial_data import prepare_rough_data
from thermoelast1d.materials import eval_f, eval_fp, eval_fpp, identity_material, rho
from thermoelast1d.state import (RECORD_FIELDS, DiagnosticsRecord, SolverConfig, Trajectory,
                                 cfl_dt)
from thermoelast1d.stepping import heat_system, run_limit


def float_bits(a) -> list:
    """The int64 view of a float array, so that equality is bit for bit,
    signs of zero included."""
    return np.ascontiguousarray(a).view(np.int64).tolist()


def record_bits(rec) -> bytes:
    """Every field of a DiagnosticsRecord as float64 bytes (None as nan), so
    that equality is bit for bit, signs of zero included."""
    values = (getattr(rec, name) for name in RECORD_FIELDS)
    return np.array([np.nan if x is None else x for x in values]).tobytes()


#: the child's peak RSS in KiB: ``VmHWM``, its own memory's high-water mark;
#: ``ru_maxrss`` where there is no /proc, which on Linux also counts the
#: parent's RSS at the fork, so there a child reads at least the test process
_PEAK_KIB = """
try:
    with open("/proc/self/status") as fh:
        peak = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
except OSError:
    import resource
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(peak)
"""


def child_maxrss_kib(code: str) -> int:
    """The peak RSS (KiB) of a fresh interpreter that runs ``code`` with
    this package on its path, read as the code ends (:data:`_PEAK_KIB`)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(thermoelast1d.__file__)))
    script = code + _PEAK_KIB
    done = subprocess.run([sys.executable, "-c", script], check=True, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    return int(done.stdout.split()[-1])


def pl_l2_sq(vals: np.ndarray, h: float) -> float:
    a = vals[:-1]
    b = vals[1:]
    return float(np.sum(h * (a * a + a * b + b * b) / 3.0))


def pl_l1(vals: np.ndarray, h: float) -> float:
    a = vals[:-1]
    b = vals[1:]
    same = a * b >= 0.0
    seg = np.where(
        same,
        0.5 * h * (np.abs(a) + np.abs(b)),
        0.5 * h * (a * a + b * b) / np.maximum(np.abs(a) + np.abs(b), 1e-300),
    )
    return float(np.sum(seg))


def pl_l4_4(vals: np.ndarray, h: float) -> float:
    a = vals[:-1]
    b = vals[1:]
    return float(
        np.sum(h * (a**4 + a**3 * b + a**2 * b**2 + a * b**3 + b**4) / 5.0)
    )


def pl_h1_sq(vals: np.ndarray, h: float) -> float:
    d = np.diff(vals)
    return float(np.sum(d * d / h))


def pl_sup(vals: np.ndarray) -> float:
    return float(np.max(np.abs(vals)))


def trig_field(rng, x, n_modes=4, cosines=True, sines=True):
    """Random trigonometric polynomial with its analytic derivative."""
    val = np.zeros_like(x)
    der = np.zeros_like(x)
    for k in range(n_modes + 1):
        if cosines:
            a = rng.uniform(-1.0, 1.0)
            val += a * np.cos(k * np.pi * x)
            der += -a * k * np.pi * np.sin(k * np.pi * x)
        if sines and k > 0:
            b = rng.uniform(-1.0, 1.0)
            val += b * np.sin(k * np.pi * x)
            der += b * k * np.pi * np.cos(k * np.pi * x)
    return val, der


# ---------------------------------------------------------------------------
# References of one diagnostics row, composed from the Field operators:
# ``compute_record`` and ``chunk_records`` must equal them bit for bit.
# ---------------------------------------------------------------------------


def energy(state, grid) -> float:
    """E = 1/2 |v|_2^2 + 1/2 |u_x|_2^2 + int Theta."""
    ke = 0.5 * l2_norm_sq(state.v.values, grid)
    pe = 0.5 * l2_norm_sq(dx(state.u, grid).values, grid)
    return ke + pe + integrate(state.theta.values, grid)


def hfunc(state, material, grid):
    """y = 1 + 1/2 |v_x|^2 + 1/2 |u_xx|^2 + 1/2 int rho(Theta) Theta_x^2,
    or None when min Theta is below the rho floor (f'/f uncontrolled)."""
    th = state.theta.values
    if float(th.min()) < material.rho_floor:
        return None
    vx2 = l2_norm_sq(dx(state.v, grid).values, grid)
    uxx2 = l2_norm_sq(dxx(state.u, grid).values, grid)
    thx = dx(state.theta, grid).values
    weighted = integrate(rho(material, th) * thx ** 2, grid)
    return 1.0 + 0.5 * vx2 + 0.5 * uxx2 + 0.5 * weighted


def composed_row(state, material, grid, epsilon, prev):
    """The diagnostics row composed from the public operators."""
    th = state.theta.values
    thx_sq = l2_norm_sq(dx(state.theta, grid).values, grid)
    vxx_sq = l2_norm_sq(dxx(state.v, grid).values, grid)
    uxx_sq = l2_norm_sq(dxx(state.u, grid).values, grid)
    y = hfunc(state, material, grid)
    diss = eps_diss = 0.0
    if prev is not None:
        half_dt = 0.5 * (state.t - prev.t)
        diss = prev.dissipation_accum + half_dt * (prev.thetax_l2sq + thx_sq)
        eps_diss = prev.eps_dissipation_accum + epsilon * half_dt * (
            (prev.vxx_l2sq + prev.uxx_l2sq) + (vxx_sq + uxx_sq)
        )
    return DiagnosticsRecord(
        t=state.t,
        energy=energy(state, grid),
        theta_mass=integrate(th, grid),
        theta_min=float(th.min()),
        theta_max=float(th.max()),
        hfunc=y,
        hfunc_valid=y is not None,
        thetax_l2sq=thx_sq,
        thetaxx_l2sq=l2_norm_sq(dxx(state.theta, grid).values, grid),
        vx_l2sq=l2_norm_sq(dx(state.v, grid).values, grid),
        vxx_l2sq=vxx_sq,
        uxx_l2sq=uxx_sq,
        dissipation_accum=diss,
        eps_dissipation_accum=eps_diss,
    )


def empirical_range_bounds(traj, material) -> RangeBounds:
    """The two-sided constitutive bounds measured along a recorded run:
    extrema of f, f', |f''| over 512 samples of [min Theta, max Theta]."""
    th_min = min(r.theta_min for r in traj.records)
    th_max = max(r.theta_max for r in traj.records)
    if th_min <= 0.0:
        raise DomainError(
            f"run temperature reached {th_min}; two-sided bounds need Theta > 0"
        )
    xs = np.linspace(th_min, th_max, 512)
    f = eval_f(material, xs)
    fp = eval_fp(material, xs)
    fpp = eval_fpp(material, xs)
    return RangeBounds(
        c1=float(f.min()), c2=float(f.max()),
        c3=float(fp.min()), c4=float(fp.max()),
        c5=float(np.max(np.abs(fpp))),
    )


# ---------------------------------------------------------------------------
# Loop references of the trajectory diagnostics: one state (and one test
# function) at a time through the Field operators.  The vectorised versions
# in ``thermoelast1d.diagnostics`` must equal them bit for bit.
# ---------------------------------------------------------------------------


def mass_identity_residual_loop(traj, material):
    grid = traj.grid
    times = traj.times
    mass = np.empty(times.shape)
    source = np.empty(times.shape)
    for j, s in enumerate(traj.states):
        mass[j] = integrate(s.theta.values, grid)
        integrand = (
            eval_fp(material, np.maximum(s.theta.values, 0.0))
            * dx(s.theta, grid).values
            * s.v.values
        )
        source[j] = integrate(integrand, grid)
    acc = _cumtrapz(source, times)
    return mass - mass[0] - acc


def weak_form_residual_loop(traj, material, test_bank):
    if len(traj.states) < 2:
        raise StructuralError("weak-form residuals need at least two snapshots")
    grid = traj.grid
    w = grid.quad_weights()
    times = traj.times
    t_end = float(times[-1])

    wt_time = np.diff(times)
    tw = np.zeros_like(times)
    tw[1:] += 0.5 * wt_time
    tw[:-1] += 0.5 * wt_time

    nodes = grid.nodes
    r_wu = []
    r_wt = []
    for tf in test_bank:
        _validate_test_function(tf, grid, t_end)
        Xv = tf.X(nodes)
        Xpv = tf.Xp(nodes)
        Tv = np.array([tf.T(t) for t in times])
        Tpv = np.array([tf.Tp(t) for t in times])
        Tppv = np.array([tf.Tpp(t) for t in times])

        if tf.target == "wu":
            acc = 0.0
            for j, s in enumerate(traj.states):
                ux = dx(s.u, grid).values
                fp_thx = eval_fp(material, np.maximum(s.theta.values, 0.0)) * dx(
                    s.theta, grid
                ).values
                acc += tw[j] * (
                    Tppv[j] * float(w @ (s.u.values * Xv))
                    + Tv[j] * float(w @ (ux * Xpv))
                    + Tv[j] * float(w @ (fp_thx * Xv))
                )
            s0 = traj.states[0]
            acc -= Tv[0] * float(w @ (s0.v.values * Xv))
            acc += Tpv[0] * float(w @ (s0.u.values * Xv))
            r_wu.append(abs(acc))
        else:
            acc = 0.0
            for j, s in enumerate(traj.states):
                th = s.theta.values
                thx = dx(s.theta, grid).values
                v = s.v.values
                fpv = eval_fp(material, np.maximum(th, 0.0))
                fv = eval_f(material, np.maximum(th, 0.0))
                acc += tw[j] * (
                    -Tpv[j] * float(w @ (th * Xv))
                    + Tv[j] * float(w @ (thx * Xpv))
                    - Tv[j] * float(w @ (fpv * thx * v * Xv))
                    - Tv[j] * float(w @ (fv * v * Xpv))
                )
            acc -= Tv[0] * float(w @ (traj.states[0].theta.values * Xv))
            r_wt.append(abs(acc))

    return WeakFormResiduals(r_wu=np.array(r_wu), r_wt=np.array(r_wt))


def difference_norms_loop(traj_a, traj_b):
    ga = traj_a.grid
    ta = traj_a.times
    sup_v = sup_ux = sup_th = 0.0
    thx_sq = np.empty(ta.shape)
    for j, (sa, sb) in enumerate(zip(traj_a.states, traj_b.states)):
        dv = sa.v.values - sb.v.values
        dux = dx(sa.u, ga).values - dx(sb.u, ga).values
        dth = sa.theta.values - sb.theta.values
        dthx = dx(sa.theta, ga).values - dx(sb.theta, ga).values
        sup_v = max(sup_v, l2_norm_sq(dv, ga))
        sup_ux = max(sup_ux, l2_norm_sq(dux, ga))
        sup_th = max(sup_th, l2_norm_sq(dth, ga))
        thx_sq[j] = l2_norm_sq(dthx, ga)
    return DifferenceNorms(
        sup_v_l2=sup_v,
        sup_ux_l2=sup_ux,
        sup_theta_l2=sup_th,
        thetax_l2l2=float(np.trapezoid(thx_sq, ta)),
    )


def _restrict(traj, coarse, space_stride):
    """Sample a fine trajectory onto a coarser grid (node subset): one
    strided copy of the store, C-contiguous; the rows are shared."""
    store = np.ascontiguousarray(traj.store[:, :, ::space_stride])
    return Trajectory.of_arrays(coarse, traj.epsilon, traj.scheme, traj.times, store, traj.rows)


def squared_differences_loop(traj_a, traj_b, lo, hi, shift=0):
    """The rows of ``diagnostics.squared_differences`` one state pair at a
    time: (|dv|^2, |d u_x|^2, |dTheta|^2, |dTheta_x|^2) of
    ``traj_a.states[j + shift]`` minus ``traj_b.states[j]``, j in [lo, hi)."""
    g = traj_a.grid
    rows = []
    for j in range(lo, hi):
        sa, sb = traj_a.states[j + shift], traj_b.states[j]
        rows.append([l2_norm_sq(d, g) for d in (
            sa.v.values - sb.v.values,
            dx(sa.u, g).values - dx(sb.u, g).values,
            sa.theta.values - sb.theta.values,
            dx(sa.theta, g).values - dx(sb.theta, g).values,
        )])
    return tuple(np.array(rows).reshape(-1, 4).T)


def rough_data_stored(kind, n_levels, t_end, material=None, **data_params):
    """``experiments.exp_rough_data`` with every level's states stored: the
    refinement distances from each finer level restricted onto the coarser
    one after the runs, by :func:`difference_norms_loop`."""
    material = material or identity_material()
    runs, e_resid, diss, th_min = [], [], [], []
    series = {}
    dt = cfl_dt(Grid(*OMEGA, n_levels[0]), t_end)
    for lvl, n in enumerate(n_levels):
        grid = Grid(*OMEGA, n)
        cfg = SolverConfig(dt=dt / 2 ** lvl, t_end=t_end)
        traj = run_limit(prepare_rough_data(kind, grid, **data_params), material, cfg, grid,
                         record_every=2 ** lvl)
        runs.append(traj)
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
    report.checks.append(_check_ge("min Theta over all runs", min(th_min), -1e-12))
    if len(n_levels) >= 3:
        dists = [_triple_distance(difference_norms_loop(
            coarse, _restrict(fine, coarse.grid, 2))) for coarse, fine in zip(runs, runs[1:])]
        report.series["refinement"] = {
            "pair": np.arange(len(dists), dtype=float),
            "distance": np.array(dists),
        }
        report.checks.append(_check_le("refinement distances decreasing", dists[-1], dists[0]))
    return report


# ---------------------------------------------------------------------------
# Per-value references of the text writers in ``thermoelast1d.output``: one
# format call per value.  The block writers must produce the same bytes.
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    return "%.17g" % float(x)


def record_row(r) -> list:
    """The diagnostics.csv row of one record, column by column as FORMATS.md
    names them: y is nan when undefined, y_valid is 1 or 0."""
    y = float("nan") if r.hfunc is None else r.hfunc
    return [r.t, r.energy, r.theta_mass, r.theta_min, r.theta_max, y,
            1 if r.hfunc_valid else 0, r.thetax_l2sq, r.thetaxx_l2sq, r.vx_l2sq,
            r.vxx_l2sq, r.uxx_l2sq, r.dissipation_accum, r.eps_dissipation_accum]


def diagnostics_text_loop(traj, sep=",") -> str:
    """diagnostics.csv (``sep=","``) or the rows of series.dat (``" "``)."""
    out = []
    for r in traj.records:
        out.append(sep.join(_fmt(x) for x in record_row(r)) + "\n")
    return "".join(out)


def snapshot_csv_loop(s, x) -> str:
    out = ["t,x,v,u,theta\n"]
    for j in range(len(x)):
        out.append(
            ",".join(
                _fmt(val)
                for val in (s.t, x[j], s.v.values[j], s.u.values[j], s.theta.values[j])
            )
            + "\n"
        )
    return "".join(out)


def series_csv_loop(table) -> str:
    cols = list(table.keys())
    n = max((len(np.atleast_1d(table[c])) for c in cols), default=0)
    out = [",".join(cols) + "\n"]
    for i in range(n):
        row = []
        for c in cols:
            arr = np.atleast_1d(table[c])
            row.append(_fmt(arr[i]) if i < len(arr) else "")
        out.append(",".join(row) + "\n")
    return "".join(out)


def svg_series_loop(series, t, width=900, height=600) -> str:
    t = np.asarray(t, float)
    margin = 50.0
    finite_vals = np.concatenate(
        [np.asarray(v, float)[np.isfinite(np.asarray(v, float))] for v in series.values()]
    )
    if finite_vals.size == 0:
        finite_vals = np.array([0.0, 1.0])
    ymin, ymax = float(finite_vals.min()), float(finite_vals.max())
    if ymax - ymin < 1e-300:
        ymax = ymin + 1.0
    tmin, tmax = float(t.min()), float(t.max())
    if tmax - tmin < 1e-300:
        tmax = tmin + 1.0

    # a range that overflows a double is plotted from halved values, and a
    # range still empty after the widening (|value| >= 2**53) as width 1
    ts = 1.0 if np.isfinite(tmax - tmin) else 0.5
    ys = 1.0 if np.isfinite(ymax - ymin) else 0.5
    t_span = tmax * ts - tmin * ts
    y_span = ymax * ys - ymin * ys

    def sx(tv):
        return margin + (tv * ts - tmin * ts) / (t_span if t_span else 1.0) * (width - 2 * margin)

    def sy(yv):
        return height - margin - ((yv * ys - ymin * ys) / (y_span if y_span else 1.0)
                                  * (height - 2 * margin))

    colors = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>',
        f'<text x="{margin}" y="20" font-size="13">t in [{tmin:.6g}, {tmax:.6g}], '
        f'range [{ymin:.6g}, {ymax:.6g}]</text>',
    ]
    for i, (name, vals) in enumerate(series.items()):
        vals = np.asarray(vals, float)
        pts = " ".join(
            f"{sx(tv):.2f},{sy(yv):.2f}"
            for tv, yv in zip(t, vals)
            if np.isfinite(yv)
        )
        color = colors[i % len(colors)]
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>'
        )
        parts.append(
            f'<text x="{width - margin + 4}" y="{margin + 16 * i}" font-size="12" '
            f'fill="{color}">{name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# Scalar-t references of the manufactured forcing: one time per call, every
# factor formed in one left-to-right product.  Each row of
# ``Manufactured.forcing`` on a column of times must equal them bit for bit.
# ---------------------------------------------------------------------------


def mms_s_v_scalar(ref, material, x, t):
    k = ref._k
    s, c = np.sin(ref._xi(x)), np.cos(ref._xi(x))
    u_tt = -ref.u_amp * ref.omega ** 2 * s * math.cos(ref.omega * t)
    u_xx = -ref.u_amp * k ** 2 * s * math.cos(ref.omega * t)
    th = 1.0 + ref.th_amp * c * math.exp(-ref.decay * t)
    th_x = -ref.th_amp * k * s * math.exp(-ref.decay * t)
    return u_tt - u_xx + eval_fp(material, th) * th_x


def mms_s_th_scalar(ref, material, x, t):
    k = ref._k
    c = np.cos(ref._xi(x))
    th_t = -ref.decay * ref.th_amp * c * math.exp(-ref.decay * t)
    th_xx = -ref.th_amp * k ** 2 * c * math.exp(-ref.decay * t)
    th = 1.0 + ref.th_amp * c * math.exp(-ref.decay * t)
    u_xt = -ref.u_amp * ref.omega * k * c * math.sin(ref.omega * t)
    return th_t - th_xx + eval_f(material, th) * u_xt


# ---------------------------------------------------------------------------
# Reference of one limit (eps = 0) step: the leapfrog/backward-Euler formula
# of ``LimitStepper.advance`` on fresh arrays, with no carried wave part,
# no scratch buffers and no forcing tables.  ``step_limit``, ``run_limit``
# and the stepper must equal it bit for bit.
# ---------------------------------------------------------------------------


def limit_step_reference(v, u, th, t, material, cfg, grid, forcing=None):
    """(v1, u1, Theta1) of one step from (v, u, Theta) at ``t``; ``forcing``
    is a ``stepping.Forcing`` (S_v, S_theta), read one time at a time: S_v
    at t, S_v and S_theta at t + dt."""
    dt, h, x = cfg.dt, grid.h, grid.nodes
    s_v = s_v1 = s_th1 = 0.0
    if forcing is not None:
        s_v = forcing[0](x, np.array([[t]]))[0]
        s_v1 = forcing[0](x, np.array([[t + dt]]))[0]
        s_th1 = forcing[1](x, np.array([[t + dt]]))[0]

    def wave_part(u, th):
        fth = eval_f(material, np.maximum(th, 0.0))
        return dxx_values(u, h, BC_DIRICHLET) - dx_values(fth, h, BC_NEUMANN), fth

    wave, fth = wave_part(u, th)
    v_half = v + (wave + s_v) * (0.5 * dt)
    v_half[0] = v_half[-1] = 0.0
    u1 = u + v_half * dt
    u1[0] = u1[-1] = 0.0
    g = dx_values(v_half, h, BC_HINGED)
    th1 = splu(heat_system(grid, dt, BC_NEUMANN)).solve(th + (s_th1 - fth * g) * dt)
    wave1, _ = wave_part(u1, th1)
    v1 = v_half + (wave1 + s_v1) * (0.5 * dt)
    v1[0] = v1[-1] = 0.0
    return v1, u1, th1
