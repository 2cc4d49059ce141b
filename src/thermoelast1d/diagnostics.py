"""Trajectory diagnostics: the identities and functionals every run is
checked against.

Conventions

* All spatial integrals use the trapezoid rule on the run's grid.
* All time integrals over trajectories use the trapezoid rule on the
  recorded time grid.
* Trajectory diagnostics read each block of stored states as a
  C-contiguous ``(block, 3, N)`` slice of the store
  (:attr:`~.state.Trajectory.store`), v, u and Theta as its rows;
  ``np.vecdot(rows, w)`` equals ``w @ row`` per row bit for bit there
  (numpy 2.4/OpenBLAS; a dgemv ``rows @ w`` is not), and time sums stay
  sequential: every value equals the one-state loop's.
* Quantities whose displays are squared norms are reported squared; the
  CSV/report headers say so.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import ContractError, StructuralError
from .grid import BC_DIRICHLET, BC_HINGED, BC_NEUMANN, Grid, dx_rows, dxx_rows, trapezoid_weights
# eval_f and eval_fp are unused here; bench/probes.py patches them by name
from .materials import Material, eval_f, eval_fp, f_kernel, fp_kernel  # noqa: F401
from .state import RECORD_FIELDS, DiagnosticsRecord, State, Trajectory, record_on

#: bc kinds of the rows (v, u, Theta) of a state block
_STATE_BCS = (BC_HINGED, BC_DIRICHLET, BC_NEUMANN)
#: the columns of a row
(_T, _E, _MASS, _MIN, _MAX, _Y, _VALID, _THX, _THXX, _VX, _VXX, _UXX, _DISS,
 _EPS) = range(len(RECORD_FIELDS))


def compute_record(
    state: State,
    material: Material,
    grid: Grid,
    epsilon: float,
    prev: Optional[DiagnosticsRecord] = None,
) -> DiagnosticsRecord:
    """One diagnostics row; accumulators continue from ``prev`` by trapezoid.

    The one-state call of :func:`chunk_records`, on a view of the state's
    ``(3, N)`` block, into a fresh row after a copy of ``prev``'s."""
    if state.n_nodes != grid.n_nodes:
        raise StructuralError(f"state has {state.n_nodes} nodes, grid {grid.n_nodes}")
    out = np.empty((1 + (prev is not None), len(RECORD_FIELDS)))
    if prev is not None:
        out[0] = prev.row
    chunk_records(state.block[None], [state.t], [float(state.block[2].min())], material, grid,
                  epsilon, out)
    out.flags.writeable = False
    return record_on(out[-1])


def chunk_records(
    stack: np.ndarray,
    times: Sequence[float],
    theta_min: Sequence[float],
    material: Material,
    grid: Grid,
    epsilon: float,
    out: np.ndarray,
) -> np.ndarray:
    """The diagnostics rows of C consecutive states in one pass over the
    C-contiguous ``(C, 3, N)`` stack of their blocks, written into the last
    C rows of ``out`` (C or C + 1 rows) and returned; the accumulators of
    row j continue from row j - 1 by trapezoid (row 0 from ``out[0]`` if
    there are C + 1 rows, else from 0).  ``times`` and ``theta_min`` give
    each state's t and min Theta.

    dx and dxx of the 3C rows in two stacked passes, every integral from
    one ``np.vecdot`` over a C-contiguous stack of integrands, the material
    kernels once over the states whose min Theta is at least the rho floor,
    max Theta by one axis reduction.  Then the scalars by column, each in the
    operation order of the one-row formula, the accumulators by the
    sequential ``np.add.accumulate``; a chunk of one row (every chunk from
    N = 4097 on, and :func:`compute_record`) takes the same path."""
    c, _, n = stack.shape
    w = trapezoid_weights(grid)
    rows_out = out[-c:]
    valid = [not m < material.rho_floor for m in theta_min]
    # integrands, (3, C, 3, N): the squares of dx and of dxx of each state's
    # (v, u, Theta), then v^2, Theta and, while rho is defined, rho(Theta) Theta_x^2
    rows = np.empty((3, c, 3, n))
    flat = stack.reshape(3 * c, n)
    dx_rows(flat, grid.h, _STATE_BCS, out=rows[0].reshape(3 * c, n))
    dxx_rows(flat, grid.h, _STATE_BCS, out=rows[1].reshape(3 * c, n))
    np.square(rows[:2], out=rows[:2])
    np.square(stack[:, 0], out=rows[2, :, 0])
    th = stack[:, 2]
    rows[2, :, 1] = th
    sel = slice(None)
    if not all(valid):
        sel = np.array(valid)
        rows[2, ~sel, 2] = 0.0
    # Theta >= rho_floor > 0 in the valid states, so f(max(Theta, 0)) is
    # f(Theta) and the unchecked kernels apply
    th_v = th[sel]
    rows[2, sel, 2] = fp_kernel(material, th_v) / f_kernel(material, th_v) * rows[0, sel, 2]
    # (3, 3, C): (|v_x|^2, |u_x|^2, |Theta_x|^2), the same of dxx, then
    # (|v|^2, int Theta, int rho Theta_x^2), one column per state
    ints = np.vecdot(rows, w).transpose(0, 2, 1)
    half = 0.5 * ints
    rows_out[:, _T] = times
    rows_out[:, _E] = half[2, 0] + half[0, 1] + ints[2, 1]
    rows_out[:, _MASS] = ints[2, 1]
    rows_out[:, _MIN] = theta_min
    rows_out[:, _MAX] = th.max(axis=1)
    rows_out[:, _Y] = np.where(valid, 1.0 + half[0, 0] + half[1, 1] + half[2, 2], np.nan)
    rows_out[:, _VALID] = valid
    rows_out[:, _THX:_THX + 2] = ints[:2, 2].T  # |Theta_x|^2, |Theta_xx|^2
    rows_out[:, _VX:_VX + 2] = ints[:2, 0].T  # |v_x|^2, |v_xx|^2
    rows_out[:, _UXX] = ints[1, 1]
    if len(out) == c:
        out[0, _DISS:] = 0.0
    half_dt = 0.5 * (out[1:, _T] - out[:-1, _T])
    thx, curv = out[:, _THX], out[:, _VXX] + out[:, _UXX]
    out[1:, _DISS] = half_dt * (thx[:-1] + thx[1:])
    out[1:, _EPS] = epsilon * half_dt * (curv[:-1] + curv[1:])
    np.add.accumulate(out[:, _DISS:], axis=0, out=out[:, _DISS:])
    return rows_out


def energy_identity_residual(traj: Trajectory) -> np.ndarray:
    """r(t) = E(t) - E(0) + eps int_0^t (|v_xx|^2 + |u_xx|^2).

    For eps = 0 this is the plain energy drift E(t) - E(0).
    """
    e = traj.record_series("energy")
    return e - e[0] + traj.record_series("eps_dissipation_accum")


def mass_identity_residual(traj: Trajectory, material: Material) -> np.ndarray:
    """r(t) = int Theta(t) - int Theta_0 - int_0^t int f'(Theta) Theta_x v.

    Evaluated on the snapshot timeline (the space-time source term needs
    the full fields), one block of stored states at a time.
    """
    grid = traj.grid
    w = trapezoid_weights(grid)
    times = traj.times
    if not len(times):
        raise StructuralError("the mass identity residual needs a stored state, got 0")
    mass = np.empty(times.shape)
    source = np.empty(times.shape)
    for lo, hi in traj.blocks(0, len(times)):
        v, _, th = traj.store[lo:hi].transpose(1, 0, 2)
        mass[lo:hi] = np.vecdot(th, w)
        integrand = (
            fp_kernel(material, np.maximum(th, 0.0))
            * dx_rows(th, grid.h, BC_NEUMANN)
            * v
        )
        source[lo:hi] = np.vecdot(integrand, w)
    return mass - mass[0] - _cumtrapz(source, times)


def _cumtrapz(y: np.ndarray, t: np.ndarray) -> np.ndarray:
    out = np.zeros_like(y)
    if len(y) > 1:
        out[1:] = np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(t))
    return out


# ---------------------------------------------------------------------------
# Weak-form residuals
# ---------------------------------------------------------------------------


def _bump(xi: np.ndarray) -> np.ndarray:
    """C^infinity bump on (-1, 1), equal to 1 at 0, identically 0 outside."""
    xi = np.asarray(xi, dtype=float)
    out = np.zeros_like(xi)
    inside = np.abs(xi) < 1.0
    z = xi[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - z * z))
    return out


def _bump_prime(xi: np.ndarray) -> np.ndarray:
    xi = np.asarray(xi, dtype=float)
    out = np.zeros_like(xi)
    inside = np.abs(xi) < 1.0
    z = xi[inside]
    w = 1.0 - z * z
    out[inside] = np.exp(1.0 - 1.0 / w) * (-2.0 * z / (w * w))
    return out


@dataclass(frozen=True)
class SpaceTimeTestFunction:
    """Separable test function phi(x, t) = X(x) T(t).

    ``target`` is ``"wu"`` (displacement identity: X compactly supported in
    the open interval, T and T' vanish at the horizon) or ``"wt"``
    (temperature identity: X free at the boundary, T vanishes at the
    horizon).

    ``X``/``Xp`` take the node array; ``T``/``Tp``/``Tpp`` take the whole
    array of snapshot times (a scalar return is broadcast) or a float.
    """

    target: str
    X: Callable[[np.ndarray], np.ndarray]
    Xp: Callable[[np.ndarray], np.ndarray]
    T: Callable[..., Union[float, np.ndarray]]
    Tp: Callable[..., Union[float, np.ndarray]]
    Tpp: Callable[..., Union[float, np.ndarray]]
    t_end: float
    label: str = ""


def _poly_test_function(target: str, t_end: float, p_coef, q_coef, a: float, b: float,
                        label: str = "") -> SpaceTimeTestFunction:
    p = np.polynomial.Polynomial(p_coef)
    pp = p.deriv()
    q = np.polynomial.Polynomial(q_coef)
    qp = q.deriv()
    qpp = qp.deriv()
    scale = 2.0 / (b - a)

    def to_xi(x):
        return (np.asarray(x, dtype=float) - a) * scale - 1.0

    if target == "wu":
        def X(x):
            xi = to_xi(x)
            return p(xi) * _bump(xi)

        def Xp(x):
            xi = to_xi(x)
            return (pp(xi) * _bump(xi) + p(xi) * _bump_prime(xi)) * scale
    else:
        def X(x):
            return p(to_xi(x))

        def Xp(x):
            return pp(to_xi(x)) * scale

    # time part q(tau) (1 - tau)^2 with tau = t / t_end:
    # vanishes at the horizon together with its first derivative, so the
    # double time integration by parts in the displacement identity closes.
    # The factors square by multiplication: on a scalar t, ``** 2`` is libm
    # pow, which can differ by an ulp from numpy's x * x on an array of times
    def T(t):
        tau = t / t_end
        s = 1.0 - tau
        return q(tau) * (s * s)

    def Tp(t):
        tau = t / t_end
        s = 1.0 - tau
        return (qp(tau) * (s * s) - 2.0 * q(tau) * s) / t_end

    def Tpp(t):
        tau = t / t_end
        s = 1.0 - tau
        return (qpp(tau) * (s * s) - 4.0 * qp(tau) * s + 2.0 * q(tau)) / t_end ** 2

    return SpaceTimeTestFunction(
        target=target, X=X, Xp=Xp, T=T, Tp=Tp, Tpp=Tpp, t_end=t_end, label=label
    )


def default_test_bank(grid: Grid, t_end: float, n: int = 10,
                      seed: int = 1234) -> List[SpaceTimeTestFunction]:
    """Reproducible bank of smooth separable test functions.

    Alternates displacement-type and temperature-type members; fixed seed
    so residual regressions are reproducible.
    """
    rng = np.random.default_rng(seed)
    bank = []
    for k in range(n):
        target = "wu" if k % 2 == 0 else "wt"
        p_coef = rng.uniform(-1.0, 1.0, size=rng.integers(1, 4))
        if not np.any(np.abs(p_coef) > 0.2):
            p_coef[0] = 0.5
        q_coef = rng.uniform(-1.0, 1.0, size=rng.integers(1, 3))
        if not np.any(np.abs(q_coef) > 0.2):
            q_coef[0] = 1.0
        bank.append(
            _poly_test_function(
                target, t_end, p_coef, q_coef, grid.a, grid.b, label=f"{target}-{k}"
            )
        )
    return bank


def _validate_test_function(tf: SpaceTimeTestFunction, grid: Grid, t_end: float):
    if tf.target not in ("wu", "wt"):
        raise ContractError(f"unknown test-function target {tf.target!r}")
    if abs(tf.t_end - t_end) > 1e-12 * max(t_end, 1.0):
        raise ContractError(
            f"test function horizon {tf.t_end} does not match trajectory {t_end}"
        )
    edge = np.array([grid.a, grid.b])
    scale = max(1.0, float(np.max(np.abs(tf.X(grid.nodes)))))
    if tf.target == "wu" and np.any(np.abs(tf.X(edge)) > 1e-12 * scale):
        raise ContractError("displacement test function must vanish at the boundary")
    tscale = max(1.0, abs(tf.T(0.0)))
    if abs(tf.T(t_end)) > 1e-12 * tscale:
        raise ContractError("test function must vanish at the time horizon")
    if tf.target == "wu" and abs(tf.Tp(t_end)) > 1e-12 * tscale / max(t_end, 1e-300):
        raise ContractError(
            "displacement test function needs vanishing time derivative at the horizon"
        )


@dataclass(frozen=True)
class WeakFormResiduals:
    r_wu: np.ndarray
    r_wt: np.ndarray

    @property
    def max_wu(self) -> float:
        return float(np.max(self.r_wu)) if self.r_wu.size else 0.0

    @property
    def max_wt(self) -> float:
        return float(np.max(self.r_wt)) if self.r_wt.size else 0.0


def weak_form_residual(
    traj: Trajectory,
    material: Material,
    test_bank: Sequence[SpaceTimeTestFunction],
) -> WeakFormResiduals:
    """Quadrature residuals of the two integral identities of the limit
    system against each member of the test bank.

    The displacement identity tests u (twice integrated by parts in time),
    the temperature identity tests Theta with the advective flux terms.
    """
    if len(traj) < 2:
        raise StructuralError(f"weak-form residuals need at least two snapshots, got {len(traj)}")
    grid = traj.grid
    w = trapezoid_weights(grid)
    times = traj.times
    t_end = float(times[-1])

    wt_time = np.diff(times)
    tw = np.zeros_like(times)
    tw[1:] += 0.5 * wt_time
    tw[:-1] += 0.5 * wt_time

    nodes = grid.nodes
    for tf in test_bank:
        _validate_test_function(tf, grid, t_end)
    space = np.array([tf.X(nodes) for tf in test_bank])
    space_p = np.array([tf.Xp(nodes) for tf in test_bank])
    # the members of each target, with their X and X' as (members, 1, N)
    groups = []
    for target in ("wu", "wt"):
        idx = [i for i, tf in enumerate(test_bank) if tf.target == target]
        if idx:
            groups.append((target, idx, space[idx, None], space_p[idx, None]))
    # per member and state: the spatial integrals the identity pairs with
    # its time factors ("wu" fills three, "wt" four), each pairing formed
    # for all members of a target by one broadcast product
    proj = np.empty((len(test_bank), 4, len(times)))
    for lo, hi in traj.blocks(0, len(times)):
        v, u, th = traj.store[lo:hi].transpose(1, 0, 2)
        thx = dx_rows(th, grid.h, BC_NEUMANN)
        ux = dx_rows(u, grid.h, BC_DIRICHLET)
        th_pos = np.maximum(th, 0.0)
        fp_thx = fp_kernel(material, th_pos) * thx
        fp_thx_v = fp_thx * v
        fv_v = f_kernel(material, th_pos) * v
        for target, idx, X, Xp in groups:
            if target == "wu":
                pairs = ((u, X), (ux, Xp), (fp_thx, X))
            else:
                pairs = ((th, X), (thx, Xp), (fp_thx_v, X), (fv_v, Xp))
            for k, (field_values, x_factor) in enumerate(pairs):
                proj[idx, k, lo:hi] = np.vecdot(field_values * x_factor, w)

    s0 = traj.states[0]
    r_wu = []
    r_wt = []
    for tf, X, p in zip(test_bank, space, proj):
        T, Tp, Tpp = (np.broadcast_to(fn(times), times.shape)
                      for fn in (tf.T, tf.Tp, tf.Tpp))
        # cumsum keeps the sequential left-to-right sum of the time rule
        if tf.target == "wu":
            acc = np.cumsum(tw * (Tpp * p[0] + T * p[1] + T * p[2]))[-1]
            acc -= T[0] * float(w @ (s0.v.values * X))
            acc += Tp[0] * float(w @ (s0.u.values * X))
            r_wu.append(abs(acc))
        else:
            acc = np.cumsum(tw * (-Tp * p[0] + T * p[1] - T * p[2] - T * p[3]))[-1]
            acc -= T[0] * float(w @ (s0.theta.values * X))
            r_wt.append(abs(acc))

    return WeakFormResiduals(r_wu=np.array(r_wu), r_wt=np.array(r_wt))


# ---------------------------------------------------------------------------
# Difference norms between trajectories
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DifferenceNorms:
    """The four stability quantities, reported squared:

    sup-in-time of |vA - vB|^2, |u_xA - u_xB|^2, |ThetaA - ThetaB|^2, and
    the space-time integral of |Theta_xA - Theta_xB|^2.
    """

    sup_v_l2: float
    sup_ux_l2: float
    sup_theta_l2: float
    thetax_l2l2: float

    def total(self) -> float:
        return self.sup_v_l2 + self.sup_ux_l2 + self.sup_theta_l2 + self.thetax_l2l2


def squared_differences(grid: Grid, a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, ...]:
    """Squared trapezoid norms of each state of the ``(m, 3, N)`` stack ``a``
    minus that of ``b``, one row per state: (|dv|^2, |d u_x|^2, |dTheta|^2,
    |dTheta_x|^2), derivatives taken before the difference."""
    w = trapezoid_weights(grid)
    h = grid.h
    va, ua, tha = a.transpose(1, 0, 2)
    vb, ub, thb = b.transpose(1, 0, 2)
    dux = dx_rows(ua, h, BC_DIRICHLET) - dx_rows(ub, h, BC_DIRICHLET)
    dthx = dx_rows(tha, h, BC_NEUMANN) - dx_rows(thb, h, BC_NEUMANN)
    return (np.vecdot((va - vb) ** 2, w), np.vecdot(dux ** 2, w),
            np.vecdot((tha - thb) ** 2, w), np.vecdot(dthx ** 2, w))


class DifferenceAccumulator:
    """The :class:`DifferenceNorms` of the stored trajectory ``ref`` against a
    run fed from t = 0 on, as its ``recorder`` (which keeps the states and
    compares them per block of ``ref``) or by :meth:`feed`: its step j * ``every``
    on every ``stride``-th node against ``ref``'s state j, within 1e-12 in time."""

    def __init__(self, ref: Trajectory, every: int = 1, stride: int = 1):
        self.ref, self.every, self.stride, self._block = ref, every, stride, ref.block_size
        # squared differences, states fed, reference states compared, the recorder's kept states
        self._sq, self._fed, self._done, self._kept = np.empty((4, len(ref))), 0, 0, []

    def __call__(self, state: State, record: Optional[DiagnosticsRecord] = None) -> None:
        self._fed += 1
        if not (self._fed - 1) % self.every:
            self._kept.append(state)
            if len(self._kept) >= min(self._block, len(self.ref) - self._done):  # or past its end
                kept = self._kept
                blocks = [s.block[:, ::self.stride] for s in kept]  # only the nodes compared
                self._compare(np.array([s.t for s in kept]), np.array(blocks))

    def feed(self, times: np.ndarray, stack: np.ndarray) -> None:
        """Feed the run's next states: their times and ``(m, 3, N)`` stack."""
        sel = slice(-self._fed % self.every, None, self.every)
        self._fed += len(times)
        self._compare(times[sel], stack[sel, :, ::self.stride])

    def _compare(self, times: np.ndarray, fed: np.ndarray) -> None:
        ref, lo, hi = self.ref, self._done, self._done + len(times)
        if fed.shape[2] != ref.grid.n_nodes:
            raise StructuralError(f"states have {fed.shape[2]} nodes at stride {self.stride}, "
                                  f"the reference {ref.grid.n_nodes}")
        ref_t = np.append(ref.times[lo:hi], [np.inf] * (hi - len(ref)))  # inf past the end
        close = np.abs(times - ref_t) <= 1e-12
        if not close.all():
            j = int(np.argmin(close))
            raise StructuralError(f"step {(lo + j) * self.every} at t = {times[j].item()!r} is "
                                  f"off its reference time {ref_t[j].item()!r} by more than 1e-12")
        self._sq[:, lo:hi] = squared_differences(ref.grid, ref.store[lo:hi], fed)
        self._done, self._kept = hi, []

    def result(self) -> DifferenceNorms:
        """Sups by ``max(..., initial=0.0)``, the time integral by ``np.trapezoid``."""
        if self._done < len(self.ref):
            raise ContractError(f"the run reached {self._done + len(self._kept)} of the "
                                f"reference's {len(self.ref)} times")
        sups = self._sq[:3].max(axis=1, initial=0.0).tolist()
        return DifferenceNorms(*sups, float(np.trapezoid(self._sq[3], self.ref.times)))


def difference_norms(traj_a: Trajectory, traj_b: Trajectory) -> DifferenceNorms:
    """The :class:`DifferenceAccumulator` of ``traj_a`` fed ``traj_b``'s store."""
    if traj_a.grid != traj_b.grid:  # the same (a, b, n_cells)
        raise StructuralError("trajectories live on different grids")
    acc = DifferenceAccumulator(traj_a)
    for lo, hi in traj_b.blocks(0, len(traj_b)):
        acc.feed(traj_b.times[lo:hi], traj_b.store[lo:hi])
    return acc.result()
