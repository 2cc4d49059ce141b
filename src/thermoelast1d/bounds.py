"""Explicit stability constants and a-priori bound checks.

This module turns the well-posedness machinery into closed-form numbers:

* ``gamma1(eta, K, ...)`` -- coefficient of the difference bilinear-form
  inequalities: for nonnegative Theta, Theta^ in H1 and any v, v^ in L2
  with |v^|_2 + |Theta|_1 <= K,

      -int {f'(Th)Th_x - f'(Th^)Th^_x}(v - v^)
          <= eta int (Th_x - Th^_x)^2
           + Gamma1 {1 + int Th_x^2}{int (v-v^)^2 + int (Th-Th^)^2}

  and the companion inequality for the advective pairing; ``gamma1``
  returns a certified admissible (non-sharp) choice, assembled as the sum
  of every coefficient group arising in the Young/embedding estimates.

* ``gamma2(K)``            -- parabolic-part Gronwall coefficient, 2*gamma1(1/2, K).
* ``gamma3(K, T)``         -- continuous-dependence constant (sup + dissipation).
* ``gamma4(K, T, L)``      -- a-priori bound on sup(|u_t|_2 + |Theta|_1) + int int Theta_x^2.
* ``tau_bound``            -- short-time higher-regularity horizon tau, the
  sqrt(2) cap on the weighted functional y, and the curvature dissipation cap.
* ``gronwall_check``       -- pointwise y(t) <= y0 exp(int b) verification.

Gronwall exponents here grow like exp(Gamma1 * T), far beyond float64
range for realistic inputs, so every potentially huge constant is carried
in the natural-log domain (``log_*`` functions); the plain functions
return inf when the value is not representable.  Everything is pure
arithmetic and thread-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .diagnostics import _cumtrapz
from .errors import DomainError
from .grid import Grid, gn_constants
from .materials import Material

_LOG_MAX = math.log(np.finfo(float).max)  # ~709.78


def _require_positive(**kwargs):
    for name, val in kwargs.items():
        if not val > 0.0:
            raise DomainError(f"{name} must be positive, got {val}")


# ---------------------------------------------------------------------------
# Gamma1 and its constituent coefficients
# ---------------------------------------------------------------------------


def c5_coef(eta: float, c1: float, c4: float) -> float:
    return (2.0 / eta) ** (1.0 / 3.0) * (c1 * c4) ** (4.0 / 3.0)


def c6_coef(eta: float, c1: float, c3: float) -> float:
    return (6.0 / eta) ** (1.0 / 3.0) * (c1 * c3) ** (4.0 / 3.0)


def c7_coef(eta: float, K: float, c1: float, c3: float) -> float:
    return (12.0 / eta) ** 3 * (c1 * c3 * K) ** 4 + 3.0 * c1 ** 2 * c3 ** 2 * K ** 2 / eta


def c8_coef(eta: float, K: float, c1: float, c4: float) -> float:
    # the c1^4 power is what the derivation of the Theta_x-weighted term
    # actually produces; c1 >= sqrt(2) > 1 so this dominates and stays valid
    return 6.0 * c1 ** 4 * c4 ** 2 * K ** 2 / eta + 2.0 * c1 ** 2 * c4 * K


def c9_coef(eta: float, K: float, c1: float, c3: float) -> float:
    return (8.0 / eta) ** 3 * (c1 * c3 * K) ** 4 + 2.0 * c1 ** 2 * c3 ** 2 * K ** 2 / eta


def gamma1(eta: float, K: float, c1: float, c2: float, c3: float, c4: float) -> float:
    """Certified admissible difference-inequality constant.

    Sum of the four coefficient groups produced by the Young/embedding
    estimates (velocity pairing; its Theta_x-weighted remainder; the
    advective-gradient group; the advective-flux group).  Any constant at
    least this large satisfies both inequalities, so monotone upper
    assembly is sound.
    """
    _require_positive(eta=eta, K=K, c1=c1, c2=c2)
    if c3 < 0.0 or c4 < 0.0:
        raise DomainError(f"material bounds must be nonnegative, got c3={c3}, c4={c4}")
    c5 = c5_coef(eta, c1, c4)
    c6 = c6_coef(eta, c1, c3)
    c7 = c7_coef(eta, K, c1, c3)
    c8 = c8_coef(eta, K, c1, c4)
    c9 = c9_coef(eta, K, c1, c3)
    group_velocity = c3 ** 2 / (2.0 * eta) + c5 + c1 * c4
    group_remainder = c5 + c1 * c4
    group_gradient = c6 + c1 * c3 + c7 + c8
    group_flux = c9 + c2 * c3 ** 2 * K ** 2 / eta + c2 * c3 ** 2 / eta
    return group_velocity + group_remainder + group_gradient + group_flux


def gamma2(K: float, c1: float, c2: float, c3: float, c4: float) -> float:
    """Parabolic difference estimate constant: twice gamma1 at eta = 1/2."""
    return 2.0 * gamma1(0.5, K, c1, c2, c3, c4)


def gronwall_exponent(K: float, T: float, c1: float, c2: float, c3: float,
                      c4: float) -> float:
    """c2bar = (gamma1(1/2, K) + gamma2(K)) * (T + K), the integrated
    Gronwall rate when int int Theta_x^2 <= K."""
    _require_positive(T=T)
    g1 = gamma1(0.5, K, c1, c2, c3, c4)
    return (g1 + 2.0 * g1) * (T + K)


def log_gamma3(K: float, T: float, c1: float, c2: float, c3: float, c4: float) -> float:
    """log of gamma3 = 2 max(e^c2bar, 1 + c2bar e^c2bar).

    The first branch caps the sup-in-time Gronwall growth, the second the
    dissipation integral; the factor 2 absorbs the 1/2 <-> 1 weight
    bookkeeping between the functional and the reported sums.
    """
    c2bar = gronwall_exponent(K, T, c1, c2, c3, c4)
    if c2bar > 50.0:
        # 1 + c2bar*e^c2bar dominates; log1p refinement is below resolution
        branch2 = c2bar + math.log(c2bar)
    else:
        branch2 = math.log1p(c2bar * math.exp(c2bar))
    return math.log(2.0) + max(c2bar, branch2)


def gamma3(K: float, T: float, c1: float, c2: float, c3: float, c4: float) -> float:
    lg = log_gamma3(K, T, c1, c2, c3, c4)
    return math.exp(lg) if lg < _LOG_MAX else math.inf


def energy_data_bound(K: float, omega_length: float) -> float:
    """Upper bound for 2 E(0) under |v0|_2 + |u0|_{1,2} + |Theta0|_2 <= K:
    int v0^2 + int u0_x^2 + 2 int Theta0 <= K^2 + K^2 + 2 sqrt(L) K
    (Cauchy-Schwarz on the temperature mass)."""
    _require_positive(K=K, omega_length=omega_length)
    return 2.0 * K ** 2 + 2.0 * math.sqrt(omega_length) * K


def log_gamma4(K: float, T: float, omega_length: float, c1: float, c2: float,
               c3: float, c4: float) -> float:
    """log of an admissible a-priori constant gamma4(K, T).

    Composition: the energy identity bounds |u_t|_2 by c1K = sqrt(2 E(0))
    and |Theta|_1 by E(0); comparing against the zero solution in the
    continuous-dependence estimate bounds the dissipation by
    gamma3(c1K, T) * 3 K^2.
    """
    two_e0 = energy_data_bound(K, omega_length)
    c1k = math.sqrt(two_e0)
    theta_mass = 0.5 * two_e0
    lg3 = log_gamma3(c1k, T, c1, c2, c3, c4)
    log_diss = math.log(3.0 * K ** 2) + lg3
    log_small = math.log(c1k + theta_mass)
    hi, lo = max(log_diss, log_small), min(log_diss, log_small)
    return hi + math.log1p(math.exp(lo - hi))


def gamma4(K: float, T: float, omega_length: float, c1: float, c2: float,
           c3: float, c4: float) -> float:
    lg = log_gamma4(K, T, omega_length, c1, c2, c3, c4)
    return math.exp(lg) if lg < _LOG_MAX else math.inf


# ---------------------------------------------------------------------------
# Short-time higher-regularity horizon
# ---------------------------------------------------------------------------


def c10_quartic(omega_length: float) -> float:
    """Certified constant of |phi|_{L4}^4 <= c10 |phi_x|_2 |phi|_2^3 for
    phi vanishing somewhere on the closure (here: at the boundary).

    phi^2(x) = 2 int phi phi_x <= 2 |phi|_2 |phi_x|_2 gives c10 = 2;
    the max(1, L^{-1/2}) guard keeps the constant valid on short intervals
    with room to spare (upper bounds are free).
    """
    _require_positive(omega_length=omega_length)
    return 2.0 * max(1.0, 1.0 / math.sqrt(omega_length))


@dataclass(frozen=True)
class RangeBounds:
    """Two-sided constitutive bounds along a run:
    c1 <= f(Theta) <= c2, c3 <= f'(Theta) <= c4, |f''(Theta)| <= c5."""

    c1: float
    c2: float
    c3: float
    c4: float
    c5: float

    def validate(self):
        _require_positive(c1=self.c1, c2=self.c2, c3=self.c3, c4=self.c4)
        if self.c5 < 0.0:
            raise DomainError(f"c5 must be >= 0, got {self.c5}")


@dataclass(frozen=True)
class TauBound:
    tau: float
    y_cap: float
    dissipation_cap: float
    c6: float
    c7: float
    c8: float
    c9: float
    c10: float
    c11: float


def tau_bound(y0: float, range_bounds: RangeBounds, c10: float) -> TauBound:
    """Horizon tau = 1/(4 c11 y0^2) on which the weighted functional obeys
    y(t) <= sqrt(2) y0, plus the curvature dissipation cap
    int_0^tau |Theta_xx|^2 <= (4/c6)(y0 + sqrt(8) c11 y0^3).
    """
    _require_positive(y0=y0, c10=c10)
    range_bounds.validate()
    b = range_bounds
    c6 = b.c3 / b.c2
    c7 = b.c4 / b.c1
    c8 = b.c5 / b.c1 + b.c4 ** 2 / b.c1 ** 2
    c9 = c8 ** 2 / (8.0 * c6) + b.c4 ** 2 * c7 ** 2 + b.c2 ** 2 * c8 ** 2 / 4.0
    c11 = 1.0 + 8.0 * c9 ** 2 * c10 ** 2 / c6 ** 4
    tau = 1.0 / (4.0 * c11 * y0 ** 2)
    y_cap = math.sqrt(2.0) * y0
    diss_cap = (4.0 / c6) * (y0 + math.sqrt(8.0) * c11 * y0 ** 3)
    return TauBound(
        tau=tau, y_cap=y_cap, dissipation_cap=diss_cap,
        c6=c6, c7=c7, c8=c8, c9=c9, c10=c10, c11=c11,
    )


# ---------------------------------------------------------------------------
# Gronwall verification and the time-shift constant
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GronwallCheck:
    ok: bool
    max_ratio: float
    worst_t: float


def gronwall_check(t: np.ndarray, y: np.ndarray, b: np.ndarray,
                   y0: Optional[float] = None, rtol: float = 1e-9) -> GronwallCheck:
    """Verify y(t) <= y0 exp(int_0^t b) pointwise (trapezoid integral).

    Returns the worst ratio y(t) / bound(t); ok iff it stays <= 1 + rtol.
    """
    t = np.asarray(t, float)
    y = np.asarray(y, float)
    b = np.asarray(b, float)
    if t.shape != y.shape or t.shape != b.shape:
        raise DomainError("gronwall_check needs series on a common time grid")
    if np.any(b < 0.0):
        raise DomainError("gronwall_check requires b >= 0")
    if y0 is None:
        y0 = float(y[0])
    log_bound = math.log(y0) + _cumtrapz(b, t) if y0 > 0 else np.full_like(t, -math.inf)
    with np.errstate(divide="ignore"):
        log_y = np.where(y > 0, np.log(np.maximum(y, 1e-300)), -np.inf)
    log_ratio = log_y - log_bound
    j = int(np.argmax(log_ratio))
    max_ratio = float(np.exp(min(log_ratio[j], _LOG_MAX)))
    return GronwallCheck(ok=bool(log_ratio[j] <= math.log1p(rtol)),
                         max_ratio=max_ratio, worst_t=float(t[j]))


def log_timeshift_constant(K: float, thetax_time_integral: float, T: float,
                           c1: float, c2: float, c3: float, c4: float) -> float:
    """log of the time-shift stability constant C(T):

    shifted and unshifted runs of the autonomous regularized system differ
    by at most y(0) * exp(4 c2bar (T + B)) in the squared triple norm,
    with c2bar = gamma1(1/2, K) and B = int_0^T |Theta_x|^2.
    The bound quantities K and B are instantiated from the run itself.
    """
    _require_positive(T=T)
    if thetax_time_integral < 0.0:
        raise DomainError("dissipation integral must be >= 0")
    g1 = gamma1(0.5, K, c1, c2, c3, c4)
    return 4.0 * g1 * (T + thetax_time_integral)


# ---------------------------------------------------------------------------
# Ledger
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstantsLedger:
    """Every explicit constant for one (material, interval, eta, K, T)."""

    eta: float
    K: float
    T: float
    omega_length: float
    material_kind: str
    c1: float
    c2: float
    c3: float
    c4: float
    gamma1: float
    gamma2: float
    log_gamma3: float
    log_gamma4: float
    c10: float

    def describe(self) -> str:
        def exp_str(lg):
            return f"{math.exp(lg):.6g}" if lg < _LOG_MAX else f"exp({lg:.6g})"

        lines = [
            "constants ledger",
            f"  interval length      |Omega| = {self.omega_length:g}",
            f"  material             {self.material_kind}",
            f"  parameters           eta = {self.eta:g}, K = {self.K:g}, T = {self.T:g}",
            f"  c1  = {self.c1:.12g}   sup-norm interval embedding",
            f"  c2  = {self.c2:.12g}   squared sup-norm embedding (L1 variant)",
            f"  c3  = {self.c3:.12g}   upper bound of f'",
            f"  c4  = {self.c4:.12g}   upper bound of |f''|",
            f"  c10 = {self.c10:.12g}   quartic embedding (boundary-anchored)",
            f"  Gamma1(eta, K) = {self.gamma1:.12g}   difference bilinear-form bound",
            f"  Gamma2(K)      = {self.gamma2:.12g}   parabolic Gronwall coefficient",
            f"  Gamma3(K, T)   = {exp_str(self.log_gamma3)}   continuous-dependence constant",
            f"  Gamma4(K, T)   = {exp_str(self.log_gamma4)}   a-priori trajectory bound",
        ]
        return "\n".join(lines)


def build_ledger(eta: float, K: float, T: float, grid: Grid,
                 material: Material) -> ConstantsLedger:
    gn = gn_constants(grid)
    c1, c2 = gn.c1, gn.c2
    c3, c4 = material.c3, material.c4
    return ConstantsLedger(
        eta=eta, K=K, T=T,
        omega_length=grid.length,
        material_kind=material.kind,
        c1=c1, c2=c2, c3=c3, c4=c4,
        gamma1=gamma1(eta, K, c1, c2, c3, c4),
        gamma2=gamma2(K, c1, c2, c3, c4),
        log_gamma3=log_gamma3(K, T, c1, c2, c3, c4),
        log_gamma4=log_gamma4(K, T, grid.length, c1, c2, c3, c4),
        c10=c10_quartic(grid.length),
    )
