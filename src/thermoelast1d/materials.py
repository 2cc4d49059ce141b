"""Constitutive nonlinearity f and the weight rho = f'/f.

Admissible materials satisfy f(0) = 0, f' > 0 and bounded f', f'' on
[0, inf).  Built-in kinds:

* ``identity``             f = xi           (the minimal model)
* ``log1p``                f = ln(1 + xi)
* ``rational_saturating``  f = xi / (1 + xi)
* ``user_tabulated``       monotone cubic interpolation of (xi, f) samples

``c3`` bounds f' from above, ``c4`` bounds |f''|; both enter the stability
constants module.  Materials are immutable; every evaluation is pure and
thread-safe.  ``eval_f``, ``eval_fp``, ``eval_fpp`` and ``rho`` check their
argument; the ``*_kernel`` functions take a float array >= 0 unchecked.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from .errors import ConfigError, ContractError, DomainError, HypothesisError, PositivityFloorError

if TYPE_CHECKING:
    from scipy.interpolate import PchipInterpolator

KIND_IDENTITY = "identity"
KIND_LOG1P = "log1p"
KIND_RATIONAL = "rational_saturating"
KIND_TABULATED = "user_tabulated"

DEFAULT_RHO_FLOOR = 1e-8


@dataclass(frozen=True)
class _Table:
    f: PchipInterpolator
    fp: PchipInterpolator
    fpp: PchipInterpolator
    xi_max: float
    end_value: float
    end_slope: float


@dataclass(frozen=True)
class Material:
    kind: str
    c3: float
    c4: float
    rho_floor: float = DEFAULT_RHO_FLOOR
    table: Optional[_Table] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ContractError(f"unknown material kind {self.kind!r}")
        if not self.rho_floor > 0.0:
            raise ContractError(f"rho_floor must be positive, got {self.rho_floor}")
        if self.kind == KIND_TABULATED and self.table is None:
            raise ContractError("user_tabulated material requires table data")


def identity_material(rho_floor: float = DEFAULT_RHO_FLOOR) -> Material:
    return Material(KIND_IDENTITY, c3=1.0, c4=0.0, rho_floor=rho_floor)


def log1p_material(rho_floor: float = DEFAULT_RHO_FLOOR) -> Material:
    # sup 1/(1+xi) = 1 and sup 1/(1+xi)^2 = 1, both attained at 0
    return Material(KIND_LOG1P, c3=1.0, c4=1.0, rho_floor=rho_floor)


def rational_saturating_material(rho_floor: float = DEFAULT_RHO_FLOOR) -> Material:
    # f' = (1+xi)^-2 <= 1, |f''| = 2 (1+xi)^-3 <= 2
    return Material(KIND_RATIONAL, c3=1.0, c4=2.0, rho_floor=rho_floor)


def tabulated_material(
    xi: np.ndarray,
    fxi: np.ndarray,
    rho_floor: float = DEFAULT_RHO_FLOOR,
) -> Material:
    """Material from (xi, f(xi)) samples, strictly increasing xi from 0.

    Uses monotone cubic (PCHIP) interpolation, which preserves f' >= 0 for
    monotone samples; beyond the last sample f continues linearly with the
    terminal slope (derivative clamping).  Bounds c3, c4 are extracted from
    a dense sampling of the interpolant.
    """
    xi = np.asarray(xi, dtype=float)
    fxi = np.asarray(fxi, dtype=float)
    problems = []
    if xi.ndim != 1 or xi.shape != fxi.shape or xi.size < 3:
        raise ContractError("table needs matching 1D xi/f columns with >= 3 rows")
    if xi[0] != 0.0:
        problems.append("xi grid must start at 0")
    if np.any(np.diff(xi) <= 0):
        problems.append("xi grid must be strictly increasing")
    if fxi[0] != 0.0:
        problems.append("f(0) != 0")
    if np.any(np.diff(fxi) <= 0):
        problems.append("f samples must be strictly increasing (f' > 0)")
    if problems:
        raise HypothesisError("; ".join(problems))
    from scipy.interpolate import PchipInterpolator  # loaded by the first table only
    f = PchipInterpolator(xi, fxi, extrapolate=False)
    fp = f.derivative()
    fpp = f.derivative(2)
    dense = np.linspace(0.0, xi[-1], max(2048, 16 * xi.size))
    c3 = float(np.max(fp(dense)))
    c4 = float(np.max(np.abs(fpp(dense))))
    table = _Table(
        f=f,
        fp=fp,
        fpp=fpp,
        xi_max=float(xi[-1]),
        end_value=float(fxi[-1]),
        end_slope=float(fp(xi[-1])),
    )
    return Material(KIND_TABULATED, c3=c3, c4=c4, rho_floor=rho_floor, table=table)


def material_from_file(path, rho_floor: float = DEFAULT_RHO_FLOOR) -> Material:
    """Load a tabulated material from two-column numeric text.

    A file that cannot be read, holds a non-numeric entry or is not two
    columns of >= 3 rows raises :class:`ConfigError` naming ``path``."""
    try:
        with warnings.catch_warnings():  # an empty file: the shape check names it
            warnings.simplefilter("ignore", UserWarning)
            data = np.loadtxt(path, ndmin=2)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"material table {path}: {exc}") from None
    if data.shape[1] != 2 or data.shape[0] < 3:
        raise ConfigError(f"material table {path}: expected two numeric columns with "
                          f">= 3 rows, got shape {data.shape}")
    return tabulated_material(data[:, 0], data[:, 1], rho_floor=rho_floor)


#: kind name -> constructor taking rho_floor; user_tabulated's takes the table path first
KINDS = {
    KIND_IDENTITY: identity_material,
    KIND_LOG1P: log1p_material,
    KIND_RATIONAL: rational_saturating_material,
    KIND_TABULATED: material_from_file,
}


def make_material(kind: str, rho_floor: float = DEFAULT_RHO_FLOOR, table_path=None) -> Material:
    if kind not in KINDS:
        raise ContractError(f"unknown material kind {kind!r}")
    if kind != KIND_TABULATED:
        return KINDS[kind](rho_floor)
    if table_path is None:
        raise ContractError("user_tabulated material needs a table path")
    return material_from_file(table_path, rho_floor)


def f_kernel(m: Material, x: np.ndarray) -> np.ndarray:
    """f; the identity returns x itself, not a copy."""
    if m.kind == KIND_IDENTITY:
        return x
    if m.kind == KIND_LOG1P:
        return np.log1p(x)
    if m.kind == KIND_RATIONAL:
        return x / (1.0 + x)
    t = m.table
    return np.where(x <= t.xi_max, t.f(np.minimum(x, t.xi_max)),
                    t.end_value + t.end_slope * (x - t.xi_max))


def fp_kernel(m: Material, x: np.ndarray) -> np.ndarray:
    if m.kind == KIND_IDENTITY:
        return np.ones_like(x)
    if m.kind == KIND_LOG1P:
        return 1.0 / (1.0 + x)
    if m.kind == KIND_RATIONAL:
        return 1.0 / (1.0 + x) ** 2
    t = m.table
    return np.where(x <= t.xi_max, t.fp(np.minimum(x, t.xi_max)), t.end_slope)


def fpp_kernel(m: Material, x: np.ndarray) -> np.ndarray:
    if m.kind == KIND_IDENTITY:
        return np.zeros_like(x)
    if m.kind == KIND_LOG1P:
        return -1.0 / (1.0 + x) ** 2
    if m.kind == KIND_RATIONAL:
        return -2.0 / (1.0 + x) ** 3
    t = m.table
    return np.where(x <= t.xi_max, t.fpp(np.minimum(x, t.xi_max)), 0.0)


def _evaluate(kernel, m: Material, xi):
    """The public preamble: refuse xi < 0, run the kernel, and return a float
    for scalar input and never xi itself."""
    scalar = np.isscalar(xi)
    x = np.asarray(xi, dtype=float)
    if (x < 0.0).any():
        raise DomainError(f"material evaluated at negative argument (min {np.nanmin(x)})")
    out = kernel(m, x)
    if scalar:
        return float(out)
    return out.copy() if out is x else out


def eval_f(m: Material, xi):
    return _evaluate(f_kernel, m, xi)


def eval_fp(m: Material, xi):
    return _evaluate(fp_kernel, m, xi)


def eval_fpp(m: Material, xi):
    return _evaluate(fpp_kernel, m, xi)


def rho(m: Material, xi):
    """Weight rho(xi) = f'(xi) / f(xi), refused below the positivity floor."""
    x = np.asarray(xi, dtype=float)
    low = float(np.min(x)) if x.size else np.inf
    if low < m.rho_floor:
        raise PositivityFloorError(f"rho requested at xi={low:.3e} below floor {m.rho_floor:.3e}")
    return _evaluate(lambda m, x: fp_kernel(m, x) / f_kernel(m, x), m, xi)


@dataclass(frozen=True)
class HypothesisReport:
    kind: str
    xi_max: float
    samples: int
    c3_empirical: float
    c4_empirical: float
    fp_min: float
    passed: bool = True


def hypothesis_report(m: Material, xi_max: float, samples: int = 1000) -> HypothesisReport:
    """Check the constitutive hypotheses on [0, xi_max] by dense sampling.

    Verifies f(0) = 0 and min f' > 0, and extracts the empirical bounds on
    f' and |f''|.  Raises :class:`HypothesisError` naming every violated
    clause (tabulated data that slipped past construction included).
    """
    if samples < 100:
        raise ContractError(f"hypothesis check needs samples >= 100, got {samples}")
    if not xi_max > 0.0:
        raise ContractError(f"xi_max must be positive, got {xi_max}")
    xs = np.linspace(0.0, xi_max, samples)
    f0 = eval_f(m, 0.0)
    fps = eval_fp(m, xs)
    fpps = eval_fpp(m, xs)
    clauses = []
    if f0 != 0.0:
        clauses.append(f"f(0) != 0 (got {f0!r})")
    if np.min(fps) <= 0.0:
        clauses.append(f"f' not strictly positive (min {np.min(fps)!r})")
    c3_emp = float(np.max(fps))
    c4_emp = float(np.max(np.abs(fpps)))
    if c3_emp > m.c3 * (1.0 + 1e-12):
        clauses.append(f"sampled f' exceeds declared c3 ({c3_emp} > {m.c3})")
    if c4_emp > m.c4 * (1.0 + 1e-12) + 1e-300:
        clauses.append(f"sampled |f''| exceeds declared c4 ({c4_emp} > {m.c4})")
    if clauses:
        raise HypothesisError("; ".join(clauses))
    return HypothesisReport(
        kind=m.kind,
        xi_max=float(xi_max),
        samples=int(samples),
        c3_empirical=c3_emp,
        c4_empirical=c4_emp,
        fp_min=float(np.min(fps)),
    )
