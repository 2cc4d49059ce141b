"""Uniform 1D grid, discrete differential operators and norms.

All fields live on the nodes of a uniform grid over an open interval
(a, b).  Boundary closures are chosen to preserve the discrete
summation-by-parts cancellations the diagnostics rely on:

* ``neumann_zero``   -- ghost reflection, zero boundary derivative;
* ``dirichlet_zero`` -- value pinned to 0, antisymmetric ghost for dxx;
* ``hinged``         -- value and second derivative 0, antisymmetric ghost;
* ``free``           -- no constraint (derived/diagnostic fields), one-sided
  second-order boundary stencils.

The array kernels :func:`dx_values` / :func:`dxx_values` (one field, or a
stack ``(N, ...)`` with the nodes along the first axis) and
:func:`dx_rows` / :func:`dxx_rows` (an ``(m, N)`` stack of rows, closed by
one bc kind or by a repeating sequence of kinds) share one copy of the
interior stencils (:func:`dx_interior`, :func:`dxx_interior`) and of the
boundary closures, serving :func:`dx`/:func:`dxx`, steppers and diagnostics.

All operations are pure functions of immutable inputs and are safe to call
concurrently.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ContractError, StructuralError

BC_DIRICHLET = "dirichlet_zero"
BC_NEUMANN = "neumann_zero"
BC_HINGED = "hinged"
BC_FREE = "free"

_BC_KINDS = (BC_DIRICHLET, BC_NEUMANN, BC_HINGED, BC_FREE)

#: boundary-value-zero kinds (value pinned to exactly 0 at both ends)
_ZERO_VALUE_BCS = (BC_DIRICHLET, BC_HINGED)


@dataclass(frozen=True)
class Grid:
    """Uniform mesh with ``n_cells`` cells over the open interval (a, b)."""

    a: float
    b: float
    n_cells: int

    def __post_init__(self):
        problems = []
        if not 0.0 < self.b - self.a < math.inf:  # a, b and b - a finite, a < b
            problems.append(f"grid: requires finite a < b, got a={self.a}, b={self.b}")
        try:
            cells = operator.index(self.n_cells)
        except TypeError:
            cells = 0
        if cells < 2:
            problems.append(f"grid.n_cells must be an integer >= 2, got {self.n_cells}")
        elif cells >= sys.maxsize:  # n_nodes must be an array length
            problems.append(f"grid.n_cells must be < sys.maxsize = {sys.maxsize}, got {cells}")
        if problems:
            raise ContractError("; ".join(problems))

    @property
    def h(self) -> float:
        return (self.b - self.a) / self.n_cells

    @property
    def n_nodes(self) -> int:
        return self.n_cells + 1

    @property
    def length(self) -> float:
        return self.b - self.a

    @property
    def nodes(self) -> np.ndarray:
        return _grid_nodes(self)

    def quad_weights(self) -> np.ndarray:
        """Trapezoid quadrature weights (h/2, h, ..., h, h/2)."""
        return trapezoid_weights(self)


@lru_cache(maxsize=256)
def _grid_nodes(grid: Grid) -> np.ndarray:
    """Node coordinates of ``grid`` (read-only, shared per grid)."""
    x = grid.a + grid.h * np.arange(grid.n_nodes)
    x[-1] = grid.b
    x.flags.writeable = False
    return x


@lru_cache(maxsize=256)
def trapezoid_weights(grid: Grid) -> np.ndarray:
    """Trapezoid weights of ``grid`` (read-only, shared per grid)."""
    w = np.full(grid.n_nodes, grid.h)
    w[0] = w[-1] = 0.5 * grid.h
    w.flags.writeable = False
    return w


@dataclass(frozen=True)
class Field:
    """Nodal values plus the boundary-condition kind they respect.

    A read-only float array (such as a row of a State's block) is kept as
    it is; any other input is copied into a read-only array."""

    values: np.ndarray
    bc_kind: str

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1:
            raise StructuralError(f"field values must be 1D, got shape {vals.shape}")
        if self.bc_kind not in _BC_KINDS:
            raise ContractError(f"unknown bc_kind {self.bc_kind!r}")
        if self.bc_kind in _ZERO_VALUE_BCS and (vals[0] != 0.0 or vals[-1] != 0.0):
            raise ContractError(
                f"{self.bc_kind} field must have exactly zero boundary values, "
                f"got ({vals[0]!r}, {vals[-1]!r})"
            )
        if vals.flags.writeable:
            vals = vals.copy()
            vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @classmethod
    def clamped(cls, values, bc_kind: str) -> "Field":
        """Build a field, pinning boundary entries to exactly 0 where the
        bc kind requires it (used when sampling analytic profiles whose
        boundary values are only zero to round-off)."""
        vals = np.array(values, dtype=float)
        if bc_kind in _ZERO_VALUE_BCS:
            vals[0] = 0.0
            vals[-1] = 0.0
        return cls(vals, bc_kind)

    def __len__(self):
        return self.values.shape[0]


@dataclass(frozen=True)
class FieldNorms:
    l1: float
    l2: float
    linf: float
    h1_semi: float


@dataclass(frozen=True)
class GNConstants:
    """Certified (non-sharp) interval embedding constants.

    ``c1``: sup-norm bound  |psi|_inf <= c1 |psi_x|^(1/2) |psi|^(1/2) + c1 |psi|_2.
    ``c2``: squared bound   |psi|_inf^2 <= c2 |psi_x|_2^2 + c2 |psi|_1^2.
    """

    c1: float
    c2: float


def _check(field: Field, grid: Grid, min_cells: int = 2) -> np.ndarray:
    vals = field.values
    if vals.shape[0] != grid.n_nodes:
        raise StructuralError(
            f"field has {vals.shape[0]} nodes but grid has {grid.n_nodes}"
        )
    if grid.n_cells < min_cells:
        raise StructuralError(
            f"operation needs n_cells >= {min_cells}, grid has {grid.n_cells}"
        )
    return vals


def dx_values(f: np.ndarray, h: float, bc_kind: str,
              out: np.ndarray | None = None) -> np.ndarray:
    """First derivative of nodal values: central interior, bc-aware ends;
    into ``out`` if given (f's shape, sharing no memory with ``f``)."""
    if out is None:
        out = np.empty_like(f)
    dx_interior(out, f, h)
    _dx_ends(out, f, h, bc_kind)
    return out


def dx_interior(out: np.ndarray, f: np.ndarray, h: float) -> None:
    # (f[2:] - f[:-2]) / (2h), formed in place
    o = np.subtract(f[2:], f[:-2], out=out[1:-1])
    o /= 2.0 * h


def _dx_ends(out: np.ndarray, f: np.ndarray, h: float, bc_kind: str) -> None:
    if bc_kind == BC_NEUMANN:
        # zero slope is the boundary condition itself
        out[0] = 0.0
        out[-1] = 0.0
    elif bc_kind == BC_HINGED:
        # antisymmetric ghost f[-1] = -f[1] about the zero boundary value;
        # keeps the discrete product rule with neumann_zero partners exact
        out[0] = f[1] / h
        out[-1] = -f[-2] / h
    else:
        # one-sided second-order, interior biased
        out[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * h)
        out[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * h)


def dxx_values(f: np.ndarray, h: float, bc_kind: str,
               out: np.ndarray | None = None) -> np.ndarray:
    """Second derivative of nodal values: 3-point interior, ghost-node ends;
    into ``out`` as :func:`dx_values`."""
    h2 = h * h
    if out is None:
        out = np.empty_like(f)
    dxx_interior(out, f, h2)
    _dxx_ends(out, f, h2, bc_kind)
    return out


def dxx_interior(out: np.ndarray, f: np.ndarray, h2: float) -> None:
    # (f[:-2] - 2 f[1:-1] + f[2:]) / h2, formed in place in that order
    o = np.multiply(f[1:-1], 2.0, out=out[1:-1])
    np.subtract(f[:-2], o, out=o)
    o += f[2:]
    o /= h2


def _dxx_ends(out: np.ndarray, f: np.ndarray, h2: float, bc_kind: str) -> None:
    if bc_kind == BC_NEUMANN:
        # reflected ghost f[-1] = f[1]
        out[0] = 2.0 * (f[1] - f[0]) / h2
        out[-1] = 2.0 * (f[-2] - f[-1]) / h2
    elif bc_kind in _ZERO_VALUE_BCS:
        # antisymmetric ghost through the exact zero boundary value
        out[0] = -2.0 * f[0] / h2
        out[-1] = -2.0 * f[-1] / h2
    else:
        out[0] = (2.0 * f[0] - 5.0 * f[1] + 4.0 * f[2] - f[3]) / h2
        out[-1] = (2.0 * f[-1] - 5.0 * f[-2] + 4.0 * f[-3] - f[-4]) / h2


#: rows per bc kind up to which :func:`_rows_kernel` closes each row alone,
#: on its 1-D view, where the closures act on numpy scalars.  From 4 rows on,
#: one pass over the kind's strided ``(N, rows)`` view costs less.  At one
#: row per kind (N = 4097, 2 vCPUs, min of 7 timeit runs) dx_rows of a
#: ``(3, N)`` stack takes 23.8 us row by row against 30.7 us in one pass
ROW_CLOSURES = 3


def _rows_kernel(interior, ends, f: np.ndarray, scale: float, bc, out) -> np.ndarray:
    """Apply a kernel to each row of an ``(m, N)`` stack.  The interior
    stencil runs once over the flattened rows; where it straddles two rows
    it lands on a row end, which the closures then overwrite, once per bc
    kind: over every row if ``bc`` is one kind, over the rows ``i::k`` for
    the i-th of a sequence of k kinds.  A kind with at most
    :data:`ROW_CLOSURES` rows closes them one row at a time; the values are
    the same bit for bit either way."""
    if out is None:
        out = np.empty(f.shape)
    elif out.shape != f.shape or not out.flags.c_contiguous:
        raise ContractError(f"out must be a C-contiguous {f.shape} array")
    kinds = (bc,) if isinstance(bc, str) else tuple(bc)
    k = len(kinds)
    if f.shape[0] % k:
        raise ContractError(f"{k} bc kinds do not divide {f.shape[0]} rows")
    interior(out.reshape(-1), f.reshape(-1), scale)
    by_row = f.shape[0] <= ROW_CLOSURES * k
    for i, kind in enumerate(kinds):
        if by_row:
            for r in range(i, f.shape[0], k):
                ends(out[r], f[r], scale, kind)
        else:
            ends(out[i::k].T, f[i::k].T, scale, kind)
    return out


def dx_rows(f: np.ndarray, h: float, bc, out: np.ndarray | None = None) -> np.ndarray:
    """:func:`dx_values` of each row of an ``(m, N)`` stack, as a C-contiguous
    array (``out`` if given); ``bc`` is one kind for every row or a sequence
    of k kinds, the i-th for the rows i, i + k, ... (k divides m)."""
    return _rows_kernel(dx_interior, _dx_ends, f, h, bc, out)


def dxx_rows(f: np.ndarray, h: float, bc, out: np.ndarray | None = None) -> np.ndarray:
    """:func:`dxx_values` of each row of a ``(k, N)`` stack (see :func:`dx_rows`)."""
    return _rows_kernel(dxx_interior, _dxx_ends, f, h * h, bc, out)


def dx(field: Field, grid: Grid) -> Field:
    """First derivative as a field (see :func:`dx_values`)."""
    out = dx_values(_check(field, grid), grid.h, field.bc_kind)
    return Field(out, BC_DIRICHLET if field.bc_kind == BC_NEUMANN else BC_FREE)


def dxx(field: Field, grid: Grid) -> Field:
    """Second derivative as a field (see :func:`dxx_values`)."""
    f = _check(field, grid, min_cells=3 if field.bc_kind == BC_FREE else 2)
    out = dxx_values(f, grid.h, field.bc_kind)
    if field.bc_kind in _ZERO_VALUE_BCS:
        return Field.clamped(out, BC_DIRICHLET)
    return Field(out, BC_FREE)


def integrate(values: np.ndarray, grid: Grid) -> float:
    """Trapezoid-rule integral of nodal values over (a, b)."""
    if values.shape[0] != grid.n_nodes:
        raise StructuralError(
            f"values have {values.shape[0]} nodes but grid has {grid.n_nodes}"
        )
    return float(trapezoid_weights(grid) @ values)


def l2_norm_sq(values: np.ndarray, grid: Grid) -> float:
    return integrate(np.asarray(values) ** 2, grid)


def norms(field: Field, grid: Grid) -> FieldNorms:
    """Trapezoid L1/L2, nodal max, and L2 norm of the first derivative."""
    f = _check(field, grid)
    l1 = integrate(np.abs(f), grid)
    l2 = float(np.sqrt(l2_norm_sq(f, grid)))
    linf = float(np.max(np.abs(f)))
    h1 = float(np.sqrt(l2_norm_sq(dx(field, grid).values, grid)))
    return FieldNorms(l1=l1, l2=l2, linf=linf, h1_semi=h1)


def gn_constants(grid: Grid) -> GNConstants:
    """Certified interval embedding constants for the grid's interval.

    Derivation (valid for every psi in W^{1,2}(a,b), L = b - a):

    * psi(x)^2 <= psi(y)^2 + 2 |psi|_2 |psi_x|_2 for any y; averaging in y
      gives |psi|_inf^2 <= L^{-1} |psi|_2^2 + 2 |psi|_2 |psi_x|_2, hence
      c1 = max(sqrt(2), L^{-1/2}).
    * |psi(x)| <= |psi|_1 / L + int |psi_x| and Cauchy-Schwarz give
      |psi|_inf^2 <= 2 L^{-2} |psi|_1^2 + 2 L |psi_x|_2^2, hence
      c2 = max(2 L, 2 / L^2).

    Upper bounds only; sharpness is not needed by any downstream formula.
    """
    length = grid.length
    c1 = max(np.sqrt(2.0), 1.0 / np.sqrt(length))
    # c2 = max(2 L, 2 / L^2), with L^2 formed only where it is a normal float:
    # below that it loses bits or underflows to 0, and L is divided out twice
    if length >= 1.0:
        c2 = 2.0 * length
    elif length ** 2 >= sys.float_info.min:
        c2 = 2.0 / length ** 2
    else:
        c2 = 2.0 / length / length
    return GNConstants(c1=float(c1), c2=float(c2))
