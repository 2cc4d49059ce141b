import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import pl_h1_sq, pl_l1, pl_l2_sq, pl_sup
from thermoelast1d.errors import ContractError, StructuralError
from thermoelast1d.grid import (
    BC_DIRICHLET,
    BC_FREE,
    BC_HINGED,
    BC_NEUMANN,
    Field,
    Grid,
    dx,
    dx_rows,
    dx_values,
    dxx,
    dxx_rows,
    dxx_values,
    gn_constants,
    integrate,
    norms,
)


@pytest.fixture
def unit_grid():
    return Grid(0.0, 1.0, 4)


def test_grid_basic_geometry():
    g = Grid(0.0, 1.0, 8)
    assert g.h == 0.125
    assert g.n_nodes == 9
    assert np.all(np.abs(g.nodes - np.linspace(0, 1, 9)) <= 1e-14)


def test_grid_rejects_degenerate():
    with pytest.raises(ContractError):
        Grid(1.0, 1.0, 4)
    with pytest.raises(ContractError):
        Grid(0.0, -1.0, 4)
    with pytest.raises(ContractError):
        Grid(0.0, 1.0, 1)


def test_field_boundary_invariants():
    with pytest.raises(ContractError):
        Field(np.array([0.1, 0.0, 0.0]), BC_DIRICHLET)
    f = Field.clamped(np.array([1e-16, 0.5, 1e-16]), BC_DIRICHLET)
    assert f.values[0] == 0.0 and f.values[-1] == 0.0
    with pytest.raises(ContractError):
        Field(np.zeros(3), "weird")


def test_field_values_immutable(unit_grid):
    f = Field(np.zeros(unit_grid.n_nodes), BC_NEUMANN)
    with pytest.raises(ValueError):
        f.values[0] = 1.0


def test_length_mismatch_is_structural(unit_grid):
    f = Field(np.zeros(7), BC_NEUMANN)
    with pytest.raises(StructuralError):
        dx(f, unit_grid)
    with pytest.raises(StructuralError):
        dxx(f, unit_grid)


# --- dx -------------------------------------------------------------------


def test_dx_constant_is_zero(unit_grid):
    f = Field(np.full(unit_grid.n_nodes, 3.7), BC_NEUMANN)
    assert np.all(dx(f, unit_grid).values == 0.0)


def test_dx_identity_profile_interior():
    g = Grid(0.0, 1.0, 10)
    f = Field(g.nodes.copy(), BC_FREE)
    d = dx(f, g).values
    assert np.allclose(d, 1.0, atol=1e-13)  # one-sided ends are 2nd order exact too


def test_dx_quadratic_interior_value():
    g = Grid(0.0, 1.0, 4)
    f = Field(g.nodes**2, BC_FREE)
    d = dx(f, g).values
    # central difference exact on quadratics: (0.5625 - 0.0625) / 0.5 = 1.0
    assert d[2] == pytest.approx(1.0, abs=1e-14)


def test_dx_neumann_boundary_forced_zero():
    g = Grid(0.0, 1.0, 8)
    f = Field(np.cos(np.pi * g.nodes), BC_NEUMANN)
    d = dx(f, g)
    assert d.values[0] == 0.0 and d.values[-1] == 0.0
    assert d.bc_kind == BC_DIRICHLET


# --- dxx ------------------------------------------------------------------


def test_dxx_constant_zero(unit_grid):
    f = Field(np.full(unit_grid.n_nodes, 2.0), BC_NEUMANN)
    assert np.all(dxx(f, unit_grid).values == 0.0)


def test_dxx_quadratic_exact():
    g = Grid(0.0, 2.0, 7)
    f = Field(g.nodes**2, BC_FREE)
    d = dxx(f, g).values
    assert np.allclose(d, 2.0, atol=1e-11)


def test_dxx_neumann_ghost_reflection():
    # field (4, 1, 0, ...) with h = 1: node 0 sees 2*(1-4)/1 = -6
    g = Grid(0.0, 5.0, 5)
    vals = np.zeros(6)
    vals[0] = 4.0
    vals[1] = 1.0
    f = Field(vals, BC_NEUMANN)
    assert dxx(f, g).values[0] == pytest.approx(-6.0)


def test_dxx_refinement_order_two():
    errs = []
    for n in (32, 64, 128, 256):
        g = Grid(0.0, 1.0, n)
        f = Field.clamped(np.sin(np.pi * g.nodes), BC_DIRICHLET)
        exact = -np.pi**2 * np.sin(np.pi * g.nodes)
        errs.append(np.max(np.abs(dxx(f, g).values - exact)))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(3)]
    for o in orders:
        assert abs(o - 2.0) <= 0.1


def test_dxx_divergence_property():
    # trapezoid-weighted sum of the neumann-closed second difference
    # telescopes to zero boundary flux
    rng = np.random.default_rng(7)
    g = Grid(0.0, 1.0, 33)
    f = Field(rng.normal(size=g.n_nodes), BC_NEUMANN)
    total = integrate(dxx(f, g).values, g)
    assert abs(total) <= 1e-12 * max(1.0, np.max(np.abs(f.values)) / g.h**2)


# --- linearity (property) --------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    alpha=st.floats(-5, 5, allow_nan=False),
    beta=st.floats(-5, 5, allow_nan=False),
    seed=st.integers(0, 10_000),
    bc=st.sampled_from([BC_DIRICHLET, BC_NEUMANN, BC_HINGED, BC_FREE]),
)
def test_operators_are_linear(alpha, beta, seed, bc):
    g = Grid(0.0, 1.0, 24)
    rng = np.random.default_rng(seed)
    fa = rng.normal(size=g.n_nodes)
    fb = rng.normal(size=g.n_nodes)
    if bc in (BC_DIRICHLET, BC_HINGED):
        fa[0] = fa[-1] = fb[0] = fb[-1] = 0.0
    for op in (dx, dxx):
        lhs = op(Field(alpha * fa + beta * fb, bc), g).values
        rhs = alpha * op(Field(fa, bc), g).values + beta * op(Field(fb, bc), g).values
        scale = np.max(np.abs(rhs)) + 1.0
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale


# --- array kernels and cached grid arrays ----------------------------------


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(3, 200),
    seed=st.integers(0, 10_000),
    bc=st.sampled_from([BC_DIRICHLET, BC_NEUMANN, BC_HINGED, BC_FREE]),
)
def test_array_kernels_equal_public_operators(n, seed, bc):
    g = Grid(-0.3, 1.7, n)
    f = np.random.default_rng(seed).normal(size=g.n_nodes)
    if bc in (BC_DIRICHLET, BC_HINGED):
        f[0] = f[-1] = 0.0
    field = Field(f, bc)
    assert np.array_equal(dx_values(f, g.h, bc), dx(field, g).values)
    assert np.array_equal(dxx_values(f, g.h, bc), dxx(field, g).values)
    if bc == BC_HINGED:
        # the ends equal the antisymmetric-ghost central difference bit for bit
        d = dx_values(f, g.h, bc)
        assert d[0] == (f[1] - (-f[1])) / (2.0 * g.h)
        assert d[-1] == ((-f[-2]) - f[-2]) / (2.0 * g.h)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(3, 200),
    rows=st.sampled_from([None, 1, 3]),
    seed=st.integers(0, 10_000),
    bc=st.sampled_from([BC_DIRICHLET, BC_NEUMANN, BC_HINGED, BC_FREE]),
)
def test_array_kernels_into_out_equal_fresh_results(n, rows, seed, bc):
    """dx_values/dxx_values with ``out=`` (a row of a larger array, or a
    stack with the nodes first, filled with NaN) return ``out`` holding the
    fresh result bit for bit; the interior equals the textbook expressions
    (f[2:] - f[:-2]) / 2h and (f[:-2] - 2 f[1:-1] + f[2:]) / h^2."""
    g = Grid(-0.3, 1.7, n)
    shape = (g.n_nodes,) if rows is None else (g.n_nodes, rows)
    f = np.random.default_rng(seed).normal(size=shape)
    h, h2 = g.h, g.h * g.h
    interior = {dx_values: (f[2:] - f[:-2]) / (2.0 * h),
                dxx_values: (f[:-2] - 2.0 * f[1:-1] + f[2:]) / h2}
    for kernel, inner in interior.items():
        fresh = kernel(f, h, bc)
        scratch = np.full((2,) + shape, np.nan)
        target = scratch[1]
        assert kernel(f, h, bc, out=target) is target
        assert np.isnan(scratch[0]).all()
        assert fresh.tobytes() == target.tobytes()
        assert fresh[1:-1].tobytes() == inner.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(3, 200),
    rows=st.integers(1, 7),
    seed=st.integers(0, 10_000),
    bc=st.sampled_from([BC_DIRICHLET, BC_NEUMANN, BC_HINGED, BC_FREE]),
)
def test_array_kernels_on_stacks_equal_row_by_row(n, rows, seed, bc):
    g = Grid(-0.3, 1.7, n)
    f = np.random.default_rng(seed).normal(size=(rows, g.n_nodes))
    for kernel in (dx_values, dxx_values):
        # nodes on the first axis: the transpose of a C-contiguous (rows, N) stack
        stacked = kernel(f.T, g.h, bc).T
        assert stacked.shape == f.shape and stacked.flags.c_contiguous
        assert np.array_equal(stacked, np.stack([kernel(row, g.h, bc) for row in f]))


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(3, 120),
    kinds=st.lists(st.sampled_from([BC_DIRICHLET, BC_NEUMANN, BC_HINGED, BC_FREE]),
                   min_size=1, max_size=4),
    m=st.integers(1, 9),
    seed=st.integers(0, 10_000),
)
def test_row_kernels_close_a_kind_sequence_row_by_row(n, kinds, m, seed):
    """dx_rows/dxx_rows with a sequence of k kinds over an (m k, N) stack
    close row i with kind i mod k: each row equals dx_values/dxx_values of
    it bit for bit, for one row per kind (m = 1) and for many."""
    g = Grid(-0.3, 1.7, n)
    f = np.random.default_rng(seed).normal(size=(m * len(kinds), g.n_nodes))
    for rows, values in ((dx_rows, dx_values), (dxx_rows, dxx_values)):
        got = rows(f, g.h, kinds)
        assert got.flags.c_contiguous
        for i, row in enumerate(f):
            assert np.array_equal(got[i], values(row, g.h, kinds[i % len(kinds)]))


def test_row_kernels_refuse_a_kind_sequence_that_does_not_divide_the_rows():
    f = np.zeros((4, 9))
    with pytest.raises(ContractError, match="3 bc kinds do not divide 4 rows"):
        dx_rows(f, 0.1, (BC_HINGED, BC_DIRICHLET, BC_NEUMANN))


def test_nodes_and_weights_cached_read_only():
    g = Grid(0.0, 2.0, 10)
    assert g.nodes is Grid(0.0, 2.0, 10).nodes
    assert g.quad_weights() is Grid(0.0, 2.0, 10).quad_weights()
    assert not g.nodes.flags.writeable
    assert not g.quad_weights().flags.writeable
    w = g.quad_weights()
    assert w[0] == w[-1] == 0.1 and np.all(w[1:-1] == 0.2)
    assert g.nodes[-1] == 2.0


# --- norms ------------------------------------------------------------------


def test_norms_constant_one():
    g = Grid(0.0, 1.0, 50)
    n = norms(Field(np.ones(g.n_nodes), BC_NEUMANN), g)
    assert n.l1 == pytest.approx(1.0)
    assert n.l2 == pytest.approx(1.0)
    assert n.linf == 1.0
    assert n.h1_semi == pytest.approx(0.0, abs=1e-14)


def test_norms_zero_field(unit_grid):
    n = norms(Field(np.zeros(unit_grid.n_nodes), BC_NEUMANN), unit_grid)
    assert (n.l1, n.l2, n.linf, n.h1_semi) == (0.0, 0.0, 0.0, 0.0)


def test_norms_sine_l2():
    g = Grid(0.0, 1.0, 256)
    n = norms(Field.clamped(np.sin(np.pi * g.nodes), BC_DIRICHLET), g)
    # oracle: int_0^1 sin^2(pi x) dx = 1/2, brute-force checked at high N
    g_fine = Grid(0.0, 1.0, 1_000_000)
    brute = np.sqrt(integrate(np.sin(np.pi * g_fine.nodes) ** 2, g_fine))
    assert abs(brute - np.sqrt(0.5)) < 1e-9
    assert n.l2 == pytest.approx(np.sqrt(0.5), abs=1e-4)


# --- embedding constants -----------------------------------------------------


@pytest.mark.parametrize(
    "length,c1,c2",
    [(1.0, np.sqrt(2.0), 2.0), (4.0, np.sqrt(2.0), 8.0), (0.25, 2.0, 32.0)],
)
def test_gn_constants_values(length, c1, c2):
    g = Grid(0.0, length, 8)
    gn = gn_constants(g)
    assert gn.c1 == pytest.approx(c1)
    assert gn.c2 == pytest.approx(c2)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(3, 80),
    length=st.floats(0.1, 8.0, allow_nan=False),
)
def test_gn_inequalities_on_random_pl_functions(seed, n, length):
    """Both embedding inequalities hold with slack >= 0 for every
    piecewise-linear H1 function (norms segment-exact)."""
    g = Grid(0.0, length, n)
    rng = np.random.default_rng(seed)
    vals = rng.normal(scale=rng.uniform(0.1, 10.0), size=g.n_nodes)
    gn = gn_constants(g)
    l2 = np.sqrt(pl_l2_sq(vals, g.h))
    l1 = pl_l1(vals, g.h)
    h1 = np.sqrt(pl_h1_sq(vals, g.h))
    sup = pl_sup(vals)
    tol = 1e-11 * (1.0 + sup + sup**2)
    slack1 = gn.c1 * np.sqrt(h1) * np.sqrt(l2) + gn.c1 * l2 - sup
    slack2 = gn.c2 * h1**2 + gn.c2 * l1**2 - sup**2
    assert slack1 >= -tol
    assert slack2 >= -tol


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(2, 300),
    a=st.floats(-1e3, 1e3),
    length=st.floats(1e-3, 1e3),
    seed=st.integers(0, 2**32 - 1),
)
def test_summation_by_parts_pairing_cancels(n, a, length, seed):
    """sum w (dx(F, neumann) v + F dx(v, hinged)) = 0 for v pinned at both
    ends: the cancellation behind the discrete energy and mass identities,
    which pairs (f(Theta))_x with v and f(Theta) with v_x."""
    g = Grid(a, a + length, n)
    rng = np.random.default_rng(seed)
    f = rng.normal(size=g.n_nodes) * 10.0 ** rng.uniform(-3, 3)
    v = rng.normal(size=g.n_nodes) * 10.0 ** rng.uniform(-3, 3)
    v[0] = v[-1] = 0.0
    terms = dx_values(f, g.h, BC_NEUMANN) * v, f * dx_values(v, g.h, BC_HINGED)
    w = g.quad_weights()
    total = float(w @ (terms[0] + terms[1]))
    assert abs(total) <= 1e-12 * float(w @ (np.abs(terms[0]) + np.abs(terms[1])))
