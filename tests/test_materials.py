import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermoelast1d.errors import (
    ConfigError,
    ContractError,
    DomainError,
    HypothesisError,
    PositivityFloorError,
)
from thermoelast1d.materials import (
    eval_f,
    eval_fp,
    eval_fpp,
    f_kernel,
    fp_kernel,
    fpp_kernel,
    hypothesis_report,
    identity_material,
    log1p_material,
    material_from_file,
    rational_saturating_material,
    rho,
    tabulated_material,
)

ALL_BUILTINS = [identity_material(), log1p_material(), rational_saturating_material()]
_XI = np.linspace(0.0, 3.0, 7)
TABULATED = tabulated_material(_XI, np.log1p(_XI) + 0.25 * _XI)
ALL_KINDS = ALL_BUILTINS + [TABULATED]
PAIRS = ((f_kernel, eval_f), (fp_kernel, eval_fp), (fpp_kernel, eval_fpp))


def test_identity_point_values():
    m = identity_material()
    assert eval_f(m, 2.0) == 2.0
    assert eval_fp(m, 2.0) == 1.0
    assert eval_fpp(m, 2.0) == 0.0


def test_log1p_point_values():
    m = log1p_material()
    assert eval_f(m, 0.0) == 0.0
    assert eval_fp(m, 0.0) == 1.0
    assert eval_fpp(m, 0.0) == -1.0


def test_rational_point_values():
    m = rational_saturating_material()
    assert eval_f(m, 1.0) == pytest.approx(0.5)
    assert eval_fp(m, 1.0) == pytest.approx(0.25)
    assert eval_fpp(m, 1.0) == pytest.approx(-0.25)


def test_negative_argument_rejected():
    for m in ALL_BUILTINS:
        with pytest.raises(DomainError):
            eval_f(m, -1e-9)
        with pytest.raises(DomainError):
            eval_fp(m, np.array([0.5, -0.1]))


@pytest.mark.parametrize("m", ALL_BUILTINS, ids=lambda m: m.kind)
def test_derivatives_match_finite_differences(m):
    rng = np.random.default_rng(11)
    xs = rng.uniform(0.001, 100.0, size=1000)
    step = 1e-4
    fd_fp = (eval_f(m, xs + step) - eval_f(m, xs - step)) / (2 * step)
    fp = eval_fp(m, xs)
    assert np.max(np.abs(fd_fp - fp) / (np.abs(fp) + 1e-12)) < 1e-6
    fd_fpp = (eval_fp(m, xs + step) - eval_fp(m, xs - step)) / (2 * step)
    fpp = eval_fpp(m, xs)
    assert np.max(np.abs(fd_fpp - fpp)) < 1e-6 * (1 + np.max(np.abs(fpp)))


@pytest.mark.parametrize("m", ALL_BUILTINS, ids=lambda m: m.kind)
def test_sublinear_growth(m):
    xs = np.linspace(0.0, 500.0, 4001)
    f = eval_f(m, xs)
    assert np.all(f >= 0.0)
    assert np.all(f <= m.c3 * xs + 1e-14)


def test_rho_identity_is_reciprocal():
    m = identity_material()
    xs = np.geomspace(m.rho_floor, 1e6, 500)
    assert np.max(np.abs(rho(m, xs) * xs - 1.0)) < 1e-14
    assert rho(m, 2.0) == pytest.approx(0.5)
    assert rho(m, 0.5) == pytest.approx(2.0)


def test_rho_log1p_value():
    m = log1p_material()
    assert rho(m, 1.0) == pytest.approx(0.5 / np.log(2.0), rel=1e-12)


def test_rho_floor_enforced():
    m = identity_material(rho_floor=1e-6)
    with pytest.raises(PositivityFloorError):
        rho(m, 1e-7)
    with pytest.raises(PositivityFloorError):
        rho(m, np.array([1.0, 1e-9]))


def test_rho_floor_must_be_positive():
    with pytest.raises(ContractError):
        identity_material(rho_floor=0.0)


def test_hypothesis_report_builtins():
    rep = hypothesis_report(identity_material(), xi_max=10.0)
    assert rep.c3_empirical == pytest.approx(1.0)
    assert rep.c4_empirical == pytest.approx(0.0)
    rep = hypothesis_report(log1p_material(), xi_max=10.0)
    assert rep.c3_empirical == pytest.approx(1.0)  # sup of 1/(1+x) at 0
    assert rep.c4_empirical == pytest.approx(1.0)  # sup of 1/(1+x)^2 at 0


def test_hypothesis_report_needs_samples():
    with pytest.raises(ContractError):
        hypothesis_report(identity_material(), xi_max=1.0, samples=10)


def test_tabulated_roundtrip_and_rho():
    xs = np.linspace(0.0, 5.0, 21)
    m = tabulated_material(xs, np.log1p(xs))
    probe = np.linspace(0.05, 4.9, 100)
    assert np.max(np.abs(eval_f(m, probe) - np.log1p(probe))) < 2e-3
    assert np.all(eval_fp(m, probe) > 0)
    # linear continuation with the terminal slope beyond the table
    f5, fp5 = eval_f(m, 5.0), eval_fp(m, 5.0)
    assert eval_f(m, 7.0) == pytest.approx(f5 + 2.0 * fp5)
    assert eval_fp(m, 7.0) == pytest.approx(fp5)
    hypothesis_report(m, xi_max=5.0)


def test_tabulated_violations_fail_loudly():
    xs = np.linspace(0.0, 1.0, 5)
    with pytest.raises(HypothesisError, match=r"f\(0\)"):
        tabulated_material(xs, xs + 0.1)
    with pytest.raises(HypothesisError, match="increasing"):
        tabulated_material(xs, np.array([0.0, 0.5, 0.4, 0.6, 0.7]))
    with pytest.raises(HypothesisError, match="start at 0"):
        tabulated_material(xs + 1.0, xs.copy())


def test_material_from_file(tmp_path):
    path = tmp_path / "table.txt"
    xs = np.linspace(0.0, 2.0, 9)
    np.savetxt(path, np.column_stack([xs, xs / (1 + xs)]))
    m = material_from_file(path)
    assert m.kind == "user_tabulated"
    assert eval_f(m, 1.0) == pytest.approx(0.5, abs=1e-3)


def _bits(a) -> bytes:
    return np.asarray(a, dtype=float).tobytes()


_XI_MAX = float(_XI[-1])
_SPECIAL = st.sampled_from([0.0, TABULATED.rho_floor, _XI_MAX, np.nextafter(_XI_MAX, 0.0),
                            np.nextafter(_XI_MAX, np.inf), 2.0 * _XI_MAX, 1e6, np.nan])
_POINTS = st.lists(st.one_of(_SPECIAL, st.floats(0.0, 4.0 * _XI_MAX)), min_size=1, max_size=40)


@settings(max_examples=200, deadline=None)
@given(m=st.sampled_from(ALL_KINDS), xs=_POINTS)
def test_kernels_equal_public_functions_bit_for_bit(m, xs):
    """Tabulated points run below, at and beyond xi_max; NaN passes both."""
    x = np.array(xs)
    for kernel, public in PAIRS:
        assert _bits(kernel(m, x.copy())) == _bits(public(m, x))
        for xi in xs:
            assert _bits(kernel(m, np.asarray(xi))) == _bits(public(m, xi))
    high = np.maximum(x, m.rho_floor)
    assert _bits(fp_kernel(m, high) / f_kernel(m, high)) == _bits(rho(m, high))


@pytest.mark.parametrize("m", ALL_KINDS, ids=lambda m: m.kind)
def test_public_functions_check_and_return_floats_and_copies(m):
    for _, public in PAIRS:
        with pytest.raises(DomainError):
            public(m, -1e-300)
        with pytest.raises(DomainError):
            public(m, np.array([1.0, -0.5, 2.0]))
        for xi in (0, 0.5, np.float64(2.0), _XI_MAX):
            assert type(public(m, xi)) is float
    x = np.array([0.0, 0.5, 2.0])
    out = eval_f(m, x)
    assert out is not x and not np.shares_memory(out, x)
    assert type(rho(m, 0.5)) is float


def test_identity_kernel_returns_its_argument():
    x = np.array([0.0, 0.5, 2.0])
    assert f_kernel(identity_material(), x) is x


def test_negative_argument_reported_past_nan():
    m = log1p_material()
    with pytest.raises(DomainError, match=r"\(min -0\.1\)"):
        eval_f(m, np.array([0.5, np.nan, -0.1]))
    assert np.isnan(eval_f(m, np.array([0.5, np.nan]))[1])  # NaN alone is not refused


def test_pchip_loads_with_the_first_table_only():
    """In a fresh interpreter (a child process), ``scipy.interpolate`` stays
    unloaded through the package and CLI imports, a default limit run and an
    experiment, and loads when a tabulated material is built; the sparse LU
    modules load with the package."""
    code = textwrap.dedent("""
        import json, sys
        import numpy as np
        import thermoelast1d, thermoelast1d.cli
        from thermoelast1d import experiments, initial_data
        from thermoelast1d.state import cfl_dt

        mods = ("scipy.interpolate", "scipy.sparse", "scipy.sparse.linalg")
        seen = {"import": [m for m in mods if m in sys.modules]}
        grid = thermoelast1d.Grid(0.0, 1.0, 8)
        cfg = thermoelast1d.SolverConfig(dt=cfl_dt(grid, 0.125), t_end=0.125)
        init = initial_data.standing_wave(grid, amplitude=0.1)
        thermoelast1d.run_limit(init, thermoelast1d.identity_material(), cfg, grid)
        experiments.exp_stability(n_cells=8, t_end=0.125)
        seen["runs"] = [m for m in mods if m in sys.modules]
        xi = np.linspace(0.0, 2.0, 5)
        thermoelast1d.tabulated_material(xi, np.log1p(xi))
        seen["table"] = [m for m in mods if m in sys.modules]
        print(json.dumps(seen))
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    seen = json.loads(out)
    sparse = ["scipy.sparse", "scipy.sparse.linalg"]
    assert seen == {"import": sparse, "runs": sparse, "table": ["scipy.interpolate"] + sparse}


@pytest.mark.parametrize("content, match", [
    (None, "not found"),
    ("0 0\n1 0.5\n2 x\n", "could not convert"),
    ("0 0 0\n1 0.5 1\n2 0.7 2\n", r"two numeric columns .* shape \(3, 3\)"),
    ("0\n1\n2\n", r"shape \(3, 1\)"),
    ("0 0\n1 0.5\n", r"shape \(2, 2\)"),
    ("", r"shape \(0, 1\)"),
])
def test_bad_table_file_is_a_config_error(tmp_path, content, match):
    path = tmp_path / "table.txt"
    if content is not None:
        path.write_text(content)
    with pytest.raises(ConfigError, match=match) as exc:
        material_from_file(path)
    assert str(path) in str(exc.value)
