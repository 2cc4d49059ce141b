"""Each admissibility rule has one owner: ``Grid`` (finite a < b, n_cells >= 2),
``SolverConfig`` (its solver data, by ``state.solver_problems``) and the
initial-data sample check (finite samples, Theta0 >= 0).  The config and the
command line ask these owners, so they accept exactly what the API accepts."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thermoelast1d import initial_data
from thermoelast1d.cli import main
from thermoelast1d.config import parse_config
from thermoelast1d.errors import ConfigError, ContractError
from thermoelast1d.grid import Grid, gn_constants
from thermoelast1d.state import SolverConfig, cfl_dt, eps_grid_problem

INF, NAN = math.inf, math.nan
#: values every rule must decide: nan, +-inf, 0, negatives, then ordinary ones
_SPECIAL = st.sampled_from([NAN, INF, -INF, 0.0, -0.0, -1.0, -1e-300, 1e308, -1e308])
_VALUE = _SPECIAL | st.floats(1e-3, 10.0)
_SCHEMES = st.sampled_from(["imex1", "imex2", "rk4"])


def _refuses(build) -> bool:
    try:
        build()
    except ContractError:
        return True
    return False


@settings(max_examples=400, deadline=None)
@example(a=0.0, b=1.0, n_cells=16, epsilon=0.0, t_end=1e300, dt=None, scheme="imex1",
         cfl_safety=0.5, positivity_tol=0.0)  # auto dt would need 2**53 or more steps
@example(a=0.0, b=1.0, n_cells=3, epsilon=0.01, t_end=1.0, dt=None, scheme="imex1",
         cfl_safety=0.5, positivity_tol=0.0)  # eps > 0 on fewer than 4 cells
@given(a=_SPECIAL | st.floats(-3.0, 3.0), b=_SPECIAL | st.floats(-3.0, 3.0),
       n_cells=st.integers(-2, 64), epsilon=_VALUE, t_end=_VALUE,
       dt=st.none() | _VALUE | st.integers(1, 40), scheme=_SCHEMES,
       cfl_safety=_VALUE, positivity_tol=_VALUE)
def test_config_accepts_exactly_what_the_owners_accept(a, b, n_cells, epsilon, t_end, dt,
                                                       scheme, cfl_safety, positivity_tol):
    """parse_config refuses a grid or solver value exactly when Grid,
    SolverConfig, eps_grid_problem or (for dt = auto) cfl_dt refuses it; apart from that, it
    refuses a dt exactly when SolverConfig.n_steps does.  An accepted config
    builds its grid and solver config, and n_steps succeeds.  (An int dt
    is t_end / dt.)"""
    if isinstance(dt, int):
        dt = t_end / dt
    solver = dict(t_end=t_end, epsilon=epsilon, scheme=scheme, cfl_safety=cfl_safety,
                  positivity_tol=positivity_tol)
    text = (f"[grid]\na = {a!r}\nb = {b!r}\nn_cells = {n_cells}\n[solver]\n"
            f"dt = {'auto' if dt is None else repr(dt)}\n"
            + "".join(f"{k} = {v}\n" for k, v in solver.items()))
    try:
        cfg, errors = parse_config(text), []
    except ConfigError as exc:
        cfg, errors = None, exc.errors
    divides = [e for e in errors if "does not divide" in e]
    try:
        grid = Grid(a, b, n_cells)
        owner = SolverConfig(dt=t_end if dt is None else dt, **solver)
        if dt is None:  # the solver rules hold, so cfl_dt can resolve auto
            owner = SolverConfig(dt=cfl_dt(grid, t_end, cfl_safety), **solver)
        if eps_grid_problem(epsilon, n_cells):
            owner = None
    except (ContractError, ConfigError):
        owner = None
    assert (len(errors) > len(divides)) == (owner is None)
    if owner is not None:
        assert bool(divides) == _refuses(owner.n_steps)
    if cfg is not None:
        grid = cfg.build_grid()
        assert cfg.build_solver_config(grid).n_steps() >= 1


# ---------------------------------------------------------------------------
# values that one entry point used to accept and another refused
# ---------------------------------------------------------------------------

_G = Grid(0.0, 1.0, 16)


@pytest.mark.parametrize("build, message", [
    (lambda: SolverConfig(dt=0.01, t_end=0.05, epsilon=NAN),
     "solver.epsilon must be >= 0, got nan"),
    (lambda: SolverConfig(dt=0.01, t_end=INF).n_steps(),
     "solver.t_end must be finite and > 0, got inf"),
    (lambda: SolverConfig(dt=0.01, t_end=0.05, epsilon=INF),
     "solver.epsilon must be finite, got inf"),
    (lambda: SolverConfig(dt=0.01, t_end=0.05, cfl_safety=INF),
     "solver.cfl_safety must be finite, got inf"),
    (lambda: SolverConfig(dt=0.01, t_end=0.05, positivity_tol=INF),
     "solver.positivity_tol must be finite, got inf"),
    (lambda: SolverConfig(dt=1e-10, t_end=1e300).n_steps(), "not an integer multiple"),
    (lambda: Grid(-INF, 1.0, 16), "grid: requires finite a < b, got a=-inf, b=1.0"),
    (lambda: Grid(0.0, INF, 16), "grid: requires finite a < b, got a=0.0, b=inf"),
    (lambda: Grid(0.0, 1.0, 4.0), "grid.n_cells must be an integer >= 2, got 4.0"),
    (lambda: Grid(0, 1, 10**400), "grid.n_cells must be < sys.maxsize"),
    (lambda: initial_data.random_smooth(_G, theta_floor=-1.0), "theta_floor"),
    (lambda: initial_data.random_smooth(_G, theta_amplitude=-5.0), "theta_amplitude"),
    (lambda: initial_data.equilibrium(_G, theta_bar=NAN), "non-finite theta"),
    (lambda: initial_data.step_strain(_G, theta_bar=NAN), "non-finite theta"),
], ids=["epsilon-nan", "t_end-inf", "epsilon-inf", "cfl_safety-inf", "positivity_tol-inf",
        "steps-overflow", "a-minus-inf", "b-inf", "n_cells-float", "n_cells-overflow",
        "theta_floor", "theta_amplitude", "equilibrium-nan", "step_strain-nan"])
def test_refused_from_the_api(build, message):
    with pytest.raises(ContractError, match=message.replace(".", r"\.")):
        build()


def test_grid_names_every_broken_rule_in_one_message():
    with pytest.raises(ContractError) as exc:
        Grid(0.0, INF, 1)
    assert str(exc.value) == ("grid: requires finite a < b, got a=0.0, b=inf; "
                              "grid.n_cells must be an integer >= 2, got 1")


@pytest.mark.parametrize("kind", sorted(initial_data.KINDS))
def test_every_builder_returns_through_the_sample_check(kind, monkeypatch):
    """Each builder's samples pass one check, after ``initial_data.make_state``."""
    make_state = initial_data.make_state
    monkeypatch.setattr(initial_data, "make_state",
                        lambda t, v, u, th: make_state(t, v, u, th - 10.0))
    with pytest.raises(ContractError, match="theta must be >= 0, got min"):
        initial_data.KINDS[kind](_G)
    monkeypatch.setattr(initial_data, "make_state",
                        lambda t, v, u, th: make_state(t, v + np.inf, u, th))
    with pytest.raises(ContractError, match="got non-finite v$"):
        initial_data.KINDS[kind](_G)


@pytest.mark.parametrize("grid, solver, initial", [
    ("a = -inf\n", "t_end = 0.125\n", ""),
    ("b = inf\n", "t_end = 0.125\n", ""),
    ("", "t_end = 0.125\n", "kind = random_smooth\ntheta_floor = -1\n"),
    ("", "t_end = 1e300\n", ""),
    ("", "t_end = 1e300\ndt = 1e-10\n", ""),
    ("", "t_end = 0.125\nepsilon = inf\n", ""),
    ("", "t_end = 0.125\ncfl_safety = inf\n", ""),
    ("", "t_end = 0.125\npositivity_tol = inf\n", ""),
], ids=["a-minus-inf", "b-inf", "theta_floor", "auto-dt-steps", "steps-overflow",
        "epsilon-inf", "cfl_safety-inf", "positivity_tol-inf"])
def test_run_refuses_before_the_output_dir(tmp_path, capsys, grid, solver, initial):
    """Each is a config error before any step, not a failed step (exit 1), a
    step count that cfl_dt cannot find, or an OverflowError."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[grid]\nn_cells = 16\n{grid}[solver]\n{solver}[initial_data]\n{initial}")
    outdir = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--output-dir", str(outdir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Traceback" not in err
    assert not outdir.exists()


def test_constants_refuses_an_infinite_omega(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["constants", "--omega", "0,inf"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("config error: bad --omega '0,inf': grid:")
    assert list(tmp_path.iterdir()) == []


def test_time_shift_counts_steps_like_its_precheck(tmp_path, capsys):
    """A shift within whole_steps' relative 1e-9 of k dt is k steps."""
    outdir = tmp_path / "rep"
    argv = ["time-shift", "--n-cells", "16", "--dt", "0.03125", "--t-end", "4",
            "--shifts", "2.0000000015", "--output-dir", str(outdir)]
    assert main(argv) == 0
    assert (outdir / "verdict.txt").exists() and (outdir / "series_shift_2.csv").exists()


@pytest.mark.parametrize("argv", [
    ["time-shift", "--n-cells", "3"],
    ["eps-cauchy", "--n-cells", "3"],
    ["run", "--config", "eps3.cfg"],
], ids=["time-shift", "eps-cauchy", "run"])
def test_eps_runs_refuse_fewer_than_four_cells_before_the_output_dir(tmp_path, capsys,
                                                                     monkeypatch, argv):
    """eps > 0 on n_cells < 4 (the hinged fourth-order operator) is a usage
    error before any directory is made, not a failed run (exit 1)."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "eps3.cfg").write_text("[grid]\nn_cells = 3\n[solver]\nepsilon = 0.01\n"
                                       "t_end = 0.125\n")
    assert main(argv + ["--output-dir", "out"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("config error: ")
    assert "needs n_cells >= 4, got 3" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["eps3.cfg"]


@pytest.mark.parametrize("omega", ["0,1e-300", "0,1.2e-154", "0,5e-324", "0,1e300"])
def test_constants_refuses_an_omega_with_a_non_finite_constant(capsys, omega):
    """An interval so short (or long) that a ledger constant overflows is a
    usage error naming --omega, with no traceback."""
    assert main(["constants", "--omega", omega]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("config error: a ledger constant is not finite for "
                          f"--omega '{omega}'")


def test_gn_constants_near_the_underflow_of_length_squared():
    """c2 = max(2 L, 2 / L^2) without forming a subnormal or zero L^2: as
    2 / L / L below it, the exact 2 / L^2 above it and 2 L from L = 1 on."""
    for length in (1e-300, 1e-160, 1.2e-154):
        c2 = gn_constants(Grid(0.0, length, 8)).c2
        assert c2 == 2.0 / length / length and (c2 == INF) == (length < 1.1e-154)
    for length in (1e-3, 0.37, 0.999):
        assert gn_constants(Grid(0.0, length, 8)).c2 == 2.0 / length ** 2
    assert gn_constants(Grid(0.0, 1e300, 8)).c2 == 2e300
