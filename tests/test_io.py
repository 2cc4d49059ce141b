import os
import tempfile
import warnings

import numpy as np
import pytest
from helpers import (
    diagnostics_text_loop,
    series_csv_loop,
    snapshot_csv_loop,
    svg_series_loop,
)
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from thermoelast1d.config import (
    GridSpec,
    InitialDataSpec,
    MaterialSpec,
    OutputSpec,
    RunConfig,
    SolverSpec,
    parse_config,
    serialize_config,
)
from thermoelast1d import experiments
from thermoelast1d.errors import ConfigError, Thermoelast1dError
from thermoelast1d.grid import Grid
from thermoelast1d.initial_data import equilibrium, standing_wave
from thermoelast1d.materials import identity_material
from thermoelast1d.output import (
    DIAG_COLUMNS,
    ROW_BLOCK,
    export_trajectory,
    read_diagnostics_csv,
    read_snapshot_csv,
    write_gnuplot,
    write_report,
    write_svg_series,
)
from thermoelast1d.solver_limit import run_limit
from thermoelast1d.state import (DiagnosticsRecord, SolverConfig, Trajectory, eps_grid_problem,
                                make_state)

MINIMAL = """
[solver]
t_end = 0.5
"""


def test_minimal_config_gets_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.solver.scheme == "imex1"
    assert cfg.solver.cfl_safety == 0.5
    assert cfg.material.rho_floor == 1e-8
    assert cfg.solver.dt is None  # auto
    grid = cfg.build_grid()
    dt = cfg.resolve_dt(grid)
    assert dt <= 0.5 * grid.h * (1 + 1e-12)
    assert abs(round(0.5 / dt) * dt - 0.5) < 1e-12


@settings(max_examples=200, deadline=None)
@given(
    a=st.floats(-3.0, 3.0),
    length=st.floats(0.05, 8.0),
    n_cells=st.integers(2, 512),
    t_end=st.floats(1e-3, 10.0),
    cfl_safety=st.floats(0.01, 2.0),
)
def test_auto_dt_is_the_largest_cfl_safe_divisor(a, length, n_cells, t_end, cfl_safety):
    """dt = auto is t_end / n for the fewest steps n that pass the CFL check:
    t_end / (n - 1) fails it.  The experiments' half-CFL dt follows the same rule."""
    def auto_dt(safety):
        cfg = RunConfig(grid=GridSpec(a, a + length, n_cells),
                        solver=SolverSpec(t_end=t_end, cfl_safety=safety))
        return cfg.resolve_dt(cfg.build_grid())

    grid = Grid(a, a + length, n_cells)
    dt = auto_dt(cfl_safety)
    n = round(t_end / dt)
    assert dt == t_end / n
    SolverConfig(dt=dt, t_end=t_end, cfl_safety=cfl_safety).check_cfl(grid)
    if n > 1:
        with pytest.raises(ConfigError, match="CFL"):
            SolverConfig(dt=t_end / (n - 1), t_end=t_end, cfl_safety=cfl_safety).check_cfl(grid)
    assert experiments._half_cfl_config(grid, t_end).dt == auto_dt(0.5)


def test_negative_epsilon_message():
    with pytest.raises(ConfigError) as exc:
        parse_config("[solver]\nepsilon = -1\n")
    assert any("solver.epsilon must be >= 0" in e for e in exc.value.errors)


@pytest.mark.parametrize("key", ["epsilon", "positivity_tol"])
def test_nan_solver_value_is_refused(key):
    with pytest.raises(ConfigError) as exc:
        parse_config(f"[solver]\n{key} = nan\n")
    assert exc.value.errors == [f"solver.{key} must be >= 0, got nan"]


@pytest.mark.parametrize("key", ["epsilon", "cfl_safety", "positivity_tol"])
def test_infinite_solver_value_is_refused(key):
    with pytest.raises(ConfigError) as exc:
        parse_config(f"[solver]\n{key} = inf\n")
    assert exc.value.errors == [f"solver.{key} must be finite, got inf"]


def test_duplicate_key_names_both_lines():
    text = "[solver]\ndt = 0.1\nt_end = 1.0\ndt = 0.2\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    msg = "\n".join(exc.value.errors)
    assert "duplicate key 'dt'" in msg
    assert "line 4" in msg and "line 2" in msg


def test_unknown_key_and_section_locations():
    text = "[gird]\na = 0\n[solver]\nwarp = 9\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    msg = "\n".join(exc.value.errors)
    assert "unknown section [gird]" in msg
    assert "unknown key 'solver.warp'" in msg


def test_all_errors_collected_not_just_first():
    text = "[solver]\nepsilon = -2\ndt = -1\nscheme = rk9\n[grid]\nn_cells = 1\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert len(exc.value.errors) >= 4


@pytest.mark.parametrize("dt, t_end, error", [
    (0.003, 0.01, "solver.dt=0.003 does not divide solver.t_end=0.01"),
    (0.004, 0.01, "solver.dt=0.004 does not divide solver.t_end=0.01"),
    (0.1, float("inf"), "solver.t_end must be finite and > 0, got inf"),
    (0.002, 0.01, None), (1e-3, 0.123, None), (0.1, 0.3, None),
])
def test_explicit_dt_must_divide_t_end(dt, t_end, error):
    """The parser applies SolverConfig.n_steps's rule: a dt that does not
    divide t_end is a config error, not a failure at run time."""
    text = f"[solver]\ndt = {dt!r}\nt_end = {t_end!r}\n"
    if error is None:
        assert parse_config(text).solver.dt == dt
        assert SolverConfig(dt=dt, t_end=t_end).n_steps() == round(t_end / dt)
        return
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert exc.value.errors == [error]
    if "divide" in error:
        with pytest.raises(Thermoelast1dError, match="not an integer multiple"):
            SolverConfig(dt=dt, t_end=t_end).n_steps()


def test_initial_data_kind_schema():
    with pytest.raises(ConfigError) as exc:
        parse_config("[initial_data]\nkind = equilibrium\namplitude = 1\n")
    assert any("not valid for kind" in e for e in exc.value.errors)


def test_roundtrip_explicit():
    cfg = RunConfig(
        grid=GridSpec(a=-0.5, b=1.5, n_cells=96),
        material=MaterialSpec(kind="log1p", rho_floor=3e-7),
        solver=SolverSpec(epsilon=0.013, dt=1e-3, t_end=0.123, scheme="imex2",
                          cfl_safety=0.4, positivity_tol=1e-11),
        initial_data=InitialDataSpec(
            kind="standing_wave",
            params=(("amplitude", 0.27), ("theta_amplitude", 0.11)),
        ),
        output=OutputSpec(record_every=3, directory="res", formats=("csv", "json_lines")),
    )
    assert parse_config(serialize_config(cfg)) == cfg


def test_retired_newton_keys_warn_and_are_ignored():
    text = "[solver]\nt_end = 0.5\nnewton_tol = 2e-9\nnewton_max_iters = 11\n"
    with pytest.warns(DeprecationWarning) as rec:
        cfg = parse_config(text)
    assert ["newton_tol" in str(r.message) for r in rec] == [True, False]
    assert "newton_max_iters" in str(rec[1].message)
    assert cfg == parse_config("[solver]\nt_end = 0.5\n")
    assert "newton" not in serialize_config(cfg)


@settings(max_examples=40, deadline=None)
@given(
    a=st.floats(-2.0, 0.5, allow_nan=False),
    width=st.floats(0.1, 3.0, allow_nan=False),
    n_cells=st.integers(2, 500),
    eps=st.floats(0.0, 0.5, allow_nan=False),
    t_end=st.floats(0.01, 2.0, allow_nan=False),
    scheme=st.sampled_from(["imex1", "imex2"]),
    rec=st.integers(1, 10),
    seed=st.integers(0, 99),
)
def test_roundtrip_randomized(a, width, n_cells, eps, t_end, scheme, rec, seed):
    assume(eps_grid_problem(eps, n_cells) is None)  # eps > 0 needs 4 cells
    cfg = RunConfig(
        grid=GridSpec(a=a, b=a + width, n_cells=n_cells),
        solver=SolverSpec(epsilon=eps, dt=None, t_end=t_end, scheme=scheme),
        initial_data=InitialDataSpec(kind="random_smooth", params=(("seed", float(seed)),)),
        output=OutputSpec(record_every=rec),
    )
    assert parse_config(serialize_config(cfg)) == cfg


# --- trajectory export -----------------------------------------------------------


def _tiny_traj(n_records=3):
    g = Grid(0.0, 1.0, 8)
    traj = Trajectory(g, 0.0, "limit")
    rng = np.random.default_rng(5)
    from thermoelast1d.diagnostics import compute_record

    m = identity_material()
    prev = None
    for k in range(n_records):
        vals = rng.normal(size=g.n_nodes)
        s = make_state(k * 0.1, vals, rng.normal(size=g.n_nodes),
                       np.abs(rng.normal(size=g.n_nodes)) + 0.5)
        rec = compute_record(s, m, g, 0.0, prev)
        prev = rec
        traj.states.append(s)
        traj.records.append(rec)
    return g, traj


def test_export_empty_trajectory_header_only(tmp_path):
    g = Grid(0.0, 1.0, 8)
    traj = Trajectory(g, 0.0, "limit")
    export_trajectory(traj, tmp_path)
    lines = (tmp_path / "diagnostics.csv").read_text().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("t,E,int_Theta")


def test_export_counts_and_roundtrip(tmp_path):
    g, traj = _tiny_traj(3)
    written = export_trajectory(traj, tmp_path, formats=("csv", "json_lines"))
    snaps = sorted(p for p in os.listdir(tmp_path) if p.startswith("snapshot_"))
    assert len(snaps) == 3
    diag = read_diagnostics_csv(tmp_path / "diagnostics.csv")
    assert len(diag["t"]) == 3
    # 17-significant-digit formatting round-trips doubles exactly
    back = read_snapshot_csv(tmp_path / snaps[1])
    assert np.array_equal(back["v"], traj.states[1].v.values)
    assert np.array_equal(back["theta"], traj.states[1].theta.values)
    assert np.array_equal(back["u"], traj.states[1].u.values)
    # jsonl round-trip
    import json

    with open(tmp_path / "snapshots.jsonl") as fh:
        rows = [json.loads(line) for line in fh]
    assert len(rows) == 3
    assert np.array_equal(np.array(rows[2]["u"]), traj.states[2].u.values)


def test_diag_csv_column_contract(tmp_path):
    """Column order is documented and fixed; a reorder is a breaking change."""
    g, traj = _tiny_traj(1)
    export_trajectory(traj, tmp_path)
    header = (tmp_path / "diagnostics.csv").read_text().splitlines()[0]
    assert header == (
        "t,E,int_Theta,theta_min,theta_max,y,y_valid,thetax_l2sq,thetaxx_l2sq,"
        "vx_l2sq,vxx_l2sq,uxx_l2sq,diss_thetax,diss_eps"
    )


def test_export_flags_invalid_hfunc(tmp_path):
    from thermoelast1d.diagnostics import compute_record

    g = Grid(0.0, 1.0, 8)
    m = identity_material()
    traj = Trajectory(g, 0.0, "limit")
    zero = make_state(0.0, np.zeros(g.n_nodes), np.zeros(g.n_nodes),
                      np.zeros(g.n_nodes))  # theta below the rho floor
    traj.states.append(zero)
    traj.records.append(compute_record(zero, m, g, 0.0, None))
    export_trajectory(traj, tmp_path)
    diag = read_diagnostics_csv(tmp_path / "diagnostics.csv")
    assert np.isnan(diag["y"][0])
    assert diag["y_valid"][0] == 0.0


def test_export_bit_stable(tmp_path):
    g, traj = _tiny_traj(2)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    export_trajectory(traj, d1)
    export_trajectory(traj, d2)
    assert (d1 / "diagnostics.csv").read_bytes() == (d2 / "diagnostics.csv").read_bytes()
    assert (d1 / "snapshot_000001.csv").read_bytes() == (
        d2 / "snapshot_000001.csv"
    ).read_bytes()


def test_plot_emission(tmp_path):
    g = Grid(0.0, 1.0, 32)
    cfg = SolverConfig(dt=g.h / 2, t_end=0.25, epsilon=0.0)
    init = standing_wave(g, amplitude=0.2, theta_amplitude=0.1)
    traj = run_limit(init, identity_material(), cfg, g, record_every=4)
    files = write_gnuplot(traj, tmp_path)
    assert os.path.exists(files[0]) and os.path.exists(files[1])
    gp = open(files[1]).read()
    assert "series.dat" in gp and "plot" in gp
    svg = write_svg_series(
        {"E": traj.record_series("energy")}, traj.record_times, tmp_path / "s.svg"
    )
    content = open(svg).read()
    assert content.startswith("<svg") and "polyline" in content


def test_write_report(tmp_path):
    from thermoelast1d.experiments import CheckResult, ExperimentReport

    rep = ExperimentReport(
        name="demo",
        params={"n": 4},
        checks=[CheckResult("alpha", True, 1.0, 2.0)],
        series={"s": {"t": np.array([0.0, 1.0]), "y": np.array([2.0, 3.0])}},
    )
    files = write_report(rep, tmp_path)
    txt = open(files[0]).read()
    assert "PASS" in txt and "alpha" in txt
    assert os.path.exists(tmp_path / "series_s.csv")


def test_formats_md_examples_byte_for_byte(tmp_path):
    """The byte-level examples of FORMATS.md: an equilibrium limit run, N = 4."""
    g = Grid(0.0, 1.0, 4)
    cfg = SolverConfig(dt=0.125, t_end=0.25, epsilon=0.0)
    traj = run_limit(equilibrium(g, theta_bar=0.5), identity_material(), cfg, g)
    export_trajectory(traj, tmp_path, formats=("csv", "json_lines"))
    diag = (tmp_path / "diagnostics.csv").read_text().splitlines()
    assert diag[:3] == [
        "t,E,int_Theta,theta_min,theta_max,y,y_valid,thetax_l2sq,thetaxx_l2sq,"
        "vx_l2sq,vxx_l2sq,uxx_l2sq,diss_thetax,diss_eps",
        "0,0.5,0.5,0.5,0.5,1,1,0,0,0,0,0,0,0",
        "0.125,0.5,0.5,0.49999999999999994,0.5,1,1,9.2444637330587321e-33,"
        "7.8886090522101181e-31,4.8148248609680896e-34,4.3140830754274083e-32,0,"
        "5.7777898331617076e-34,0",
    ]
    snap = (tmp_path / "snapshot_000001.csv").read_text().splitlines()
    assert snap[:3] == [
        "t,x,v,u,theta",
        "0.125,0,0,0,0.5",
        "0.125,0.25,6.9388939039072284e-18,0,0.49999999999999994",
    ]
    jsonl = (tmp_path / "snapshots.jsonl").read_text().splitlines()
    assert jsonl[0] == (
        '{"t": 0.0, "v": [0.0, 0.0, 0.0, 0.0, 0.0], "u": [0.0, 0.0, 0.0, 0.0, 0.0], '
        '"theta": [0.5, 0.5, 0.5, 0.5, 0.5]}'
    )


# --- block writers == per-value references ------------------------------------

_EDGE_VALUES = np.array([
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, -1.5e-310, 1e300, -1e300,
    1e-300, -1e-300, 1.0, -7.0, 4096.0, 9007199254740993.0, 0.1, 1 / 3,
])
_ROW_COUNTS = st.one_of(
    st.sampled_from([ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 3000]), st.integers(3, 3000)
)


def _values(rng, n):
    """Normal draws over 600 decades, with edge values and integers mixed in."""
    vals = rng.normal(size=n) * 10.0 ** rng.integers(-320, 300, size=n)
    pick = rng.random(n)
    vals[pick < 0.3] = rng.choice(_EDGE_VALUES, size=int((pick < 0.3).sum()))
    ints = pick > 0.85
    vals[ints] = rng.integers(-10**6, 10**6, size=int(ints.sum()))
    return vals


def _record(rng, t):
    vals = _values(rng, 12)
    valid = bool(rng.random() < 0.7)
    return DiagnosticsRecord(t, *vals[:4], float(vals[4]) if valid else None, valid,
                             *vals[5:])


def _report(series):
    from thermoelast1d.experiments import CheckResult, ExperimentReport

    return ExperimentReport(name="demo", params={}, checks=[CheckResult("c", True, 0.0, 1.0)],
                            series=series)


@settings(max_examples=30, deadline=None)
@given(
    n_nodes=_ROW_COUNTS,
    n_states=st.sampled_from([0, 1, 2]),
    n_records=st.one_of(st.sampled_from([0, 1, ROW_BLOCK, ROW_BLOCK + 1]),
                        st.integers(0, 40)),
    a=st.floats(-3.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_block_writers_equal_per_value_references(n_nodes, n_states, n_records, a, seed):
    rng = np.random.default_rng(seed)
    g = Grid(a, a + 1.7, n_nodes - 1)
    traj = Trajectory(g, 0.0, "limit")
    for k in range(n_states):
        traj.states.append(make_state(float(_values(rng, 1)[0]), *_values(rng, (3, n_nodes))))
    times = np.sort(_values(rng, n_records))
    traj.records.extend(_record(rng, float(t)) for t in times)
    table = {"t": times, "int": rng.integers(-5, 5, size=n_records // 2),
             "flag": list(rng.random(n_records % 7) < 0.5), "empty": np.array([]),
             "scalar": 2.5, "vals": _values(rng, n_records)}
    with tempfile.TemporaryDirectory() as d:
        export_trajectory(traj, d, formats=("csv",))
        write_gnuplot(traj, d)
        rep = _report({"tab": table, "none": {}})
        write_report(rep, d)
        svg = ({"a": table["vals"], "b": table["vals"][: n_records // 3]},
               times if n_records else np.zeros(1))
        # a range of 2e308 overflows a double: its points must still plot
        wide = ({"a": svg[0]["a"], "w": np.array([1e308, -1e308, 1.0])}, svg[1])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            write_svg_series(*svg, os.path.join(d, "s.svg"))
            write_svg_series(*wide, os.path.join(d, "wide.svg"))

        def text(name):
            with open(os.path.join(d, name), encoding="utf-8", newline="") as fh:
                return fh.read()

        header, rows = text("diagnostics.csv").split("\n", 1)
        assert header == ",".join(DIAG_COLUMNS) and rows == diagnostics_text_loop(traj)
        header, rows = text("series.dat").split("\n", 1)
        assert header == "# " + " ".join(DIAG_COLUMNS)
        assert rows == diagnostics_text_loop(traj, " ")
        for k, s in enumerate(traj.states):
            assert text(f"snapshot_{k:06d}.csv") == snapshot_csv_loop(s, g.nodes)
        assert text("series_tab.csv") == series_csv_loop(table)
        assert text("series_none.csv") == "\n"
        assert text("s.svg") == svg_series_loop(*svg)
        assert text("wide.svg") == svg_series_loop(*wide) and "nan" not in text("wide.svg")


# --- output paths that cannot be written --------------------------------------


def test_writers_name_an_unwritable_path(tmp_path):
    afile = tmp_path / "afile"
    afile.write_text("")
    g, traj = _tiny_traj(2)
    for write in (lambda: export_trajectory(traj, afile),
                  lambda: write_gnuplot(traj, afile / "sub"),
                  lambda: write_report(_report({"s": {"t": [1.0]}}), afile)):
        with pytest.raises(Thermoelast1dError, match="afile"):
            write()
    # a file's place taken by a directory fails in the write, not in makedirs
    (tmp_path / "d" / "diagnostics.csv").mkdir(parents=True)
    (tmp_path / "d" / "series_s.csv").mkdir()
    (tmp_path / "d" / "s.svg").mkdir()
    with pytest.raises(Thermoelast1dError, match="diagnostics.csv"):
        export_trajectory(traj, tmp_path / "d")
    with pytest.raises(Thermoelast1dError, match="series_s.csv"):
        write_report(_report({"s": {"t": [1.0]}}), tmp_path / "d")
    with pytest.raises(Thermoelast1dError, match="s.svg"):
        write_svg_series({"E": np.ones(3)}, np.arange(3.0), tmp_path / "d" / "s.svg")
