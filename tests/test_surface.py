"""Guards of the user-facing surface: the command-line options of every
subcommand, and the config text that ``serialize_config`` writes and
``parse_config`` reads back."""

import argparse
import inspect
import os

from hypothesis import given, settings
from hypothesis import strategies as st

from thermoelast1d import cli, experiments, initial_data
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

_MATERIALS = ["identity", "log1p", "rational_saturating"]
_PLOT = (["--plot"], None, ["gnuplot", "svg"],
         "emit plot artifacts: gnuplot data+script, or a standalone SVG", None, False)
_EXPERIMENT = [
    (["--output-dir"], None, None, "directory for the report", None, False),
    (["--material"], "identity", _MATERIALS, None, None, False),
    (["--plot"], None, ["svg"], "emit a standalone SVG of the report's first series", None,
     False),
]
_N_CELLS = (["--n-cells"], None, None, None, "int", False)
_T_END = (["--t-end"], None, None, None, "float", False)

#: subcommand -> (help, [(option strings, default, choices, help, type, required)])
CLI_SURFACE = {
    "run": ("execute one simulation from a config file", [
        (["--config"], None, None, "path to a run config", None, True),
        (["--output-dir"], None, None, "override [output] directory", None, False),
        _PLOT,
    ]),
    "energy-audit": ("energy identity drift and refinement study",
                     _EXPERIMENT + [_N_CELLS, _T_END]),
    "stability": ("continuous dependence under initial perturbations",
                  _EXPERIMENT + [_N_CELLS, _T_END]),
    "eps-cauchy": ("regularization-parameter convergence ladder", _EXPERIMENT + [
        _N_CELLS, _T_END,
        (["--eps-ladder"], None, None, "comma list, strictly decreasing", "str", False),
    ]),
    "time-shift": ("time-shift stability against the explicit constant", _EXPERIMENT + [
        (["--epsilon"], 0.01, None, None, "float", False),
        (["--shifts"], None, None, "comma list of time shifts", "str", False),
        (["--dt"], None, None, None, "float", False),
        _T_END, _N_CELLS,
    ]),
    "rough-data": ("low-regularity data refinement study", _EXPERIMENT + [
        (["--n-cells"], None, None,
         "coarsest level N of the doubling ladder N, 2N, 4N (default 256)", "int", False),
        _T_END,
        (["--kind"], "step_strain", ["step_strain", "sawtooth_strain", "random_L2_theta"],
         None, None, False),
    ]),
    "mms": ("manufactured-solution convergence orders", _EXPERIMENT),
    "constants": ("print the stability-constants ledger", [
        (["--eta"], 0.5, None, None, "float", False),
        (["--K"], 1.0, None, None, "float", False),
        (["--T"], 1.0, None, None, "float", False),
        (["--omega"], "0,1", None, "interval endpoints 'a,b'", "str", False),
        (["--material"], "identity", _MATERIALS, None, None, False),
    ]),
}


def test_cli_surface_golden():
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    helps = {a.dest: a.help for a in sub._choices_actions}
    surface = {
        name: (helps[name], [
            (a.option_strings, a.default, None if a.choices is None else list(a.choices),
             a.help, getattr(a.type, "__name__", None), a.required)
            for a in p._actions if not isinstance(a, argparse._HelpAction)
        ])
        for name, p in sub.choices.items()
    }
    assert list(surface) == list(CLI_SURFACE)
    assert surface == CLI_SURFACE


#: experiment -> its parameters, each with its default
EXPERIMENT_SIGNATURES = {
    "exp_energy_audit": ["n_cells=256", "t_end=1.0", "levels=3", "material=None"],
    "exp_stability": ["n_cells=256", "t_end=0.5", "deltas=(0.01, 0.001, 0.0001)",
                      "material=None"],
    "exp_eps_cauchy": ["eps_ladder=(0.1, 0.03, 0.01, 0.003, 0.001)", "n_cells=128",
                       "t_end=0.5", "material=None"],
    "exp_time_shift": ["shifts=(0.01, 0.05, 0.1)", "epsilon=0.01", "n_cells=128", "dt=0.0025",
                       "t_end=1.0", "material=None"],
    "exp_rough_data": ["kind='step_strain'", "n_levels=(256, 512, 1024)", "t_end=1.0",
                       "material=None", "**data_params"],
    "exp_mms": ["spatial_levels=(32, 64, 128)", "temporal_dts=(0.0008, 0.0004, 0.0002)",
                "temporal_n_cells=512", "t_end=0.24", "material=None"],
}


def test_experiment_signatures_golden():
    """Each study takes only what a caller sets: a new parameter, or a new
    default, must be added here."""
    surface = {
        name: [str(p.replace(annotation=p.empty))
               for p in inspect.signature(getattr(experiments, name)).parameters.values()]
        for name in dir(experiments) if name.startswith("exp_")
    }
    assert surface == EXPERIMENT_SIGNATURES
    assert sum(map(len, surface.values())) == 28


#: initial-data kind -> {key: whether it takes an int}
INITIAL_KEYS = {
    "equilibrium": {"theta_bar": False},
    "standing_wave": {"amplitude": False, "mode": True, "v_amplitude": False, "v_mode": True,
                      "theta_base": False, "theta_amplitude": False, "theta_mode": True},
    "random_smooth": {"seed": True, "u_amplitude": False, "v_amplitude": False,
                      "theta_floor": False, "theta_amplitude": False, "n_modes": True},
    "step_strain": {"jump": False, "height": False, "v_amplitude": False, "theta_bar": False},
    "sawtooth_strain": {"teeth": True, "amplitude": False, "theta_bar": False},
    "random_L2_theta": {"seed": True, "amplitude": False, "theta_base": False},
}


@st.composite
def _initial_data(draw):
    kind = draw(st.sampled_from(sorted(INITIAL_KEYS)))
    keys = draw(st.lists(st.sampled_from(sorted(INITIAL_KEYS[kind])), unique=True))
    floats = st.floats(allow_nan=False, allow_infinity=False)
    params = tuple(sorted(
        (k, draw(st.integers(0, 10**9) if INITIAL_KEYS[kind][k] else floats)) for k in keys
    ))
    return InitialDataSpec(kind=kind, params=params)


@settings(max_examples=200, deadline=None)
@given(initial=_initial_data())
def test_roundtrip_every_initial_data_kind_and_key(initial):
    cfg = RunConfig(initial_data=initial)
    assert parse_config(serialize_config(cfg)) == cfg


def test_serialized_bytes_pinned():
    cfg = RunConfig(
        grid=GridSpec(a=-0.5, b=1.5, n_cells=96),
        material=MaterialSpec(kind="user_tabulated", rho_floor=3e-7, table="tables/f.txt"),
        solver=SolverSpec(epsilon=0.013, dt=1e-3, t_end=0.123, scheme="imex2",
                          cfl_safety=0.4, positivity_tol=1e-11),
        initial_data=InitialDataSpec(kind="random_smooth", params=(
            ("n_modes", 6.0), ("seed", 7), ("theta_floor", 0.25), ("u_amplitude", 0.1))),
        output=OutputSpec(record_every=3, directory="res", formats=("csv", "json_lines")),
    )
    assert serialize_config(cfg) == (
        "[grid]\na = -0.5\nb = 1.5\nn_cells = 96\n\n"
        "[material]\nkind = user_tabulated\nrho_floor = 3e-07\ntable = tables/f.txt\n\n"
        "[solver]\nepsilon = 0.013\ndt = 0.001\nt_end = 0.123\nscheme = imex2\n"
        "cfl_safety = 0.4\npositivity_tol = 1e-11\n\n"
        "[initial_data]\nkind = random_smooth\nn_modes = 6.0\nseed = 7\n"
        "theta_floor = 0.25\nu_amplitude = 0.1\n\n"
        "[output]\nrecord_every = 3\ndirectory = res\nformats = csv,json_lines\n"
    )
    assert serialize_config(RunConfig()) == (
        "[grid]\na = 0.0\nb = 1.0\nn_cells = 128\n\n"
        "[material]\nkind = identity\nrho_floor = 1e-08\n\n"
        "[solver]\nepsilon = 0.0\ndt = auto\nt_end = 1.0\nscheme = imex1\n"
        "cfl_safety = 0.5\npositivity_tol = 1e-12\n\n"
        "[initial_data]\nkind = standing_wave\n\n"
        "[output]\nrecord_every = 1\ndirectory = out\nformats = csv\n"
    )


def _formats_md_section(title):
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, os.pardir, "FORMATS.md"), encoding="utf-8") as fh:
        text = fh.read()
    return text.split(f"## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_formats_md_config_example_parses():
    section = _formats_md_section("Run configuration (input)")
    example = section.split("```\n", 2)[1]
    cfg = parse_config(example)
    assert cfg.solver.dt is None and cfg.output.formats == ("csv",)
    assert cfg.initial_data.params == (
        ("amplitude", 0.3), ("theta_amplitude", 0.2), ("theta_base", 1.0))


def test_formats_md_initial_data_table_matches_the_registry():
    section = _formats_md_section("Run configuration (input)")
    rows = [line.split("|")[1:3] for line in section.splitlines() if line.startswith("| `")]
    table = {kind.strip().strip("`"): [k.strip().strip("`") for k in keys.split(",")]
             for kind, keys in rows}
    expected = {kind: list(inspect.signature(build).parameters)[1:]
                for kind, build in initial_data.KINDS.items()}
    assert table == expected
