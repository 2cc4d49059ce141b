"""The thin State (a read-only view of one (3, N) block), the
DiagnosticsRecord (a read-only view of one row of 14 doubles) and the
array-backed Trajectory."""

import dataclasses
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import child_maxrss_kib, record_bits
from thermoelast1d import state, stepping
from thermoelast1d.diagnostics import compute_record
from thermoelast1d.errors import ContractError, StructuralError
from thermoelast1d.grid import BC_DIRICHLET, BC_HINGED, BC_NEUMANN, Field, Grid
from thermoelast1d.materials import identity_material
from thermoelast1d.output import DIAG_COLUMNS, export_trajectory, read_diagnostics_csv
from thermoelast1d.state import (RECORD_FIELDS, DiagnosticsRecord, SolverConfig, State,
                                 Trajectory, kept_count, kept_steps, make_state, record_on)

FIELDS = (("v", 0, BC_HINGED), ("u", 1, BC_DIRICHLET), ("theta", 2, BC_NEUMANN))


def _arrays(seed, n):
    return np.random.default_rng(seed).normal(size=(3, n))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(3, 200))
def test_fields_are_views_of_the_block(seed, n):
    v, u, th = _arrays(seed, n)
    built = State(0.5, Field.clamped(v, BC_HINGED), Field.clamped(u, BC_DIRICHLET),
                  Field(th, BC_NEUMANN))
    for s in (make_state(0.5, v, u, th), built):
        assert s.block.shape == (3, n) and not s.block.flags.writeable
        assert s.n_nodes == n
        for name, row, bc in FIELDS:
            field = getattr(s, name)
            assert field.bc_kind == bc
            assert field.values.base is s.block and np.shares_memory(field.values, s.block)
            assert field.values.tobytes() == s.block[row].tobytes()
    assert built.block.tobytes() == make_state(0.5, v, u, th).block.tobytes()
    copied = pickle.loads(pickle.dumps(built))
    assert (copied.t, copied.block.tobytes()) == (0.5, built.block.tobytes())
    assert not copied.block.flags.writeable


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(3, 200))
def test_make_state_copies_its_inputs(seed, n):
    arrays = _arrays(seed, n)
    s = make_state(0.25, *arrays)
    before = s.block.tobytes()
    assert s.block[:2, [0, -1]].tolist() == [[0.0, 0.0], [0.0, 0.0]]  # ends pinned
    assert not any(np.shares_memory(s.block, a) for a in arrays)
    arrays += 1.0
    assert s.block.tobytes() == before


def test_state_and_record_are_immutable():
    n = 9
    s = make_state(0.0, np.zeros(n), np.zeros(n), np.ones(n))
    for name, value in (("t", 1.0), ("block", np.zeros((3, n))), ("v", None), ("extra", 1)):
        with pytest.raises(AttributeError):
            setattr(s, name, value)
    with pytest.raises(AttributeError):
        del s.t
    with pytest.raises(ValueError, match="read-only"):
        s.block[2, 3] = 2.0
    with pytest.raises(ValueError, match="read-only"):
        s.theta.values[3] = 2.0

    rec = compute_record(s, identity_material(), Grid(0.0, 1.0, n - 1), 0.0)
    for name in ("t", "energy", "hfunc"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(rec, name, 1.0)
    assert not hasattr(rec, "__dict__")  # slotted: no attribute outside the fields


@pytest.mark.parametrize("theta", [1.0, 0.0], ids=["valid", "below-floor"])
def test_record_fields_follow_the_diagnostics_columns(theta, tmp_path):
    """The fields of a record, in RECORD_FIELDS order, are the diagnostics.csv
    row, column for column."""
    g = Grid(0.0, 1.0, 16)
    x = g.nodes
    s = make_state(0.1, np.sin(np.pi * x), 0.1 * np.sin(2 * np.pi * x),
                   theta + 0.5 * theta * np.cos(np.pi * x))
    rec = compute_record(s, identity_material(), g, 1e-2, compute_record(
        make_state(0.0, 0 * x, 0 * x, 1.0 + 0 * x), identity_material(), g, 1e-2))
    values = [getattr(rec, name) for name in RECORD_FIELDS]
    assert len(RECORD_FIELDS) == len(DIAG_COLUMNS)
    assert rec.hfunc_valid == (theta > 0.0)
    expected = [float("nan") if v is None else (1 if v is True else 0 if v is False else v)
                for v in values]
    traj = Trajectory(g, 1e-2, "imex1", records=[rec])
    export_trajectory(traj, tmp_path)
    diag = read_diagnostics_csv(tmp_path / "diagnostics.csv")
    assert list(diag) == list(DIAG_COLUMNS)
    assert np.array(expected).tobytes() == np.array([diag[c][0] for c in DIAG_COLUMNS]).tobytes()


@settings(max_examples=60, deadline=None)
@given(n_steps=st.integers(1, 40), record_every=st.integers(1, 50), chunk=st.integers(1, 45))
def test_kept_steps_picks_the_times_of_the_stored_states(n_steps, record_every, chunk):
    """Every record_every-th step and the last, whole or chunk by chunk, are
    the steps whose states a run stores, at any chunk size of the run loop."""
    rule = [k for k in range(n_steps + 1) if k % record_every == 0 or k == n_steps]
    assert kept_steps(0, n_steps + 1, n_steps, record_every) == rule
    assert [k for k in range(n_steps + 1) if kept_steps(k, 1, n_steps, record_every)] == rule
    by_chunk = [0] + [first + j for first in range(1, n_steps + 1, chunk)
                      for j in kept_steps(first, min(chunk, n_steps + 1 - first), n_steps,
                                          record_every)]
    assert by_chunk == rule
    g = Grid(0.0, 1.0, 8)
    cfg = SolverConfig(dt=1 / 64, t_end=n_steps / 64)
    x = g.nodes
    init = make_state(0.0, np.sin(np.pi * x), 0.1 * np.sin(np.pi * x),
                      1.0 + 0.2 * np.cos(np.pi * x))
    with mock.patch.object(state, "BLOCK_VALUES", chunk * g.n_nodes):
        traj = stepping.run_limit(init, identity_material(), cfg, g, record_every=record_every)
    assert [s.t for s in traj.states] == [k * cfg.dt for k in rule]


@given(n_steps=st.integers(1, 10 ** 4), record_every=st.integers(1, 2 * 10 ** 4))
def test_kept_count_counts_the_kept_steps(n_steps, record_every):
    """The store of a run and the states a snapshot writer forwards are
    sized by this count."""
    assert kept_count(n_steps, record_every) == len(kept_steps(0, n_steps + 1, n_steps,
                                                               record_every))


_VALUES = st.lists(st.floats(allow_nan=False), min_size=13, max_size=13)


def _fields(values, valid):
    """The 14 fields of a record from 13 floats: hfunc None where not valid."""
    return dict(zip(RECORD_FIELDS, (*values[:5], values[5] if valid else None, valid,
                                    *values[6:])))


@settings(max_examples=100, deadline=None)
@given(values=_VALUES, valid=st.booleans(), changed=st.sampled_from(RECORD_FIELDS))
def test_record_is_an_immutable_view_of_one_row(values, valid, changed):
    """The positional and keyword constructors, ``record_on`` of the row, the
    fields read back, ``==``, ``hash``, ``repr`` and pickling all agree bit
    for bit; a record with one field changed is unequal; hfunc is None
    exactly where the row is invalid; no field can be assigned or deleted."""
    fields = _fields(values, valid)
    rec = DiagnosticsRecord(*fields.values())
    bits = np.array([np.nan if x is None else x for x in fields.values()]).tobytes()
    assert record_bits(rec) == rec.row.tobytes() == bits
    assert rec.row.shape == (len(RECORD_FIELDS),) and not rec.row.flags.writeable
    for name, value in fields.items():
        assert type(getattr(rec, name)) is type(value)
    assert (rec.hfunc is None) == (not rec.hfunc_valid) == (not valid)
    copies = [DiagnosticsRecord(**fields), record_on(rec.row),
              DiagnosticsRecord(*(getattr(rec, name) for name in RECORD_FIELDS)),
              pickle.loads(pickle.dumps(rec))]
    for other in copies:
        assert other == rec and hash(other) == hash(rec) and record_bits(other) == bits
    assert repr(rec) == "DiagnosticsRecord(" + ", ".join(
        f"{name}={value!r}" for name, value in fields.items()) + ")"

    other = dict(fields)
    if changed in ("hfunc", "hfunc_valid"):
        other["hfunc"], other["hfunc_valid"] = (None, False) if valid else (1.0, True)
    else:
        other[changed] = 1.5 if fields[changed] != 1.5 else 2.5
    assert DiagnosticsRecord(**other) != rec
    with pytest.raises(ContractError, match="hfunc"):
        DiagnosticsRecord(**{**fields, "hfunc_valid": not valid})

    for name in (*RECORD_FIELDS, "row", "extra"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(rec, name, 1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(rec, name)
    assert not dataclasses.is_dataclass(rec) and not hasattr(rec, "__dict__")


@settings(max_examples=40, deadline=None)
@given(records=st.lists(st.tuples(_VALUES, st.booleans()), max_size=12))
def test_record_series_is_the_column_of_the_records(records):
    """A hand-built trajectory copies its records into its rows: each
    ``record_series`` is the per-record reads bit for bit (hfunc nan where
    undefined, hfunc_valid 1.0 or 0.0), and the records read back equal."""
    recs = [DiagnosticsRecord(*_fields(values, valid).values()) for values, valid in records]
    traj = Trajectory(Grid(0.0, 1.0, 4), 0.0, "limit", records=recs)
    assert traj.rows.shape == (len(recs), len(RECORD_FIELDS)) and not traj.rows.flags.writeable
    assert list(traj.records) == recs and len(traj.records) == len(recs)
    for name in RECORD_FIELDS:
        reads = [getattr(r, name) for r in recs]
        column = np.array([np.nan if x is None else x for x in reads], dtype=float)
        assert traj.record_series(name).tobytes() == column.tobytes()
    with pytest.raises(TypeError):
        traj.records[0] = recs[0] if recs else None


#: a limit run on 9 nodes that keeps only its end states
_ROWS_RUN = """
from thermoelast1d.grid import Grid
from thermoelast1d.initial_data import standing_wave
from thermoelast1d.materials import identity_material
from thermoelast1d.state import SolverConfig
from thermoelast1d.stepping import run_limit
g = Grid(0.0, 1.0, 8)
cfg = SolverConfig(dt=g.h / 4, t_end={n_steps} * g.h / 4)
traj = run_limit(standing_wave(g, amplitude=0.3, theta_amplitude=0.2), identity_material(), cfg,
                 g, record_every={n_steps})
assert len(traj.records) == {n_steps} + 1 and len(traj.states) == 2
"""


def test_a_runs_rows_cost_at_most_14_doubles_per_step():
    """A run that keeps only its end states grows with its steps by its
    rows alone: at most 14 doubles per step, plus slack.  (Records built as
    objects of Python floats took about 0.5 KB per step.)"""
    peak = {n: 1024 * child_maxrss_kib(_ROWS_RUN.format(n_steps=n)) for n in (5000, 20000)}
    rows_growth = (20000 - 5000) * len(RECORD_FIELDS) * 8
    assert peak[20000] - peak[5000] <= rows_growth + (2 << 20), (peak, rows_growth)


def test_a_hand_built_trajectory_copies_its_states_onto_its_grid():
    """The list constructor copies the states into a read-only store that
    reads them back bit for bit; states on another grid are refused."""
    g = Grid(0.0, 1.0, 6)
    states = [make_state(0.1 * k, *_arrays(k, g.n_nodes)) for k in range(3)]
    traj = Trajectory(g, 0.0, "limit", states)
    assert traj.store.shape == (3, 3, g.n_nodes) and not traj.store.flags.writeable
    assert traj.times.tolist() == [s.t for s in states] and len(traj.records) == 0
    for got, s in zip(traj.states, states):
        assert (got.t, got.block.tobytes()) == (s.t, s.block.tobytes())
    assert np.shares_memory(traj.states[1].block, traj.store)
    with pytest.raises(StructuralError, match="grid"):
        Trajectory(Grid(0.0, 1.0, 12), 0.0, "limit", states)
