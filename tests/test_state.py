"""The thin State (a read-only view of one (3, N) block) and the slotted
DiagnosticsRecord."""

import dataclasses
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermoelast1d import state, stepping
from thermoelast1d.diagnostics import compute_record
from thermoelast1d.grid import BC_DIRICHLET, BC_HINGED, BC_NEUMANN, Field, Grid
from thermoelast1d.materials import identity_material
from thermoelast1d.output import DIAG_COLUMNS, export_trajectory, read_diagnostics_csv
from thermoelast1d.state import (DiagnosticsRecord, SolverConfig, State, Trajectory,
                                 kept_count, kept_steps, make_state)

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
    """astuple(record) is the diagnostics.csv row, column for column."""
    g = Grid(0.0, 1.0, 16)
    x = g.nodes
    s = make_state(0.1, np.sin(np.pi * x), 0.1 * np.sin(2 * np.pi * x),
                   theta + 0.5 * theta * np.cos(np.pi * x))
    rec = compute_record(s, identity_material(), g, 1e-2, compute_record(
        make_state(0.0, 0 * x, 0 * x, 1.0 + 0 * x), identity_material(), g, 1e-2))
    values = dataclasses.astuple(rec)
    assert len(dataclasses.fields(DiagnosticsRecord)) == len(DIAG_COLUMNS)
    assert rec.hfunc_valid == (theta > 0.0)
    expected = [float("nan") if v is None else (1 if v is True else 0 if v is False else v)
                for v in values]
    traj = Trajectory(g, 1e-2, "imex1")
    traj.records.append(rec)
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
