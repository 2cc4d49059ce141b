"""Measurement hooks installed from outside the package.

Two kinds of hook are patched onto the modules of ``thermoelast1d``; no file
under ``src/`` changes.  Every wrapper is installed where its caller looks the
name up (``stepping.compute_record``, ``cli.run_eps``, ...), because the
package imports most names with ``from .x import y``.

* :class:`RunProbe` is installed in every mode.  It wraps the solver entry
  points ``run_eps``/``run_limit`` and passes the public ``recorder=`` hook
  one ``perf_counter_ns`` per step.  It gives the step intervals, the time
  inside the solvers, node-steps, the set-up time before step 1 and per-run
  invariants.  In untraced repetitions a SIGALRM timer also runs the
  calibration kernel (see calibration.py) every CALIBRATION_INTERVAL_S, so
  that the speed of the machine is sampled through every phase of the
  body: stepping, export and trajectory diagnostics.  Its own bookkeeping
  and kernel time is counted, and taken out of the step intervals, so the
  caller can take it out of the workload's wall time.
* :class:`Tracer` is installed only in traced iterations, before the probe,
  so its spans wrap the package's own functions and the probe wraps the
  spans.  It records a span (name, start, end, parent, iteration, run)
  around each layer's public functions and exact counts at the same
  boundaries.
"""

from __future__ import annotations

import contextlib
import math
import signal
from array import array
from collections import Counter
from time import perf_counter_ns

import numpy as np

import calibration

#: wall time between two calibration samples taken by the timer
CALIBRATION_INTERVAL_S = 0.2


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, owner, name, value):
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def undo(self):
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)


def _modules():
    from thermoelast1d import (cli, config, diagnostics, experiments, grid,
                               initial_data, materials, output, solver_eps,
                               solver_limit, state, stepping)
    return dict(cli=cli, config=config, diagnostics=diagnostics,
                experiments=experiments, grid=grid, initial_data=initial_data,
                materials=materials, output=output, solver_eps=solver_eps,
                solver_limit=solver_limit, state=state, stepping=stepping)


#: (layer, function): every module attribute through which it is called
RUN_ENTRY_POINTS = {
    ("solver_eps", "run_eps"): ("solver_eps", "cli", "experiments"),
    ("solver_limit", "run_limit"): ("solver_limit", "cli", "experiments"),
}


class RunProbe:
    """Per-run timing through the public ``recorder=`` hook."""

    def __init__(self):
        m = _modules()
        # originals, captured before any wrapper exists
        self._energy_residual = m["diagnostics"].energy_identity_residual
        self.reset()

    def reset(self):
        self.runs = []          # one dict per solver run
        self.step_ns = []       # per-step intervals, all runs of the iteration
        self.first_stamp_ns = None
        self.excluded_ns = 0    # probe bookkeeping inside the workload body
        self.offset_ns = 0      # kernel time inside the body, kept off the stamps
        self.kernel_samples = []  # (start ns, kernel seconds)
        self.run_kernel_s = []    # the samples taken inside a solver run
        self.in_run = False
        self.kernel = calibration.small_arrays

    def calibrate(self, *_signal):
        t = perf_counter_ns()
        self.kernel()
        d = perf_counter_ns() - t
        self.kernel_samples.append((t, d / 1e9))
        if self.in_run:
            self.run_kernel_s.append(d / 1e9)
        self.offset_ns += d
        self.excluded_ns += d

    @contextlib.contextmanager
    def sampling(self):
        """Calibration samples from a timer while the block runs.  Not used
        in traced repetitions: spans would count the kernel as the time of
        whatever function the signal interrupted."""
        previous = signal.signal(signal.SIGALRM, self.calibrate)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_INTERVAL_S, CALIBRATION_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def install(self, patches: Patches, tracer=None):
        m = _modules()
        for (layer, fname), callers in RUN_ENTRY_POINTS.items():
            wrapped = self._wrap(getattr(m[layer], fname), f"{layer}.{fname}", tracer)
            for caller in callers:
                patches.set(m[caller], fname, wrapped)

    def _wrap(self, fn, name, tracer):
        probe = self

        def run(init, material, cfg, grid, *args, **kwargs):
            user_recorder = kwargs.pop("recorder", None)
            stamps = array("q")

            def recorder(state, record):
                stamps.append(perf_counter_ns() - probe.offset_ns)
                if user_recorder is not None:
                    user_recorder(state, record)

            if tracer is not None:
                tracer.run_started()
            offset0 = probe.offset_ns
            probe.in_run = True
            t0 = perf_counter_ns()
            try:
                traj = fn(init, material, cfg, grid, *args,
                          recorder=recorder, **kwargs)
            except Exception as exc:
                probe.runs.append(dict(layer=name, error=f"{type(exc).__name__}: {exc}"))
                raise
            finally:
                probe.in_run = False
                if tracer is not None:
                    tracer.run_finished()
            t1 = perf_counter_ns()
            offset1 = probe.offset_ns
            probe._account(name, traj, cfg, grid, stamps, t1 - t0 - (offset1 - offset0))
            # kernel samples taken meanwhile are already in excluded_ns
            probe.excluded_ns += perf_counter_ns() - t1 - (probe.offset_ns - offset1)
            return traj

        run.__wrapped__ = fn
        return run

    def _account(self, name, traj, cfg, grid, stamps, run_ns):
        if self.first_stamp_ns is None and len(stamps):
            self.first_stamp_ns = stamps[0]
        ts = np.frombuffer(stamps, dtype=np.int64)
        self.step_ns.append(np.diff(ts))
        theta_min = float(np.min(traj.record_series("theta_min")))
        e0 = traj.records[0].energy
        energy_rel = float(np.max(np.abs(self._energy_residual(traj)))) / abs(e0)
        self.runs.append(dict(
            layer=name,
            n_nodes=grid.n_nodes,
            n_steps=len(traj.records) - 1,
            run_ns=run_ns,
            stored_states=len(traj.states),
            theta_min=theta_min,
            positivity_tol=cfg.positivity_tol,
            epsilon=cfg.epsilon,
            energy_rel=energy_rel,
        ))

    def steps(self) -> np.ndarray:
        if not self.step_ns:
            return np.zeros(0, dtype=np.int64)
        return np.concatenate(self.step_ns)


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------

#: (span name, module attribute holding the function, callers to patch)
SPAN_FUNCTIONS = (
    ("cli.main", "cli", "main", ("cli",)),
    ("config.parse_config", "config", "parse_config", ("config", "cli")),
    ("output.export_trajectory", "output", "export_trajectory", ("output", "cli")),
    ("solver_eps.run_eps", "solver_eps", "run_eps", ("solver_eps", "cli", "experiments")),
    ("solver_limit.run_limit", "solver_limit", "run_limit",
     ("solver_limit", "cli", "experiments")),
    ("stepping.run_simulation", "stepping", "run_simulation",
     ("stepping", "solver_eps", "solver_limit")),
    ("diagnostics.compute_record", "diagnostics", "compute_record",
     ("diagnostics", "stepping")),
    ("diagnostics.weak_form_residual", "diagnostics", "weak_form_residual",
     ("diagnostics",)),
    ("diagnostics.mass_identity_residual", "diagnostics", "mass_identity_residual",
     ("diagnostics",)),
    ("diagnostics.energy_identity_residual", "diagnostics", "energy_identity_residual",
     ("diagnostics", "experiments")),
    ("diagnostics.difference_norms", "diagnostics", "difference_norms",
     ("diagnostics", "experiments")),
    ("state.make_state", "state", "make_state",
     ("state", "stepping", "solver_eps", "solver_limit", "experiments", "initial_data")),
    ("materials.eval_f", "materials", "eval_f",
     ("materials", "stepping", "diagnostics", "experiments")),
    ("materials.eval_fp", "materials", "eval_fp",
     ("materials", "diagnostics", "experiments")),
) + tuple(
    (f"experiments.{exp}", "experiments", f"exp_{exp}", ("experiments",))
    for exp in ("energy_audit", "stability", "eps_cauchy", "time_shift",
                "rough_data", "mms")
)

STEPPER_CLASSES = ("ImexStepper", "Imex2Stepper", "LimitStepper")


class Tracer:
    """In-memory spans and exact counts for one traced iteration."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        # one column per span field; ``end`` is filled when the span closes
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.iteration = array("q")
        self.run = array("q")
        self._stack = []
        self.current_iteration = 0
        self.current_run = 0    # 1-based solver run of the iteration, 0 outside runs
        self._runs_started = 0
        self.counts = Counter()
        self.factor_ns = 0

    def _id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, name, fn):
        tracer = self
        nid = self._id(name)

        def traced(*args, **kwargs):
            idx = len(tracer.name)
            stack = tracer._stack
            tracer.name.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.iteration.append(tracer.current_iteration)
            tracer.run.append(tracer.current_run)
            tracer.end.append(0)
            stack.append(idx)
            tracer.start.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end[idx] = perf_counter_ns()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def counted(self, key, fn):
        counts = self.counts

        def counted_call(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        counted_call.__wrapped__ = fn
        return counted_call

    def run_started(self):
        self._runs_started += 1
        self.current_run = self._runs_started

    def run_finished(self):
        self.current_run = 0

    # -- installation --------------------------------------------------------
    def install(self, patches: Patches):
        m = _modules()
        for span_name, layer, fname, callers in SPAN_FUNCTIONS:
            wrapped = self.span(span_name, m[layer].__dict__[fname])
            for caller in callers:
                patches.set(m[caller], fname, wrapped)

        stepping = m["stepping"]
        for cls_name in STEPPER_CLASSES:
            cls = getattr(stepping, cls_name)
            patches.set(cls, "advance",
                        self.span("stepping.advance", cls.__dict__["advance"]))
        patches.set(stepping, "_cached_factors",
                    self._factor_wrapper(stepping._cached_factors))

        grid = m["grid"]
        Field, Grid = grid.Field, grid.Grid
        patches.set(Field, "__post_init__",
                    self.counted("grid.field_constructions", Field.__post_init__))
        patches.set(Grid, "quad_weights",
                    self.counted("grid.quad_weights_calls", Grid.quad_weights))
        patches.set(Grid, "nodes",
                    property(self.counted("grid.nodes_calls", Grid.nodes.fget)))

    def _factor_wrapper(self, cached):
        """Times LU factorizations; keeps the lru_cache's own interface."""
        tracer = self
        traced = self.span("stepping._cached_factors", cached)

        def factors(*args, **kwargs):
            misses = cached.cache_info().misses
            t0 = perf_counter_ns()
            out = traced(*args, **kwargs)
            if cached.cache_info().misses > misses:
                tracer.factor_ns += perf_counter_ns() - t0
                tracer.counts["stepping.factorizations"] += 1
            else:
                tracer.counts["stepping.factor_cache_hits"] += 1
            return out

        factors.cache_info = cached.cache_info
        factors.cache_clear = cached.cache_clear
        factors.__wrapped__ = cached
        return factors

    # -- aggregation ---------------------------------------------------------
    def _durations(self):
        n = len(self.name)
        dur = (np.frombuffer(self.end, dtype=np.int64)
               - np.frombuffer(self.start, dtype=np.int64))
        parent = np.frombuffer(self.parent, dtype=np.int64)
        child = np.zeros(n, dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return np.frombuffer(self.name, dtype=np.int64), dur, dur - child

    def layer_times(self, run_n_cells=None):
        """Per span name: calls, inclusive ns and self ns (span minus the
        part of it its child spans cover).  With ``run_n_cells`` (the grid
        size of each solver run, in run order) also per ``(name, n_cells)``."""
        if len(self.name) == 0:
            return {}
        names, dur, self_ns = self._durations()
        groups = [(name, names == nid) for nid, name in enumerate(self.names)]
        if run_n_cells:
            run = np.frombuffer(self.run, dtype=np.int64)
            sizes = np.array([-1] + list(run_n_cells))[np.minimum(run, len(run_n_cells))]
            for name, sel in list(groups):
                for n in sorted(set(run_n_cells)):
                    groups.append(((name, n), sel & (sizes == n)))
        out = {}
        for key, sel in groups:
            if np.any(sel):
                out[key] = dict(calls=int(np.count_nonzero(sel)),
                                total_ns=int(dur[sel].sum()),
                                self_ns=int(self_ns[sel].sum()))
        return out

    def write_spans(self, fh):
        """CSV rows name,start_ns,end_ns,parent,iteration,run; ``parent`` is
        the row index of the parent span within this tracer, -1 at the top."""
        for i in range(len(self.name)):
            fh.write(f"{self.names[self.name[i]]},{self.start[i]},{self.end[i]},"
                     f"{self.parent[i]},{self.iteration[i]},{self.run[i]}\n")


def percentile_us(step_ns: np.ndarray, q: float) -> float:
    if step_ns.size == 0:
        return math.nan
    return float(np.percentile(step_ns, q)) / 1e3
