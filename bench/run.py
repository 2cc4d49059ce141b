#!/usr/bin/env python3
"""thermoelast1d benchmark.

Run one workload (run from the repository root)::

    python3 bench/run.py --workload run-large --seed 3 --seconds 30 --trace 0

prints a table of every metric with its unit and, as its last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  Each run also writes ``bench/results/<workload>-seed<n>-
trace<t>.json`` (environment, per-iteration values, every layer metric) and,
when traced, the spans as ``bench/results/spans-<workload>-seed<n>.csv``.
``--size tiny`` runs small inputs in about a second (smoke mode).

Other modes::

    python3 bench/run.py suite --seeds 1-10 --out bench/results/suite.json
    python3 bench/run.py compare BASE.json NEW.json
    python3 bench/run.py references --size full
"""

from __future__ import annotations

import os
import sys

# one BLAS thread: set before numpy is imported anywhere in this process
BLAS_PIN = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_PIN:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
import traceback  # noqa: E402

import calibration  # noqa: E402
import probes  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(BENCH_DIR, "results")
WORK = os.path.join(BENCH_DIR, "work")
REFERENCES = os.path.join(BENCH_DIR, "references.json")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

#: fresh interpreters timed for the import part of setup_s; each import is
#: scaled by the ``solves`` kernel, which tracks it more closely than
#: ``small_arrays`` on every workload
IMPORT_SAMPLES = 15
IMPORT_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
               "t = time.perf_counter(); import thermoelast1d.cli; "
               "t = time.perf_counter() - t; sys.path.insert(0, sys.argv[2]); "
               "import calibration; "
               "samples = [(time.perf_counter(), calibration.timed(calibration.solves)) "
               "for _ in range(10)]; "
               "print(t * calibration.scale(samples), t)")

#: calibration samples taken just before and just after each repetition
BOUNDARY_SAMPLES = 5

#: an untraced run repeats the workload body at least this often, so that
#: its metrics are medians of at least two repetitions
MIN_ROUNDS = 2

#: workloads whose traced run adds one repetition under tracemalloc (it
#: slows these workloads about 8x, so it never overlaps the spans)
MEMORY_WORKLOADS = ("run-large", "trajectory-analysis")

#: per-layer times that exist only on workloads where the layer runs:
#: (metric, span name, unit scale from ns)
LAYER_TIMES = (
    ("output.export_s", "output.export_trajectory", 1e9),
    ("diagnostics.weak_form_s", "diagnostics.weak_form_residual", 1e9),
    ("diagnostics.mass_identity_s", "diagnostics.mass_identity_residual", 1e9),
    ("diagnostics.energy_identity_s", "diagnostics.energy_identity_residual", 1e9),
    ("diagnostics.difference_norms_s", "diagnostics.difference_norms", 1e9),
    ("config.parse_ms", "config.parse_config", 1e6),
    ("solver_eps.run_eps_s", "solver_eps.run_eps", 1e9),
    ("solver_limit.run_limit_s", "solver_limit.run_limit", 1e9),
) + tuple((f"experiments.{e}_s", f"experiments.{e}", 1e9) for e in workloads.EXPERIMENTS)


#: per-step layers whose self time is also reported per grid size
PER_STEP_BY_N = ("stepping.advance_us", "diagnostics.compute_record_us",
                 "state.make_state_us")


def median(values):
    return statistics.median(values) if values else float("nan")


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def load_benchmark():
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def _source_digest():
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(args=None):
    import numpy
    import scipy
    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_PIN},
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
    }
    if args is not None:
        env.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                   trace=args.trace, size=args.size)
    return env


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------


def import_seconds():
    """Import time of the package in fresh interpreters: median plain and
    median scaled by a calibration sample taken in the same interpreter."""
    plain, scaled = [], []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run([sys.executable, "-c", IMPORT_CODE, SRC, BENCH_DIR],
                             capture_output=True, text=True, timeout=120, check=True)
        t_scaled, t = (float(v) for v in out.stdout.split())
        plain.append(t)
        scaled.append(t_scaled)
    return median(plain), median(scaled)


def import_package():
    if not os.path.isfile(os.path.join(SRC, "thermoelast1d", "__init__.py")):
        raise SystemExit(f"bench: no package source under {SRC}")
    sys.path.insert(0, SRC)
    import thermoelast1d
    if not os.path.abspath(thermoelast1d.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"bench: imported thermoelast1d from {thermoelast1d.__file__}, "
                         f"not from {SRC}")


class Runner:
    """Runs iterations of one workload and keeps their measurements."""

    def __init__(self, args):
        from thermoelast1d import stepping

        self.args = args
        self.stepping = stepping
        self.probe = probes.RunProbe()
        self.ops = workloads.Ops()
        cls = workloads.WORKLOADS[args.workload]
        seed = workloads.data_seed(args.seed) if cls.seeded else 0
        self.workload = cls(args.size, seed, WORK)
        refs = _load_references().get(args.size, {}).get(args.workload, {})
        key = str(seed) if cls.seeded else "any"
        if key not in refs:
            raise SystemExit(f"bench: no reference for {args.workload} "
                             f"size {args.size} data seed {key}")
        self.reference = refs[key]
        self.iterations = []
        self.tracers = []

    def iteration(self, mode):
        """One execution of the workload body: 'plain', 'traced' or 'memory'."""
        probe = self.probe
        self.workload.prepare()
        self.stepping._cached_factors.cache_clear()  # a fresh process factors anew
        probe.reset()
        probe.kernel = getattr(calibration, self.workload.kernel)
        patches = probes.Patches()
        tracer = None
        if mode == "traced":
            tracer = probes.Tracer()
            tracer.current_iteration = len(self.iterations)
            tracer.install(patches)
        probe.install(patches, tracer)
        gc.collect()
        for _ in range(BOUNDARY_SAMPLES):
            probe.calibrate()
        probe.excluded_ns = probe.offset_ns = 0
        if mode == "memory":
            tracemalloc.start()
        error = None
        sampling = probe.sampling() if mode == "plain" else contextlib.nullcontext()
        t0 = time.perf_counter_ns()
        try:
            with sampling:
                out = self.workload.body()
        except Exception:  # a failed operation is counted, not fatal
            out, error = None, traceback.format_exc()
        t1 = time.perf_counter_ns()
        peak = None
        if mode == "memory":
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        patches.undo()
        it = dict(mode=mode, wall_s=(t1 - t0 - probe.excluded_ns) / 1e9)
        for _ in range(BOUNDARY_SAMPLES):
            probe.calibrate()
        it["scale"] = calibration.scale(probe.kernel_samples)
        # the step metrics are scaled by the speed inside the solver runs: a
        # total time by its mean, a median step time by its median
        in_runs = len(probe.run_kernel_s) >= 2
        it["run_scale"] = (calibration.scale(list(enumerate(probe.run_kernel_s)))
                           if in_runs else it["scale"])
        it["step_scale"] = (calibration.REFERENCE_S / median(probe.run_kernel_s)
                            if in_runs else it["scale"])
        it["kernel_ms"] = 1e3 * median([k for _, k in probe.kernel_samples])
        it["kernel_samples"] = probe.kernel_samples
        it["run_kernel_s"] = probe.run_kernel_s
        if probe.first_stamp_ns is not None:
            it["pre_step_s"] = (probe.first_stamp_ns - t0) / 1e9
        runs = [r for r in probe.runs if "error" not in r]
        steps = probe.steps()
        run_ns = sum(r["run_ns"] for r in runs)
        it["node_steps"] = sum(r["n_nodes"] * r["n_steps"] for r in runs)
        it["node_steps_per_s"] = it["node_steps"] / (run_ns / 1e9) if run_ns else 0.0
        it["step_us_p50"] = probes.percentile_us(steps, 50)
        it["step_us_p99"] = probes.percentile_us(steps, 99)
        it["steps"] = int(steps.size)
        it["stored_states"] = sum(r["stored_states"] for r in runs)
        it["stored_mib"] = sum(r["stored_states"] * 3 * r["n_nodes"] * 8
                               for r in runs) / 2 ** 20
        if peak is not None:
            it["tracemalloc_peak_mib"] = peak / 2 ** 20

        ops = self.ops
        before = len(ops.failures)
        ops.check(f"{self.workload.name} body completed", error is None, error or "")
        counts = {}
        if out is not None:
            fp = self.workload.fingerprint(out)
            counts = self.workload.counts(out, fp)
            self.workload.check(fp, self.reference, ops)
        workloads.check_runs(self.workload, probe.runs, ops)
        it["failures"] = ops.failures[before:]
        it["runs"] = probe.runs  # with each run's energy drift, gated or not
        it["counts"] = counts
        if tracer is not None:
            it["layers"] = self.layer_metrics(tracer, it, counts)
            self.tracers.append(tracer)
        self.iterations.append(it)
        return it

    def layer_metrics(self, tracer, it, counts):
        run_n_cells = [r.get("n_nodes", -1) - 1 for r in self.probe.runs]
        lt = tracer.layer_times(run_n_cells)

        def per_call_us(span):
            s = lt.get(span)
            return s["self_ns"] / s["calls"] / 1e3 if s else 0.0

        def calls(span):
            return lt[span]["calls"] if span in lt else 0

        c = tracer.counts
        run_self = lt.get("stepping.run_simulation", {}).get("self_ns", 0)
        m = {
            "diagnostics.compute_record_us": per_call_us("diagnostics.compute_record"),
            "state.make_state_us": per_call_us("state.make_state"),
            "stepping.run_self_us_per_step": run_self / max(it["steps"], 1) / 1e3,
            "stepping.advance_us": per_call_us("stepping.advance"),
            "materials.eval_f_us": per_call_us("materials.eval_f"),
            "stepping.factor_ms": (tracer.factor_ns / c["stepping.factorizations"] / 1e6
                                   if c["stepping.factorizations"] else 0.0),
            "state.stored_mib": it["stored_mib"],
            "grid.field_constructions": c["grid.field_constructions"],
            "grid.quad_weights_calls": c["grid.quad_weights_calls"],
            "grid.nodes_calls": c["grid.nodes_calls"],
            "materials.eval_fp_calls": calls("materials.eval_fp"),
            "stepping.advance_calls": calls("stepping.advance"),
            "stepping.factorizations": c["stepping.factorizations"],
            "stepping.factor_cache_hits": c["stepping.factor_cache_hits"],
            "state.stored_states": it["stored_states"],
            "output.bytes_written": 0,
            "output.files_written": 0,
            "diagnostics.weak_form_state_visits": 0,
            "experiments.checks_total": 0,
            "experiments.checks_failed": 0,
        }
        m.update(counts)
        for metric, span, scale in LAYER_TIMES:
            if span in lt:
                m[metric] = lt[span]["total_ns"] / scale
        # the ROADMAP item 1 table: self time per step by grid size
        for metric in PER_STEP_BY_N:
            span = metric[:-3]
            for n in sorted(set(run_n_cells)):
                if (span, n) in lt and n > 0:
                    s = lt[(span, n)]
                    m[f"{metric}.n{n}"] = s["self_ns"] / s["calls"] / 1e3
        if "output.export_s" in m and m["output.export_s"] > 0:
            m["output.export_mb_per_s"] = m["output.bytes_written"] / 1e6 / m["output.export_s"]
        return m

    def execute(self, start):
        """Plain: repeat the body until ``--seconds`` after ``start`` (the start
        of the process's work), at least MIN_ROUNDS times, never starting a
        repetition the last one says would overrun.
        Traced: one plain and one traced repetition (their difference is the
        tracing overhead), then one under tracemalloc where it is measured."""
        if self.args.trace:
            self.iteration("plain")
            self.iteration("traced")
            if self.args.workload in MEMORY_WORKLOADS:
                self.iteration("memory")
        else:
            for rounds in itertools.count(1):
                t = time.perf_counter()
                self.iteration("plain")
                last = time.perf_counter() - t
                if (rounds >= MIN_ROUNDS
                        and time.perf_counter() - start + last > self.args.seconds):
                    break
        self.workload.cleanup()

    def metrics(self, import_s):
        """End-to-end metrics (medians over the plain repetitions, times
        scaled by the calibration kernel) and per-layer metrics."""
        plain = [it for it in self.iterations if it["mode"] == "plain"]
        traced = [it for it in self.iterations if it["mode"] == "traced"]
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        failed = len(self.ops.failures)
        attempted = max(self.ops.attempted, 1)

        def med(key, scaled):
            factor = {"wall_s": "scale", "pre_step_s": "scale",
                      "step_us_p50": "step_scale"}.get(key, "run_scale")
            power = -1 if key == "node_steps_per_s" else 1  # a rate scales inversely
            return median([it.get(key, 0.0) * (it[factor] ** power if scaled else 1)
                           for it in plain])

        e2e = {"peak_rss_mib": rss_mib, "failed_frac": failed / attempted}
        for scaled, suffix in ((True, ""), (False, "_plain")):
            v = {key: med(key, scaled) for key in
                 ("wall_s", "pre_step_s", "node_steps_per_s", "step_us_p50")}
            v["setup_s"] = import_s[1 if scaled else 0] + v.pop("pre_step_s")
            e2e.update({key + suffix: value for key, value in v.items()})
        e2e["kernel_ms"] = median([it["kernel_ms"] for it in plain])
        layers = {}
        if traced:
            names = sorted({k for it in traced for k in it["layers"]})
            layers = {k: median([it["layers"][k] for it in traced if k in it["layers"]])
                      for k in names}
            layers["run_loop.step_us_p99"] = median([it["step_us_p99"] for it in plain])
            # scaled like wall_s, so that a change of machine speed between the
            # plain and the traced repetition does not count as overhead
            layers["trace.wall_s"] = median([it["wall_s"] * it["scale"] for it in traced])
            layers["trace.overhead_s"] = layers["trace.wall_s"] - e2e["wall_s"]
            memory = [it["tracemalloc_peak_mib"] for it in self.iterations
                      if "tracemalloc_peak_mib" in it]
            if memory:
                layers["memory.tracemalloc_peak_mib"] = median(memory)
        return e2e, layers


def _load_references():
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)


def unit_of(name):
    """Unit of a metric, read from its name, which ends in it."""
    base = re.sub(r"(\.n\d+|_plain)$", "", name)
    for suffix, unit in (("_mb_per_s", "MB/s"), ("_per_s", "1/s"), ("_us_p50", "us"),
                         ("_us_p99", "us"), ("_us_per_step", "us"), ("_us", "us"),
                         ("_ms", "ms"), ("_mib", "MiB"), ("_frac", "ratio"), ("_s", "s")):
        if base.endswith(suffix):
            return unit
    return "count"


def run_workload(argv):
    p = argparse.ArgumentParser(prog="bench/run.py")
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    args = p.parse_args(argv)

    start = time.perf_counter()
    import_package()
    bench = load_benchmark()
    import_s = import_seconds()
    runner = Runner(args)
    runner.execute(start)
    e2e, layers = runner.metrics(import_s)

    os.makedirs(RESULTS, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}" + ("" if args.size == "full" else f"-{args.size}")
    result = dict(environment=environment(args), import_s=import_s[0],
                  import_scaled_s=import_s[1],
                  attempted=runner.ops.attempted, failed=len(runner.ops.failures),
                  failures=runner.ops.failures[:50], end_to_end=e2e, layers=layers,
                  iterations=runner.iterations)
    if runner.tracers:
        spans_path = os.path.join(RESULTS, f"spans-{tag}.csv")
        with open(spans_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("name,start_ns,end_ns,parent,iteration,run\n")
            for tracer in runner.tracers:
                tracer.write_spans(fh)
        result["spans"] = os.path.relpath(spans_path, ROOT)
    with open(os.path.join(RESULTS, f"{tag}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, default=float)

    print(f"{args.workload} seed {args.seed} ({args.size}): "
          f"{sum(it['mode'] == 'plain' for it in runner.iterations)} plain, "
          f"{sum(it['mode'] == 'traced' for it in runner.iterations)} traced iterations")
    for name, value in e2e.items():
        print(f"  {name:38s} {value:14.6g} {unit_of(name)}")
    for name, value in layers.items():
        print(f"  {name:38s} {value:14.6g} {unit_of(name)}")
    for failure in runner.ops.failures[:20]:
        print(f"  FAILED {failure.splitlines()[-1] if failure else failure}")

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    source = layers if args.trace else e2e
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in wanted}
    failed = len(runner.ops.failures)
    print(json.dumps({"correct": failed == 0, "attempted": runner.ops.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


# ---------------------------------------------------------------------------
# suite: repeated runs in fresh processes
# ---------------------------------------------------------------------------


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else float("nan")
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def suite(argv):
    bench = load_benchmark()
    p = argparse.ArgumentParser(prog="bench/run.py suite")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)

    names = [w["name"] for w in bench["workloads"]]
    runs = {name: [] for name in names}
    for seed in parse_seeds(args.seeds):
        for name in names:  # interleaved, so slow drift hits every workload
            cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", str(args.trace)]
            t = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                                  timeout=900)
            elapsed = time.perf_counter() - t
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                runs[name].append(dict(seed=seed, correct=False, exit=proc.returncode))
                continue
            res = json.loads(lines[-1])
            runs[name].append(dict(seed=seed, elapsed_s=elapsed, correct=res["correct"],
                                   attempted=res["attempted"], failed=res["failed"],
                                   metrics={k: v["value"] for k, v in res["metrics"].items()}))
            print(f"{name} seed {seed}: {elapsed:.1f} s, correct={res['correct']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
                  flush=True)
    out = dict(environment=environment(), benchmark=bench, trace=args.trace, runs=runs)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
    print_spreads(out)
    return 0 if all(r["correct"] for rs in runs.values() for r in rs) else 1


def print_spreads(result):
    bench = result["benchmark"]
    print(f"{'workload':22s} {'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>6s}")
    for name, rs in result["runs"].items():
        for spec in bench["per_layer"] if result["trace"] else bench["end_to_end"]:
            values = [r["metrics"][spec["name"]] for r in rs if "metrics" in r]
            if not values:
                continue
            q1, q2, q3 = quartiles(values)
            bound = spec.get("bound")
            s = spread(values)
            flag = ""
            if bound is not None:
                flag = "ok" if s < bound / 3 else ("wide" if s <= bound else "UNSTEADY")
            print(f"{name:22s} {spec['name']:34s} {q2:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{s:8.4f} {bound if bound is not None else '-':>6} {flag}")


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def compare_metric(base, new, better, bound):
    """Verdict for one metric from two sets of run values."""
    b, n = median(base), median(new)
    worse = (n - b) / abs(b) if better == "lower" else (b - n) / abs(b)
    if bound is None:
        return "-"
    if max(spread(base), spread(new)) > bound:
        wins = (max(new) < min(base)) if better == "lower" else (min(new) > max(base))
        return "better" if wins else "unresolved"
    if worse > bound:
        return "REGRESSED"
    if -worse > spread(base):
        return "better"
    return "same"


def compare(argv):
    p = argparse.ArgumentParser(prog="bench/run.py compare")
    p.add_argument("base")
    p.add_argument("new")
    args = p.parse_args(argv)
    with open(args.base, encoding="utf-8") as fh:
        base = json.load(fh)
    with open(args.new, encoding="utf-8") as fh:
        new = json.load(fh)
    bench = load_benchmark()  # bounds fixed by the benchmark, not by either file
    specs = bench["per_layer"] if base.get("trace") else bench["end_to_end"]
    regressed = False
    print(f"{'workload':22s} {'metric':34s} {'new / base median':>32s} "
          f"{'spread b/n':>15s} {'bound':>6s} verdict")
    for name in base["runs"]:
        if name not in new["runs"]:
            print(f"{name:22s} missing from {args.new}")
            continue
        for spec in specs:
            bv = [r["metrics"][spec["name"]] for r in base["runs"][name] if "metrics" in r]
            nv = [r["metrics"][spec["name"]] for r in new["runs"][name] if "metrics" in r]
            if not bv or not nv:
                continue
            bound = spec.get("bound")
            verdict = compare_metric(bv, nv, spec.get("better", "lower"), bound)
            regressed |= verdict == "REGRESSED"
            bm, nm = median(bv), median(nv)
            ratio = f"{nm / bm:.4f}" if bm else "n/a"
            print(f"{name:22s} {spec['name']:34s} {ratio + ' of ' + f'{bm:.6g} ' + spec['unit']:>32s} "
                  f"{spread(bv):7.4f}/{spread(nv):7.4f} "
                  f"{bound if bound is not None else '-':>6} {verdict}")
    return 1 if regressed else 0


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------


def references(argv):
    p = argparse.ArgumentParser(prog="bench/run.py references")
    p.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    args = p.parse_args(argv)
    import_package()
    refs = _load_references() if os.path.exists(REFERENCES) else {}
    for name, cls in workloads.WORKLOADS.items():
        seeds = range(workloads.DATA_SEEDS) if cls.seeded else [0]
        table = refs.setdefault(args.size, {}).setdefault(name, {})
        for seed in seeds:
            w = cls(args.size, seed, WORK)
            w.prepare()
            table[str(seed) if cls.seeded else "any"] = w.fingerprint(w.body())
            w.cleanup()
            print(f"reference {args.size} {name} seed {seed}", flush=True)
        with open(REFERENCES, "w", encoding="utf-8") as fh:
            json.dump(refs, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


def main(argv):
    modes = {"suite": suite, "compare": compare, "references": references}
    if argv and argv[0] in modes:
        return modes[argv[0]](argv[1:])
    return run_workload(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
