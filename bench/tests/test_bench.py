"""Checks of the benchmark itself: tiny-size smoke runs of every workload,
exact counters that repeat, compare verdicts, and the refusal to run
without the package source.

Run from the repository root::

    python3 -m pytest -q bench/tests
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run as bench_run  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = sorted(workloads.WORKLOADS)

#: counters that must repeat exactly across two runs with the same seed
EXACT = ("grid.field_constructions", "grid.quad_weights_calls",
         "stepping.factorizations", "stepping.factor_cache_hits",
         "state.stored_states", "output.bytes_written")

#: workload-specific layer metrics the traced run must report
LAYER_ONLY_ON = {
    "verify-suite": [f"experiments.{e}_s" for e in workloads.EXPERIMENTS]
    + ["diagnostics.difference_norms_s", "diagnostics.energy_identity_s",
       "solver_eps.run_eps_s", "solver_limit.run_limit_s"],
    "run-large": ["output.export_s", "output.export_mb_per_s", "config.parse_ms",
                  "solver_eps.run_eps_s", "memory.tracemalloc_peak_mib"],
    "trajectory-analysis": ["diagnostics.weak_form_s", "diagnostics.mass_identity_s",
                            "diagnostics.energy_identity_s",
                            "diagnostics.difference_norms_s", "solver_limit.run_limit_s",
                            "memory.tracemalloc_peak_mib"],
}


def run_tiny(workload, trace, seed=3, root=ROOT):
    cmd = [sys.executable, os.path.join(root, "bench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace),
           "--size", "tiny"]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=root, timeout=600)


def last_json(proc):
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def result_file(workload, seed, trace):
    path = os.path.join(BENCH, "results", f"{workload}-seed{seed}-tiny-trace{trace}.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def traced_twice():
    out = {}
    for w in WORKLOADS:
        first = last_json(run_tiny(w, 1))
        layers = result_file(w, 3, 1)["layers"]
        out[w] = (first, layers, last_json(run_tiny(w, 1)))
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    res = last_json(run_tiny(workload, 0))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    specs = bench_run.load_benchmark()["end_to_end"]
    assert set(res["metrics"]) == {s["name"] for s in specs}
    for s in specs:
        m = res["metrics"][s["name"]]
        assert m["unit"] == s["unit"] == bench_run.unit_of(s["name"])
        assert math.isfinite(m["value"]) and m["value"] > 0
    env = result_file(workload, 3, 0)["environment"]
    for key in ("python", "numpy", "scipy", "nproc", "blas_threads", "seed",
                "git_commit", "src_sha256"):
        assert key in env


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_layer_metric(workload, traced_twice):
    res, layers, _ = traced_twice[workload]
    assert res["correct"] and res["failed"] == 0
    specs = bench_run.load_benchmark()["per_layer"]
    assert set(res["metrics"]) == {s["name"] for s in specs}
    for s in specs:
        assert res["metrics"][s["name"]]["unit"] == s["unit"] == bench_run.unit_of(s["name"])
        assert math.isfinite(res["metrics"][s["name"]]["value"])
    for name in LAYER_ONLY_ON[workload]:
        assert name in layers and layers[name] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counters_repeat_exactly(workload, traced_twice):
    first, _, second = traced_twice[workload]
    for name in EXACT:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_compare_verdicts():
    base = [10.0, 10.1, 9.9, 10.0, 10.05]
    assert bench_run.compare_metric(base, [v * 1.2 for v in base], "lower", 0.1) == "REGRESSED"
    assert bench_run.compare_metric(base, list(base), "lower", 0.1) == "same"
    assert bench_run.compare_metric(base, [v * 0.8 for v in base], "lower", 0.1) == "better"
    assert bench_run.compare_metric(base, [v * 0.8 for v in base], "higher", 0.1) == "REGRESSED"
    assert bench_run.compare_metric(base, [5.0, 9.0, 10.0, 12.0, 16.0], "lower", 0.1) == "unresolved"


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "work", "__pycache__"))
    proc = run_tiny("run-large", 0, root=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
