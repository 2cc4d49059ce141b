"""The benchmark's measurement hooks (bench/probes.py) patch attributes of the
package by name; a refactor that drops one breaks ``bench/run.py --trace 1``.
This loads the probes module as it is and checks every attribute it patches."""

import importlib.util
import os

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


@pytest.fixture
def probes(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)  # probes imports its sibling calibration
    spec = importlib.util.spec_from_file_location("bench_probes", os.path.join(BENCH, "probes.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patched_attribute_exists(probes):
    m = probes._modules()
    missing = []
    for _, layer, fname, callers in probes.SPAN_FUNCTIONS:
        missing += [f"{mod}.{fname}" for mod in (layer, *callers) if fname not in vars(m[mod])]
    for (layer, fname), callers in probes.RUN_ENTRY_POINTS.items():
        missing += [f"{mod}.{fname}" for mod in (layer, *callers) if fname not in vars(m[mod])]
    stepping, grid = m["stepping"], m["grid"]
    missing += [f"stepping.{cls}.advance" for cls in probes.STEPPER_CLASSES
                if "advance" not in vars(getattr(stepping, cls, object))]
    for owner, name in ((stepping, "_cached_factors"), (grid.Field, "__post_init__"),
                        (grid.Grid, "nodes"), (grid.Grid, "quad_weights")):
        if name not in vars(owner):
            missing.append(f"{owner.__name__}.{name}")
    assert not missing
    assert hasattr(stepping._cached_factors, "cache_info")
    assert isinstance(vars(grid.Grid)["nodes"], property)


def test_tracer_and_run_probe_install_and_undo(probes):
    m = probes._modules()
    before = {name: dict(vars(mod)) for name, mod in m.items()}
    patches = probes.Patches()
    try:
        tracer = probes.Tracer()
        tracer.install(patches)
        probes.RunProbe().install(patches, tracer)
        assert m["stepping"].compute_record is not before["stepping"]["compute_record"]
    finally:
        patches.undo()
    for name, mod in m.items():
        assert {k: v for k, v in vars(mod).items() if k in before[name]} == before[name]
