"""The benchmark in perfbench/ traces the package from outside by
replacing named entry points (perfbench/tracer.py `PATCHES`) and
captures ledgers by swapping `harness.Ledger`.  These tests keep those
names alive: a refactor that deletes or bypasses one fails here, not
only in a benchmark run."""

import importlib.util
from pathlib import Path

import pytest

from ric_cms import harness
from ric_cms.harness import ExperimentConfig, run_experiment
from ric_cms.ran_sim import SimConfig

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def tiny_experiment() -> ExperimentConfig:
    return ExperimentConfig(sim=SimConfig(duration_s=6.0), reps=1)


def test_every_patch_point_resolves(tracer):
    for owner, attr, name, *_ in tracer.PATCHES:
        assert callable(getattr(owner, attr, None)), f"{name}: {owner.__name__}.{attr} is gone"


def test_traced_experiment_reaches_every_layer(tracer):
    t = tracer.Tracer()
    t.install()
    try:
        run_experiment(tiny_experiment())
    finally:
        t.uninstall()
    spans = tracer.summarize(t)
    expected = {
        "harness.run_replica",
        "harness.calibrate",
        "ran_sim.tick",
        "detection.record_change",
        *(f"mitigation.mitigate.{s.value}" for s in harness.ALL_STRATEGIES),
    }
    assert expected <= set(spans)
    assert spans["harness.run_replica"]["calls"] == len(harness.ALL_STRATEGIES)


def test_replicas_build_their_ledger_through_the_harness_name(monkeypatch):
    built = []
    make_ledger = harness.Ledger

    def keep(*args, **kwargs):
        built.append(make_ledger(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(harness, "Ledger", keep)
    run_experiment(tiny_experiment())
    assert len(built) == len(harness.ALL_STRATEGIES)
    assert all(ledger.changes for ledger in built)
