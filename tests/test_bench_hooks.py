"""The benchmark in perfbench/ traces the package from outside by
replacing named entry points (perfbench/tracer.py `PATCHES`) and
captures ledgers by swapping `harness.Ledger`.  These tests keep those
names alive: a refactor that deletes or bypasses one fails here, not
only in a benchmark run."""

import importlib.util
from pathlib import Path

import pytest

from ric_cms import harness, ran_sim
from ric_cms.conflict_model import KpiDirection, five_xapp_topology
from ric_cms.detection import ChangeRecord, DegradationEvent, Ledger, VerdictKind
from ric_cms.harness import ExperimentConfig, run_experiment
from ric_cms.mitigation import KpiResponseModel, ResponseModelSet
from ric_cms.ran_sim import SimConfig, Simulator, Trajectory, geometry_rows

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def tiny_experiment() -> ExperimentConfig:
    return ExperimentConfig(sim=SimConfig(duration_s=6.0), reps=1)


def traced(tracer, fn):
    """fn()'s result and the spans the call recorded, summarized by name."""
    t = tracer.Tracer()
    t.install()
    try:
        result = fn()
    finally:
        t.uninstall()
    return result, tracer.summarize(t)


def test_benchmark_sizes_keep_their_geometry_shape():
    # perfbench's TickClock times a tick only when the same simulator made the tick before it;
    # one-tick lockstep windows would leave dense with no latency samples, and np.percentile([])
    # raises IndexError, failing the run
    assert geometry_rows(SimConfig(n_ues=2000, duration_s=40.0)) >= 2
    # desk and the paper preset are held in one block, so each run is solved on its first tick
    # and its other ticks are served from that solve
    for cfg in (SimConfig(), SimConfig(duration_s=600.0)):
        assert geometry_rows(cfg) == cfg.n_ticks


def test_geometry_moves_are_made_one_row_per_tick_of_a_window(monkeypatch):
    # dense's op_p99_us rests on this: a prototype that filled each 4-tick window on its first
    # tick took perfbench dense op_p99_us from 0.85-0.95 ms to 2.20-2.35 ms (2-core Xeon VM)
    moved = []  # the rows of each move
    move = Trajectory._move
    monkeypatch.setattr(Trajectory, "_move", lambda traj, p, v, pos: moved.append(len(pos)) or move(traj, p, v, pos))
    cfg = SimConfig(n_ues=5, duration_s=1.0)

    def tick(sim):  # sim once for each row its tick moved
        moved.clear()
        sim.tick()
        return [sim] * sum(moved)

    # a whole-run block: every row moved on the first sharer's first tick
    a = Simulator(Trajectory(cfg, 3))
    assert tick(a) == [a] * cfg.n_ticks
    b = Simulator(a.trajectory)
    assert [tick(a) for _ in range(cfg.n_ticks - 1)] + [tick(b) for _ in range(cfg.n_ticks)] == [[]] * (2 * cfg.n_ticks - 1)

    # two-tick windows, ticked in lockstep as the harness does: the first sharer moves once a tick
    monkeypatch.setattr(ran_sim, "GEOMETRY_BUDGET_BYTES", 0)
    monkeypatch.setattr(ran_sim, "GEOMETRY_WINDOW_BYTES", 2 * cfg.n_ues * len(cfg.resolved_gnbs()) * 8)
    assert geometry_rows(cfg) == 2
    a = Simulator(Trajectory(cfg, 3))
    assert [tick(a), tick(a)] == [[a], [a]]
    b = Simulator(a.trajectory)
    for _ in range(cfg.n_ticks // 2 - 1):
        assert [tick(b), tick(b), tick(a), tick(a)] == [[], [], [a], [a]]
    assert [tick(b), tick(b)] == [[], []]


def test_every_patch_point_resolves(tracer):
    for owner, attr, name, *_ in tracer.PATCHES:
        assert callable(getattr(owner, attr, None)), f"{name}: {owner.__name__}.{attr} is gone"


def test_traced_experiment_reaches_every_layer(tracer):
    _, spans = traced(tracer, lambda: run_experiment(tiny_experiment()))
    expected = {
        "harness.run_replica",
        "harness.calibrate",
        "ran_sim.tick",
        "detection.record_change",
        *(f"mitigation.mitigate.{s.value}" for s in harness.ALL_STRATEGIES),
    }
    assert expected <= set(spans)
    assert spans["harness.run_replica"]["calls"] == len(harness.ALL_STRATEGIES)


def test_traced_promotion_and_scan_record_one_span_each(tracer):
    # promotion no longer rebuilds through build_topology, and a fresh
    # model set scans inside its first optimize(); perfbench must still
    # see one span for each
    ledger = Ledger(five_xapp_topology())
    ledger.record_change(ChangeRecord(100.0, "x1", "p1", 5.0))
    ev = DegradationEvent(500.0, "k5", "x5", 0.2)
    ledger.record_degradation(ev)
    verdict, spans = traced(tracer, lambda: ledger.classify_and_learn(ev))
    assert verdict.kind is VerdictKind.IMPLICIT and "p1" in ledger.topology.param_groups["k5"]
    assert spans["conflict_model.promote_implicit"]["calls"] == 1
    assert spans["detection.classify_and_learn"]["calls"] == 1
    assert "conflict_model.build_topology" not in spans

    ee = KpiResponseModel("ee", KpiDirection.MAXIMIZE, 2.0, ((0.0, 1.0), (50.0, 3.0)))
    lf = KpiResponseModel("lf", KpiDirection.MINIMIZE, 10.0, ((0.0, 2.0), (50.0, 30.0)))
    model_set = ResponseModelSet("TXP", (0.0, 50.0), 1.0, (ee, lf))
    result, spans = traced(tracer, lambda: model_set.optimize())  # looked up once installed
    assert spans["mitigation.qacm_scan"]["calls"] == 1
    assert spans["mitigation.qacm_scan"]["note"] == 51  # grid points
    assert result == model_set.optimize()


def test_replicas_build_their_ledger_through_the_harness_name(monkeypatch):
    built = []
    make_ledger = harness.Ledger

    def keep(*args, **kwargs):
        built.append(make_ledger(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(harness, "Ledger", keep)
    run_experiment(tiny_experiment())
    assert len(built) == 4  # one per arrival rule: nc and sbd share nc's lane
    assert all(ledger.changes for ledger in built)
