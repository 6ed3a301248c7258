import csv
import dataclasses
from collections import Counter

import numpy as np
import pytest

from ric_cms import harness, mitigation, ran_sim
from ric_cms.conflict_model import KpiDirection
from ric_cms.detection import Ledger
from ric_cms.harness import (
    ALL_STRATEGIES,
    ExperimentConfig,
    PhaseStats,
    ReplicaResult,
    box_stats,
    compile_arm,
    derive_qacm_models,
    desk_preset,
    export_csv,
    export_summary_json,
    export_traces,
    paper_preset,
    run_experiment,
    run_replica,
)
from ric_cms.mitigation import KpiResponseModel, ResponseModelSet, Strategy
from ric_cms.ran_sim import SimConfig, Simulator, Trajectory
from ric_cms.xapps import EE_KPI, LF_KPI, TXP_BOUNDS_DBM


def small_exp(**kw):
    base = dict(sim=SimConfig(duration_s=20.0), reps=2, base_seed=5)
    base.update(kw)
    return ExperimentConfig(**base)


def test_presets():
    d = desk_preset()
    assert d.reps == 50 and d.sim.duration_s == 120.0
    p = paper_preset()
    assert p.reps == 500 and p.sim.duration_s == 600.0
    assert d.strategies == ALL_STRATEGIES


def test_interval_must_align_with_step():
    with pytest.raises(ValueError, match="interval"):
        ExperimentConfig(sim=SimConfig(step_ms=300.0))
    with pytest.raises(ValueError, match="interval"):
        ExperimentConfig(sim=SimConfig(step_ms=400.0))  # odd tick count


def test_duplicate_strategies_rejected():
    with pytest.raises(ValueError, match="repeat"):
        small_exp(strategies=(Strategy.NC, Strategy.SBD, Strategy.NC))


@pytest.mark.parametrize(
    "kw, detail",
    [
        ({"sim": {"n_ues": 5}}, "sim must be a SimConfig"),
        ({"sim": None}, "sim must be a SimConfig"),
        ({"strategies": ()}, "empty strategy list"),
        ({"strategies": ("nc",)}, "Strategy members"),
        ({"strategies": (Strategy.NC, "qacm")}, "Strategy members"),
        ({"strategies": "nc"}, "Strategy members"),
        ({"strategies": 5}, "Strategy members"),
        ({"strategies": None}, "Strategy members"),
    ],
    ids=["sim-dict", "sim-none", "strategies-empty", "strategy-name", "strategy-mixed", "strategies-string",
         "strategies-int", "strategies-none"],
)
def test_config_rejects_malformed_sim_and_strategies(kw, detail):
    with pytest.raises(ValueError, match=detail):
        small_exp(**kw)


def test_config_is_frozen():
    exp = small_exp()
    with pytest.raises(dataclasses.FrozenInstanceError):
        exp.reps = 0
    assert dataclasses.replace(exp, reps=3).reps == 3
    with pytest.raises(ValueError, match="reps"):
        dataclasses.replace(exp, reps=0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        exp.sim.step_ms = 300.0  # validated at 100 ms, it would run 7-tick intervals


@pytest.mark.parametrize(
    "field, bad", [("reps", 1.5), ("reps", True), ("base_seed", -1), ("base_seed", 1.5), ("base_seed", True)]
)
def test_reps_and_seed_must_be_integers_in_range(field, bad):
    with pytest.raises(ValueError, match=f"{field} must be"):
        small_exp(**{field: bad})


# -- per-strategy phase behaviour ------------------------------------------

def run_one(strategy, model_set=None, **kw):
    exp = small_exp(**kw)
    arm = compile_arm(strategy, exp, model_set)
    *_, (res, _) = run_replica(strategy, 0, arm, Trajectory(exp.sim, exp.base_seed))
    return res, arm.txp[max(arm.txp)]  # the result, and the TXP the run ends at


def test_nc_alternates_between_the_two_requests():
    res, txp = run_one(Strategy.NC)
    assert set(res.phases) == {3.0, 50.0}
    assert res.phases[3.0].time_ms == 10_000.0
    assert res.phases[50.0].time_ms == 10_000.0
    assert txp == 50.0  # interval ends on the mobility app's value


def test_sbd_lets_writes_land_then_resets():
    res, txp = run_one(Strategy.SBD)
    assert set(res.phases) == {3.0, 50.0, 30.0}
    # per 2 s interval: half at 3, one tick at 50, the rest at the default
    assert res.phases[3.0].time_ms == 10_000.0
    assert res.phases[50.0].time_ms == 1_000.0
    assert res.phases[30.0].time_ms == 9_000.0
    assert txp == 30.0


def test_p_es_holds_the_low_power_request():
    res, txp = run_one(Strategy.P_ES)
    assert set(res.phases) == {3.0}
    assert txp == 3.0


def test_p_mro_dips_only_before_its_first_request():
    res, txp = run_one(Strategy.P_MRO)
    assert set(res.phases) == {3.0, 50.0}
    assert res.phases[3.0].time_ms == 1_000.0  # solo arbitration until t=1s
    assert res.phases[50.0].time_ms == 19_000.0
    assert txp == 50.0


def test_qacm_applies_the_grid_optimum_throughout():
    ms = ResponseModelSet(
        "TXP",
        (0.0, 50.0),
        1.0,
        (KpiResponseModel(EE_KPI, KpiDirection.MAXIMIZE, 37.0, ((0.0, 0.0), (50.0, 50.0))),),
    )
    res, txp = run_one(Strategy.QACM, model_set=ms)
    assert set(res.phases) == {37.0}
    assert txp == 37.0


def test_nc_detects_direct_conflicts_only():
    res, _ = run_one(Strategy.NC)
    assert set(res.verdicts) <= {"direct"}
    assert res.verdicts.get("direct", 0) >= 1
    assert res.unattributed == 0


def test_p_es_checks_go_stale_after_the_single_change():
    # only one ledger entry ever lands, so later SLA hits cannot attribute
    res, _ = run_one(Strategy.P_ES)
    assert res.verdicts.get("direct", 0) <= 1
    assert res.unattributed >= 1


@pytest.mark.parametrize("strategy", [Strategy.NC, Strategy.SBD])
def test_write_through_records_every_request(monkeypatch, strategy):
    # the first request asks for the 3 dBm the network already runs at;
    # write-through still lands it, so every request is one ledger change
    ledgers = []
    make_ledger = harness.Ledger

    def keep(*args, **kwargs):
        ledgers.append(make_ledger(*args, **kwargs))
        return ledgers[-1]

    monkeypatch.setattr(harness, "Ledger", keep)
    exp = small_exp(sim=SimConfig(duration_s=20.0, txp_dbm=3.0))
    *_, _ = run_replica(strategy, 0, compile_arm(strategy, exp), Trajectory(exp.sim, exp.base_seed))
    (ledger,) = ledgers
    assert [c.xapp for c in ledger.changes] == ["es", "mro"] * 10
    assert [c.value for c in ledger.changes] == [3.0, 50.0] * 10
    assert [c.t_ms for c in ledger.changes] == [1000.0 * i for i in range(20)]


# -- compiled schedules -----------------------------------------------------

FIXED_QACM = ResponseModelSet(
    "TXP", (0.0, 50.0), 1.0, (KpiResponseModel(EE_KPI, KpiDirection.MAXIMIZE, 37.0, ((0.0, 0.0), (50.0, 50.0))),))


def replay(monkeypatch, strategy, cfg, model_set=None):
    """The compiled arm, the TXP each tick runs at, and the (t_ms, xapp, value) of each change
    landed in the arm's ledger, captured through `harness.Ledger`."""
    ledgers, make_ledger = [], harness.Ledger
    with monkeypatch.context() as m:
        m.setattr(harness, "Ledger", lambda *a, **kw: ledgers.append(make_ledger(*a, **kw)) or ledgers[-1])
        arm = compile_arm(strategy, ExperimentConfig(cfg), model_set)
    (ledger,) = ledgers
    txp, column = cfg.txp_dbm, []
    for tick in range(cfg.n_ticks):
        txp = arm.txp.get(tick, txp)
        column.append(txp)
    return arm, column, [(c.t_ms, c.xapp, c.value) for c in ledger.changes]


def requests(n):
    return [(1000.0 * i, "mro" if i % 2 else "es", 50.0 if i % 2 else 3.0) for i in range(n)]


@pytest.mark.parametrize("start", [30.0, 3.0])
@pytest.mark.parametrize("strategy", ALL_STRATEGIES, ids=[s.value for s in ALL_STRATEGIES])
def test_compiled_schedules(monkeypatch, strategy, start):
    cfg = SimConfig(duration_s=30.0, txp_dbm=start)
    arm, column, changes = replay(monkeypatch, strategy, cfg, FIXED_QACM)
    interval = [3.0] * 10 + [50.0] * 10  # 100 ms ticks, 2 s intervals
    if strategy is Strategy.NC:
        assert changes == requests(30)
        assert column == interval * 15
    elif strategy is Strategy.SBD:
        assert changes == requests(30)
        # the controller resets the tick after each mobility request, landing nothing
        landed = {round(t / cfg.step_ms) for t, _, _ in changes}
        assert [t for t in arm.txp if t not in landed] == [20 * i + 11 for i in range(15)]
        assert column == ([3.0] * 10 + [50.0] + [30.0] * 9) * 15
    elif strategy is Strategy.P_ES:
        assert changes == ([] if start == 3.0 else [(0.0, "es", 3.0)])
        assert column == [3.0] * 300
    elif strategy is Strategy.P_MRO:
        assert changes == ([] if start == 3.0 else [(0.0, "es", 3.0)]) + [(1000.0, "mro", 50.0)]
        assert column == [3.0] * 10 + [50.0] * 290
    else:
        assert changes == [(0.0, "es", FIXED_QACM.optimize().value)] == [(0.0, "es", 37.0)]
        assert column == [37.0] * 300


def test_sbd_request_wins_the_reset_tick_at_two_ticks_per_interval(monkeypatch):
    cfg = SimConfig(duration_s=30.0, step_ms=1000.0)
    _, *nc = replay(monkeypatch, Strategy.NC, cfg)
    _, *sbd = replay(monkeypatch, Strategy.SBD, cfg)
    assert sbd == nc
    assert sbd[1] == requests(30)
    assert sbd[0] == [3.0, 50.0] * 15


def test_qacm_arm_needs_a_model_set():
    with pytest.raises(ValueError, match="calibrated response models"):
        compile_arm(Strategy.QACM, ExperimentConfig(SimConfig()))


@pytest.mark.parametrize("step_ms", [300.0, 2000.0])
def test_compile_arm_takes_only_a_validated_experiment(step_ms):
    # a bare scenario skips the interval check: at 300 ms it would set TXP every 900 ms on a
    # 1,000 ms control clock, and at 2,000 ms no tick would fall between two requests
    sim = SimConfig(step_ms=step_ms, duration_s=6.0)
    with pytest.raises(TypeError, match="needs an ExperimentConfig, got SimConfig"):
        compile_arm(Strategy.NC, sim)
    with pytest.raises(ValueError, match="interval_ms"):
        ExperimentConfig(sim)


def test_arbitration_does_not_scale_with_replicas(monkeypatch):
    calls = Counter()
    arbitrate = harness.mitigate

    def counted(strategy, *args, **kwargs):
        calls[strategy] += 1
        return arbitrate(strategy, *args, **kwargs)

    monkeypatch.setattr(harness, "mitigate", counted)
    per_reps = []
    for reps in (1, 3):
        calls.clear()
        run_experiment(small_exp(reps=reps))
        per_reps.append(dict(calls))
    assert per_reps[0] == per_reps[1]
    # 20 requests per arm, 10 sbd resets, nc arbitrates its own arm and sbd's arrivals
    assert per_reps[0] == {Strategy.NC: 40, Strategy.SBD: 10, Strategy.P_ES: 20, Strategy.P_MRO: 20, Strategy.QACM: 20}

    exp = small_exp()
    schedules = {s: compile_arm(s, exp, FIXED_QACM) for s in ALL_STRATEGIES}
    calls.clear()
    for strategy, actions in schedules.items():
        *_, _ = run_replica(strategy, 0, actions, Trajectory(exp.sim, exp.base_seed))
    assert not calls


def test_attribution_does_not_scale_with_replicas(monkeypatch):
    calls = Counter()
    make_ledger, classify = harness.Ledger, Ledger.classify
    monkeypatch.setattr(harness, "Ledger", lambda *a, **kw: calls.update(["Ledger"]) or make_ledger(*a, **kw))
    monkeypatch.setattr(Ledger, "classify", lambda self, ev: calls.update(["classify"]) or classify(self, ev))
    per_reps = []
    for reps in (1, 3):
        calls.clear()
        run_experiment(small_exp(reps=reps))
        per_reps.append(dict(calls))
    assert per_reps[0] == per_reps[1]
    # one ledger per arm, which classifies each of the arm's 10 SLA checks once
    assert per_reps[0] == {"Ledger": 5, "classify": 50}

    exp = small_exp()
    arms = {s: compile_arm(s, exp, FIXED_QACM) for s in ALL_STRATEGIES}
    calls.clear()
    for strategy, arm in arms.items():
        *_, _ = run_replica(strategy, 0, arm, Trajectory(exp.sim, exp.base_seed))
    assert not calls


@pytest.mark.parametrize("step_ms", [100.0, 100 / 3, 1000 / 7], ids=["100", "100_3", "1000_7"])
def test_sla_checks_attribute_at_any_step(step_ms):
    # summed steps of 100/3 ms put the check just past the ledger's 1000 ms
    # window; the control plane's own clock keeps it on the window's edge
    exp = ExperimentConfig(SimConfig(n_ues=40, duration_s=20.0, step_ms=step_ms),
                           strategies=(Strategy.NC, Strategy.SBD), reps=2, base_seed=7)
    result = run_experiment(exp)
    for strategy in ("nc", "sbd"):
        rows = result.rows[strategy]
        assert sum(r.unattributed for r in rows) == 0
        assert sum(r.verdicts.get("direct", 0) for r in rows) >= 1


def test_a_replica_sums_its_ticks_in_order():
    # the replica's KPIs and phase sums are a plain += over each tick's numbers, in tick order,
    # of a simulator set by the same compiled schedule; at 100/3 ms no sum is exact by luck
    exp = ExperimentConfig(SimConfig(n_ues=40, duration_s=20.0, step_ms=100 / 3), strategies=(Strategy.SBD,),
                           reps=1, base_seed=7)
    arm = compile_arm(Strategy.SBD, exp)
    *_, (res, _) = run_replica(Strategy.SBD, 0, arm, Trajectory(exp.sim, 7))
    sim, totals, phases = Simulator(Trajectory(exp.sim, 7), arm.txp, record_trace=False), [0.0, 0.0, 0, 0, 0], {}
    level = exp.sim.txp_dbm
    for k in range(exp.sim.n_ticks):
        level = arm.txp.get(k, level)
        phase = phases.setdefault(level, PhaseStats())
        stats = sim.tick()
        for i, x in enumerate(stats):
            totals[i] += x
        phase.time_ms += exp.sim.step_ms
        phase.bits += stats[0]
        phase.joules += stats[1]
        phase.link_failures += stats[2]
    bits, joules, lf, ho, pp = totals
    got = (res.energy_efficiency_bits_per_joule, res.link_failures, res.total_handovers, res.pingpong_handovers)
    assert repr(got) == repr((bits / joules, lf, ho, pp))
    assert repr(res.phases) == repr(phases)
    assert lf > 0 and ho > 0 and len(phases) == 3


# -- calibration ------------------------------------------------------------

def fake_row(rep, ee, lf, phases):
    return ReplicaResult(
        strategy="nc",
        rep=rep,
        seed=rep,
        energy_efficiency_bits_per_joule=ee,
        link_failures=lf,
        total_handovers=0,
        pingpong_handovers=0,
        phases=phases,
    )


def test_thresholds_are_medians():
    phases = {v: PhaseStats(1000.0, 100.0, 50.0, 1) for v in (3.0, 50.0)}
    rows = [fake_row(i, ee, lf, phases) for i, (ee, lf) in enumerate([(1.0, 10), (2.0, 20), (3.0, 30)])]
    ms = derive_qacm_models(rows, small_exp())
    assert {m.kpi: m.threshold for m in ms.models} == {EE_KPI: 2.0, LF_KPI: 20.0}


def test_model_curves_come_from_phase_anchors():
    phases = {
        3.0: PhaseStats(time_ms=1000.0, bits=100.0, joules=50.0, link_failures=4),
        50.0: PhaseStats(time_ms=1000.0, bits=900.0, joules=100.0, link_failures=0),
    }
    exp = small_exp()
    rows = [fake_row(0, 5.0, 2, phases)]
    ms = derive_qacm_models(rows, exp)
    ee_model, lf_model = ms.models
    assert (ee_model.threshold, lf_model.threshold) == (5.0, 2.0)  # the one row's values
    assert ee_model.curve == ((3.0, 2.0), (50.0, 9.0))
    # 4 failures per second scaled to the 20 s horizon
    assert lf_model.curve == ((3.0, 80.0), (50.0, 0.0))
    assert ms.bounds == TXP_BOUNDS_DBM


def test_calibration_requires_both_anchors():
    phases = {3.0: PhaseStats(time_ms=1000.0, bits=1.0, joules=1.0)}
    with pytest.raises(ValueError, match="never dwelt"):
        derive_qacm_models([fake_row(0, 1.0, 0, phases)], small_exp())


def test_box_stats_reference():
    assert box_stats([1, 2, 3, 4, 5]) == {"min": 1.0, "q1": 2.0, "median": 3.0, "q3": 4.0, "max": 5.0}


# -- experiment level -------------------------------------------------------

@pytest.fixture(scope="module")
def small_result():
    return run_experiment(small_exp())


def test_replicas_are_seed_paired(small_result):
    for rows in small_result.rows.values():
        assert [r.seed for r in rows] == [5, 6]


def test_all_arms_present(small_result):
    assert set(small_result.rows) == {s.value for s in ALL_STRATEGIES}
    assert small_result.model_set is not None


def test_summary_shape(small_result):
    s = small_result.summary()
    assert set(s["nc"]) == {
        "energy_efficiency_bits_per_joule",
        "link_failures",
        "total_handovers",
        "pingpong_handovers",
    }
    assert set(s["qacm"]["link_failures"]) == {"min", "q1", "median", "q3", "max"}


@pytest.mark.parametrize("strategies, reps, builds, window", [
    # the four arms of a seed share its trajectory
    pytest.param(ALL_STRATEGIES[:4], 2, 2, None, id="strategies0-2-2"),
    # and qacm reuses it when the seed matches
    pytest.param(ALL_STRATEGIES, 1, 1, None, id="strategies1-1-1"),
    pytest.param(ALL_STRATEGIES, 2, 4, None, id="strategies2-2-4"),
    # over the budget, in 3-tick windows: the pass-1 arms compute each tick once, qacm once more
    pytest.param(ALL_STRATEGIES, 1, 2, 3, id="budget-0"),
])
def test_each_seed_builds_its_trajectory_once(monkeypatch, strategies, reps, builds, window):
    exp = small_exp(strategies=strategies, reps=reps)
    if window:
        monkeypatch.setattr(ran_sim, "GEOMETRY_BUDGET_BYTES", 0)
        monkeypatch.setattr(ran_sim, "GEOMETRY_WINDOW_BYTES", window * exp.sim.n_ues * 4 * 8)
    moved = []  # the trajectory of every row moved
    move = Trajectory._move

    def kept(traj, p, v, pos):
        moved.extend([traj] * len(pos))
        return move(traj, p, v, pos)

    monkeypatch.setattr(Trajectory, "_move", kept)
    run_experiment(exp)
    assert list(Counter(map(id, moved)).values()) == [exp.sim.n_ticks] * builds


def test_each_seed_draws_its_population_once_per_pass(monkeypatch):
    seeds = []  # the seed of every population drawn
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed=None: seeds.append(seed) or default_rng(seed))
    run_experiment(small_exp(reps=2))
    assert seeds == [5, 6, 5, 6]  # the four arms before qacm, then qacm


@pytest.mark.parametrize("seed, sim", [
    (6, SimConfig(duration_s=20.0)),
    (5, SimConfig(duration_s=10.0)),
    # the arm's own step: replayed at 50 ms, its 100 ms ticks would set TXP every 500 ms
    (5, SimConfig(duration_s=20.0, step_ms=50.0)),
])
def test_a_replica_refuses_another_seeds_trajectory(seed, sim):
    exp = small_exp()
    with pytest.raises(ValueError, match="trajectory of seed 5"):  # at the call, before any tick
        run_replica(Strategy.NC, 0, compile_arm(Strategy.NC, exp), Trajectory(sim, seed))


def test_a_replica_refuses_another_strategys_arm():
    exp = small_exp()
    arm = compile_arm(Strategy.NC, exp)
    assert (arm.strategy, arm.exp) == (Strategy.NC, exp)
    with pytest.raises(ValueError, match="the qacm replica got an arm compiled for nc"):
        run_replica(Strategy.QACM, 0, arm, Trajectory(exp.sim, 5))


def test_only_rep_0_records_a_trace():
    exp = small_exp()
    arm = compile_arm(Strategy.NC, exp)
    *_, (_, first) = run_replica(Strategy.NC, 0, arm, Trajectory(exp.sim, 5))
    *_, (res, second) = run_replica(Strategy.NC, 1, arm, Trajectory(exp.sim, 6))
    assert first.record_trace and first.trace
    assert not second.record_trace and second.trace == [] and res.total_handovers > 0


@pytest.mark.parametrize("window", [None, 1, 3])
def test_windows_change_no_output(monkeypatch, tmp_path, window):
    exp = small_exp()

    def outputs(outdir):
        outdir.mkdir()
        result = run_experiment(exp)
        export_csv(result, outdir / "results.csv")
        export_summary_json(result, outdir / "summary.json")
        export_traces(result, outdir)
        return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}

    whole = outputs(tmp_path / "whole")
    monkeypatch.setattr(ran_sim, "GEOMETRY_BUDGET_BYTES", 0)
    if window:
        monkeypatch.setattr(ran_sim, "GEOMETRY_WINDOW_BYTES", window * exp.sim.n_ues * 4 * 8)
    assert outputs(tmp_path / "windowed") == whole
    assert len(whole) == 2 + len(ALL_STRATEGIES)


def test_progress_reports_each_replica_round():
    calls = []
    res = run_experiment(small_exp(strategies=(Strategy.SBD, Strategy.QACM, Strategy.P_ES)),
                         progress=lambda *args: calls.append(args))
    first = ("nc", "sbd", "p-es")
    assert calls == [(first, 0, 2), (first, 1, 2), (("qacm",), 0, 2), (("qacm",), 1, 2)]
    assert list(res.rows) == ["sbd", "qacm", "p-es"]
    assert list(res.traces) == ["nc", "sbd", "qacm", "p-es"]


def test_qacm_only_run_still_calibrates():
    exp = small_exp(strategies=(Strategy.QACM,))
    res = run_experiment(exp)
    assert set(res.rows) == {"qacm"}
    assert res.model_set is not None


def test_csv_roundtrip(tmp_path, small_result):
    path = tmp_path / "results.csv"
    export_csv(small_result, path)
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 10  # 5 strategies x 2 reps
    first = rows[0]
    assert first["strategy"] == "nc" and int(first["rep"]) == 0 and int(first["seed"]) == 5
    got = small_result.rows["nc"][0]
    assert float(first["energy_efficiency_bits_per_joule"]) == got.energy_efficiency_bits_per_joule
    assert int(first["link_failures"]) == got.link_failures


def test_summary_json_content(tmp_path, small_result):
    import json

    path = tmp_path / "summary.json"
    export_summary_json(small_result, path)
    payload = json.loads(path.read_text())
    assert set(payload["strategies"]) == {s.value for s in ALL_STRATEGIES}
    assert "qacm" in payload and "chosen_txp_dbm" in payload["qacm"]
    assert payload["config"]["reps"] == 2
    assert payload["config"]["interval_ms"] == 2000.0
    assert payload["thresholds"] == {m.kpi: m.threshold for m in small_result.model_set.models}
    nc = small_result.rows["nc"]
    assert payload["thresholds"] == {EE_KPI: float(np.median([r.energy_efficiency_bits_per_joule for r in nc])),
                                     LF_KPI: float(np.median([r.link_failures for r in nc]))}


def test_trace_export(tmp_path, small_result):
    written = export_traces(small_result, tmp_path)
    assert len(written) == 5
    assert (tmp_path / "trace_nc_rep0.csv").exists()


def test_rerun_is_byte_identical(tmp_path, small_result):
    again = run_experiment(small_exp())
    for result, tag in ((small_result, "a"), (again, "b")):
        export_csv(result, tmp_path / f"{tag}.csv")
        export_summary_json(result, tmp_path / f"{tag}.json")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_qacm_scans_its_model_set_once_per_experiment(monkeypatch):
    scans = []
    scan = mitigation.qacm_optimize

    def counted(*args, **kwargs):
        scans.append(args)
        return scan(*args, **kwargs)

    monkeypatch.setattr(mitigation, "qacm_optimize", counted)
    result = run_experiment(ExperimentConfig(sim=SimConfig(), reps=1))
    assert len(scans) == 1
    # later reads, such as the summary export's, reuse the one scan
    assert result.model_set.optimize() is result.model_set.optimize()
    assert len(scans) == 1
