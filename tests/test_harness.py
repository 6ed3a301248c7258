import csv
import dataclasses

import pytest

from ric_cms import harness, mitigation
from ric_cms.conflict_model import KpiDirection
from ric_cms.harness import (
    ALL_STRATEGIES,
    ExperimentConfig,
    PhaseStats,
    ReplicaResult,
    _context,
    box_stats,
    derive_qacm_models,
    derive_qacm_thresholds,
    desk_preset,
    export_csv,
    export_summary_json,
    export_traces,
    paper_preset,
    run_experiment,
    run_replica,
)
from ric_cms.mitigation import KpiResponseModel, ResponseModelSet, Strategy
from ric_cms.ran_sim import SimConfig
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
    ctx = _context(strategy, model_set)
    return run_replica(strategy, 0, exp, ctx)


def test_nc_alternates_between_the_two_requests():
    res, sim = run_one(Strategy.NC)
    assert set(res.phases) == {3.0, 50.0}
    assert res.phases[3.0].time_ms == 10_000.0
    assert res.phases[50.0].time_ms == 10_000.0
    assert sim.txp_dbm == 50.0  # interval ends on the mobility app's value


def test_sbd_lets_writes_land_then_resets():
    res, sim = run_one(Strategy.SBD)
    assert set(res.phases) == {3.0, 50.0, 30.0}
    # per 2 s interval: half at 3, one tick at 50, the rest at the default
    assert res.phases[3.0].time_ms == 10_000.0
    assert res.phases[50.0].time_ms == 1_000.0
    assert res.phases[30.0].time_ms == 9_000.0
    assert sim.txp_dbm == 30.0


def test_p_es_holds_the_low_power_request():
    res, sim = run_one(Strategy.P_ES)
    assert set(res.phases) == {3.0}
    assert sim.txp_dbm == 3.0


def test_p_mro_dips_only_before_its_first_request():
    res, sim = run_one(Strategy.P_MRO)
    assert set(res.phases) == {3.0, 50.0}
    assert res.phases[3.0].time_ms == 1_000.0  # solo arbitration until t=1s
    assert res.phases[50.0].time_ms == 19_000.0
    assert sim.txp_dbm == 50.0


def test_qacm_applies_the_grid_optimum_throughout():
    ms = ResponseModelSet(
        "TXP",
        (0.0, 50.0),
        1.0,
        (KpiResponseModel(EE_KPI, KpiDirection.MAXIMIZE, 37.0, ((0.0, 0.0), (50.0, 50.0))),),
    )
    res, sim = run_one(Strategy.QACM, model_set=ms)
    assert set(res.phases) == {37.0}
    assert sim.txp_dbm == 37.0


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
    run_replica(strategy, 0, exp, _context(strategy, None))
    (ledger,) = ledgers
    assert [c.xapp for c in ledger.changes] == ["es", "mro"] * 10
    assert [c.value for c in ledger.changes] == [3.0, 50.0] * 10
    assert [c.t_ms for c in ledger.changes] == [1000.0 * i for i in range(20)]


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
    rows = [fake_row(i, ee, lf, {}) for i, (ee, lf) in enumerate([(1.0, 10), (2.0, 20), (3.0, 30)])]
    th = derive_qacm_thresholds(rows)
    assert th == {EE_KPI: 2.0, LF_KPI: 20.0}


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
    assert payload["thresholds"] == derive_qacm_thresholds(small_result.rows["nc"])


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
