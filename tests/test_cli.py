import json
import math

import pytest

from conftest import FIVE_XAPP_TOPOLOGY_JSON, save_sim_config
from ric_cms.cli import main
from ric_cms.ran_sim import SimConfig


def test_topology_builtin(capsys):
    assert main(["topology", "--input", "five-xapp"]) == 0
    out = capsys.readouterr().out
    assert "k41 (owner x4): {p2, p5, p6}" in out
    assert "direct conflicts: 3" in out
    assert "x1 vs x2 on {p1, p2}" in out
    assert "indirect conflicts: 2" in out


def test_topology_emit_graphs(tmp_path, capsys):
    out_dir = tmp_path / "graphs"
    assert main(["topology", "--input", "five-xapp", "--emit-graphs", str(out_dir)]) == 0
    for name in ("xp_edges.csv", "kp_edges.csv", "pp_edges.csv"):
        assert (out_dir / name).exists()


def test_topology_from_file(tmp_path, capsys):
    path = tmp_path / "topo.json"
    path.write_text(json.dumps(FIVE_XAPP_TOPOLOGY_JSON))
    assert main(["topology", "--input", str(path)]) == 0
    assert "xApps: 5" in capsys.readouterr().out


def test_topology_missing_file_fails_with_json_error(capsys):
    assert main(["topology", "--input", "/no/such/file.json"]) == 2
    err = capsys.readouterr().err.strip()
    payload = json.loads(err)
    assert "error" in payload and "detail" in payload


_X1 = {"id": "x1", "icps": ["p1"], "kpis": [{"id": "k1", "direction": "maximize"}]}


@pytest.mark.parametrize(
    "topology",
    [
        {"xapps": {"x1": _X1}},
        {"xapps": ["x1"]},
        {"xapps": [{"icps": ["p1"]}]},
        {"xapps": [{**_X1, "icps": "p1"}]},
        {"xapps": [{**_X1, "icps": 1}]},
        {"xapps": [{**_X1, "kpis": "k1"}]},
        {"xapps": [{**_X1, "kpis": {"id": "k1", "direction": "maximize"}}]},
        {"xapps": [{**_X1, "kpis": [{"direction": "maximize"}]}]},
        {"xapps": [{**_X1, "kpis": [{"id": "k1"}]}]},
        {"xapps": [{**_X1, "kpis": [{"id": "k1", "direction": "up"}]}]},
        *({"xapps": [{**_X1, "kpis": [{"id": "k1", "direction": "maximize", "sla_threshold": v}]}]}
          for v in (True, math.nan, math.inf, 10**400)),
        {"xapps": [_X1], "extra_kp_edges": [["k1"]]},
        {"xapps": [_X1], "extra_kp_edges": ["k1p1"]},
    ],
    ids=[
        "xapps-not-list",
        "entry-not-object",
        "entry-without-id",
        "icps-string",
        "icps-not-list",
        "kpis-string",
        "kpis-not-list",
        "kpi-without-id",
        "kpi-without-direction",
        "kpi-unknown-direction",
        "sla-threshold-bool",
        "sla-threshold-nan",
        "sla-threshold-infinity",
        "sla-threshold-huge-int",
        "edge-one-element",
        "edge-string",
    ],
)
def test_topology_rejects_malformed_json(tmp_path, capsys, topology):
    path = tmp_path / "topo.json"
    path.write_text(json.dumps(topology))
    assert main(["topology", "--input", str(path)]) == 2
    err = capsys.readouterr().err.strip()
    assert "\n" not in err
    assert json.loads(err)["error"] == "TopologyError"


@pytest.mark.parametrize(
    "topology, detail",
    [
        ({}, "lacks 'xapps'"),
        ({"xapps": [{**_X1, "id": ""}]}, "xApp id must be non-empty"),
        ({"xapps": [{**_X1, "kpis": [{"id": "", "direction": "maximize"}]}]}, "KPI id must be non-empty"),
        ({"xapps": [{**_X1, "icps": ["p1", "p1"]}]}, "'x1' declares duplicate ICPs"),
        ({"xapps": [{**_X1, "kpis": _X1["kpis"] * 2}]}, "'x1' declares duplicate KPIs"),
    ],
    ids=["no-xapps", "xapp-id-empty", "kpi-id-empty", "duplicate-icps", "duplicate-kpis"],
)
def test_topology_file_errors_name_their_rule(tmp_path, capsys, topology, detail):
    path = tmp_path / "topo.json"
    path.write_text(json.dumps(topology))
    assert main(["topology", "--input", str(path)]) == 2
    err = capsys.readouterr().err.strip()
    assert "\n" not in err
    payload = json.loads(err)
    assert payload["error"] == "TopologyError"
    assert detail in payload["detail"]


def test_detect_bench(tmp_path, capsys):
    out = tmp_path / "stats.json"
    assert main(["detect-bench", "--events", "400", "--seed", "1", "--out", str(out)]) == 0
    stats = json.loads(out.read_text())
    assert set(stats) == {"no_conflict", "direct", "indirect", "implicit"}
    for s in stats.values():
        assert set(s) == {"count", "accuracy", "mean_us", "median_us", "p99_us"}
        assert s["accuracy"] == 1.0
        assert s["count"] == 100
        assert s["median_us"] > 0.0


@pytest.mark.parametrize("events", ["0", "-5"])
def test_detect_bench_rejects_a_count_that_is_not_positive(tmp_path, capsys, events):
    out = tmp_path / "stats.json"
    assert main(["detect-bench", "--events", events, "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip()
    assert "\n" not in err
    payload = json.loads(err)
    assert payload["error"] == "ValueError"
    assert "positive integer" in payload["detail"]
    assert not out.exists()


def test_simulate_tiny_run(tmp_path, capsys):
    out_dir = tmp_path / "run"
    rc = main(
        [
            "simulate",
            "--preset",
            "desk",
            "--reps",
            "2",
            "--strategies",
            "nc,qacm",
            "--seed",
            "3",
            "--out",
            str(out_dir),
        ]
    )
    assert rc == 0
    results = (out_dir / "results.csv").read_text().splitlines()
    assert results[0] == "strategy,rep,seed,energy_efficiency_bits_per_joule,link_failures,total_handovers,pingpong_handovers"
    assert len(results) == 5  # header + 2 strategies x 2 reps
    summary = json.loads((out_dir / "summary.json").read_text())
    assert set(summary["strategies"]) == {"nc", "qacm"}
    assert (out_dir / "trace_nc_rep0.csv").exists()
    assert "medians over 2 replicas" in capsys.readouterr().out


def test_simulate_names_every_file_it_wrote(tmp_path, capsys):
    out_dir = tmp_path / "run"
    assert main(["simulate", "--preset", "desk", "--reps", "1", "--strategies", "nc,p-es", "--out", str(out_dir)]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    names = ["results.csv", "summary.json", "trace_nc_rep0.csv", "trace_p-es_rep0.csv"]
    assert last == "wrote " + ", ".join(str(out_dir / name) for name in names)
    assert sorted(p.name for p in out_dir.iterdir()) == sorted(names)


def test_simulate_reports_progress_per_replica_round(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    save_sim_config(SimConfig(duration_s=10.0), scenario)
    rc = main(["simulate", "--config", str(scenario), "--reps", "2", "--strategies", "sbd,qacm,p-es",
               "--out", str(tmp_path / "run")])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["running nc, sbd, p-es (2 replicas)...", "running qacm (2 replicas)..."]
    assert [line.split(",")[0] for line in (tmp_path / "run" / "results.csv").read_text().splitlines()[1:]] == \
        ["sbd", "sbd", "qacm", "qacm", "p-es", "p-es"]


def test_simulate_requires_preset_or_config(capsys):
    assert main(["simulate", "--out", "/tmp/x"]) == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert "preset" in payload["detail"] or "config" in payload["detail"]


def test_simulate_rejects_unknown_strategy(tmp_path, capsys):
    rc = main(["simulate", "--preset", "desk", "--reps", "1", "--strategies", "bogus", "--out", str(tmp_path)])
    assert rc == 2
    json.loads(capsys.readouterr().err.strip())


def test_simulate_with_scenario_file(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    save_sim_config(SimConfig(duration_s=10.0), scenario)
    out_dir = tmp_path / "run"
    rc = main(
        ["simulate", "--config", str(scenario), "--reps", "1", "--strategies", "nc", "--out", str(out_dir)]
    )
    assert rc == 0
    assert (out_dir / "results.csv").exists()


def test_simulate_rejects_scenario_tick_cannot_handle(tmp_path, capsys):
    # 900-1000 m/s crosses the 50 m field in one 100 ms step
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"area_m": [50.0, 50.0], "speed_classes": [["jet", 1.0, 900.0, 1000.0]]}))
    rc = main(["simulate", "--config", str(scenario), "--reps", "1", "--out", str(tmp_path / "run")])
    assert rc == 2
    err = capsys.readouterr().err.strip()
    assert "\n" not in err
    payload = json.loads(err)
    assert payload["error"] == "ValueError"
    assert "crosses more than the field" in payload["detail"]
    assert not (tmp_path / "run").exists()


def test_simulate_refuses_to_calibrate_from_a_run_that_carries_no_bits(tmp_path, capsys):
    # no cell reaches a 100 dBm floor, so every no-coordination replica's efficiency is zero
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"min_rsrp_dbm": 100.0, "duration_s": 6.0}))
    rc = main(["simulate", "--config", str(scenario), "--strategies", "qacm", "--reps", "1", "--out", str(tmp_path / "run")])
    assert rc == 2
    err = capsys.readouterr().err.strip()
    assert "\n" not in err
    payload = json.loads(err)
    assert payload["error"] == "ValueError"
    assert "degenerate calibration" in payload["detail"]
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "flags, detail",
    [
        (["--reps", "0", "--strategies", "nc"], "reps must be positive"),
        (["--reps", "-2"], "reps must be positive"),
        (["--reps", "1", "--strategies", "nc,nc"], "strategies must not repeat"),
        (["--reps", "1", "--strategies", ""], "empty strategy list"),
        (["--reps", "1", "--config", "{scenario}"], "interval_ms"),
    ],
    ids=["reps-zero", "reps-negative", "duplicate-strategy", "empty-strategies", "preset-with-misaligned-scenario"],
)
def test_simulate_rejects_invalid_experiment(tmp_path, capsys, flags, detail):
    # --config over a preset replaces the preset's scenario, so the
    # interval check must see the scenario's 300 ms step
    scenario = tmp_path / "scenario.json"
    save_sim_config(SimConfig(step_ms=300.0), scenario)
    flags = [f.format(scenario=scenario) for f in flags]
    rc = main(["simulate", "--preset", "desk", *flags, "--out", str(tmp_path / "run")])
    assert rc == 2
    err = capsys.readouterr().err.strip()
    assert "\n" not in err
    payload = json.loads(err)
    assert payload["error"] == "ValueError"
    assert detail in payload["detail"]
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "scenario, detail",
    [
        ({"speed_classes": [["walk", 1.0]]}, "speed_classes"),
        ({"service_classes": [["embb", 1.0]]}, "service_classes"),
        ({"gnb_positions": [[1.0]]}, "gnb_positions"),
        ({"gnb_positions": []}, "gnb_positions"),
        ({"n_ues": "20"}, "n_ues"),
        ({"n_ues": 20.5}, "n_ues"),
        ({"n_ues": True}, "n_ues"),
        ({"area_m": "ab"}, "area_m"),
        ({"speed_classes": [["a", 1.5, 0.0, 1.0], ["b", -0.5, 0.0, 1.0]]}, "fractions must not be negative"),
        ({"duration_s": 0.05}, "at least one step_ms"),
        ({"duration_s": 0.25}, "whole number of step_ms"),
        ({"step_ms": "100"}, "step_ms"),
        ([{"n_ues": 20}], "JSON object"),
        ({"n_uez": 20}, "'n_uez'"),
        ({"txp_dbm": 10**400}, "txp_dbm"),
        ({"area_m": [10**400, 400]}, "area_m"),
        ({"ttt_ms": -1.0}, "ttt_ms"),
        ({"pingpong_window_ms": -1.0}, "pingpong_window_ms"),
        ({"n_ues": 10**400}, "n_ues"),
        ({"n_ues": 131073}, "at most 131072"),
        ({"txp_dbm": 1e308}, "txp_dbm"),
        ({"duration_s": 1e308}, "duration_s"),
        ({"ue_bandwidth_hz": 1e308}, "ue_bandwidth_hz"),
        ({"noise_floor_dbm": -1e308}, "noise_floor_dbm"),
    ],
    ids=[
        "speed-class-short",
        "service-class-short",
        "gnb-position-short",
        "gnb-positions-empty",
        "n-ues-string",
        "n-ues-fraction",
        "n-ues-bool",
        "area-string",
        "fraction-negative",
        "no-whole-tick",
        "duration-between-ticks",
        "step-string",
        "not-an-object",
        "unknown-key",
        "txp-huge-int",
        "area-huge-int",
        "ttt-negative",
        "pingpong-window-negative",
        "n-ues-huge-int",
        "n-ues-over-geometry-budget",
        "txp-energy-overflows",
        "duration-ticks-overflow",
        "bandwidth-efficiency-overflows",
        "noise-floor-efficiency-overflows",
    ],
)
def test_simulate_rejects_malformed_scenario(tmp_path, capsys, scenario, detail):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    rc = main(["simulate", "--config", str(path), "--reps", "1", "--strategies", "nc", "--out", str(tmp_path / "run")])
    assert rc == 2
    err = capsys.readouterr().err.strip()
    assert "\n" not in err
    payload = json.loads(err)
    assert payload["error"] == "ValueError"
    assert detail in payload["detail"]
    assert not (tmp_path / "run").exists()
