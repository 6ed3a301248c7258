"""End-to-end acceptance checks.

Run with `pytest tests/test_acceptance.py -v -s`: each check prints one
PASS/FAIL line with its headline numbers.  The strategy-comparison check
runs the full quick-preset experiment and takes the longest (about half a
minute); everything else is seconds.
"""

import contextlib
import random
import time
from dataclasses import astuple

import pytest

from conftest import (
    oracle_direct_pairs,
    oracle_param_groups,
    qacm_scan_oracle,
    random_qacm_instance,
    random_topology_inputs,
)
from ric_cms.conflict_model import (
    build_topology,
    direct_conflicts,
    five_xapp_topology,
)
from ric_cms.detection import ChangeRecord, DegradationEvent, Ledger, VerdictKind, bench_detection
from ric_cms.harness import desk_preset, export_csv, export_summary_json, run_experiment
from ric_cms.mitigation import qacm_optimize
from ric_cms.xapps import gen_stochastic_events


@contextlib.contextmanager
def check(label):
    try:
        yield
    except BaseException:
        print(f"\nFAIL  {label}", flush=True)
        raise
    else:
        print(f"\nPASS  {label}", flush=True)


@pytest.fixture(scope="module")
def bench_10k():
    topo = five_xapp_topology()
    t0 = time.perf_counter()
    events = gen_stochastic_events(topo, 10_000, seed=20_240)
    stats = bench_detection(topo, events)
    elapsed = time.perf_counter() - t0
    return stats, elapsed


@pytest.fixture(scope="module")
def desk_run():
    t0 = time.perf_counter()
    result = run_experiment(desk_preset())
    elapsed = time.perf_counter() - t0
    return result, elapsed


def test_criterion_1_reference_topology():
    with check("1: reference topology groups and conflict pairs, under 1 s"):
        t0 = time.perf_counter()
        topo = five_xapp_topology()
        groups = {k: set(v) for k, v in topo.param_groups.items()}
        direct = {(c.xapps, c.params) for c in direct_conflicts(topo)}
        elapsed = time.perf_counter() - t0
        assert groups == {
            "k1": {"p1", "p2"},
            "k2": {"p1", "p2", "p3"},
            "k3": {"p1", "p4"},
            "k41": {"p2", "p5", "p6"},
            "k42": {"p2", "p5", "p6"},
            "k5": {"p7", "p8"},
        }
        assert direct == {
            (("x1", "x2"), ("p1", "p2")),
            (("x1", "x3"), ("p1",)),
            (("x2", "x3"), ("p1",)),
        }
        assert elapsed < 1.0


def test_criterion_2_detection_accuracy(bench_10k):
    stats, elapsed = bench_10k
    with check(f"2: 10,000 labeled events classified perfectly in {elapsed:.2f} s"):
        assert sum(s["count"] for s in stats.values()) == 10_000
        assert set(stats) == {k.value for k in VerdictKind}
        for kind, s in stats.items():
            assert s["accuracy"] == 1.0, f"{kind}: accuracy {s['accuracy']} over {s['count']} events"
        assert elapsed < 10.0


def test_criterion_3_detection_latency(bench_10k):
    stats, _ = bench_10k
    # Every kind's median within budget: the pooled median lies between
    # the smallest and the largest of them, so this is no looser.
    median_us = max(s["median_us"] for s in stats.values())
    with check(f"3: slowest per-kind median classification latency {median_us:.1f} us (budget 1 ms)"):
        assert median_us <= 1000.0


def test_criterion_4_grouping_matches_brute_force():
    with check("4: parameter grouping matches brute force on 100 random topologies, under 5 s"):
        rng = random.Random(41)
        t0 = time.perf_counter()
        for _ in range(100):
            xapps, extra = random_topology_inputs(rng)
            topo = build_topology(xapps, extra)
            assert {k: set(v) for k, v in topo.param_groups.items()} == oracle_param_groups(xapps, extra)
            got = {(c.xapps[0], c.xapps[1], frozenset(c.params)) for c in direct_conflicts(topo)}
            assert got == oracle_direct_pairs(xapps)
        assert time.perf_counter() - t0 < 5.0


def test_criterion_5_optimizer_matches_reference_scan():
    with check("5: grid optimizer exact against reference scan on 1,000 random instances"):
        rng = random.Random(8_1915)
        feasible_seen = 0
        for _ in range(1_000):
            models, bounds, step = random_qacm_instance(rng)
            res = qacm_optimize(models, bounds, step)
            # by repr, so floats, bools and the sign of a zero all match
            assert repr(astuple(res)) == repr(qacm_scan_oracle(models, bounds, step))
            if res.satisfied_all:
                feasible_seen += 1
                assert res.welfare == 1.0
        assert feasible_seen > 0  # the preference case was actually exercised


def test_criterion_6_strategy_orderings(desk_run):
    result, elapsed = desk_run
    ee = result.medians("energy_efficiency_bits_per_joule")
    lf = result.medians("link_failures")
    ho = result.medians("total_handovers")
    label = (
        "6: quick-preset orderings (EE best under qacm, failures and churn "
        f"contained) in {elapsed:.0f} s"
    )
    with check(label):
        others = ("nc", "sbd", "p-mro")
        # (a) energy efficiency: qacm above the energy saver and the rest
        assert ee["qacm"] > ee["p-es"]
        for s in others:
            assert ee["qacm"] > ee[s], f"ee qacm vs {s}"
        # (b) link failures: qacm no worse than p-mro, both better than the rest
        assert lf["qacm"] <= lf["p-mro"]
        for s in ("nc", "sbd", "p-es"):
            assert lf["qacm"] < lf[s], f"lf qacm vs {s}"
            assert lf["p-mro"] < lf[s], f"lf p-mro vs {s}"
        # (c) handovers: qacm no worse than p-mro, p-mro below the rest
        assert ho["qacm"] <= ho["p-mro"]
        for s in ("nc", "sbd", "p-es"):
            assert ho["p-mro"] < ho[s], f"ho p-mro vs {s}"
        # (d) qacm versus no coordination outright
        assert lf["qacm"] <= 0.9 * lf["nc"]
        assert ho["qacm"] < ho["nc"]
        assert elapsed < 600.0


def test_criterion_7_byte_identical_reruns(desk_run, tmp_path):
    result, _ = desk_run
    with check("7: repeated experiment with the same config and seed exports identical bytes"):
        again = run_experiment(desk_preset())
        for res, tag in ((result, "a"), (again, "b")):
            export_csv(res, tmp_path / f"{tag}.csv")
            export_summary_json(res, tmp_path / f"{tag}.json")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_criterion_8_implicit_coupling_learned_once():
    with check("8: unmodeled coupling reported once, indirect thereafter"):
        led = Ledger(five_xapp_topology())
        kinds = []
        for i in range(5):
            t = i * 2000.0
            led.record_change(ChangeRecord(t, "x1", "p1", 5.0))
            ev = DegradationEvent(t + 500.0, "k5", "x5", 0.2)
            led.record_degradation(ev)
            kinds.append(led.classify_and_learn(ev).kind)
        assert kinds[0] is VerdictKind.IMPLICIT
        assert all(k is VerdictKind.INDIRECT for k in kinds[1:])
        assert kinds.count(VerdictKind.IMPLICIT) == 1
