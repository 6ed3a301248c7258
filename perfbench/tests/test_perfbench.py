"""Tests of the benchmark itself: span arithmetic, the correctness gate
and a tiny-size smoke run of every workload.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import checks  # noqa: E402
import tracer as tracing  # noqa: E402
from ric_cms.detection import ConflictVerdict, VerdictKind  # noqa: E402
from ric_cms.mitigation import MitigationDecision, Strategy  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# Self time
# ---------------------------------------------------------------------------

def test_self_time_nested_and_siblings():
    # root [0, 10] with siblings a [1, 3] and b [4, 8]; b holds c [5, 6]
    parents = [-1, 0, 0, 2]
    starts = [0.0, 1.0, 4.0, 5.0]
    ends = [10.0, 3.0, 8.0, 6.0]
    assert tracing.self_times(parents, starts, ends) == [4.0, 2.0, 3.0, 1.0]


def test_self_time_merges_overlapping_children_and_clips_to_parent():
    # children [1, 5] and [3, 7] overlap; [9, 12] sticks out of the parent
    parents = [-1, 0, 0, 0]
    starts = [0.0, 1.0, 3.0, 9.0]
    ends = [10.0, 5.0, 7.0, 12.0]
    assert tracing.self_times(parents, starts, ends)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_tracer_records_parents_tags_and_raises():
    t = tracing.Tracer()

    def leaf(x):
        if x < 0:
            raise ValueError(x)
        return x

    inner = t.wrap(leaf, "layer.leaf")

    def outer(x):
        inner(x)
        try:
            inner(-1)
        except ValueError:
            pass
        return x

    traced_outer = t.wrap(outer, "layer.outer", tag=lambda x: f"op:{x}")
    assert traced_outer(3) == 3
    assert t.names == ["layer.outer", "layer.leaf", "layer.leaf"]
    assert list(t.parents) == [-1, 0, 0]
    assert t.tags == ["op:3", "op:3", "op:3"]
    assert list(t.raised) == [0, 0, 1]
    s = tracing.summarize(t)
    assert s["layer.leaf"]["calls"] == 2 and s["layer.leaf"]["raised"] == 1
    assert s["layer.outer"]["self_s"] <= s["layer.outer"]["s"]


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def control_plane():
    cp = bench.ControlPlane(3, bench.SIZES["control-plane"]["tiny"])
    return cp, cp.unit(0)


def _gate(cp, outputs) -> float:
    tally = checks.Tally()
    cp.check(tally, {"k": 0, "outputs": outputs})
    return tally.error_rate


def test_untampered_control_plane_passes(control_plane):
    cp, u = control_plane
    assert _gate(cp, u["outputs"]) == 0.0
    learned = [e for e in cp.expected(0) if e is VerdictKind.IMPLICIT]
    assert learned, "the tiny stream should still see unmodeled couplings"


def test_latency_covers_decisions_only(control_plane):
    cp, u = control_plane
    decisions = [e for e in cp.streams[0]["entries"] if e[0] != "change"]
    assert len(u["lat"]) == len(decisions) < len(u["outputs"])


def test_each_unit_draws_fresh_inputs(control_plane):
    cp, _ = control_plane
    other = cp.stream(1)["entries"]

    def model_sets(entries):
        return [m for e in entries if e[0] == "request" for m in e[3].response_models.values()]

    assert model_sets(other) and not set(model_sets(other)) & set(model_sets(cp.streams[0]["entries"]))
    e = bench.Experiment(bench.SIZES["desk"]["tiny"], 2)
    assert e.config(0).base_seed != e.config(1).base_seed


def test_stream_follows_the_desk_call_mix(control_plane):
    cp, _ = control_plane
    entries = cp.streams[0]["entries"]
    slots = sum(e[0] == "degrade" for e in entries)
    requests = sum(e[0] == "request" for e in entries)
    per_slot = sum(bench.DESK_CALLS[s] for s in bench.harness.ALL_STRATEGIES) / bench.DESK_CALLS["degradation"]
    assert requests / slots == pytest.approx(per_slot, rel=0.05)


def test_reference_topology_copy_has_33_unpromoted_couplings():
    assert bench.unpromoted_couplings(bench.replicated_topology(1)) == 33


def test_flipped_verdict_fails(control_plane):
    cp, u = control_plane
    outputs = list(u["outputs"])
    i = next(i for i, o in enumerate(outputs) if isinstance(o, ConflictVerdict))
    other = VerdictKind.DIRECT if outputs[i].kind is not VerdictKind.DIRECT else VerdictKind.INDIRECT
    outputs[i] = dataclasses.replace(outputs[i], kind=other)
    assert _gate(cp, outputs) > 0


def test_wrong_qacm_value_fails(control_plane):
    cp, u = control_plane
    outputs = list(u["outputs"])
    i = next(i for i, o in enumerate(outputs) if isinstance(o, MitigationDecision) and o.strategy is Strategy.QACM)
    outputs[i] = dataclasses.replace(outputs[i], value=outputs[i].value + 0.5)
    assert _gate(cp, outputs) > 0


def test_raising_op_fails(control_plane):
    cp, u = control_plane
    outputs = list(u["outputs"])
    outputs[0] = RuntimeError("boom")
    assert _gate(cp, outputs) > 0


@pytest.fixture(scope="module")
def desk_unit():
    size = bench.SIZES["desk"]["tiny"]
    first = bench.Experiment(size, 0).unit(0)
    return size, first, checks.digest(first["csv"], first["json"])


def test_reference_digest_matches_and_changed_bytes_fail(desk_unit):
    size, u, dg = desk_unit
    tally = checks.Tally()
    bench.Experiment(size, 0, reference=dg).check(tally, u)
    assert tally.error_rate == 0.0

    tampered = dict(u, csv=u["csv"].replace(b"\n", b"\n ", 2))
    tally = checks.Tally()
    bench.Experiment(size, 0, reference=dg).check(tally, tampered)
    assert tally.error_rate > 0


def test_broken_orderings_fail():
    tally = checks.Tally()
    ee = {"nc": 1.0, "sbd": 1.0, "p-es": 2.0, "p-mro": 0.5, "qacm": 1.5}  # qacm below p-es
    lf = {"nc": 10, "sbd": 10, "p-es": 20, "p-mro": 1, "qacm": 1}
    ho = {"nc": 10, "sbd": 10, "p-es": 10, "p-mro": 5, "qacm": 5}
    checks.orderings(tally, ee, lf, ho)
    assert tally.failed == ["ee qacm > p-es"]


# ---------------------------------------------------------------------------
# Host-speed correction
# ---------------------------------------------------------------------------

class _FixedUnits:
    """A workload whose units take 2 s for 100 ops of 10 us each."""

    def timed_unit(self, tally, k):
        return {"wall_s": 2.0, "run_s": 2.0, "ops": 100, "lat_us": np.full(100, 10.0)}

    def finish(self, tally, units):
        pass


def test_measure_divides_times_by_the_host_slowdown(monkeypatch):
    monkeypatch.setattr(bench.hostspeed, "slowdown", lambda: 2.0)
    m = bench.measure(_FixedUnits(), checks.Tally(), seconds=0.0)
    assert m["units"] == 1 and m["slowdown"] == 2.0 and m["latency_samples"] == 100
    assert m["raw"] == {"wall_s": 2.0, "ops_per_s": 50.0, "op_p50_us": 10.0, "op_p99_us": 10.0}
    assert {k: m[k] for k in m["raw"]} == {"wall_s": 1.0, "ops_per_s": 100.0, "op_p50_us": 5.0, "op_p99_us": 5.0}


def test_slowdown_is_positive():
    assert 0.0 < bench.hostspeed.slowdown() < 100.0


# ---------------------------------------------------------------------------
# Smoke runs
# ---------------------------------------------------------------------------

def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_declared_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "desk", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
