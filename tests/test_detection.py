import math

import numpy as np
import pytest

from conftest import BAD_NUMBERS
from ric_cms.conflict_model import five_xapp_topology
from ric_cms.detection import (
    ChangeRecord,
    ClockRegressionError,
    DegradationEvent,
    DetectionError,
    Ledger,
    UnattributableDegradationError,
    VerdictKind,
    bench_detection,
)
from ric_cms.xapps import gen_stochastic_events


def fresh_ledger(**kw):
    return Ledger(five_xapp_topology(), **kw)


# -- rule chain -------------------------------------------------------------

def test_same_xapp_is_no_conflict():
    led = fresh_ledger()
    led.record_change(ChangeRecord(100.0, "x1", "p1", 5.0))
    v = led.classify(DegradationEvent(500.0, "k1", "x1", 0.2))
    assert v.kind is VerdictKind.NO_CONFLICT
    assert v.instructing == "x1" and v.observing == "x1" and v.param == "p1"


def test_shared_icp_is_direct():
    led = fresh_ledger()
    led.record_change(ChangeRecord(100.0, "x2", "p1", 5.0))
    v = led.classify(DegradationEvent(500.0, "k1", "x1", 0.2))
    assert v.kind is VerdictKind.DIRECT


def test_group_membership_is_indirect():
    # p2 moves x4's KPIs but is not an x4 parameter
    led = fresh_ledger()
    led.record_change(ChangeRecord(100.0, "x1", "p2", 5.0))
    v = led.classify(DegradationEvent(500.0, "k41", "x4", 0.2))
    assert v.kind is VerdictKind.INDIRECT


def test_unmodeled_coupling_is_implicit():
    led = fresh_ledger()
    led.record_change(ChangeRecord(100.0, "x1", "p1", 5.0))
    v = led.classify(DegradationEvent(500.0, "k5", "x5", 0.2))
    assert v.kind is VerdictKind.IMPLICIT


def test_verdict_carries_timestamps():
    led = fresh_ledger()
    led.record_change(ChangeRecord(100.0, "x2", "p1", 5.0))
    v = led.classify(DegradationEvent(500.0, "k1", "x1", 0.2))
    assert v.t_change_ms == 100.0
    assert v.t_detect_ms == 500.0


# -- attribution ------------------------------------------------------------

def test_attribution_picks_most_recent_change():
    led = fresh_ledger()
    led.record_change(ChangeRecord(100.0, "x2", "p1", 1.0))
    led.record_change(ChangeRecord(300.0, "x3", "p4", 2.0))
    c = led.attribute(DegradationEvent(500.0, "k1", "x1", 0.2))
    assert c.xapp == "x3" and c.t_ms == 300.0


def test_attribution_tie_goes_to_latest_insertion():
    led = fresh_ledger()
    led.record_change(ChangeRecord(100.0, "x2", "p1", 1.0))
    led.record_change(ChangeRecord(100.0, "x3", "p4", 2.0))
    assert led.attribute(DegradationEvent(500.0, "k1", "x1", 0.2)).xapp == "x3"


def test_attribution_window_boundary_is_inclusive():
    led = fresh_ledger()
    led.record_change(ChangeRecord(0.0, "x2", "p1", 1.0))
    assert led.attribute(DegradationEvent(1000.0, "k1", "x1", 0.2)).t_ms == 0.0
    with pytest.raises(UnattributableDegradationError):
        led.attribute(DegradationEvent(1000.1, "k1", "x1", 0.2))


def test_change_after_degradation_not_eligible():
    led = fresh_ledger()
    led.record_change(ChangeRecord(600.0, "x2", "p1", 1.0))
    with pytest.raises(UnattributableDegradationError):
        led.classify(DegradationEvent(500.0, "k1", "x1", 0.2))


def test_empty_ledger_unattributable():
    with pytest.raises(UnattributableDegradationError) as exc:
        fresh_ledger().classify(DegradationEvent(500.0, "k1", "x1", 0.2))
    assert exc.value.kpi == "k1"


def test_custom_window():
    led = fresh_ledger(window_ms=200.0)
    led.record_change(ChangeRecord(100.0, "x2", "p1", 1.0))
    led.classify(DegradationEvent(300.0, "k1", "x1", 0.2))
    with pytest.raises(UnattributableDegradationError):
        led.classify(DegradationEvent(301.0, "k1", "x1", 0.2))


def test_nonpositive_window_rejected():
    with pytest.raises(DetectionError):
        fresh_ledger(window_ms=0.0)


# -- ledger discipline ------------------------------------------------------

def test_clock_regression_on_changes():
    led = fresh_ledger()
    led.record_change(ChangeRecord(100.0, "x1", "p1", 1.0))
    with pytest.raises(ClockRegressionError):
        led.record_change(ChangeRecord(99.0, "x1", "p1", 1.0))


def test_clock_regression_on_degradations():
    led = fresh_ledger()
    led.record_degradation(DegradationEvent(100.0, "k1", "x1", 0.2))
    with pytest.raises(ClockRegressionError):
        led.record_degradation(DegradationEvent(99.0, "k1", "x1", 0.2))


def test_ledgers_are_append_only_views():
    led = fresh_ledger()
    led.record_change(ChangeRecord(1.0, "x1", "p1", 1.0))
    led.record_degradation(DegradationEvent(2.0, "k1", "x1", 0.2))
    assert len(led.changes) == 1 and len(led.degradations) == 1


@pytest.mark.parametrize(
    "ev",
    [DegradationEvent(500.0, "nope", "x1", 0.2), DegradationEvent(500.0, "k1", "x5", 0.2)],
    ids=["unknown-kpi", "observer-does-not-own-kpi"],
)
def test_classify_rejects_degradation_outside_topology(ev):
    led = fresh_ledger()
    led.record_change(ChangeRecord(100.0, "x1", "p1", 5.0))
    with pytest.raises(DetectionError, match="does not own"):
        led.classify(ev)


def test_change_by_unknown_xapp_rejected():
    led = fresh_ledger()
    with pytest.raises(DetectionError, match="unknown xApp 'ghost'"):
        led.record_change(ChangeRecord(100.0, "ghost", "p1", 5.0))
    assert led.changes == ()


def test_change_outside_the_writers_icps_rejected():
    led = fresh_ledger()
    with pytest.raises(DetectionError, match="'x1', which does not control it"):
        led.record_change(ChangeRecord(100.0, "x1", "p7", 5.0))  # p7 belongs to x5
    assert led.changes == ()


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_non_finite_timestamps_rejected(t):
    led = fresh_ledger()
    led.record_change(ChangeRecord(100.0, "x1", "p1", 5.0))
    with pytest.raises(DetectionError, match="non-finite time"):
        led.record_change(ChangeRecord(t, "x1", "p1", 5.0))
    with pytest.raises(DetectionError, match="non-finite time"):
        led.record_degradation(DegradationEvent(t, "k1", "x1", 0.2))
    # a NaN would have hidden the regression from 100 ms to 50 ms
    with pytest.raises(ClockRegressionError):
        led.record_change(ChangeRecord(50.0, "x1", "p1", 5.0))
    assert len(led.changes) == 1 and led.degradations == ()


@pytest.mark.parametrize("bad", ["x", [1], *BAD_NUMBERS],
                         ids=["string", "list", "bool", "numeric-string", "none", "nan", "inf", "-inf", "huge-int"])
def test_ingest_and_window_reject_what_is_not_a_finite_real_number(bad):
    # a NaN window would attribute every degradation to any earlier change
    with pytest.raises(DetectionError, match="attribution window"):
        fresh_ledger(window_ms=bad)
    led = fresh_ledger()
    with pytest.raises(DetectionError, match="non-finite time"):
        led.record_change(ChangeRecord(bad, "x1", "p1", 5.0))
    with pytest.raises(DetectionError, match="non-finite time"):
        led.record_degradation(DegradationEvent(bad, "k1", "x1", 0.2))
    assert led.changes == () and led.degradations == ()


def test_numpy_scalars_are_numbers_at_ingest():
    led = fresh_ledger(window_ms=np.int64(1000))
    led.record_change(ChangeRecord(np.float64(100.0), "x2", "p1", 5.0))
    led.record_change(ChangeRecord(np.int64(200), "x2", "p1", 5.0))
    ev = DegradationEvent(np.int64(500), "k1", "x1", 0.2)
    v = led.record_degradation(ev).classify(ev)
    assert v.kind is VerdictKind.DIRECT and v.t_change_ms == 200 and len(led.degradations) == 1


# -- learning ---------------------------------------------------------------

def test_implicit_promotes_to_indirect():
    led = fresh_ledger()
    kinds = []
    for i in range(4):
        t = i * 2000.0
        led.record_change(ChangeRecord(t, "x1", "p1", 5.0))
        ev = DegradationEvent(t + 500.0, "k5", "x5", 0.2)
        led.record_degradation(ev)
        kinds.append(led.classify_and_learn(ev).kind)
    assert kinds == [
        VerdictKind.IMPLICIT,
        VerdictKind.INDIRECT,
        VerdictKind.INDIRECT,
        VerdictKind.INDIRECT,
    ]
    assert "p1" in led.topology.param_groups["k5"]


def test_plain_classify_does_not_learn():
    led = fresh_ledger()
    for i in range(3):
        led.record_change(ChangeRecord(i * 2000.0, "x1", "p1", 5.0))
        v = led.classify(DegradationEvent(i * 2000.0 + 500.0, "k5", "x5", 0.2))
        assert v.kind is VerdictKind.IMPLICIT


# -- bench ------------------------------------------------------------------

def test_bench_classifies_labeled_stream_perfectly():
    topo = five_xapp_topology()
    events = gen_stochastic_events(topo, 400, seed=9)
    stats = bench_detection(topo, events)
    assert set(stats) == {k.value for k in VerdictKind}
    assert sum(s["count"] for s in stats.values()) == 400
    for s in stats.values():
        assert s["accuracy"] == 1.0
        assert s["median_us"] > 0.0
        assert s["p99_us"] >= s["median_us"]
