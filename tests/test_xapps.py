import collections

import pytest

from ric_cms.conflict_model import (
    KpiDirection,
    KpiSpec,
    XAppDescriptor,
    build_topology,
    five_xapp_topology,
)
from ric_cms.detection import Ledger, VerdictKind
from ric_cms.xapps import (
    ES_TXP_DBM,
    MRO_TXP_DBM,
    _instance_pools,
    es_request,
    experiment_topology,
    gen_stochastic_events,
    mro_request,
)


def test_experiment_apps_conflict_directly_on_txp():
    from ric_cms.conflict_model import direct_conflicts

    t = experiment_topology()
    (c,) = direct_conflicts(t)
    assert c.xapps == ("es", "mro")
    assert c.params == ("TXP",)


def test_request_helpers():
    r = es_request(500.0)
    assert (r.xapp, r.param, r.value, r.t_ms) == ("es", "TXP", ES_TXP_DBM, 500.0)
    r2 = mro_request(1500.0)
    assert (r2.xapp, r2.value) == ("mro", MRO_TXP_DBM)
    assert ES_TXP_DBM == 3.0 and MRO_TXP_DBM == 50.0


# -- labeled event generation ----------------------------------------------

def test_instance_pools_on_reference_topology():
    pools = _instance_pools(five_xapp_topology())
    # the only declared coupling that is indirect without being direct
    assert set(pools[VerdictKind.INDIRECT]) == {
        ("x1", "p2", "x4", "k41"),
        ("x1", "p2", "x4", "k42"),
        ("x2", "p2", "x4", "k41"),
        ("x2", "p2", "x4", "k42"),
    }
    assert ("x2", "p1", "x1", "k1") in pools[VerdictKind.DIRECT]
    assert ("x1", "p1", "x1", "k1") in pools[VerdictKind.NO_CONFLICT]
    assert ("x1", "p1", "x5", "k5") in pools[VerdictKind.IMPLICIT]


def test_event_mix_is_uniform():
    events = gen_stochastic_events(five_xapp_topology(), 1000, seed=3)
    counts = collections.Counter(e.expected for e in events)
    assert all(counts[k] == 250 for k in VerdictKind)


def test_event_spacing_guarantees_attribution():
    events = gen_stochastic_events(five_xapp_topology(), 50, seed=3, window_ms=800.0)
    for i, e in enumerate(events):
        assert e.change.t_ms == i * 800.0
        assert e.degradation.t_ms - e.change.t_ms == 400.0


def test_generated_labels_match_classifier():
    topo = five_xapp_topology()
    events = gen_stochastic_events(topo, 200, seed=5)
    led = Ledger(topo)
    for e in events:
        led.record_change(e.change)
        assert led.classify(e.degradation).kind is e.expected


def test_generation_is_deterministic():
    a = gen_stochastic_events(five_xapp_topology(), 100, seed=8)
    b = gen_stochastic_events(five_xapp_topology(), 100, seed=8)
    assert a == b
    c = gen_stochastic_events(five_xapp_topology(), 100, seed=9)
    assert a != c


def test_generation_fails_on_inexpressible_kind():
    # two disjoint apps: no shared params, no cross-group edges, so no
    # direct or indirect instances exist
    topo = build_topology(
        [
            XAppDescriptor("a", ("p1",), (KpiSpec("k1", KpiDirection.MAXIMIZE),)),
            XAppDescriptor("b", ("p2",), (KpiSpec("k2", KpiDirection.MAXIMIZE),)),
        ]
    )
    with pytest.raises(ValueError, match="cannot express"):
        gen_stochastic_events(topo, 10, seed=0)
