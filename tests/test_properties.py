"""Property tests: simulator invariants after every tick, and the
ledger's attribution window, over small random inputs."""

from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ric_cms.detection import ChangeRecord, DegradationEvent, Ledger, UnattributableDegradationError
from ric_cms.ran_sim import SimConfig, Simulator
from ric_cms.xapps import EE_KPI, ES_XAPP_ID, LF_KPI, MRO_XAPP_ID, TXP_PARAM, experiment_topology

# Derandomized so a tier-1 run is a function of the code; raise
# max_examples locally to search wider.
FEW = settings(max_examples=50, deadline=None, derandomize=True)


@st.composite
def sim_configs(draw):
    """Small scenarios SimConfig accepts: a random field, cell layout,
    step, power and speed mix, with the top speed inside one step."""
    w = draw(st.floats(20.0, 600.0))
    h = draw(st.floats(20.0, 600.0))
    step_ms = draw(st.sampled_from([50.0, 100.0, 250.0, 500.0]))
    top = min(w, h) * 1000.0 / step_ms * 0.999
    n_classes = draw(st.integers(1, 3))
    weights = [draw(st.integers(1, 5)) for _ in range(n_classes)]
    classes = []
    for i, k in enumerate(weights):
        vmin, vmax = sorted(draw(st.floats(0.0, min(top, 60.0))) for _ in range(2))
        classes.append((f"c{i}", k / sum(weights), vmin, vmax))
    cells = draw(st.lists(st.tuples(st.floats(0.0, w), st.floats(0.0, h)), min_size=1, max_size=5))
    return SimConfig(
        n_ues=draw(st.integers(1, 30)),
        area_m=(w, h),
        gnb_positions=tuple(cells),
        step_ms=step_ms,
        duration_s=draw(st.sampled_from([1.0, 2.0, 5.0])),
        txp_dbm=draw(st.floats(0.0, 50.0)),
        ttt_ms=draw(st.sampled_from([0.1, 200.0, 400.0])),
        speed_classes=tuple(classes),
        service_classes=(("embb", 1.0, 1.0),),
    )


COUNTERS = ("link_failures", "total_handovers", "pingpong_handovers", "total_bits", "total_joules")


@FEW
@given(cfg=sim_configs(), seed=st.integers(0, 2**32 - 1), txps=st.lists(st.floats(0.0, 50.0), max_size=4))
def test_tick_keeps_its_invariants(cfg, seed, txps):
    sim = Simulator(cfg, seed, record_trace=True)
    lim = np.asarray(cfg.area_m)
    last = {c: getattr(sim, c) for c in COUNTERS}
    for k in range(cfg.n_ticks):
        if txps:
            sim.set_txp(txps[k % len(txps)])
        rows = len(sim.trace)
        stats = sim.tick()
        assert np.all(sim.pos >= 0.0) and np.all(sim.pos <= lim)
        now = {c: getattr(sim, c) for c in COUNTERS}
        assert all(now[c] >= last[c] for c in COUNTERS)
        last = now
        attached = sim.serving >= 0
        assert np.all(sim._rsrp_matrix(sim.pos)[attached].max(axis=1, initial=-np.inf) >= cfg.min_rsrp_dbm)
        assert np.array_equal(sim.last_cell[attached], sim.serving[attached])
        events = Counter(row.event for row in sim.trace[rows:])
        assert stats.link_failures == events["LF"]
        assert stats.handovers == events["HO"] + events["PP"] + events["REATTACH"]
        assert stats.pingpongs >= events["PP"]


@st.composite
def ledger_streams(draw):
    """Time-ordered changes and degradations against the experiment topology."""
    n = draw(st.integers(1, 40))
    gaps = draw(st.lists(st.floats(0.0, 1500.0), min_size=n, max_size=n))
    kinds = draw(st.lists(st.booleans(), min_size=n, max_size=n))  # True: a change
    t, events = 0.0, []
    for gap, is_change in zip(gaps, kinds):
        t += gap
        if is_change:
            events.append(ChangeRecord(t, draw(st.sampled_from([ES_XAPP_ID, MRO_XAPP_ID])), TXP_PARAM, 0.0))
        else:
            kpi, owner = draw(st.sampled_from([(EE_KPI, ES_XAPP_ID), (LF_KPI, MRO_XAPP_ID)]))
            events.append(DegradationEvent(t, kpi, owner, 1.0))
    return events


@FEW
@given(events=ledger_streams(), window_ms=st.floats(1.0, 2000.0))
def test_verdict_change_lies_inside_the_window(events, window_ms):
    ledger = Ledger(experiment_topology(), window_ms)
    changes = []
    for ev in events:
        if isinstance(ev, ChangeRecord):
            ledger.record_change(ev)
            changes.append(ev)
            continue
        ledger.record_degradation(ev)
        in_window = [c for c in changes if ev.t_ms - window_ms <= c.t_ms <= ev.t_ms]
        try:
            v = ledger.classify(ev)
        except UnattributableDegradationError:
            assert not in_window
            continue
        assert ev.t_ms - window_ms <= v.t_change_ms <= v.t_detect_ms == ev.t_ms
        assert (v.instructing, v.t_change_ms) == (in_window[-1].xapp, in_window[-1].t_ms)
