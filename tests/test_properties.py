"""Property tests: simulator invariants after every tick, the tick
against its reference implementation, and the ledger's attribution
window, over small random inputs."""

import dataclasses
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ric_cms.detection import ChangeRecord, DegradationEvent, Ledger, UnattributableDegradationError
from ric_cms.ran_sim import SimConfig, Simulator
from ric_cms.xapps import EE_KPI, ES_XAPP_ID, LF_KPI, MRO_XAPP_ID, TXP_PARAM, experiment_topology

from conftest import ReferenceSimulator

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


STATE = ("pos", "vel", "serving", "last_cell", "prev_gnb", "last_ho_ms", "_ttt_count", "_ttt_target")


def run_beside_the_oracle(cfg, seed, txps=()):
    """Tick a Simulator and the ReferenceSimulator in step, setting the
    transmit power from `txps` in turn before each tick; every TickStats,
    state array and trace row must agree bit for bit.  Returns the trace."""
    sim, ref = Simulator(cfg, seed), ReferenceSimulator(cfg, seed)
    for k in range(cfg.n_ticks):
        if txps:
            sim.set_txp(txps[k % len(txps)])
            ref.set_txp(txps[k % len(txps)])
        assert repr(sim.tick()) == repr(ref.tick()), k
        for name in STATE:
            a, b = getattr(sim, name), getattr(ref, name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), (k, name)
    assert repr(sim.trace) == repr(ref.trace)
    assert repr(sim.kpi_report()) == repr(ref.kpi_report())
    return sim.trace


@st.composite
def oracle_scenarios(draw):
    """sim_configs widened to what the golden runs never reach: receive
    floors that detach UEs, ping-pong windows up to 1e6 ms and a
    time-to-trigger of up to ten steps."""
    cfg = draw(sim_configs())
    return dataclasses.replace(
        cfg,
        min_rsrp_dbm=draw(st.floats(-120.0, -40.0)),
        pingpong_window_ms=draw(st.floats(0.0, 1e6)),
        ttt_ms=cfg.step_ms * draw(st.sampled_from([0.001, 1.0, 1.5, 3.0, 10.0])),
    )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(cfg=oracle_scenarios(), seed=st.integers(0, 2**32 - 1), txps=st.lists(st.floats(-20.0, 50.0), max_size=4))
def test_tick_matches_the_reference_tick(cfg, seed, txps):
    run_beside_the_oracle(cfg, seed, txps)


@pytest.mark.parametrize("cfg, txps, events", [
    # two close cells in a tiny field, fast UEs: returns within the window
    (SimConfig(n_ues=30, area_m=(12.0, 4.0), gnb_positions=((5.0, 2.0), (7.0, 2.0)), duration_s=5.0,
               pingpong_window_ms=1e6, speed_classes=(("fixed", 1.0, 15.0, 15.0),)), (), {"HO", "PP"}),
    # one weak cell, so rn is -inf: UEs drive out of coverage and back
    (SimConfig(n_ues=30, area_m=(300.0, 10.0), gnb_positions=((5.0, 5.0),), txp_dbm=3.0, duration_s=30.0,
               speed_classes=(("fixed", 1.0, 10.0, 10.0),)), (), {"LF", "REATTACH"}),
    # a 350 ms time-to-trigger, and every 3.2 s the power drops out of coverage for a tick
    (SimConfig(n_ues=30, duration_s=20.0, ttt_ms=350.0, min_rsrp_dbm=-90.0), (30.0,) * 30 + (-10.0, 45.0),
     {"HO", "LF", "REATTACH"}),
])
def test_oracle_runs_reach_every_event(cfg, txps, events):
    trace = run_beside_the_oracle(cfg, 0, txps)
    assert events <= {row.event for row in trace}


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
