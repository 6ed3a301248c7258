"""Property tests: simulator invariants after every tick, the tick
against its reference implementation, and the ledger's attribution
window, over small random inputs."""

import dataclasses
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ric_cms import ran_sim
from ric_cms.detection import ChangeRecord, DegradationEvent, Ledger, UnattributableDegradationError
from ric_cms.ran_sim import SimConfig, Simulator, Trajectory, path_loss_db
from ric_cms.xapps import EE_KPI, ES_XAPP_ID, LF_KPI, MRO_XAPP_ID, TXP_PARAM, experiment_topology

from conftest import ReferenceSimulator, moved

# Derandomized so a tier-1 run is a function of the code; raise
# max_examples locally to search wider.
FEW = settings(max_examples=50, deadline=None, derandomize=True)


@st.composite
def sim_configs(draw):
    """Small scenarios SimConfig accepts: a random field, cell layout,
    step (100/3 ms among them, which is no binary fraction), power and
    speed mix, with the top speed inside one step."""
    w = draw(st.floats(20.0, 600.0))
    h = draw(st.floats(20.0, 600.0))
    step_ms = draw(st.sampled_from([50.0, 100.0 / 3, 100.0, 250.0, 500.0]))
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


@st.composite
def move_configs(draw):
    """Fields and speed mixes for long moves: a parked class (speed 0), a class at SimConfig's one-step
    bound, which crosses the narrow side of the field in a step, and random classes between; a field's
    sides are within a factor of two."""
    w = draw(st.floats(1.0, 500.0))
    h = w * draw(st.floats(0.5, 2.0))
    step_ms = draw(st.sampled_from([10.0, 100.0 / 3, 100.0, 1000.0]))
    top = min(w, h) * 1000.0 / step_ms
    while top * step_ms / 1000.0 > min(w, h):  # the largest speed the bound takes
        top = np.nextafter(top, 0.0)
    classes = [("parked", 0.0, 0.0), ("bound", top, top)]
    classes += [("c", *sorted(draw(st.floats(0.0, top)) for _ in range(2))) for _ in range(draw(st.integers(0, 2)))]
    weights = [draw(st.integers(1, 5)) for _ in classes]
    return SimConfig(n_ues=draw(st.integers(1, 20)), area_m=(w, h), step_ms=step_ms, duration_s=step_ms / 1000.0,
                     speed_classes=tuple((n, k / sum(weights), lo, hi) for (n, lo, hi), k in zip(classes, weights)))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(cfg=move_configs(), seed=st.integers(0, 2**32 - 1), rows=st.integers(1000, 1300))
def test_a_block_moves_byte_for_byte_as_one_row_a_step(cfg, seed, rows):
    traj = Trajectory(cfg, seed)
    block = np.empty((rows, cfg.n_ues, 2))
    last = traj._move(*traj.start, block)
    p, v = traj.start
    vel = []  # the velocity after each step
    for i in range(rows):
        one = np.empty((1, cfg.n_ues, 2))
        v = traj._move(p, v, one)
        assert one[0].tobytes() == block[i].tobytes(), f"row {i}"
        p = one[0]
        vel.append(v)
    assert v.tobytes() == last.tobytes()
    # on its faster axis a UE of the bound class crosses at least 0.35 of the field a step, so that
    # axis reflects at each edge over a hundred times
    vel = np.asarray(vel)[:, traj.speed_class == 1]
    fast = np.take_along_axis(vel, abs(vel[:1]).argmax(axis=-1)[..., None], axis=-1)[..., 0]
    turns = np.diff(np.sign(fast), axis=0)
    assert ((turns < 0).sum(axis=0) >= 100).all() and ((turns > 0).sum(axis=0) >= 100).all()


COUNTERS = ("link_failures", "total_handovers", "pingpong_handovers", "total_bits", "total_joules")


@FEW
@given(cfg=sim_configs(), seed=st.integers(0, 2**32 - 1), txps=st.lists(st.floats(0.0, 50.0), max_size=4))
def test_tick_keeps_its_invariants(cfg, seed, txps):
    sim = Simulator(Trajectory(cfg, seed), record_trace=True)
    pos, _ = moved(sim.trajectory, cfg.n_ticks)
    assert np.all(pos >= 0.0) and np.all(pos <= np.asarray(cfg.area_m))
    last = {c: getattr(sim, c) for c in COUNTERS}
    for k in range(cfg.n_ticks):
        if txps:
            sim.set_txp(txps[k % len(txps)])
        rows = len(sim.trace)
        _, _, lf, ho, pp = sim.tick()
        now = {c: getattr(sim, c) for c in COUNTERS}
        assert all(now[c] >= last[c] for c in COUNTERS)
        last = now
        attached = sim.serving >= 0
        assert np.all(sim._rsrp_matrix(pos[k + 1])[attached].max(axis=1, initial=-np.inf) >= cfg.min_rsrp_dbm)
        assert np.array_equal(sim.last_cell[attached], sim.serving[attached])
        events = Counter(row.event for row in sim.trace[rows:])
        assert lf == events["LF"]
        assert ho == events["HO"] + events["PP"] + events["REATTACH"]
        assert pp >= events["PP"]


STATE = ("serving", "last_cell", "prev_gnb", "last_ho_ms", "_ttt_count", "_ttt_target")


def run_beside_the_oracle(cfg, seed, txps=()):
    """Tick a Simulator and the ReferenceSimulator in step, setting the
    transmit power from `txps` in turn before each tick; every tick's tuple,
    state array and trace row must agree bit for bit, and so must the
    trajectory's path loss and that of the oracle's positions.  Returns the trace."""
    sim, ref = Simulator(Trajectory(cfg, seed)), ReferenceSimulator(Trajectory(cfg, seed))
    g = sim.gnbs
    for k in range(cfg.n_ticks):
        if txps:
            sim.set_txp(txps[k % len(txps)])
            ref.set_txp(txps[k % len(txps)])
        assert repr(sim.tick()) == repr(ref.tick()), k
        pl = path_loss_db(np.hypot(ref.pos[:, None, 0] - g[None, :, 0], ref.pos[:, None, 1] - g[None, :, 1]))
        assert sim.trajectory.row(k).tobytes() == pl.tobytes(), k
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


@settings(max_examples=50, deadline=None, derandomize=True)
@given(cfg=oracle_scenarios(), seed=st.integers(0, 2**32 - 1), txps=st.lists(st.floats(-20.0, 50.0), max_size=4))
def test_one_tick_blocks_match_the_reference_tick(cfg, seed, txps):
    # with no budget and no window every window is one tick long, as in a run whose tick of path
    # loss fills GEOMETRY_WINDOW_BYTES (over 8,192 UEs at 4 cells): each tick moves from the row it overwrites
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ran_sim, "GEOMETRY_BUDGET_BYTES", 0)
        mp.setattr(ran_sim, "GEOMETRY_WINDOW_BYTES", 0)
        run_beside_the_oracle(cfg, seed, txps)


def test_block_size_changes_no_result():
    cfg = SimConfig(n_ues=40, duration_s=30.0, ttt_ms=200.0, min_rsrp_dbm=-95.0)
    runs = []
    for budget in (ran_sim.GEOMETRY_BUDGET_BYTES, 0):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ran_sim, "GEOMETRY_BUDGET_BYTES", budget)
            sim = Simulator(Trajectory(cfg, 7))
            for k in range(cfg.n_ticks):
                sim.set_txp((30.0, 12.0, 45.0)[k // 50 % 3])
                sim.tick()
        # the whole run in one block, or a window the run slid along
        assert (sim.trajectory.base > 0) == (len(sim.trajectory.pl) < cfg.n_ticks) == (budget == 0)
        runs.append((repr(sim.kpi_report()), repr(sim.trace), sim.trajectory.row(cfg.n_ticks - 1).tobytes()))
    assert runs[0] == runs[1]
    assert "LF" in runs[0][1] and "HO" in runs[0][1]


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


def test_oracle_agrees_on_mass_link_failure_and_reattachment():
    # the power swings 50 -> -20 -> 50 dBm on consecutive ticks: most UEs fail at once, then come back
    cfg = SimConfig(n_ues=200, duration_s=3.0)
    trace = run_beside_the_oracle(cfg, 0, (50.0, -20.0, 50.0))
    per_tick = Counter((row.t_ms, row.event) for row in trace)
    assert per_tick[200.0, "LF"] > 100 and per_tick[300.0, "REATTACH"] == per_tick[200.0, "LF"]


def test_oracle_agrees_on_time_to_trigger_counts_that_never_fire():
    # a three-tick time-to-trigger; every fifth tick the power drops and detaches most UEs,
    # which ends the counts of 1 and 2 that A3 had started on them
    cfg, txps = SimConfig(n_ues=200, duration_s=10.0, ttt_ms=300.0), (30.0,) * 4 + (-20.0,)
    trace = run_beside_the_oracle(cfg, 0, txps)
    sim, unfired = Simulator(Trajectory(cfg, 0), record_trace=False), 0
    for k in range(cfg.n_ticks):
        before = sim._ttt_count
        sim.set_txp(txps[k % len(txps)])
        sim.tick()
        unfired += np.count_nonzero((before > 0) & (before < sim.required_ttt_ticks) & (sim._ttt_count == 0))
    assert sim.required_ttt_ticks == 3 and unfired > 0 and "HO" in {row.event for row in trace}


@pytest.mark.parametrize("cfg, txps", [
    # 3 and 50 dBm in turn every 10 ticks, as the no-coordination arm switches
    (SimConfig(n_ues=20, duration_s=120.0), (3.0,) * 10 + (50.0,) * 10),
    # one level, set again before every tick
    (SimConfig(n_ues=20, duration_s=120.0), (30.0,)),
    (SimConfig(n_ues=20, duration_s=120.0, ttt_ms=300.0), (30.0,)),
    (SimConfig(n_ues=200, duration_s=30.0, min_rsrp_dbm=-100.0), (30.0,)),
])
def test_ticks_served_from_a_scan_match_the_reference_tick(cfg, txps, monkeypatch):
    # a tick served from a scan computes no receive levels of its own
    levels, tick, counts = Simulator._levels, Simulator.tick, Counter()

    def counted_levels(self, *args):
        counts["levels"] += 1
        return levels(self, *args)

    def counted_tick(self):
        before = counts["levels"]
        stats = tick(self)
        counts["served"] += counts["levels"] == before
        return stats

    monkeypatch.setattr(Simulator, "_levels", counted_levels)
    monkeypatch.setattr(Simulator, "tick", counted_tick)
    run_beside_the_oracle(cfg, 0, txps)
    assert 0 < counts["served"] < cfg.n_ticks


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
