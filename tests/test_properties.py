"""Property tests: simulator invariants after every tick, the solved and
the per-tick run against the reference tick, and the ledger's attribution
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

from conftest import ReferenceSimulator, cycled, moved, placed, rsrp_matrix

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


@FEW
@given(cfg=sim_configs(), seed=st.integers(0, 2**32 - 1), txps=st.lists(st.floats(0.0, 50.0), max_size=4))
def test_tick_keeps_its_invariants(cfg, seed, txps):
    pos, _ = moved(Trajectory(cfg, seed), cfg.n_ticks)
    assert np.all(pos >= 0.0) and np.all(pos <= np.asarray(cfg.area_m))
    for budget in (ran_sim.GEOMETRY_BUDGET_BYTES, 0):  # a solved run, then one ticked on its own
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ran_sim, "GEOMETRY_BUDGET_BYTES", budget)
            sim = Simulator(Trajectory(cfg, seed), cycled(cfg, txps))
            ticks = []
            for k in range(cfg.n_ticks):
                ticks.append(sim.tick())
                if budget and k < cfg.n_ticks - 1:  # a solved simulator holds the run's end state only
                    continue
                attached = sim.serving >= 0
                level = txps[k % len(txps)] if txps else cfg.txp_dbm
                assert np.all(rsrp_matrix(sim, pos[k + 1], level)[attached].max(axis=1, initial=-np.inf) >= cfg.min_rsrp_dbm)
                assert np.array_equal(sim.last_cell[attached], sim.serving[attached])
        events = Counter((row.t_ms, row.event) for row in sim.trace)
        for k, (bits, joules, lf, ho, pp) in enumerate(ticks):
            t = (k + 1) * cfg.step_ms
            assert bits >= 0.0 and joules > 0.0 and min(lf, ho, pp) >= 0
            assert lf == events[t, "LF"]
            assert ho == events[t, "HO"] + events[t, "PP"] + events[t, "REATTACH"]
            assert pp >= events[t, "PP"]
        assert sum(events.values()) == len(sim.trace)


END_STATE = ("serving", "last_cell", "prev_gnb", "last_ho_ms")
STATE = END_STATE + ("_ttt_count", "_ttt_target")


def run_beside_the_oracle(cfg, seed, txp=None, start=None):
    """Tick a Simulator and the ReferenceSimulator in step under the TXP schedule `txp`, with the
    UEs of seed's trajectory, or placed at `start` (pos, vel); every tick's tuple and trace row must
    agree bit for bit, and so must the trajectory's path loss and that of the oracle's positions.
    The state arrays must agree after every tick of a windowed run; a solved run holds its end
    state from its first tick, so its attachment state is compared after the last.  Returns the trace."""
    def trajectory():
        return Trajectory(cfg, seed) if start is None else placed(cfg, *start, seed=seed)

    sim, ref = Simulator(trajectory(), txp), ReferenceSimulator(trajectory(), txp)
    g = sim.gnbs
    for k in range(cfg.n_ticks):
        assert repr(sim.tick()) == repr(ref.tick()), k
        pl = path_loss_db(np.hypot(ref.pos[:, None, 0] - g[None, :, 0], ref.pos[:, None, 1] - g[None, :, 1]))
        assert sim.trajectory.row(k).tobytes() == pl.tobytes(), k
        if not sim._held or k == cfg.n_ticks - 1:
            for name in END_STATE if sim._held else STATE:
                a, b = getattr(sim, name), getattr(ref, name)
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), (k, name)
    assert repr(sim.trace) == repr(ref.trace)
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
    run_beside_the_oracle(cfg, seed, cycled(cfg, txps))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(cfg=oracle_scenarios(), seed=st.integers(0, 2**32 - 1), txps=st.lists(st.floats(-20.0, 50.0), max_size=4))
def test_one_tick_blocks_match_the_reference_tick(cfg, seed, txps):
    # with no budget and no window every window is one tick long, as in a run whose tick of path
    # loss fills GEOMETRY_WINDOW_BYTES (over 8,192 UEs at 4 cells): each tick moves from the row it overwrites
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ran_sim, "GEOMETRY_BUDGET_BYTES", 0)
        mp.setattr(ran_sim, "GEOMETRY_WINDOW_BYTES", 0)
        run_beside_the_oracle(cfg, seed, cycled(cfg, txps))


def test_block_size_changes_no_result():
    cfg = SimConfig(n_ues=40, duration_s=30.0, ttt_ms=200.0, min_rsrp_dbm=-95.0)
    runs = []
    for budget in (ran_sim.GEOMETRY_BUDGET_BYTES, 0):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ran_sim, "GEOMETRY_BUDGET_BYTES", budget)
            sim = Simulator(Trajectory(cfg, 7), {k: (30.0, 12.0, 45.0)[k // 50 % 3] for k in range(0, cfg.n_ticks, 50)})
            ticks = [sim.tick() for _ in range(cfg.n_ticks)]
        # the whole run in one block, or a window the run slid along
        assert (sim.trajectory.base > 0) == (len(sim.trajectory.pl) < cfg.n_ticks) == (budget == 0)
        runs.append((repr(ticks), repr(sim.trace), sim.trajectory.row(cfg.n_ticks - 1).tobytes()))
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
    trace = run_beside_the_oracle(cfg, 0, cycled(cfg, txps))
    assert events <= {row.event for row in trace}


@pytest.mark.parametrize("min_rsrp_dbm, detached", [(-90.0, 0), (-80.0, 6)])
def test_oracle_agrees_on_bits_summed_over_one_attached_set(min_rsrp_dbm, detached):
    # a solve sums each run of ticks with one attached set, straight from its rows while every UE is attached,
    # else over the attached columns; at desk's 20 UEs and 4 cells an earlier solve cut such a run at tick 102
    cfg = SimConfig(n_ues=20, duration_s=30.0, min_rsrp_dbm=min_rsrp_dbm)
    trace = run_beside_the_oracle(cfg, 0, {0: 30.0, 150: 20.0, 200: 30.0})
    off = np.zeros(cfg.n_ticks, dtype=int)  # the UEs detached after each tick
    for row in trace:
        off[round(row.t_ms / cfg.step_ms) - 1:] += {"LF": 1, "REATTACH": -1}.get(row.event, 0)
    moves = {round(row.t_ms / cfg.step_ms) - 1 for row in trace if row.event in ("LF", "REATTACH")}
    assert 102 not in moves and off[101] == detached  # a run of one attached set goes on across tick 102
    assert ((0 < off) & (off < cfg.n_ues)).any()  # and a run has some UEs detached, not all


def test_oracle_agrees_on_mass_link_failure_and_reattachment():
    # the power swings 50 -> -20 -> 50 dBm on consecutive ticks: most UEs fail at once, then come back
    cfg = SimConfig(n_ues=200, duration_s=3.0)
    trace = run_beside_the_oracle(cfg, 0, cycled(cfg, (50.0, -20.0, 50.0)))
    per_tick = Counter((row.t_ms, row.event) for row in trace)
    assert per_tick[200.0, "LF"] > 100 and per_tick[300.0, "REATTACH"] == per_tick[200.0, "LF"]


def test_oracle_agrees_on_time_to_trigger_counts_that_never_fire():
    # a three-tick time-to-trigger; every fifth tick the power drops and detaches most UEs,
    # which ends the counts of 1 and 2 that A3 had started on them
    cfg = SimConfig(n_ues=200, duration_s=10.0, ttt_ms=300.0)
    txp = cycled(cfg, (30.0,) * 4 + (-20.0,))
    trace = run_beside_the_oracle(cfg, 0, txp)
    with pytest.MonkeyPatch.context() as mp:  # the counts of a windowed run, which ticks on its own
        mp.setattr(ran_sim, "GEOMETRY_BUDGET_BYTES", 0)
        sim, unfired = Simulator(Trajectory(cfg, 0), txp, record_trace=False), 0
        for k in range(cfg.n_ticks):
            before = sim._ttt_count
            sim.tick()
            unfired += np.count_nonzero((before > 0) & (before < sim.required_ttt_ticks) & (sim._ttt_count == 0))
    assert sim.required_ttt_ticks == 3 and unfired > 0 and "HO" in {row.event for row in trace}


def test_oracle_agrees_on_a3_runs_cut_short_of_the_time_to_trigger():
    # one UE bounces at 15 m/s through the 1.5 m strip by the east wall where the east cell is the stronger:
    # two ticks a visit against a three-tick time-to-trigger, so each visit's count starts again at 1, and
    # after its one handover west the UE never hands back
    cfg = SimConfig(n_ues=1, area_m=(7.5, 4.0), gnb_positions=((5.0, 2.0), (7.0, 2.0)), duration_s=5.0,
                    ttt_ms=300.0, speed_classes=(("fixed", 1.0, 15.0, 15.0),))
    trace = run_beside_the_oracle(cfg, 0, start=([[6.5, 2.0]], [[15.0, 0.0]]))
    assert [(r.t_ms, r.serving_gnb, r.event) for r in trace] == [(400.0, 0, "HO")]


@pytest.mark.parametrize("txp, events", [
    ({}, [(10_100.0, 0, 0, "HO"), (10_100.0, 1, 1, "HO")]),
    # both UEs fail at tick 98 and come back at the tie, to its first cell
    ({98: -60.0, 99: 30.0}, [(9_900.0, 0, 1, "LF"), (9_900.0, 1, 0, "LF"), (10_000.0, 0, 0, "REATTACH"),
                             (10_000.0, 1, 0, "REATTACH"), (10_100.0, 1, 1, "HO")]),
])
def test_oracle_agrees_on_an_exact_level_tie(txp, events):
    # two UEs drive 1 m a tick toward each other's cell and stand exactly between the two cells at tick 99:
    # both cells have the same level there, so A3 leaves each UE on its cell, and a re-attachment takes the first
    cfg = SimConfig(n_ues=2, gnb_positions=((100.0, 200.0), (300.0, 200.0)), duration_s=12.0,
                    speed_classes=(("fixed", 1.0, 10.0, 10.0),))
    start = [[300.0, 200.0], [100.0, 200.0]], [[-10.0, 0.0], [10.0, 0.0]]
    traj = placed(cfg, *start)
    traj.row(0)  # builds the whole run
    pl = traj.row(99)
    assert pl[0, 0] == pl[0, 1] and pl[1, 0] == pl[1, 1]
    trace = run_beside_the_oracle(cfg, 0, txp, start)
    assert [(r.t_ms, r.ue_id, r.serving_gnb, r.event) for r in trace] == events


class FixedRow(Trajectory):
    """Every UE sees the path loss `row` (one entry a cell) at its start and every tick."""

    def __init__(self, cfg, row):
        super().__init__(cfg, 0)
        self.fixed = row

    def _path_loss(self, pos, out=None):
        out = np.empty((*pos.shape[:-1], len(self.fixed))) if out is None else out
        out[...] = self.fixed
        return out


@pytest.mark.parametrize("budget", [ran_sim.GEOMETRY_BUDGET_BYTES, 0], ids=["solved", "windowed"])
def test_a_one_ulp_path_loss_tie_goes_to_the_lower_path_loss(budget):
    # cells 0 and 1 are one ulp of path loss apart, and at -30 dBm their levels round equal: the level rule
    # took the lower index, cell 0; the path-loss rule takes cell 1 for the initial attach (UE 0), the A3
    # target from cell 0 (UE 1, which the level rule kept on cell 0) and from cell 2 (UE 2), and the re-attachment
    cfg = SimConfig(n_ues=3, gnb_positions=((100.0, 100.0), (300.0, 100.0), (200.0, 300.0)), txp_dbm=-30.0,
                    min_rsrp_dbm=-150.0, duration_s=1.0)
    lo = 100.0
    while -30.0 - lo != -30.0 - np.nextafter(lo, np.inf):  # -30 - lo is in a binade of twice lo's ulp
        lo = float(np.nextafter(lo, np.inf))
    row = np.array([np.nextafter(lo, np.inf), lo, 120.0])
    assert row[0] > row[1] and (-30.0 - row).argmax() == 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ran_sim, "GEOMETRY_BUDGET_BYTES", budget)
        sim = Simulator(FixedRow(cfg, row), {3: -100.0, 4: -30.0})  # all fail at tick 3 and come back at tick 4
    assert sim.serving.tolist() == [1, 1, 1]
    sim.serving[1:] = sim.last_cell[1:] = [0, 2]
    ticks = [sim.tick() for _ in range(cfg.n_ticks)]
    assert [t[2:] for t in ticks[:5]] == [(0, 2, 0), (0, 0, 0), (0, 0, 0), (3, 0, 0), (0, 3, 0)]
    assert [(r.t_ms, r.ue_id, r.serving_gnb, r.rsrp_dbm, r.event) for r in sim.trace] == [
        (100.0, 1, 1, -30.0 - lo, "HO"), (100.0, 2, 1, -30.0 - lo, "HO"),
        *((400.0, u, 1, -100.0 - lo, "LF") for u in range(3)), *((500.0, u, 1, -30.0 - lo, "REATTACH") for u in range(3))]


@pytest.mark.parametrize("cfg, txps", [
    # 3 and 50 dBm in turn every 10 ticks, as the no-coordination arm switches
    (SimConfig(n_ues=20, duration_s=120.0), (3.0,) * 10 + (50.0,) * 10),
    # one level, set again before every tick
    (SimConfig(n_ues=20, duration_s=120.0), (30.0,)),
    (SimConfig(n_ues=20, duration_s=120.0, ttt_ms=300.0), (30.0,)),
    (SimConfig(n_ues=200, duration_s=30.0, min_rsrp_dbm=-100.0), (30.0,)),
])
def test_ticks_served_from_the_solve_match_the_reference_tick(cfg, txps, monkeypatch):
    # a held run is solved once, on its first tick, and no tick computes receive levels of its own
    counts = Counter()
    for name in ("_levels", "_solve"):
        monkeypatch.setattr(Simulator, name, lambda self, *a, f=getattr(Simulator, name), k=name: counts.update([k]) or f(self, *a))
    run_beside_the_oracle(cfg, 0, cycled(cfg, txps))
    assert counts == {"_solve": 1}


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
