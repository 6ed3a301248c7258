import math
from dataclasses import astuple

import numpy as np
import pytest

from conftest import (
    BAD_NUMBERS,
    HandoverDecision,
    cycled,
    evaluate_handover,
    moved,
    placed,
    rsrp_dbm,
    rsrp_matrix,
    run,
    save_sim_config,
)
from ric_cms import ran_sim
from ric_cms.ran_sim import (
    GeometryWindowError,
    SimConfig,
    Simulator,
    TraceRow,
    Trajectory,
    antenna_gain_db,
    gnb_power_w,
    largest_remainder_counts,
    load_sim_config,
    path_loss_db,
    write_trace_csv,
)


# -- radio primitives -------------------------------------------------------

def test_rsrp_reference_points():
    # boresight tilt, three checkpoint distances
    assert rsrp_dbm(30.0, (0.0, 0.0), (1.0, 0.0)) == pytest.approx(-10.05)
    assert rsrp_dbm(30.0, (0.0, 0.0), (100.0, 0.0)) == pytest.approx(-80.05)
    assert rsrp_dbm(3.0, (0.0, 0.0), (1000.0, 0.0)) == pytest.approx(-142.05)


def test_path_loss_clamps_below_one_metre():
    assert path_loss_db(0.001) == path_loss_db(1.0) == pytest.approx(40.05)


def test_antenna_gain_penalizes_off_boresight():
    assert antenna_gain_db(1.5) == 0.0
    assert antenna_gain_db(2.5) == pytest.approx(-1.0)
    assert antenna_gain_db(0.5) == pytest.approx(-1.0)


def test_gnb_power_reference_points():
    assert gnb_power_w(30.0) == pytest.approx(104.0)
    assert gnb_power_w(50.0) == pytest.approx(500.0)
    assert gnb_power_w(3.0) == pytest.approx(100.0, abs=0.01)


def test_a3_trigger_examples():
    # neighbour -90 vs serving -93 with cio 2, hys 0.5: clearly in
    assert evaluate_handover([-93.0, -90.0], 0, 2.0, 0.5) == HandoverDecision(True, 1)
    # dead equal with no offset: hysteresis blocks it
    assert evaluate_handover([-90.0, -90.0], 0, 0.0, 0.5) == HandoverDecision(False, None)


def test_a3_needs_strictly_stronger_neighbour():
    # cio alone would fire, the strict guard keeps the UE put
    assert evaluate_handover([-90.0, -90.0], 0, 2.0, 0.5).triggered is False
    assert evaluate_handover([-90.0, -89.9], 0, 2.0, 0.5).triggered is True


def test_a3_single_cell_never_triggers():
    assert evaluate_handover([-90.0], 0, 2.0, 0.5).triggered is False


def test_largest_remainder_reference_mixes():
    assert largest_remainder_counts([0.35, 0.30, 0.35], 20) == [7, 6, 7]
    assert largest_remainder_counts([0.40, 0.30, 0.30], 20) == [8, 6, 6]
    assert largest_remainder_counts([0.35, 0.30, 0.35], 1) == [1, 0, 0]


def test_largest_remainder_always_sums_to_n():
    rng = np.random.default_rng(3)
    for _ in range(50):
        raw = rng.uniform(0.1, 1.0, size=rng.integers(1, 6))
        fracs = (raw / raw.sum()).tolist()
        for n in (1, 7, 20, 113):
            counts = largest_remainder_counts(fracs, n)
            assert sum(counts) == n
            assert all(c >= 0 for c in counts)


# -- population -------------------------------------------------------------

def test_population_is_stratified_exactly():
    traj = Trajectory(SimConfig(), seed=0)
    speed_counts = np.bincount(traj.speed_class, minlength=3).tolist()
    svc_counts = np.bincount(traj.service_class, minlength=3).tolist()
    assert speed_counts == [7, 6, 7]
    assert svc_counts == [8, 6, 6]
    # speeds fall inside their class band
    for i, (_, _, vmin, vmax) in enumerate(SimConfig().speed_classes):
        speeds = np.hypot(traj.start[1][:, 0], traj.start[1][:, 1])[traj.speed_class == i]
        assert np.all(speeds >= vmin - 1e-9) and np.all(speeds <= vmax + 1e-9)


def test_bandwidth_follows_service_class():
    traj = Trajectory(SimConfig(), seed=0)
    weights = {0: 1.5e6, 1: 0.75e6, 2: 0.25e6}
    for i in range(traj.cfg.n_ues):
        assert traj.bw_hz[i] == weights[int(traj.service_class[i])]


def test_everyone_starts_attached_to_strongest_cell():
    sim = Simulator(Trajectory(SimConfig(), 1))
    pos, _ = moved(sim.trajectory, 0)
    r = rsrp_matrix(sim, pos[0])
    assert np.array_equal(sim.serving, np.argmax(r, axis=1))


def test_default_grid_positions():
    g = SimConfig().resolved_gnbs()
    assert g.tolist() == [[100.0, 100.0], [300.0, 100.0], [100.0, 300.0], [300.0, 300.0]]


# -- dynamics ---------------------------------------------------------------

def test_mobility_stays_in_bounds():
    cfg = SimConfig(duration_s=30.0)
    pos, _ = moved(Trajectory(cfg, 4), cfg.n_ticks)
    assert np.all(pos >= 0.0) and np.all(pos <= np.asarray(cfg.area_m))


def test_reflection_reverses_velocity():
    cfg = SimConfig(n_ues=1, area_m=(50.0, 50.0), gnb_positions=((25.0, 25.0),),
                    speed_classes=(("fixed", 1.0, 10.0, 10.0),))
    pos, vel = moved(placed(cfg, [[49.5, 25.0]], [[10.0, 0.0]]), 1)
    assert pos[1, 0, 0] == pytest.approx(49.5)  # 50.5 folded back
    assert vel[0, 0] == -10.0


def test_vectorized_rsrp_matches_scalar(monkeypatch):
    # every level a run traces, solved or windowed, is the scalar level of its cell at its UE's position
    # after that tick, at the tick's TXP
    cfg = SimConfig(n_ues=200, duration_s=20.0, ttt_ms=300.0, min_rsrp_dbm=-90.0)  # LF can come off the strongest cell
    txp = {k: (30.0, -20.0)[k // 10 % 2] for k in range(0, cfg.n_ticks, 10)}  # mass failures, some mid-TTT
    pos = moved(Trajectory(cfg, 5), cfg.n_ticks)[0]
    for budget in (ran_sim.GEOMETRY_BUDGET_BYTES, 0):
        monkeypatch.setattr(ran_sim, "GEOMETRY_BUDGET_BYTES", budget)
        sim = Simulator(Trajectory(cfg, 5), txp)
        run(sim)
        assert {"HO", "LF", "REATTACH"} <= {row.event for row in sim.trace}
        for row in sim.trace:
            k = round(row.t_ms / cfg.step_ms)  # tick k - 1 ends at k * step_ms
            expected = rsrp_dbm(txp[(k - 1) // 10 * 10], sim.gnbs[row.serving_gnb], pos[k, row.ue_id], cfg.ret_deg)
            assert row.rsrp_dbm == pytest.approx(expected, abs=1e-9)


def _one_ue_config(**kw):
    base = dict(
        n_ues=1,
        speed_classes=(("fixed", 1.0, 5.0, 5.0),),
        service_classes=(("embb", 1.0, 1.5),),
    )
    base.update(kw)
    return SimConfig(**base)


def _crossing_run(**kw):
    # one UE pushed straight from cell A toward cell B; the simulator and its run's sums
    cfg = _one_ue_config(area_m=(400.0, 100.0), gnb_positions=((100.0, 50.0), (300.0, 50.0)),
                         duration_s=40.0, **kw)
    sim = Simulator(placed(cfg, [[100.0, 50.0]], [[5.0, 0.0]]))
    sim.serving[:] = 0
    sim.last_cell[:] = 0
    return sim, run(sim)  # 40 s at 5 m/s: ends at x=300, never reflects


def test_crossing_ue_hands_over_once():
    sim, (_, _, _, handovers, pingpongs) = _crossing_run()
    events = [row.event for row in sim.trace]
    assert events == ["HO"]
    assert sim.trace[0].t_ms == 20_100.0  # first tick past the midline
    assert handovers == 1
    assert pingpongs == 0
    assert sim.serving[0] == 1


def test_time_to_trigger_holds_the_handover_for_whole_ticks():
    # 300 ms is three 100 ms ticks: the A3 condition first holds at
    # 20,100 ms and must hold through 20,300 ms before the UE moves
    sim, (_, _, _, handovers, _) = _crossing_run(ttt_ms=300.0)
    assert [(row.t_ms, row.event) for row in sim.trace] == [(20_300.0, "HO")]
    assert handovers == 1
    assert sim.serving[0] == 1


def test_tick_follows_the_scalar_a3_oracle(monkeypatch):
    # every UE attached before a tick that still receives some cell must
    # end the tick where evaluate_handover sends it (one-tick TTT); a windowed
    # run, whose state is the tick's after each tick
    cfg = SimConfig(n_ues=200, duration_s=30.0)
    monkeypatch.setattr(ran_sim, "GEOMETRY_BUDGET_BYTES", 0)
    sim = Simulator(Trajectory(cfg, 3), record_trace=False)
    pos, _ = moved(sim.trajectory, cfg.n_ticks)
    checked = moves = 0
    for k in range(cfg.n_ticks):
        before = sim.serving.copy()
        sim.tick()
        r = rsrp_matrix(sim, pos[k + 1])
        for i in np.nonzero((before >= 0) & (r.max(axis=1) >= cfg.min_rsrp_dbm))[0]:
            d = evaluate_handover(r[i], int(before[i]), cfg.cio_db, cfg.hys_db)
            assert sim.serving[i] == (d.target if d.triggered else before[i])
            checked += 1
            moves += d.triggered
    assert checked == cfg.n_ues * cfg.n_ticks
    assert moves > 0


def test_link_failure_and_reattach_cycle():
    # single weak cell; the UE drives out of coverage, bounces, comes back
    cfg = _one_ue_config(
        area_m=(300.0, 10.0),
        gnb_positions=((5.0, 5.0),),
        txp_dbm=3.0,
        duration_s=60.0,
        speed_classes=(("fixed", 1.0, 10.0, 10.0),),
    )
    sim = Simulator(placed(cfg, [[5.0, 5.0]], [[10.0, 0.0]]))
    sim.serving[:] = 0
    sim.last_cell[:] = 0
    _, _, link_failures, handovers, _ = run(sim)
    events = [row.event for row in sim.trace]
    # coverage radius at 3 dBm is ~121 m: fail on the way out, return later
    assert events == ["LF", "REATTACH"]
    assert link_failures == 1
    assert handovers == 1  # the re-attachment
    assert sim.serving[0] == 0


def test_pingpong_detected_on_quick_return():
    # tiny field, two close cells, fast UE bouncing off the far wall and
    # re-crossing the midline inside the ping-pong window
    cfg = _one_ue_config(
        area_m=(12.0, 4.0),
        gnb_positions=((5.0, 2.0), (7.0, 2.0)),
        duration_s=2.0,
        speed_classes=(("fixed", 1.0, 15.0, 15.0),),
    )
    sim = Simulator(placed(cfg, [[5.9, 2.0]], [[15.0, 0.0]]))
    sim.serving[:] = 0
    sim.last_cell[:] = 0
    assert run(sim)[4] >= 1  # the ping-pongs
    assert "PP" in [row.event for row in sim.trace]


@pytest.mark.parametrize("x, last_ho_ms, cell, pingpongs, prev_gnb, move_ms", [
    (140.0, 0.0, 1, 1, 0, 200.0),      # back to the cell left 200 ms ago
    (140.0, -5000.0, 1, 0, 0, 200.0),  # the same move, outside the 1 s window
    (140.0, -800.0, 1, 1, 0, 200.0),   # the same move, on the window's edge
    (60.0, 0.0, 0, 0, 1, 0.0),         # back to the lost cell: no move
])
def test_reattachment_follows_the_pingpong_rule(x, last_ho_ms, cell, pingpongs, prev_gnb, move_ms):
    # a still UE at (x, 5) held on cell 0 after a move away from cell 1;
    # a 1 s time-to-trigger keeps A3 from moving it within two ticks
    cfg = _one_ue_config(
        area_m=(200.0, 10.0),
        gnb_positions=((50.0, 5.0), (150.0, 5.0)),
        ttt_ms=1000.0,
        speed_classes=(("still", 1.0, 0.0, 0.0),),
    )
    sim = Simulator(placed(cfg, [[x, 5.0]]), {0: -60.0, 1: 50.0})  # no cell receivable, then the strongest
    sim.serving[:] = 0
    sim.last_cell[:] = 0
    sim.prev_gnb[:] = 1
    sim.last_ho_ms[:] = last_ho_ms
    _, _, _, ho_lf, pp_lf = sim.tick()  # link failure
    _, _, _, ho_back, pp_back = sim.tick()  # re-attachment to the strongest cell
    events = [(row.t_ms, row.event, row.serving_gnb) for row in sim.trace]
    assert events == [(100.0, "LF", 0), (200.0, "REATTACH", cell)]
    assert (ho_lf, pp_lf, ho_back, pp_back) == (0, 0, 1, pingpongs)
    assert sim.prev_gnb[0] == prev_gnb
    assert sim.last_ho_ms[0] == move_ms


def test_throughput_and_energy_accounting():
    cfg = _one_ue_config(
        area_m=(200.0, 200.0),
        gnb_positions=((0.0, 0.0),),
        duration_s=1.0,
        speed_classes=(("still", 1.0, 0.0, 0.0),),
    )
    sim = Simulator(placed(cfg, [[100.0, 0.0]]))
    sim.serving[:] = 0
    bits, joules, _, _, _ = run(sim)
    # static UE at 100 m: rsrp -80.05, snr 19.95 dB, eMBB weight 1.5 MHz
    snr_lin = 10.0 ** (19.95 / 10.0)
    expected_bits = 1.5e6 * math.log2(1.0 + snr_lin) * 1.0
    assert bits == pytest.approx(expected_bits, rel=1e-9)
    assert joules == pytest.approx(gnb_power_w(30.0) * 1.0, rel=1e-12)
    assert bits / joules == pytest.approx(expected_bits / 104.0, rel=1e-9)


# The TXP a schedule sets is checked when the simulator is built, at any tick of the run.

@pytest.mark.parametrize("bad", [*BAD_NUMBERS, "30"])
def test_set_txp_rejects_what_is_not_a_finite_number(bad):
    traj = Trajectory(SimConfig(n_ues=5), 0)
    for tick in (0, 7):
        with pytest.raises(ValueError, match="transmit power"):
            Simulator(traj, {3: 30.0, tick: bad})


def test_set_txp_rejects_a_power_whose_energy_overflows():
    with pytest.raises(ValueError, match="txp_dbm"):
        Simulator(Trajectory(SimConfig(n_ues=5), 0), {5: 1e308})


@pytest.mark.parametrize("power", [-20.0, 0.0, 23.5, 46, np.float64(12.25)])
def test_set_txp_lands_a_finite_power_unchanged(power):
    cfg = SimConfig(n_ues=5, duration_s=1.0)
    sim = Simulator(Trajectory(cfg, 0), {4: power})
    joules = [sim.tick()[1] for _ in range(cfg.n_ticks)]
    assert repr(joules) == repr([4 * gnb_power_w(30.0 if k < 4 else float(power)) * 0.1 for k in range(cfg.n_ticks)])


@pytest.mark.parametrize("tick", [-1, 10, 2.0, True, "1", None])
def test_a_txp_schedule_sets_ticks_of_the_run(tick):
    with pytest.raises(ValueError, match=r"a TXP schedule's ticks must be integers from 0 to 9, got"):
        Simulator(Trajectory(SimConfig(n_ues=5, duration_s=1.0), 0), {tick: 30.0})


def test_detached_ue_earns_no_bits():
    cfg = _one_ue_config(
        area_m=(300.0, 10.0),
        gnb_positions=((0.0, 5.0),),
        txp_dbm=3.0,
        duration_s=1.0,
        speed_classes=(("still", 1.0, 0.0, 0.0),),
    )
    sim = Simulator(placed(cfg, [[250.0, 5.0]]))  # far outside the ~121 m coverage radius
    sim.serving[:] = 0
    bits, joules, link_failures, _, _ = run(sim)
    assert link_failures == 1
    assert bits == 0.0
    assert joules > 0.0  # the site burns power regardless


def test_same_seed_reproduces_run_exactly():
    a = Simulator(Trajectory(SimConfig(duration_s=20.0), 11))
    b = Simulator(Trajectory(SimConfig(duration_s=20.0), 11))
    assert repr(run(a)) == repr(run(b))
    assert a.trace == b.trace
    assert a.trajectory.pl.tobytes() == b.trajectory.pl.tobytes()


def test_different_seed_differs():
    a = Simulator(Trajectory(SimConfig(duration_s=20.0), 11))
    b = Simulator(Trajectory(SimConfig(duration_s=20.0), 12))
    run(a)
    run(b)
    assert a.trajectory.pl.tobytes() != b.trajectory.pl.tobytes()


def test_txp_change_midrun_shifts_levels():
    # the levels traced at 30 and at 50 dBm from the fifth tick on: every UE fails at -100 dBm on the
    # fourth tick, and re-attaches on the fifth at the tick's level
    cfg = SimConfig(n_ues=5, duration_s=1.0)
    levels = []
    for power in (30.0, 50.0):
        sim = Simulator(Trajectory(cfg, 2), {3: -100.0, 4: power})
        run(sim)
        levels.append([row.rsrp_dbm for row in sim.trace if row.event == "REATTACH"])
    assert len(levels[0]) == cfg.n_ues and np.allclose(np.subtract(*levels[::-1]), 20.0)


def test_trace_disabled_keeps_counters():
    a = Simulator(Trajectory(SimConfig(duration_s=20.0), 11))
    b = Simulator(Trajectory(SimConfig(duration_s=20.0), 11), record_trace=False)
    sums = run(a)
    assert repr(run(b)) == repr(sums)
    assert b.trace == []


def test_a_quiet_tick_does_no_event_bookkeeping(monkeypatch):
    cfg = SimConfig(duration_s=60.0)
    monkeypatch.setattr(ran_sim, "GEOMETRY_BUDGET_BYTES", 0)  # a windowed run, which ticks on its own
    calls = []
    change_cell = Simulator._change_cell
    monkeypatch.setattr(Simulator, "_change_cell", lambda self, *a, **kw: calls.append(a[0]) or change_cell(self, *a, **kw))
    sim = Simulator(Trajectory(cfg, 0))  # a one-tick TTT: every A3 UE hands over
    quiet = 0
    for _ in range(sim.cfg.n_ticks):
        before, rows = len(calls), len(sim.trace)
        _, _, lf, ho, _ = sim.tick()
        if ho or lf:
            assert len(calls) > before
            continue
        quiet += 1
        assert len(calls) == before and len(sim.trace) == rows
        assert not sim._ttt_count.any() and sim._ttt_count.dtype == np.int64
    assert 0 < quiet < sim.cfg.n_ticks


@pytest.mark.parametrize("budget", [pytest.param(ran_sim.GEOMETRY_BUDGET_BYTES, id="held"), pytest.param(0, id="windowed")])
def test_tick_constants_are_set_at_construction(monkeypatch, budget):
    counts = dict.fromkeys(("n_ticks", "antenna_gain_db", "gnb_power_w"), 0)

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(SimConfig, "n_ticks", property(counted("n_ticks", SimConfig.n_ticks.fget)))
    for name in ("antenna_gain_db", "gnb_power_w"):
        monkeypatch.setattr(ran_sim, name, counted(name, getattr(ran_sim, name)))
    cfg = SimConfig(duration_s=10.0)
    monkeypatch.setattr(ran_sim, "GEOMETRY_BUDGET_BYTES", budget)  # a solved run, then a windowed one
    sim = Simulator(Trajectory(cfg, 4), {k: float(k % 40) for k in range(10, 100, 10)})
    assert counts["n_ticks"] and counts["antenna_gain_db"] and counts["gnb_power_w"]
    sim.tick()  # the first tick builds the run's geometry, and solves a held run
    for k in range(1, 100):
        before = dict(counts)
        stats = sim.tick()
        assert counts == before, k
        # a plain tuple: a NamedTuple built per tick cost about 0.7 us of a 3 us served desk tick
        assert type(stats) is tuple
        _, joules, _, _, _ = stats
        if k % 10 == 0:
            assert repr(joules) == repr(len(sim.gnbs) * gnb_power_w(k % 40) * (cfg.step_ms / 1000.0))


# -- shared geometry --------------------------------------------------------

def test_geometry_is_read_only_after_the_first_tick():
    traj = Trajectory(SimConfig(n_ues=5, duration_s=2.0), 0)
    sim = Simulator(traj)
    for k in range(2):  # read-only from construction
        for x in (*traj.start, traj.pl):
            with pytest.raises(ValueError, match="read-only"):
                x[0, 0] = 1.0
        sim.tick()
        with pytest.raises(ValueError, match="read-only"):
            traj.row(k)[0, 0] = 1.0


def test_a_held_run_is_solved_on_its_first_tick(monkeypatch):
    calls = []  # each solve, and each tick's levels computed
    for name in ("_solve", "_levels"):
        monkeypatch.setattr(Simulator, name, lambda sim, *a, f=getattr(Simulator, name), k=name: calls.append(k) or f(sim, *a))
    cfg = SimConfig(n_ues=20, duration_s=6.0)
    sim = Simulator(Trajectory(cfg, 0), {k: (3.0, 50.0)[k // 10 % 2] for k in range(0, cfg.n_ticks, 10)})
    assert calls == []
    sim.tick()
    assert calls == ["_solve"] and sim.trace  # the whole run's trace
    run(sim, cfg.n_ticks - 1)
    assert calls == ["_solve"] and sim._ticks == []  # the stored ticks are used up

    monkeypatch.setattr(ran_sim, "GEOMETRY_BUDGET_BYTES", 0)  # a windowed run computes every tick's own levels
    calls.clear()
    run(Simulator(Trajectory(cfg, 0)))
    assert calls == ["_levels"] * cfg.n_ticks


def test_the_mobility_planes_first_cell_is_argmins_on_exact_ties():
    # all four cells tie at the field's centre, two on a bisector (the last two UEs move along theirs)
    cfg = SimConfig(n_ues=5, duration_s=3.0)
    pos = [[200.0, 200.0], [200.0, 300.0], [300.0, 200.0], [200.0, 100.0], [100.0, 200.0]]
    traj = placed(cfg, pos, [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 10.0], [5.0, 0.0]])
    traj.row(0)
    least, first, _ = traj.mobility()
    pl = traj.pl.transpose(1, 0, 2)  # (UE, tick, cell)
    assert ((pl == least[:, :, None]).sum(axis=2) == [[4], [2], [2], [2], [2]]).all()  # the ties are exact
    assert np.array_equal(first, pl.argmin(axis=2))
    assert first[:, 0].tolist() == [0, 2, 1, 0, 0]


def two_tick_windows(monkeypatch, cfg):
    monkeypatch.setattr(ran_sim, "GEOMETRY_BUDGET_BYTES", 0)
    monkeypatch.setattr(ran_sim, "GEOMETRY_WINDOW_BYTES", 2 * cfg.n_ues * len(cfg.resolved_gnbs()) * 8)


def test_a_sharer_outside_the_window_raises(monkeypatch):
    cfg = SimConfig(n_ues=5, duration_s=2.0)
    two_tick_windows(monkeypatch, cfg)
    a = Simulator(Trajectory(cfg, 3))
    a.tick()
    b = Simulator(a.trajectory)
    b.tick()
    run(a, 2)  # a's third tick slides the window past b's second
    with pytest.raises(GeometryWindowError, match="tick 1 is outside"):
        b.tick()
    with pytest.raises(GeometryWindowError, match="tick 4 is outside"):
        a.trajectory.row(4)
    with pytest.raises(GeometryWindowError, match="tick 0 is outside"):
        Simulator(a.trajectory).tick()  # the window no longer holds tick 0


def test_a_tick_past_the_run_raises_and_leaves_a_shared_block_alone():
    cfg = SimConfig(n_ues=5, duration_s=1.0)
    a, solo = Simulator(Trajectory(cfg, 3)), Simulator(Trajectory(cfg, 3))
    run(a)
    b = Simulator(a.trajectory)
    ticks = [b.tick() for _ in range(5)]
    with pytest.raises(GeometryWindowError, match="tick 10 is outside"):
        a.tick()
    ticks += [b.tick() for _ in range(5)]
    assert repr(ticks) == repr([solo.tick() for _ in range(cfg.n_ticks)])


def test_a_waiting_sharer_reads_its_own_state(monkeypatch):
    cfg = SimConfig(n_ues=5, duration_s=2.0)
    two_tick_windows(monkeypatch, cfg)
    a, solo = Simulator(Trajectory(cfg, 3)), Simulator(Trajectory(cfg, 3))
    run(a, 1)
    b = Simulator(a.trajectory)
    ticks = [b.tick() for _ in range(2)]
    run(a, 3)  # rewrites the rows b ticked through
    ticks += [b.tick() for _ in range(2)]  # the rows a computed while b waited
    assert repr(ticks) == repr([solo.tick() for _ in range(4)])
    assert repr(b.trace) == repr(solo.trace)


# -- config -----------------------------------------------------------------

def test_config_roundtrip(tmp_path):
    cfg = SimConfig(n_ues=7, duration_s=12.0, gnb_positions=((1.0, 2.0), (3.0, 4.0)))
    path = tmp_path / "scenario.json"
    save_sim_config(cfg, path)
    assert load_sim_config(path) == cfg
    # The default scenario's exact bytes: indent 2, sorted keys, one newline.
    save_sim_config(SimConfig(), path)
    assert path.read_bytes() == DEFAULT_SCENARIO_JSON.encode()


DEFAULT_SCENARIO_JSON = """\
{
  "area_m": [
    400.0,
    400.0
  ],
  "cio_db": 2.0,
  "duration_s": 120.0,
  "gnb_positions": null,
  "hys_db": 0.5,
  "min_rsrp_dbm": -110.0,
  "n_ues": 20,
  "noise_floor_dbm": -100.0,
  "pingpong_window_ms": 1000.0,
  "ret_deg": 1.5,
  "service_classes": [
    [
      "embb",
      0.4,
      1.5
    ],
    [
      "urllc",
      0.3,
      0.75
    ],
    [
      "mmtc",
      0.3,
      0.25
    ]
  ],
  "speed_classes": [
    [
      "walking",
      0.35,
      0.0,
      1.0
    ],
    [
      "cycling",
      0.3,
      2.0,
      5.0
    ],
    [
      "driving",
      0.35,
      6.0,
      15.0
    ]
  ],
  "step_ms": 100.0,
  "ttt_ms": 0.1,
  "txp_dbm": 30.0,
  "ue_bandwidth_hz": 1000000.0
}
"""


def test_config_validation():
    with pytest.raises(ValueError, match="n_ues"):
        SimConfig(n_ues=0)
    with pytest.raises(ValueError, match="fractions"):
        SimConfig(speed_classes=(("a", 0.5, 0.0, 1.0), ("b", 0.4, 1.0, 2.0)))
    with pytest.raises(ValueError, match="positive"):
        SimConfig(step_ms=-1.0)


@pytest.mark.parametrize(
    "overrides, detail",
    [
        (dict(area_m=(50.0, 50.0), speed_classes=(("jet", 1.0, 900.0, 1000.0),)), "crosses more than the field"),
        (dict(step_ms=1000.0, speed_classes=(("fast", 1.0, 300.0, 500.0),)), "crosses more than the field"),
        (dict(area_m=(0.0, 400.0)), "area_m"),
        (dict(area_m=(400.0, -1.0)), "area_m"),
        (dict(speed_classes=(("a", 1.0, -1.0, 1.0),)), "vmin"),
        (dict(speed_classes=(("a", 1.0, 5.0, 2.0),)), "vmin"),
        (dict(ue_bandwidth_hz=0.0), "bandwidth"),
        (dict(ue_bandwidth_hz=-1.0e6), "bandwidth"),
        (dict(service_classes=(("embb", 1.0, -1.5),)), "weights"),
        (dict(txp_dbm=3110.0), "txp_dbm"),
        (dict(step_ms=1e-320), "duration_s"),
    ],
    ids=[
        "field-crossed-in-one-step",
        "long-step-crosses-field",
        "area-zero",
        "area-negative",
        "vmin-negative",
        "vmin-above-vmax",
        "bandwidth-zero",
        "bandwidth-negative",
        "weight-negative",
        "energy-per-step-infinite",
        "ticks-past-float64",
    ],
)
def test_config_rejects_what_tick_cannot_handle(overrides, detail):
    with pytest.raises(ValueError, match=detail):
        SimConfig(**overrides)


def test_one_tick_of_path_loss_must_fit_the_geometry_budget():
    # 131,072 UEs at the default 4 cells is 4 MiB of float64 path loss a tick, the whole budget
    most = ran_sim.GEOMETRY_BUDGET_BYTES // (4 * 8)
    assert most == 131072 and SimConfig(n_ues=most).n_ues == most
    for n_ues in (most + 1, 10**400):
        with pytest.raises(ValueError, match=f"n_ues must be a positive integer, at most {most}"):
            SimConfig(n_ues=n_ues)
    assert SimConfig(n_ues=4 * most, gnb_positions=((1.0, 1.0),)).n_ues == 4 * most


def test_top_speed_may_cross_exactly_the_field():
    cfg = SimConfig(area_m=(50.0, 50.0), speed_classes=(("fast", 1.0, 400.0, 500.0),), duration_s=5.0)
    pos, _ = moved(Trajectory(cfg, 3), cfg.n_ticks)
    assert np.all(pos >= 0.0) and np.all(pos <= np.asarray(cfg.area_m))


def test_the_clock_is_the_tick_count_times_the_step():
    # summing 100/3 thirty times gives 1000.0000000000005; 30 * (100 / 3) is 1000.0000000000001
    cfg = SimConfig(n_ues=5, duration_s=1.0, step_ms=100 / 3)
    sim = Simulator(Trajectory(cfg, 0), cycled(cfg, (-100.0, 30.0)))  # every UE fails, then re-attaches
    run(sim)  # each tick traces its time
    assert sorted({row.t_ms for row in sim.trace}) == [(i + 1) * (100 / 3) for i in range(30)]
    assert sim.trace[-1].t_ms == 30 * (100 / 3)


def test_n_ticks():
    assert SimConfig(duration_s=120.0, step_ms=100.0).n_ticks == 1200


@pytest.mark.parametrize("duration_s", [0.25, 0.35, 120.05])
def test_duration_must_be_a_whole_number_of_steps(duration_s):
    # rounded, 0.25 s ran 2 ticks and 0.35 s ran 4, while calibration and summary.json read the declared duration
    with pytest.raises(ValueError, match=r"must be a whole number of step_ms \(100\)"):
        SimConfig(duration_s=duration_s)
    assert SimConfig(duration_s=1.0, step_ms=100 / 3).n_ticks == 30  # within 1e-9 of a whole tick count
    with pytest.raises(ValueError, match="at least one step_ms"):
        SimConfig(duration_s=0.07)


def test_trace_csv_format(tmp_path):
    sim = Simulator(Trajectory(SimConfig(duration_s=30.0), 4))
    run(sim)
    path = tmp_path / "trace.csv"
    write_trace_csv(sim.trace, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t_ms,ue_id,serving_gnb,rsrp_dbm,event"
    if len(lines) > 1:
        fields = lines[1].split(",")
        assert len(fields) == 5
        float(fields[0]); int(fields[1]); int(fields[2]); float(fields[3])
        assert fields[4] in {"HO", "LF", "REATTACH", "PP"}


def test_trace_times_read_back_exactly(tmp_path):
    # six significant digits wrote 19966.666666666668 as 19966.7, and 599999.5 as 600000, the next tick's time
    times = [100.0, 19966.666666666668, 599999.5, 30 * (100 / 3), 600000.0]
    trace = [TraceRow(t, i, j, -80.25 - j, ("HO", "LF")[j]) for i, t in enumerate(times) for j in range(2)]
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    assert [(float(t), int(u), int(g), float(rs), e) for t, u, g, rs, e in rows] == [astuple(r) for r in trace]
    assert [r[0] for r in rows[::2]] == ["100", "19966.666666666668", "599999.5", "1000.0000000000001", "600000"]
