"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass
from itertools import repeat
from pathlib import Path
from typing import Sequence

import numpy as np

from ric_cms.conflict_model import KpiDirection, KpiSpec, XAppDescriptor
from ric_cms.files import write_json
from ric_cms.mitigation import KpiResponseModel
from ric_cms.ran_sim import SimConfig, Simulator, TraceRow, Trajectory, antenna_gain_db, gnb_power_w, path_loss_db


def _kpi_json(kpi_id: str) -> dict:
    return {"id": kpi_id, "direction": "maximize", "sla_threshold": 100.0, "sla_sensitive": True}


# The five-xApp reference topology as it is written in a topology JSON file.
FIVE_XAPP_TOPOLOGY_JSON = {
    "xapps": [
        {"id": "x1", "icps": ["p1", "p2"], "kpis": [_kpi_json("k1")]},
        {"id": "x2", "icps": ["p1", "p2", "p3"], "kpis": [_kpi_json("k2")]},
        {"id": "x3", "icps": ["p1", "p4"], "kpis": [_kpi_json("k3")]},
        {"id": "x4", "icps": ["p5", "p6"], "kpis": [_kpi_json("k41"), _kpi_json("k42")]},
        {"id": "x5", "icps": ["p7", "p8"], "kpis": [_kpi_json("k5")]},
    ],
    "extra_kp_edges": [["k41", "p2"], ["k42", "p2"]],
}

# Values every number boundary refuses: a bool, a numeric string, None,
# NaN, both infinities and an integer past the float range.
BAD_NUMBERS = [True, "1.5", None, math.nan, math.inf, -math.inf, 10**400]


def random_topology_inputs(rng: random.Random, max_xapps=10, max_params=12, max_kpis=8):
    """Random descriptor set: params drawn from a shared pool (overlap is
    the point), KPIs partitioned so ownership stays unique.  Returns
    (descriptors, extra_kp_edges)."""
    n_x = rng.randint(1, max_xapps)
    params = [f"p{i}" for i in range(rng.randint(1, max_params))]
    kpi_ids = [f"k{i}" for i in range(rng.randint(1, max_kpis))]
    rng.shuffle(kpi_ids)

    # deal KPIs round-robin-ish: each lands with exactly one random xApp
    owners: dict[int, list[str]] = {i: [] for i in range(n_x)}
    for k in kpi_ids:
        owners[rng.randrange(n_x)].append(k)

    xapps = []
    for i in range(n_x):
        n_icps = rng.randint(0, len(params))
        icps = tuple(rng.sample(params, n_icps))
        kpis = tuple(
            KpiSpec(k, rng.choice(list(KpiDirection)), sla_threshold=rng.uniform(0.1, 10.0), sla_sensitive=True)
            for k in owners[i]
        )
        xapps.append(XAppDescriptor(f"x{i}", icps, kpis))

    declared_params = sorted({p for x in xapps for p in x.icps})
    extra = []
    if declared_params and rng.random() < 0.5:
        for _ in range(rng.randint(1, 3)):
            extra.append((rng.choice(kpi_ids), rng.choice(declared_params)))
    return xapps, tuple(extra)


def oracle_param_groups(xapps, extra_kp_edges=()):
    """Membership-test oracle: p belongs to k's group iff some app both
    writes p and monitors k, or the edge was declared outright."""
    all_kpis = {k.id for x in xapps for k in x.kpis}
    all_params = {p for x in xapps for p in x.icps}
    groups = {k: set() for k in all_kpis}
    for k in all_kpis:
        for p in all_params:
            if any(p in x.icps and k in x.kpi_ids() for x in xapps):
                groups[k].add(p)
    for k, p in extra_kp_edges:
        groups[k].add(p)
    return groups


def oracle_direct_pairs(xapps):
    """Pairwise ICP intersections, as a set of (a, b, frozenset(params))."""
    out = set()
    for i, a in enumerate(xapps):
        for b in xapps[i + 1 :]:
            shared = frozenset(a.icps) & frozenset(b.icps)
            if shared:
                pair = tuple(sorted((a.id, b.id)))
                out.add((pair[0], pair[1], shared))
    return out


def random_qacm_instance(rng: random.Random):
    """Random optimizer input covering the satisfaction edge cases:
    negative thresholds, zero predictions, mixed directions."""
    n_models = rng.randint(1, 4)
    models = []
    for j in range(n_models):
        direction = rng.choice(list(KpiDirection))
        if direction is KpiDirection.MAXIMIZE:
            threshold = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 10.0)
        else:
            threshold = rng.uniform(-2.0, 10.0)
        n_pts = rng.randint(2, 5)
        vs = sorted(rng.sample(range(-20, 80), n_pts))
        ys = [rng.choice([0.0, rng.uniform(-5.0, 20.0)]) for _ in range(n_pts)]
        models.append(KpiResponseModel(f"k{j}", direction, threshold, tuple(zip(map(float, vs), ys))))
    lo = rng.uniform(-10.0, 10.0)
    hi = lo + rng.uniform(0.0, 40.0)
    step = rng.choice([0.5, 1.0, 2.5])
    return models, (lo, hi), step


def random_desk_shaped_model_set(rng: random.Random):
    """Optimizer input shaped like the desk's calibrated set and the
    benchmark's control-plane request sets: a maximized and a minimized
    KPI over two-point curves inside the range, about 50 grid points."""
    lo = rng.uniform(-10.0, 10.0)
    hi = lo + rng.uniform(40.0, 60.0)
    a, b = sorted(rng.uniform(lo, hi) for _ in range(2))
    ee = (rng.uniform(0.5, 5.0), rng.uniform(0.5, 5.0))
    lf = (rng.uniform(0.0, 40.0), rng.uniform(0.0, 40.0))
    models = [
        KpiResponseModel("ee", KpiDirection.MAXIMIZE, rng.uniform(*sorted(ee)), ((a, ee[0]), (b, ee[1]))),
        KpiResponseModel("lf", KpiDirection.MINIMIZE, rng.uniform(0.0, 40.0), ((a, lf[0]), (b, lf[1]))),
    ]
    return models, (lo, hi), rng.uniform(0.8, 1.25)


def random_on_breakpoint_instance(rng: random.Random):
    """Optimizer input whose grid lands exactly on interior breakpoints
    (and on the curve ends), where the earlier segment must be taken."""
    lo = rng.uniform(-10.0, 10.0)
    step = rng.choice([0.1, 0.5, 1.0, 1.3, 2.5])
    n = rng.randint(5, 60)
    grid = [lo + i * step for i in range(n)]
    models = []
    for j in range(rng.randint(1, 3)):
        vs = sorted(rng.sample(grid, rng.randint(3, min(6, n))))
        ys = [rng.choice([0.0, rng.uniform(-5.0, 20.0)]) for _ in vs]
        direction = rng.choice(list(KpiDirection))
        threshold = rng.uniform(0.5, 10.0) if direction is KpiDirection.MAXIMIZE else rng.uniform(-2.0, 10.0)
        models.append(KpiResponseModel(f"k{j}", direction, threshold, tuple(zip(vs, ys))))
    return models, (lo, grid[-1]), step


def oracle_predict(model, v):
    """The piecewise-linear curve at one value, walked segment by
    segment: flat beyond the ends, the earlier segment on a breakpoint."""
    pts = model.curve
    if v <= pts[0][0]:
        return pts[0][1]
    if v >= pts[-1][0]:
        return pts[-1][1]
    for (v0, y0), (v1, y1) in zip(pts, pts[1:]):
        if v0 <= v <= v1:
            return y0 + (y1 - y0) * (v - v0) / (v1 - v0)
    raise AssertionError("unreachable, curve covers the range")


def oracle_satisfaction(model, v):
    """Capped ratio toward the threshold at one value."""
    y = oracle_predict(model, v)
    if model.direction is KpiDirection.MAXIMIZE:
        ratio = y / model.threshold
    else:
        if y == 0:
            return 1.0 if model.threshold >= 0 else 0.0
        ratio = model.threshold / y
    if ratio < 0:
        return 0.0
    return min(1.0, ratio)


def qacm_scan_oracle(models, bounds, step):
    """Plain grid walk tracking the best satisfaction product, one value
    at a time with the scalar formulas above.  Returns (value, welfare,
    all_satisfied, satisfactions), the fields of a QacmResult, so the two
    compare by repr, down to the sign of a zero."""
    lo, hi = bounds
    n = int((hi - lo) / step + 1e-9) + 1
    best = None
    for i in range(n):
        v = lo + i * step
        w = 1.0
        sats = []
        for m in models:
            s = oracle_satisfaction(m, v)
            sats.append(s)
            w = w * s
        if best is None or w > best[1]:
            best = (v, w, all(s == 1.0 for s in sats), tuple(sats))
    return best


def mitigate_oracle(strategy, requests, ctx):
    """The decision mitigate must return, as (param, value, strategy, winner,
    satisfied_all), read off each strategy's rule by its name: nc keeps the
    latest request; p-es and p-mro the highest priority, then the latest;
    a tie on both goes to the later entry.  sbd takes the default and qacm
    the plain grid walk's value.  A bounded parameter's value then goes
    through min(max(value, lo), hi)."""
    param, winner, satisfied_all = requests[0].param, None, None
    if strategy.value == "sbd":
        value = ctx.defaults[param]
    elif strategy.value == "qacm":
        ms = ctx.response_models[param]
        value, _, satisfied_all, _ = qacm_scan_oracle(ms.models, ms.bounds, ms.grid_step)
    else:
        def rank(i):
            r = requests[i]
            return (0 if strategy.value == "nc" else ctx.priorities.get(r.xapp, 0)), r.t_ms, i

        best = requests[max(range(len(requests)), key=rank)]
        value, winner = best.value, best.xapp
    if param in ctx.bounds:
        lo, hi = ctx.bounds[param]
        value = min(max(value, lo), hi)
    return param, value, strategy, winner, satisfied_all


def assert_strategy_orderings(result) -> None:
    """Acceptance criterion 6: the orderings of the arms' medians that the paper's comparison rests on."""
    ee = result.medians("energy_efficiency_bits_per_joule")
    lf = result.medians("link_failures")
    ho = result.medians("total_handovers")
    # (a) energy efficiency: qacm above the energy saver and the rest
    assert ee["qacm"] > ee["p-es"]
    for s in ("nc", "sbd", "p-mro"):
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


def box_stats_oracle(values: Sequence[float]) -> dict[str, float]:
    """One column's box stats from one np.percentile call on that column alone."""
    qs = np.percentile(np.asarray(values, dtype=float), [0, 25, 50, 75, 100])
    return dict(zip(("min", "q1", "median", "q3", "max"), (float(q) for q in qs)))


def save_sim_config(cfg: SimConfig, path: str | Path) -> None:
    """Write cfg as a scenario file: its fields as one JSON object."""
    write_json(path, asdict(cfg))


def placed(cfg: SimConfig, pos, vel=None, seed: int = 0) -> Trajectory:
    """The seed's trajectory with its UEs starting at `pos`, moving at `vel` (by
    default as drawn): its start replaced before anything reads it."""
    traj = Trajectory(cfg, seed)
    start = tuple(np.array(x, dtype=float) for x in (pos, traj.start[1] if vel is None else vel))
    for x in start:
        x.flags.writeable = False
    traj.start = start
    return traj


def moved(traj: Trajectory, n_ticks: int) -> tuple[np.ndarray, np.ndarray]:
    """The UEs' positions (n_ticks + 1, n_ues, 2), row t after t ticks (row 0 the start), and
    their velocities after the last tick: moved in one block through `Trajectory._move`, as a
    whole-run block is."""
    pos = np.empty((n_ticks + 1, traj.cfg.n_ues, 2))
    pos[0] = traj.start[0]
    return pos, traj._move(*traj.start, pos[1:])


def run(sim: Simulator, n_ticks: int | None = None) -> tuple:
    """Tick `sim` n_ticks times, by default through its whole duration, and return the sums of
    the ticks' (bits, joules, link_failures, handovers, pingpongs), each added in tick order."""
    totals = (0.0, 0.0, 0, 0, 0)
    for _ in range(sim.cfg.n_ticks if n_ticks is None else n_ticks):
        totals = tuple(a + b for a, b in zip(totals, sim.tick()))
    return totals


def rsrp_matrix(sim: Simulator, pos: np.ndarray, txp_dbm: float | None = None) -> np.ndarray:
    """(n_ues, n_gnbs) receive levels of UEs at `pos` under `sim`'s cells at txp_dbm, by default the scenario's."""
    d = np.hypot(pos[:, None, 0] - sim.gnbs[None, :, 0], pos[:, None, 1] - sim.gnbs[None, :, 1])
    return (sim.cfg.txp_dbm if txp_dbm is None else txp_dbm) + antenna_gain_db(sim.cfg.ret_deg) - path_loss_db(d)


def cycled(cfg: SimConfig, txps: Sequence[float]) -> dict[int, float]:
    """A TXP schedule that sets txps in turn before every tick of cfg's run (none if txps is empty)."""
    return {k: txps[k % len(txps)] for k in range(cfg.n_ticks)} if txps else {}


def rsrp_dbm(txp_dbm: float, gnb_xy: Sequence[float], ue_xy: Sequence[float], ret_deg: float = 1.5) -> float:
    """Scalar receive level of one UE from one cell."""
    d = math.hypot(gnb_xy[0] - ue_xy[0], gnb_xy[1] - ue_xy[1])
    return txp_dbm + antenna_gain_db(ret_deg) - path_loss_db(d)


@dataclass(frozen=True)
class HandoverDecision:
    triggered: bool
    target: int | None


def evaluate_handover(rsrps: Sequence[float], serving: int, cio_db: float, hys_db: float) -> HandoverDecision:
    """A3 check against the best neighbour for one UE (single tick).

    Triggers when neighbour + cio > serving + hys AND the neighbour is
    strictly stronger than the serving cell.  The second guard keeps a
    positive cio - hys margin from flip-flopping the UE between two cells
    of near-equal strength every tick.
    """
    best, best_r = None, -math.inf
    for j, r in enumerate(rsrps):
        if j != serving and r > best_r:
            best, best_r = j, r
    if best is None:
        return HandoverDecision(False, None)
    rs = rsrps[serving]
    if best_r + cio_db > rs + hys_db and best_r > rs:
        return HandoverDecision(True, best)
    return HandoverDecision(False, None)


class ReferenceSimulator(Simulator):
    """The simulator with its earlier tick: 2-D fancy indexing, a masked
    copy for the best neighbour, one `np.nonzero` per event set and a
    row maximum taken over the whole receive matrix.  Kept verbatim as
    the oracle the simulator's ticks must match bit for bit.  It moves its
    own positions and velocities, one step a tick from the trajectory's
    start, sets its TXP schedule's level before each tick that has one,
    computes its levels with `rsrp_matrix`, counts its clock as
    (i + 1) * step_ms and keeps its own A3 time-to-trigger counts and
    targets; the rest of its state (the tick index, cells, attachment state,
    trace and `required_ttt_ticks`) comes from `Simulator.__init__`."""

    def __init__(self, trajectory: Trajectory, txp: dict[int, float] | None = None, record_trace: bool = True):
        super().__init__(trajectory, txp, record_trace)
        self.pos, self.vel = trajectory.start
        self.txp_dbm, self.schedule = float(trajectory.cfg.txp_dbm), dict(txp or {})
        self._ttt_count = np.zeros(trajectory.cfg.n_ues, dtype=int)
        self._ttt_target = np.full(trajectory.cfg.n_ues, -1, dtype=int)

    def tick(self) -> tuple:
        cfg = self.cfg
        dt_s = cfg.step_ms / 1000.0
        self.txp_dbm = float(self.schedule.get(self._i, self.txp_dbm))
        self._i += 1
        t = self._i * cfg.step_ms

        # move, reflecting at the field boundary.  One reflection per axis
        # is enough: SimConfig keeps max speed times one step within the field.
        lim = np.asarray(cfg.area_m)
        pos = self.pos + self.vel * dt_s
        low = pos < 0.0
        pos = np.where(low, -pos, pos)
        self.vel = np.where(low, -self.vel, self.vel)
        high = pos > lim
        pos = np.where(high, 2.0 * lim - pos, pos)
        self.vel = np.where(high, -self.vel, self.vel)
        self.pos = pos

        r = rsrp_matrix(self, pos, self.txp_dbm)
        serving = self.serving  # updated in place below

        # A3 handovers.  No event resets the TTT state: a detached UE never
        # meets cond, and a handover leaves the new serving cell as the
        # stored target, which A3 never picks, so the next count starts at 1.
        ue = np.arange(len(serving))
        rs = r[ue, serving]
        masked = r.copy()
        masked[ue, serving] = -np.inf
        tgt = np.argmax(masked, axis=1)
        rn = masked[ue, tgt]
        cond = (serving >= 0) & (rn + cfg.cio_db > rs + cfg.hys_db) & (rn > rs)
        self._ttt_count = np.where(cond, np.where(self._ttt_target == tgt, self._ttt_count + 1, 1), 0)
        self._ttt_target = tgt
        ho = np.nonzero(self._ttt_count >= self.required_ttt_ticks)[0]
        n_pp = self._change_cell("HO", t, r, ho, tgt[ho])

        # link failure: attached but nothing receivable anywhere
        rowmax = r.max(axis=1)
        lf = np.nonzero((serving >= 0) & (rowmax < cfg.min_rsrp_dbm))[0]
        self._change_cell("LF", t, r, lf, serving[lf])

        # re-attachment: detached and some cell is receivable again
        back = np.nonzero((serving < 0) & (rowmax >= cfg.min_rsrp_dbm))[0]
        n_pp += self._change_cell("REATTACH", t, r, back)

        # throughput for attached UEs, energy for all sites
        att_idx = np.nonzero(serving >= 0)[0]
        bits = 0.0
        if att_idx.size:
            rs = r[att_idx, serving[att_idx]]
            snr_db = rs - cfg.noise_floor_dbm
            cap = self.trajectory.bw_hz[att_idx] * np.log2(1.0 + 10.0 ** (snr_db / 10.0))
            bits = float(np.sum(cap) * dt_s)
        joules = len(self.gnbs) * gnb_power_w(self.txp_dbm) * dt_s

        return bits, joules, lf.size, ho.size + back.size, n_pp

    def _change_cell(self, event: str, t: float, r: np.ndarray, idx: np.ndarray,
                     cells: np.ndarray | None = None) -> int:
        """Apply `event` at time t to the UEs `idx` (ascending), trace it
        and return its ping-pongs.  "LF" detaches each UE from its serving
        cell `cells`, "HO" moves it to `cells`, "REATTACH" to its strongest."""
        if not idx.size:
            return 0
        if cells is None:
            cells = np.argmax(r[idx], axis=1)
        pp = np.zeros(idx.size, dtype=bool)
        if event == "LF":
            self.serving[idx] = -1
        else:
            away = cells != self.last_cell[idx]
            pp = away & (cells == self.prev_gnb[idx]) & (t - self.last_ho_ms[idx] <= self.cfg.pingpong_window_ms)
            self.prev_gnb[idx[away]] = self.last_cell[idx[away]]
            self.last_ho_ms[idx[away]] = t
            self.serving[idx] = self.last_cell[idx] = cells
        if self.record_trace:
            events = np.where(pp, "PP", "HO").tolist() if event == "HO" else repeat(event)
            self.trace.extend(map(TraceRow, repeat(t), idx.tolist(), cells.tolist(), r[idx, cells].tolist(), events))
        return int(np.count_nonzero(pp))
