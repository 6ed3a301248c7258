"""Discrete-time simulator of a small multi-cell radio access network.

The model is deliberately compact: a handful of gNBs on a plane, UEs with
constant-velocity mobility reflected at the field boundary, log-distance
path loss, A3-style handovers, link failure below a minimum receive
level, and Shannon-capacity throughput against a flat noise floor.  One
network-wide transmit power knob ("TXP") is the control surface the
conflict-management experiments fight over: raising it buys coverage and
throughput at a steep power-amplifier cost, lowering it saves energy and
eventually starves the cell edge.

The per-tick update order is fixed and documented on `Simulator`;
everything is driven by one seeded generator so a (config, seed) pair
fully determines the run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from itertools import repeat
from pathlib import Path
from typing import Sequence

import numpy as np

from .checks import finite, integer
from .files import write_csv

# ===========================================================================
# Configuration
# ===========================================================================

# (name, fraction of UEs, min speed m/s, max speed m/s)
DEFAULT_SPEED_CLASSES = (
    ("walking", 0.35, 0.0, 1.0),
    ("cycling", 0.30, 2.0, 5.0),
    ("driving", 0.35, 6.0, 15.0),
)

# (name, fraction of UEs, bandwidth weight on the 1 MHz base allocation)
DEFAULT_SERVICE_CLASSES = (
    ("embb", 0.40, 1.5),
    ("urllc", 0.30, 0.75),
    ("mmtc", 0.30, 0.25),
)


def _row(value, kinds: str, shape: str) -> tuple:
    """`value` as a tuple of len(kinds) entries, a string where kinds has
    "s" and a finite number where it has "n"; ValueError otherwise."""
    if isinstance(value, (list, tuple)) and len(value) == len(kinds) and all(
            isinstance(v, str) if k == "s" else finite(v) for k, v in zip(kinds, value)):
        return tuple(value)
    raise ValueError(f"expected {shape}, got {value!r}")


def _rows(value, kinds: str, shape: str) -> tuple:
    if not isinstance(value, (list, tuple)) or not value:
        raise ValueError(f"expected a non-empty list of {shape}, got {value!r}")
    return tuple(_row(r, kinds, shape) for r in value)


@dataclass(frozen=True)
class SimConfig:
    """Scenario description; serializable to/from the scenario JSON.
    Frozen, so a configuration cannot change after it was validated."""

    n_ues: int = 20
    area_m: tuple[float, float] = (400.0, 400.0)
    # None places one gNB at each quarter point of the area (2x2 grid).
    gnb_positions: tuple[tuple[float, float], ...] | None = None
    step_ms: float = 100.0
    duration_s: float = 120.0
    txp_dbm: float = 30.0          # initial network-wide transmit power
    ret_deg: float = 1.5           # electrical downtilt; 1.5 deg is boresight
    cio_db: float = 2.0
    hys_db: float = 0.5
    ttt_ms: float = 0.1            # time-to-trigger; <= step_ms means one tick
    min_rsrp_dbm: float = -110.0   # below this on every cell: link failure
    noise_floor_dbm: float = -100.0
    pingpong_window_ms: float = 1000.0
    ue_bandwidth_hz: float = 1.0e6
    speed_classes: tuple[tuple[str, float, float, float], ...] = DEFAULT_SPEED_CLASSES
    service_classes: tuple[tuple[str, float, float], ...] = DEFAULT_SERVICE_CLASSES

    def __post_init__(self):
        object.__setattr__(self, "area_m", _row(self.area_m, "nn", "area_m [width, height]"))
        if self.gnb_positions is not None:
            object.__setattr__(self, "gnb_positions", _rows(self.gnb_positions, "nn", "gnb_positions [x, y]"))
        object.__setattr__(self, "speed_classes", _rows(self.speed_classes, "snnn", "speed_classes [name, fraction, vmin, vmax]"))
        object.__setattr__(self, "service_classes", _rows(self.service_classes, "snn", "service_classes [name, fraction, weight]"))
        for f in fields(self):
            if f.type == "float" and not finite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be a finite number, got {getattr(self, f.name)!r}")
        most = GEOMETRY_BUDGET_BYTES // (8 * len(self.resolved_gnbs()))  # one tick of path loss fits the budget
        if not integer(self.n_ues) or not 0 < self.n_ues <= most:
            raise ValueError(f"n_ues must be a positive integer, at most {most} at these cells, got {self.n_ues!r}")
        if self.step_ms <= 0 or self.duration_s <= 0:
            raise ValueError("step_ms and duration_s must be positive")
        ticks = self.duration_s * 1000.0 / self.step_ms
        if not math.isfinite(ticks):
            raise ValueError("duration_s is more steps of step_ms than float64 holds")
        _step_joules(self.txp_dbm, len(self.resolved_gnbs()), self.step_ms / 1000.0)
        if self.ttt_ms < 0 or self.pingpong_window_ms < 0:
            raise ValueError("ttt_ms and pingpong_window_ms must not be negative")
        if ticks < 1 - 1e-9:
            raise ValueError("duration_s must cover at least one step_ms")
        if abs(ticks - round(ticks)) > 1e-9:  # n_ticks would round it, and calibration would read the declared one
            raise ValueError(f"duration_s ({self.duration_s:g}) must be a whole number of step_ms ({self.step_ms:g})")
        for classes, label in ((self.speed_classes, "speed"), (self.service_classes, "service")):
            total = sum(c[1] for c in classes)
            if abs(total - 1.0) > 1e-9:
                raise ValueError(f"{label} class fractions sum to {total}, expected 1")
            if any(c[1] < 0 for c in classes):
                raise ValueError(f"{label} class fractions must not be negative")
        if min(self.area_m) <= 0:
            raise ValueError("area_m must be two positive lengths")
        if self.ue_bandwidth_hz <= 0 or any(c[2] <= 0 for c in self.service_classes):
            raise ValueError("ue_bandwidth_hz and service class weights must be positive")
        if any(not 0 <= c[2] <= c[3] for c in self.speed_classes):
            raise ValueError("each speed class needs 0 <= vmin <= vmax")
        # tick reflects at most once per axis, so one step may not cross the field
        if max(c[3] for c in self.speed_classes) * self.step_ms / 1000.0 > min(self.area_m):
            raise ValueError("the top speed crosses more than the field in one step_ms")

    def resolved_gnbs(self) -> np.ndarray:
        if self.gnb_positions is not None:
            return np.asarray(self.gnb_positions, dtype=float)
        w, h = self.area_m
        return np.asarray(
            [(w / 4, h / 4), (3 * w / 4, h / 4), (w / 4, 3 * h / 4), (3 * w / 4, 3 * h / 4)],
            dtype=float,
        )

    @property
    def n_ticks(self) -> int:
        return int(round(self.duration_s * 1000.0 / self.step_ms))


def load_sim_config(path: str | Path) -> SimConfig:
    with open(path) as f:
        data = json.load(f)
    if not isinstance(data, dict):
        raise ValueError("a scenario file must hold one JSON object")
    unknown = sorted(set(data) - {f.name for f in fields(SimConfig)})
    if unknown:
        raise ValueError(f"unknown scenario key {unknown[0]!r}")
    return SimConfig(**data)


# ===========================================================================
# Radio primitives
# ===========================================================================

def path_loss_db(distance_m, out=None):
    """Log-distance path loss of a distance or an array of distances, written into
    `out` if given; distances under a metre are clamped."""
    x = np.log10(np.maximum(distance_m, 1.0, out=out), out=out)
    return np.add(np.multiply(x, 35.0, out=out), 40.05, out=out)


def antenna_gain_db(ret_deg: float) -> float:
    """1 dB loss per degree of downtilt away from the 1.5 deg boresight."""
    return -1.0 * abs(ret_deg - 1.5)


def gnb_power_w(txp_dbm: float) -> float:
    """Site power draw: 100 W fixed plus an amplifier term that hits 4 W
    of drain per watt radiated, referenced to 30 dBm."""
    return 100.0 + 4.0 * 10.0 ** ((txp_dbm - 30.0) / 10.0)


def _step_joules(txp_dbm: float, n_gnbs: int, dt_s: float) -> float:
    """The energy of n_gnbs sites over one step of dt_s seconds; ValueError if float64 cannot hold it."""
    try:
        joules = n_gnbs * gnb_power_w(txp_dbm) * dt_s
    except OverflowError:  # 10.0 ** x past the float range
        joules = math.inf
    if not math.isfinite(joules):
        raise ValueError(f"txp_dbm {txp_dbm!r} draws more energy per step than float64 holds")
    return joules


def largest_remainder_counts(fractions: Sequence[float], n: int) -> list[int]:
    """Integer class sizes matching the fractions exactly in total.

    Floors first, then hands the leftover units to the largest fractional
    remainders (ties to the earlier class).  Deterministic.
    """
    raw = [f * n for f in fractions]
    counts = [int(math.floor(r)) for r in raw]
    rem = n - sum(counts)
    order = sorted(range(len(raw)), key=lambda i: (-(raw[i] - counts[i]), i))
    for i in order[:rem]:
        counts[i] += 1
    return counts


# ===========================================================================
# Simulator
# ===========================================================================

@dataclass(slots=True)
class TraceRow:
    t_ms: float
    ue_id: int
    serving_gnb: int
    rsrp_dbm: float
    event: str  # HO | LF | REATTACH | PP


# A run whose path loss (n_ticks x n_ues x n_gnbs float64) fits in this many bytes gets its
# geometry in one block; a larger run, in a window of this much path loss that its seed's arms
# tick through in lockstep.
GEOMETRY_BUDGET_BYTES = 4 << 20
GEOMETRY_WINDOW_BYTES = 256 << 10
MOVE_ROWS = 256  # the rows Trajectory._move sums at once, so a long block's rounds stay linear in its length


def geometry_rows(cfg: SimConfig) -> int:
    """The ticks of geometry a run holds at once: all of them if they fit GEOMETRY_BUDGET_BYTES,
    else a window of GEOMETRY_WINDOW_BYTES, at least one tick and fewer than the run."""
    row = cfg.n_ues * len(cfg.resolved_gnbs()) * 8
    fits = cfg.n_ticks * row <= GEOMETRY_BUDGET_BYTES
    return cfg.n_ticks if fits else max(1, min(cfg.n_ticks - 1, GEOMETRY_WINDOW_BYTES // row))


class GeometryWindowError(LookupError):
    """A shared trajectory was asked for a tick its window has left or not reached, or past the run."""


class Trajectory:
    """A seed's population and geometry, which every arm of the seed ticks through.  It draws the
    UEs from (cfg, seed) and holds their classes, bandwidths and read-only `start` (pos, vel).
    Draw order is part of the determinism contract: positions, speed labels, speeds, headings,
    service labels.  Geometry is path loss, which transmit power never changes: `row(t)` is tick
    t's read-only row of `pl`.  `pl` holds `geometry_rows(cfg)` ticks: the whole run, built at
    once, or a window sliding along it, each row computed by the first simulator to ask for it
    from the positions and velocities after the last tick computed.  Sharers tick inside the
    window: a tick it no longer or not yet holds, or one past the run, raises
    GeometryWindowError; a whole-run block never slides, and its sharers read one `mobility()` plane."""

    def __init__(self, cfg: SimConfig, seed: int):
        self.cfg, self.seed, self.gnbs, n = cfg, seed, cfg.resolved_gnbs(), cfg.n_ues
        self._n_ticks, self._dt_s = cfg.n_ticks, cfg.step_ms / 1000.0
        self._lim = np.tile(cfg.area_m, n)  # each UE axis's limit: flat loops, no 2-element broadcast
        self._gx, self._gy = self.gnbs.T[:, None, :]  # (1, n_gnbs) each
        rng = np.random.default_rng(seed)

        def draw_labels(classes: tuple) -> np.ndarray:  # each UE's class index: exact class sizes, shuffled
            counts = largest_remainder_counts([c[1] for c in classes], n)
            return np.repeat(np.arange(len(classes)), counts)[rng.permutation(n)]

        pos = rng.uniform((0.0, 0.0), cfg.area_m, size=(n, 2))
        self.speed_class = labels = draw_labels(cfg.speed_classes)
        vmin = np.asarray([c[2] for c in cfg.speed_classes])[labels]
        vmax = np.asarray([c[3] for c in cfg.speed_classes])[labels]
        speeds = rng.uniform(vmin, vmax)
        angles = rng.uniform(0.0, 2.0 * math.pi, size=n)
        vel = np.stack([speeds * np.cos(angles), speeds * np.sin(angles)], axis=1)
        self.service_class = svc = draw_labels(cfg.service_classes)
        self.bw_hz = cfg.ue_bandwidth_hz * np.asarray([c[2] for c in cfg.service_classes])[svc]
        pos.flags.writeable = vel.flags.writeable = False
        self.start = pos, vel

        self.base, self.end = 0, 0  # the tick in row 0; the ticks computed
        self._pl = np.empty((geometry_rows(cfg), n, len(self.gnbs)))
        self.pl = self._pl.view()
        self.pl.flags.writeable = False
        self._mobility = None

    def row(self, t: int) -> np.ndarray:
        if t == self.end < self._n_ticks:  # the first sharer to reach tick t computes it (at 0, a whole run)
            j, k = t - self.base, len(self.pl) if len(self.pl) == self._n_ticks else 1
            if j == len(self.pl):  # slide on: the rows of the window are overwritten from here
                self.base, j = t, 0
            pos = np.empty((k, self.cfg.n_ues, 2))
            vel = self._move(*(self._carry if t else self.start), pos)
            self._carry = pos[-1].copy(), vel  # the UEs after tick t + k - 1; a copy, so the moved block is freed
            step = max(1, 2048 // self.pl[0].size)  # a long block in 16 KiB slices: small temporaries
            for a in range(0, k, step):
                self._path_loss(pos[a:a + step], self._pl[j + a:j + min(a + step, k)])
            self.end += k
        if not self.base <= t < self.end:
            raise GeometryWindowError(f"tick {t} is outside the ticks {self.base}-{self.end - 1} held")
        return self.pl[t - self.base]

    def mobility(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """A whole-run block's mobility plane, built once, read-only and no larger than pl from two cells on: each (UE,
        tick)'s least path loss PL_min and its first cell, laid out (UE, tick), and per serving cell s the A3 plane
        PL_s - PL_min > hys_db - cio_db and PL_min < PL_s, laid out (cell, UE, tick).  Transmit power moves none of it."""
        if self._mobility is None:
            (n_ticks, n, g), over = self.pl.shape, max(self.cfg.hys_db - self.cfg.cio_db, 0.0)  # d > 0: PL_min < PL_s
            self._mobility = least, first, a3 = (np.empty((n, n_ticks)), np.empty((n, n_ticks), np.min_scalar_type(g - 1)),
                                                 np.empty((g, n, n_ticks), dtype=bool))
            p = self.pl.T.copy()  # (cell, UE, tick)
            np.minimum.reduce(p, axis=0, out=least)
            for c in range(g - 1, -1, -1):  # the last cell down, so the first of least path loss is written last
                np.copyto(first, c, where=np.equal(p[c], least, out=a3[c]))  # a3[c] is scratch until the A3 planes
            np.greater(np.subtract(p, least, out=p), over, out=a3)
            least.flags.writeable = first.flags.writeable = a3.flags.writeable = False
        return self._mobility

    def _path_loss(self, pos: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:  # (..., n_ues, 2) -> (..., n_ues, n_gnbs)
        return path_loss_db(np.hypot(pos[..., :1] - self._gx, pos[..., 1:] - self._gy, out=out), out)

    def _move(self, p: np.ndarray, v: np.ndarray, pos: np.ndarray) -> np.ndarray:
        """Move the UEs from p at velocity v one step per row of pos (k, n_ues, 2); the velocity after the last step.
        A step reflects at most once per axis (SimConfig keeps it inside the field; at both ends, v holds).  Each UE axis
        is a column that np.add.accumulate sums one step at a time, as a lone step adds, up to its first crossing; that
        is reflected, and the next round sums on only the columns that crossed.  MOVE_ROWS rows at a time; k = 1 is flat."""
        p, v, dt, lim = p.ravel(), v.ravel().copy(), self._dt_s, self._lim  # v: each column's velocity so far
        for a in range(0, len(pos), MOVE_ROWS):
            x = pos[a:a + MOVE_ROWS].reshape(-1, p.size)
            c, r, y, prev = slice(None), 0, x, pos[a - 1].ravel() if a else p  # round 1: every column, in x
            while y.size:
                d = v[c] * dt
                np.add(prev, d, out=y[0])
                if len(y) > 1:  # an accumulate down one row costs a lone step's whole move at 2,000 UEs
                    y[1:] = d
                    np.add.accumulate(y, axis=0, out=y)
                np.negative(y, out=y, where=(low := y < 0.0))
                np.subtract(2.0 * lim[c], y, out=y, where=(high := y > lim[c]))
                if len(x) == 1:  # a lone step
                    np.negative(v, out=v, where=(low ^ high)[0])
                    break
                hit = low | high
                if y is not x:  # y's row i is x's row r + i; the rows past the chunk are padding
                    rows = r + np.arange(len(y))[:, None]
                    hit &= (inside := rows < len(x))
                    x.reshape(-1)[(rows * x.shape[1] + c)[inside]] = y[inside]
                j = hit.argmax(axis=0)  # each column's first crossing in y
                i = hit[j, np.arange(j.size)].nonzero()[0]
                c, r, flip = np.arange(x.shape[1])[c][i], (r + j)[i], (low ^ high)[j[i], i]
                v[c] = np.where(flip, -v[c], v[c])
                c, r = c[r < len(x) - 1], r[r < len(x) - 1] + 1  # the next round sums on from the row after
                y, prev = np.empty((len(x) - r.min(initial=len(x)), c.size)), x[r - 1, c]
        return v.reshape(-1, 2)


class Simulator:
    """One run of a seed's `Trajectory`, which it shares with the seed's other arms and
    ticks from its start, under a TXP schedule fixed when it is built: `txp` maps a tick to
    the dBm set before it (by default none; cfg.txp_dbm holds until the first), each a finite
    number whose energy per step float64 holds and each tick one of the run's, else ValueError.
    Drive it with `tick()`.  Tick i reads only the trajectory's path loss of tick i and ends
    at (i + 1) * step_ms.

    Update order inside a tick, in this exact sequence:
      move -> receive levels -> A3 handovers -> link failures ->
      re-attachments -> throughput and energy accounting.
    Each event phase takes its UEs, and writes their trace rows, in
    ascending index order.  A UE's strongest cell is its first of least
    path loss, as TXP shifts every cell's level alike.  Trace events: HO, an
    A3 handover (PL_s - PL_n > hys_db - cio_db and PL_n < PL_s, serving s,
    best neighbour n, on ttt_ms worth of ticks toward one target); PP, a
    handover that is a ping-pong; LF, a link failure (no cell reaches
    min_rsrp_dbm, the UE detaches); REATTACH, a detached UE attaching to its
    strongest cell, as a UE attaches when the run starts.
    Handovers and re-attachments both count as the tick's handovers (the
    network pays the signalling either way).  A move away from the last
    cell held is a ping-pong when it returns to the cell held before it
    within pingpong_window_ms; re-attaching to the last cell held is no
    move.  A re-attachment ping-pong is counted but traced as REATTACH.
    A run held in one block (decided at construction) is solved on its first tick, each UE on its own,
    as UEs never interact: from a tick, a UE is advanced to its own next event (A3 from its serving cell,
    nothing receivable, or, detached, something receivable) and that tick's rules are applied to it alone,
    in the order above, with cells and A3 read from the seed's one `Trajectory.mobility()` plane.  Its trace is
    then whole, its attachment state is the run's end, and every tick returns its stored numbers.  A windowed
    run computes each tick on its own: a tick relies on two identities, a row's least path loss is that of
    serving or best other cell, and the UEs attached after it are the receivable ones; the A3 and
    receivability conditions and throughput are computed for every UE, and TTT counts, cell changes,
    ping-pongs and trace rows are kept for the UEs each event condition selected alone.  So a simulator's state may change only before its
    first tick.  It keeps no totals: each tick returns its own numbers, which `harness.run_replica` sums.
    """

    def __init__(self, trajectory: Trajectory, txp: dict[int, float] | None = None, record_trace: bool = True):
        self.trajectory, self._i = trajectory, 0  # the geometry, and the next tick's index into it
        self.cfg = cfg = trajectory.cfg
        self.gnbs, n, n_ticks = trajectory.gnbs, cfg.n_ues, cfg.n_ticks
        self._held = len(trajectory.pl) == n_ticks  # the run in one block, which the first tick solves
        self._dt_s, self._gain_db = cfg.step_ms / 1000.0, antenna_gain_db(cfg.ret_deg)
        self._txp = {}  # tick -> (a receive level before path loss, the tick's joules) from each level set
        for k, dbm in {0: cfg.txp_dbm, **({} if txp is None else txp)}.items():
            if not finite(dbm):
                raise ValueError(f"transmit power must be a finite number of dBm, got {dbm!r}")
            if not integer(k) or not 0 <= k < n_ticks:
                raise ValueError(f"a TXP schedule's ticks must be integers from 0 to {n_ticks - 1}, got {k!r}")
            self._txp[k] = float(dbm) + self._gain_db, _step_joules(float(dbm), len(self.gnbs), self._dt_s)
        self._row0 = np.arange(n) * len(self.gnbs)  # a UE's row in a tick's flat levels
        self.record_trace = record_trace
        self.trace: list[TraceRow] = []

        # -- attachment state ----------------------------------------------
        self.serving = trajectory._path_loss(trajectory.start[0]).argmin(axis=1).astype(int)  # each UE's strongest cell
        self.last_cell = self.serving.copy()      # serving, or the cell lost on a failure
        self.prev_gnb = np.full(n, -1, dtype=int)  # cell left by the last move, for ping-pong
        self.last_ho_ms = np.full(n, -np.inf)     # time of that move
        self.required_ttt_ticks = max(1, math.ceil(cfg.ttt_ms / cfg.step_ms))
        self._ttt_count = self._no_ttt = np.zeros(n, dtype=int)  # never written: the counts of a tick off A3
        self._ttt_target = np.full(n, -1, dtype=int)

    def tick(self) -> tuple:
        """One tick; returns what it produced, (bits, joules, link_failures, handovers, pingpongs)."""
        i, traj = self._i, self.trajectory
        self._i = i + 1
        if self._held:
            if i >= traj.end:  # the block is built at tick 0 by its first sharer; past the run, GeometryWindowError
                traj.row(i)
            if not i:
                self._ticks = self._solve()
            return self._ticks.pop()

        if i in self._txp:
            self._eirp_dbm, self._tick_joules = self._txp[i]
        t = (i + 1) * self.cfg.step_ms
        att, rs, tgt, a3, ok = self._levels(pl := traj.row(i))

        # A3 handovers.  No event resets the TTT state: a detached UE never
        # meets the condition, and a handover leaves the new serving cell as the
        # stored target, which A3 never picks, so the next count starts at 1.
        a3 = a3.nonzero()[0]
        ho, count, n_pp = a3, self._no_ttt, 0
        if a3.size:  # the count: 0 off A3, else one more than before on the same target, else 1
            count = np.zeros_like(count)
            count[a3] = c = (self._ttt_target[a3] == tgt[a3]) * self._ttt_count[a3] + 1
            ho = a3[c >= self.required_ttt_ticks]
            n_pp = self._change_cell("HO", t, pl, ho, tgt, rs)
        self._ttt_count, self._ttt_target = count, tgt

        # link failures (attached, nothing receivable), then re-attachments, from the state before handovers
        lf = back = (att != ok).nonzero()[0]
        if lf.size:
            was = att[lf]
            lf, back = lf[was], lf[~was]
            self._change_cell("LF", t, pl, lf, self.serving)
            n_pp += self._change_cell("REATTACH", t, pl, back, rs=rs)

        # throughput for attached UEs (now exactly ok, rs their serving levels); the joules: energy for all sites
        bits = float(np.add.reduce(self._capacity(rs)[ok]) * self._dt_s)
        return bits, self._tick_joules, lf.size, ho.size + back.size, n_pp

    def _levels(self, pl: np.ndarray) -> tuple:
        """At the current cells and TXP, from one tick's path loss `pl` (n_ues, n_gnbs): attached, serving
        levels, best other cells (the first of least path loss), A3 and receivability conditions."""
        cfg, serving, rows = self.cfg, self.serving, self._row0
        att = serving >= 0
        srv = rows + np.where(att, serving, len(self.gnbs) - 1)  # flat index into pl; a detached UE reads its last column
        ps = pl.take(srv)
        masked = pl.copy()
        masked.put(srv, np.inf)
        tgt = masked.argmin(axis=-1)
        pn = masked.take(rows + tgt)
        a3 = att & (ps - pn > max(cfg.hys_db - cfg.cio_db, 0.0))  # as Trajectory.mobility's A3 planes
        return att, self._eirp_dbm - ps, tgt, a3, self._eirp_dbm - np.minimum(ps, pn) >= cfg.min_rsrp_dbm

    def _solve(self) -> list[tuple]:
        """The held run's ticks, last first, its trace and its end state.  Cells are chosen, and A3 decided, on the
        seed's shared `Trajectory.mobility()` plane; receivability is the arm's own, a row's strongest level
        fl(eirp - PL_min) against min_rsrp_dbm, which is the largest of its levels because rounding is monotone.
        So each serving cell's event plane (A3, or nothing receivable; a detached UE's: something receivable) is
        bool, laid out (cell, UE, tick), and a UE walks its plane from event to event."""
        cfg, pl, n, g, n_ticks = self.cfg, self.trajectory.pl, self.cfg.n_ues, len(self.gnbs), self.cfg.n_ticks
        at = sorted(self._txp)
        eirp, joules = (np.repeat([self._txp[k][j] for k in at], np.diff([*at, n_ticks])) for j in (0, 1))
        least, best, a3 = self.trajectory.mobility()
        ok = np.subtract(eirp, least) >= cfg.min_rsrp_dbm  # (UE, tick)
        planes = np.empty((g + 1, n, n_ticks), dtype=bool)  # planes[-1]: a detached UE's
        np.logical_or(a3, ~ok, out=planes[:g])
        planes[-1] = ok

        serving, last, prev, moved = (x.tolist() for x in (self.serving, self.last_cell, self.prev_gnb, self.last_ho_ms))
        level = eirp.tolist()  # a tick's level before path loss

        def move(u: int, cell: int, t_ms: float) -> int:  # _change_cell's rule for a handover or re-attachment
            if cell == last[u]:
                return 0
            pp = int(cell == prev[u] and t_ms - moved[u] <= cfg.pingpong_window_ms)
            prev[u], moved[u], last[u] = last[u], t_ms, cell
            return pp

        cells = np.empty((n_ticks, n), dtype=np.intp)  # each UE's serving cell after each tick, -1 detached
        lf, ho, pp, rows = [0] * n_ticks, [0] * n_ticks, [0] * n_ticks, []  # rows: (tick, phase, UE, cell, level, event)
        for u in range(n):
            s, t, count, a3_at, tgt = serving[u], 0, 0, -1, -1  # a3_at: the last tick on A3, toward tgt
            while t < n_ticks and (e := t + int(planes[s, u, t:].argmax())) < n_ticks and planes[s, u, e]:
                cells[t:e, u] = s
                i1, v1, t_ms = best.item(u, e), level[e] - least.item(u, e), (e + 1) * cfg.step_ms  # the strongest cell
                if s < 0:  # something is receivable: re-attach to the strongest cell
                    pp[e] += move(u, i1, t_ms)
                    ho[e] += 1
                    rows.append((e, 2, u, i1, v1, "REATTACH"))
                    s = i1
                else:
                    if a3.item(s, u, e):  # toward i1; the TTT count goes on from the tick before
                        count = count + 1 if a3_at == e - 1 and tgt == i1 else 1
                        a3_at, tgt = e, i1
                        if count >= self.required_ttt_ticks:
                            p = move(u, i1, t_ms)
                            pp[e], ho[e] = pp[e] + p, ho[e] + 1
                            rows.append((e, 0, u, i1, v1, "PP" if p else "HO"))
                            s = i1
                    if not ok.item(u, e):  # judged on the attachment before the tick
                        lf[e] += 1
                        rows.append((e, 1, u, s, level[e] - pl.item(e, u, s), "LF"))
                        s = -1
                cells[e, u], t = s, e + 1
            cells[t:, u] = serving[u] = s
        self.serving[:], self.last_cell[:], self.prev_gnb[:], self.last_ho_ms[:] = serving, last, prev, moved
        if self.record_trace:
            rows.sort()
            self.trace.extend(TraceRow((e + 1) * cfg.step_ms, u, c, v, ev) for e, _, u, c, v, ev in rows)

        # bits: the serving levels' capacity over the run, summed over each run of ticks with one attached set as a
        # tick sums them alone (row sums over C-contiguous rows; a boolean column mask does not add the same)
        att = cells >= 0
        first = np.ones(n_ticks, dtype=bool)  # tick 0, or one whose attached set is new
        first[1:] = (att[1:] != att[:-1]).any(axis=1)
        edges, whole, bits = [*first.nonzero()[0].tolist(), n_ticks], att.all(axis=1).tolist(), np.empty(n_ticks)
        cap = pl.take(np.maximum(cells, 0) + np.arange(0, pl.size, g).reshape(n_ticks, n))  # a detached UE's is dropped
        self._capacity(np.subtract(eirp[:, None], cap, out=cap), out=cap)
        for a, b in zip(edges, edges[1:]):
            np.add.reduce(cap[a:b] if whole[a] else cap[a:b].take(att[a].nonzero()[0], axis=1), axis=1, out=bits[a:b])
        np.multiply(bits, self._dt_s, out=bits)
        return list(zip(bits.tolist(), joules.tolist(), lf, ho, pp))[::-1]

    def _capacity(self, rs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Shannon capacity (bit/s) at serving levels rs (..., n_ues), into out if given."""
        x = np.subtract(rs, self.cfg.noise_floor_dbm, out=out)
        np.power(10.0, np.divide(x, 10.0, out=x), out=x)
        return np.multiply(self.trajectory.bw_hz, np.log2(np.add(1.0, x, out=x), out=x), out=x)

    def _change_cell(self, event: str, t: float, pl: np.ndarray, idx: np.ndarray,
                     cells: np.ndarray | None = None, rs: np.ndarray | None = None) -> int:
        """Apply `event` at time t, with the tick's path loss pl, to the UEs `idx` (ascending), trace it
        and return its ping-pongs.  "LF" detaches UE i from cells[i], "HO" moves it to cells[i],
        "REATTACH" (no cells) to its strongest cell, the first of least path loss; both write its level into rs."""
        if not idx.size:
            return 0
        cells = pl[idx].argmin(axis=1) if cells is None else cells[idx]
        level = self._eirp_dbm - pl[idx, cells]
        pp = ()
        if event == "LF":
            self.serving[idx] = -1
        else:
            rs[idx] = level
            away = cells != self.last_cell[idx]
            pp = away & (cells == self.prev_gnb[idx]) & (t - self.last_ho_ms[idx] <= self.cfg.pingpong_window_ms)
            self.prev_gnb[idx[away]] = self.last_cell[idx[away]]
            self.last_ho_ms[idx[away]] = t
            self.serving[idx] = self.last_cell[idx] = cells
        if self.record_trace:
            events = ["PP" if p else "HO" for p in pp.tolist()] if event == "HO" else repeat(event)
            self.trace.extend(map(TraceRow, repeat(t), idx.tolist(), cells.tolist(), level.tolist(), events))
        return int(np.count_nonzero(pp))


def write_trace_csv(trace: Sequence[TraceRow], path: str | Path) -> None:
    # a time in :g where that reads back as the same number, else in the shortest text that does; once per tick
    times = {t: f"{t:g}" if float(f"{t:g}") == t else repr(float(t)) for t in {r.t_ms for r in trace}}
    rows = ((times[r.t_ms], r.ue_id, r.serving_gnb, f"{r.rsrp_dbm:.6f}", r.event) for r in trace)
    write_csv(path, ("t_ms", "ue_id", "serving_gnb", "rsrp_dbm", "event"), rows)
