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

import csv
import json
import math
import numbers
from dataclasses import asdict, dataclass, fields
from itertools import repeat
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

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


def _is_number(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x)


def _row(value, kinds: str, shape: str) -> tuple:
    """`value` as a tuple of len(kinds) entries, a string where kinds has
    "s" and a finite number where it has "n"; ValueError otherwise."""
    if isinstance(value, (list, tuple)) and len(value) == len(kinds) and all(
            isinstance(v, str) if k == "s" else _is_number(v) for k, v in zip(kinds, value)):
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
            if f.type == "float" and not _is_number(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be a finite number, got {getattr(self, f.name)!r}")
        if not isinstance(self.n_ues, numbers.Integral) or isinstance(self.n_ues, bool) or self.n_ues <= 0:
            raise ValueError(f"n_ues must be a positive integer, got {self.n_ues!r}")
        if self.step_ms <= 0 or self.duration_s <= 0:
            raise ValueError("step_ms and duration_s must be positive")
        if self.n_ticks < 1:
            raise ValueError("duration_s must cover at least one step_ms")
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


def save_sim_config(cfg: SimConfig, path: str | Path) -> None:
    with open(path, "w") as f:
        json.dump(asdict(cfg), f, indent=2, sort_keys=True)
        f.write("\n")


# ===========================================================================
# Radio primitives
# ===========================================================================

def path_loss_db(distance_m):
    """Log-distance path loss of a distance or an array of distances;
    distances under a metre are clamped."""
    return 40.05 + 35.0 * np.log10(np.maximum(distance_m, 1.0))


def antenna_gain_db(ret_deg: float) -> float:
    """1 dB loss per degree of downtilt away from the 1.5 deg boresight."""
    return -1.0 * abs(ret_deg - 1.5)


def rsrp_dbm(txp_dbm: float, gnb_xy: Sequence[float], ue_xy: Sequence[float], ret_deg: float = 1.5) -> float:
    d = math.hypot(gnb_xy[0] - ue_xy[0], gnb_xy[1] - ue_xy[1])
    return txp_dbm + antenna_gain_db(ret_deg) - path_loss_db(d)


def gnb_power_w(txp_dbm: float) -> float:
    """Site power draw: 100 W fixed plus an amplifier term that hits 4 W
    of drain per watt radiated, referenced to 30 dBm."""
    return 100.0 + 4.0 * 10.0 ** ((txp_dbm - 30.0) / 10.0)


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

class TickStats(NamedTuple):
    """What one tick produced; returned so a driver can bucket by phase."""

    bits: float
    joules: float
    link_failures: int
    handovers: int
    pingpongs: int


@dataclass
class TraceRow:
    t_ms: float
    ue_id: int
    serving_gnb: int
    rsrp_dbm: float
    event: str  # HO | LF | REATTACH | PP


class Simulator:
    """One seeded run.  Drive it with `tick()` (or `run()` to completion),
    adjust transmit power between ticks with `set_txp`.

    Update order inside a tick, in this exact sequence:
      move -> receive levels -> A3 handovers -> link failures ->
      re-attachments -> throughput and energy accounting.
    Each event phase takes its UEs, and writes their trace rows, in
    ascending index order.  Trace events: HO, an A3 handover (the best
    neighbour beats serving by cio_db - hys_db and is strictly stronger,
    on ttt_ms worth of ticks toward one target); PP, a handover that is a
    ping-pong; LF, a link failure (no cell reaches min_rsrp_dbm, the UE
    detaches); REATTACH, a detached UE attaching to its strongest cell.
    Handovers and re-attachments both count toward total_handovers (the
    network pays the signalling either way).  A move away from the last
    cell held is a ping-pong when it returns to the cell held before it
    within pingpong_window_ms; re-attaching to the last cell held is no
    move.  A re-attachment ping-pong is counted but traced as REATTACH.
    A tick relies on two identities: a row's maximum is max(rs, rn), serving
    and best other cell, and the UEs attached after it are the receivable ones.
    """

    def __init__(self, cfg: SimConfig, seed: int, record_trace: bool = True):
        self.cfg = cfg
        self.gnbs = cfg.resolved_gnbs()
        self._lim = np.asarray(cfg.area_m)
        self._gx, self._gy = self.gnbs.T[:, None, :]      # (1, n_gnbs) each
        self._row0 = np.arange(cfg.n_ues) * len(self.gnbs)  # flat index of each UE's row
        self.txp_dbm = float(cfg.txp_dbm)
        self.t_ms = 0.0
        self.record_trace = record_trace
        rng = np.random.default_rng(seed)
        n = cfg.n_ues

        # -- population ----------------------------------------------------
        # Draw order is part of the determinism contract: positions, speed
        # labels, speeds, headings, service labels.
        w, h = cfg.area_m
        self.pos = rng.uniform((0.0, 0.0), (w, h), size=(n, 2))

        speed_fracs = [c[1] for c in cfg.speed_classes]
        counts = largest_remainder_counts(speed_fracs, n)
        labels = np.repeat(np.arange(len(counts)), counts)
        labels = labels[rng.permutation(n)]
        vmin = np.asarray([c[2] for c in cfg.speed_classes])[labels]
        vmax = np.asarray([c[3] for c in cfg.speed_classes])[labels]
        speeds = rng.uniform(vmin, vmax)
        angles = rng.uniform(0.0, 2.0 * math.pi, size=n)
        self.vel = np.stack([speeds * np.cos(angles), speeds * np.sin(angles)], axis=1)
        self.speed_class = labels

        svc_fracs = [c[1] for c in cfg.service_classes]
        svc_counts = largest_remainder_counts(svc_fracs, n)
        svc = np.repeat(np.arange(len(svc_counts)), svc_counts)
        svc = svc[rng.permutation(n)]
        self.service_class = svc
        self.bw_hz = cfg.ue_bandwidth_hz * np.asarray([c[2] for c in cfg.service_classes])[svc]

        # -- attachment state ----------------------------------------------
        self.serving = self._rsrp_matrix(self.pos).argmax(axis=1).astype(int)
        self.last_cell = self.serving.copy()      # serving, or the cell lost on a failure
        self.prev_gnb = np.full(n, -1, dtype=int)  # cell left by the last move, for ping-pong
        self.last_ho_ms = np.full(n, -np.inf)     # time of that move
        self.required_ttt_ticks = max(1, math.ceil(cfg.ttt_ms / cfg.step_ms))
        self._ttt_count = np.zeros(n, dtype=int)
        self._ttt_target = np.full(n, -1, dtype=int)

        # -- accounting ----------------------------------------------------
        self.total_bits = 0.0
        self.total_joules = 0.0
        self.link_failures = 0
        self.total_handovers = 0
        self.pingpong_handovers = 0
        self.trace: list[TraceRow] = []

    # -- radio ------------------------------------------------------------

    def set_txp(self, txp_dbm: float) -> None:
        self.txp_dbm = float(txp_dbm)

    def _rsrp_matrix(self, pos: np.ndarray) -> np.ndarray:
        """(n_ues, n_gnbs) receive levels at the current transmit power."""
        d = np.hypot(pos[:, :1] - self._gx, pos[:, 1:] - self._gy)
        return self.txp_dbm + antenna_gain_db(self.cfg.ret_deg) - path_loss_db(d)

    # -- dynamics ---------------------------------------------------------

    def tick(self) -> TickStats:
        cfg = self.cfg
        dt_s = cfg.step_ms / 1000.0
        t = self.t_ms + cfg.step_ms
        row0, g = self._row0, len(self.gnbs)

        # move, reflecting at the field boundary at most once per axis (SimConfig
        # keeps one step within the field); reflected at both ends, a UE keeps its velocity
        pos = self.pos + self.vel * dt_s
        low = pos < 0.0
        pos = np.where(low, -pos, pos)
        high = pos > self._lim
        pos = np.where(high, 2.0 * self._lim - pos, pos)
        self.vel = np.where(low ^ high, -self.vel, self.vel)
        self.pos = pos

        r = self._rsrp_matrix(pos)  # receive levels
        serving = self.serving  # updated in place below

        # A3 handovers.  No event resets the TTT state: a detached UE never
        # meets cond, and a handover leaves the new serving cell as the
        # stored target, which A3 never picks, so the next count starts at 1.
        att = serving >= 0
        srv = row0 + serving % g  # flat index into r; -1 is the row's last column
        rs = r.take(srv)
        masked = r.copy()
        masked.put(srv, -np.inf)
        tgt = masked.argmax(axis=1)
        rn = masked.take(row0 + tgt)
        cond = att & (rn + cfg.cio_db > rs + cfg.hys_db) & (rn > rs)
        # the count: 0 off cond, else one more than before on the same target, else 1
        self._ttt_count = ((self._ttt_target == tgt) * self._ttt_count + 1) * cond
        self._ttt_target = tgt
        ho = (self._ttt_count >= self.required_ttt_ticks).nonzero()[0]
        n_pp = self._change_cell("HO", t, r, ho, tgt)

        # link failure: attached but nothing receivable anywhere
        ok = np.maximum(rs, rn) >= cfg.min_rsrp_dbm
        lf = (att & ~ok).nonzero()[0]
        self._change_cell("LF", t, r, lf, serving)

        # re-attachment: detached and some cell is receivable again
        back = (~att & ok).nonzero()[0]
        n_pp += self._change_cell("REATTACH", t, r, back)

        # throughput for attached UEs (now exactly ok), energy for all sites
        if ho.size or back.size:  # serving cells changed: re-read their levels
            rs = r.take(row0 + serving % g)
        cap = self.bw_hz[ok] * np.log2(1.0 + 10.0 ** ((rs[ok] - cfg.noise_floor_dbm) / 10.0))
        bits = float(cap.sum() * dt_s)
        joules = g * gnb_power_w(self.txp_dbm) * dt_s

        n_ho = ho.size + back.size
        self.total_bits += bits
        self.total_joules += joules
        self.link_failures += lf.size
        self.total_handovers += n_ho
        self.pingpong_handovers += n_pp
        self.t_ms = t
        return TickStats(bits, joules, lf.size, n_ho, n_pp)

    def _change_cell(self, event: str, t: float, r: np.ndarray, idx: np.ndarray, cells: np.ndarray | None = None) -> int:
        """Apply `event` at time t to the UEs `idx` (ascending), trace it and
        return its ping-pongs.  "LF" detaches UE i from cells[i], "HO" moves
        it to cells[i], "REATTACH" (no cells) to its strongest cell."""
        if not idx.size:
            return 0
        cells = r[idx].argmax(axis=1) if cells is None else cells[idx]
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

    def run(self, n_ticks: int | None = None) -> None:
        for _ in range(self.cfg.n_ticks if n_ticks is None else n_ticks):
            self.tick()

    # -- reporting --------------------------------------------------------

    def kpi_report(self) -> dict:
        ee = self.total_bits / self.total_joules if self.total_joules > 0 else 0.0
        return {
            "energy_efficiency_bits_per_joule": ee,
            "link_failures": self.link_failures,
            "total_handovers": self.total_handovers,
            "pingpong_handovers": self.pingpong_handovers,
            "total_bits": self.total_bits,
            "total_joules": self.total_joules,
        }


def write_trace_csv(trace: Sequence[TraceRow], path: str | Path) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["t_ms", "ue_id", "serving_gnb", "rsrp_dbm", "event"])
        for row in trace:
            w.writerow([f"{row.t_ms:g}", row.ue_id, row.serving_gnb, f"{row.rsrp_dbm:.6f}", row.event])
