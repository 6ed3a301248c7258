"""Runtime conflict detection over change and degradation ledgers.

Two append-only ledgers drive detection: parameter changes reported by
the controller, and KPI degradations reported by monitoring.  A
degradation is attributed to the most recent change inside a sliding
window and classified by a first-match rule chain:

  1. the degraded KPI's own xApp made the change    -> no conflict
  2. the parameter is in both xApps' ICP sets       -> direct
  3. the parameter is in the KPI's parameter group  -> indirect
  4. otherwise                                      -> implicit

An implicit verdict is a learning signal: `classify_and_learn` promotes
the (param, kpi) edge so the same coupling classifies as indirect from
then on.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum
from statistics import mean, median
from typing import Iterable, Sequence

from .conflict_model import ConflictTopology, promote_implicit

DEFAULT_ATTRIBUTION_WINDOW_MS = 1000.0


class DetectionError(Exception):
    """Base class for detection failures."""


class ClockRegressionError(DetectionError):
    """A ledger entry arrived with a timestamp before the previous one."""


class UnattributableDegradationError(DetectionError):
    """No recorded change falls inside the degradation's attribution window."""

    def __init__(self, kpi: str, t_ms: float, window_ms: float):
        super().__init__(
            f"no change within {window_ms:g} ms before degradation of {kpi!r} at t={t_ms:g} ms"
        )
        self.kpi = kpi
        self.t_ms = t_ms
        self.window_ms = window_ms


@dataclass(frozen=True)
class ChangeRecord:
    """One landed parameter write: who, what, when (ms)."""

    t_ms: float
    xapp: str
    param: str
    value: float


@dataclass(frozen=True)
class DegradationEvent:
    """One KPI threshold violation: which KPI, its owner, when (ms)."""

    t_ms: float
    kpi: str
    xapp: str
    value: float


class VerdictKind(Enum):
    NO_CONFLICT = "no_conflict"
    DIRECT = "direct"
    INDIRECT = "indirect"
    IMPLICIT = "implicit"


@dataclass(frozen=True)
class ConflictVerdict:
    kind: VerdictKind
    kpi: str
    observing: str          # xApp that owns the degraded KPI
    instructing: str        # xApp whose change is attributed
    param: str
    t_change_ms: float
    t_detect_ms: float


class Ledger:
    """Change and degradation history plus the classification rules.

    Timestamps must be finite and non-decreasing per ledger; attribution
    uses binary search over the change timeline, so classify is O(log n)
    in ledger size.  A change must come from an xApp in the topology and
    write one of that xApp's ICPs, and a classified degradation must be
    observed by the owner of its KPI; each is one O(1) lookup and raises
    DetectionError otherwise.
    """

    def __init__(self, topology: ConflictTopology, window_ms: float = DEFAULT_ATTRIBUTION_WINDOW_MS):
        if window_ms <= 0:
            raise DetectionError("attribution window must be positive")
        self.topology = topology
        self.window_ms = window_ms
        self._changes: list[ChangeRecord] = []
        self._change_times: list[float] = []
        self._degradations: list[DegradationEvent] = []

    # -- recording ---------------------------------------------------------

    def record_change(self, rec: ChangeRecord) -> "Ledger":
        icps = self.topology.icps.get(rec.xapp)
        if icps is None:
            raise DetectionError(f"change by unknown xApp {rec.xapp!r}")
        if rec.param not in icps:
            raise DetectionError(f"change of {rec.param!r} by {rec.xapp!r}, which does not control it")
        if not math.isfinite(rec.t_ms):
            raise DetectionError(f"change at non-finite time {rec.t_ms!r}")
        if self._change_times and rec.t_ms < self._change_times[-1]:
            raise ClockRegressionError(
                f"change at t={rec.t_ms:g} ms after one at t={self._change_times[-1]:g} ms"
            )
        self._changes.append(rec)
        self._change_times.append(rec.t_ms)
        return self

    def record_degradation(self, ev: DegradationEvent) -> "Ledger":
        if not math.isfinite(ev.t_ms):
            raise DetectionError(f"degradation at non-finite time {ev.t_ms!r}")
        if self._degradations and ev.t_ms < self._degradations[-1].t_ms:
            raise ClockRegressionError(
                f"degradation at t={ev.t_ms:g} ms after one at t={self._degradations[-1].t_ms:g} ms"
            )
        self._degradations.append(ev)
        return self

    @property
    def changes(self) -> Sequence[ChangeRecord]:
        return tuple(self._changes)

    @property
    def degradations(self) -> Sequence[DegradationEvent]:
        return tuple(self._degradations)

    # -- classification ----------------------------------------------------

    def attribute(self, ev: DegradationEvent) -> ChangeRecord:
        """Most recent change with t_change <= t_degradation and within the
        window.  Ties on the timestamp resolve to the latest insertion."""
        idx = bisect_right(self._change_times, ev.t_ms) - 1
        if idx < 0:
            raise UnattributableDegradationError(ev.kpi, ev.t_ms, self.window_ms)
        cand = self._changes[idx]
        if cand.t_ms < ev.t_ms - self.window_ms:
            raise UnattributableDegradationError(ev.kpi, ev.t_ms, self.window_ms)
        return cand

    def classify(self, ev: DegradationEvent) -> ConflictVerdict:
        """Attribute the degradation and run the rule chain."""
        t = self.topology
        if t.kpi_owner.get(ev.kpi) != ev.xapp:
            raise DetectionError(f"degradation of {ev.kpi!r} observed by {ev.xapp!r}, which does not own it")
        c = self.attribute(ev)
        if c.xapp == ev.xapp:
            kind = VerdictKind.NO_CONFLICT
        elif c.param in t.icps[ev.xapp] and c.param in t.icps[c.xapp]:
            kind = VerdictKind.DIRECT
        elif c.param in t.param_groups[ev.kpi]:
            kind = VerdictKind.INDIRECT
        else:
            kind = VerdictKind.IMPLICIT
        return ConflictVerdict(
            kind=kind,
            kpi=ev.kpi,
            observing=ev.xapp,
            instructing=c.xapp,
            param=c.param,
            t_change_ms=c.t_ms,
            t_detect_ms=ev.t_ms,
        )

    def classify_and_learn(self, ev: DegradationEvent) -> ConflictVerdict:
        """Classify; on an implicit verdict promote the coupling so the
        next identical observation comes back indirect."""
        v = self.classify(ev)
        if v.kind is VerdictKind.IMPLICIT:
            self.topology = promote_implicit(self.topology, v.param, v.kpi)
        return v


# ---------------------------------------------------------------------------
# Benchmarking
# ---------------------------------------------------------------------------

@dataclass
class LatencyStats:
    """Wall-clock classify latencies in microseconds."""

    samples_us: list[float] = field(default_factory=list)

    def add(self, us: float) -> None:
        self.samples_us.append(us)

    @property
    def mean_us(self) -> float:
        return mean(self.samples_us) if self.samples_us else 0.0

    @property
    def median_us(self) -> float:
        return median(self.samples_us) if self.samples_us else 0.0

    @property
    def p99_us(self) -> float:
        if not self.samples_us:
            return 0.0
        s = sorted(self.samples_us)
        # nearest-rank on the right edge
        k = max(0, min(len(s) - 1, int(round(0.99 * (len(s) - 1)))))
        return s[k]


@dataclass
class KindStats:
    count: int = 0
    correct: int = 0
    latency: LatencyStats = field(default_factory=LatencyStats)

    @property
    def accuracy(self) -> float:
        return self.correct / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "accuracy": self.accuracy,
            "mean_us": self.latency.mean_us,
            "median_us": self.latency.median_us,
            "p99_us": self.latency.p99_us,
        }


def bench_detection(topology: ConflictTopology, events: Iterable) -> dict[str, KindStats]:
    """Replay labeled events through a fresh ledger, timing classify only.

    Each event carries .change, .degradation and .expected (a VerdictKind).
    Recording is outside the timed region; the clock wraps the single
    classify call.  Implicit events do not learn here so repeated implicit
    couplings stay implicit and the labels stay stable.
    """
    ledger = Ledger(topology)
    stats: dict[str, KindStats] = {k.value: KindStats() for k in VerdictKind}
    for ev in events:
        ledger.record_change(ev.change)
        ledger.record_degradation(ev.degradation)
        t0 = time.perf_counter()
        verdict = ledger.classify(ev.degradation)
        dt_us = (time.perf_counter() - t0) * 1e6
        s = stats[ev.expected.value]
        s.count += 1
        s.latency.add(dt_us)
        if verdict.kind is ev.expected:
            s.correct += 1
    return {k: v for k, v in stats.items() if v.count}


def bench_stats_to_dict(stats: dict[str, KindStats]) -> dict:
    return {k: v.to_dict() for k, v in stats.items()}
