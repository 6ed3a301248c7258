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

import time
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from statistics import mean, median
from typing import Iterable, Sequence

from .checks import finite
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
    """One landed parameter write: who, what, when (ms).  The time must be finite."""

    t_ms: float
    xapp: str
    param: str
    value: float

    def __post_init__(self):
        if not finite(self.t_ms):
            raise DetectionError(f"change at non-finite time {self.t_ms!r}")


@dataclass(frozen=True)
class DegradationEvent:
    """One KPI threshold violation: which KPI, its owner, when (ms).  The time must be finite; the value need not be."""

    t_ms: float
    kpi: str
    xapp: str
    value: float

    def __post_init__(self):
        if not finite(self.t_ms):
            raise DetectionError(f"degradation at non-finite time {self.t_ms!r}")


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

    Timestamps, finite by the records' own check, must be non-decreasing
    per ledger; attribution uses binary search over the change timeline,
    so classify is O(log n) in ledger size.  A change must come from an
    xApp in the topology and write one of that xApp's ICPs, and a
    classified degradation must be observed by the owner of its KPI; each
    is one O(1) lookup and raises DetectionError otherwise.
    """

    def __init__(self, topology: ConflictTopology, window_ms: float = DEFAULT_ATTRIBUTION_WINDOW_MS):
        if not (finite(window_ms) and window_ms > 0):
            raise DetectionError(f"attribution window must be a finite positive number, got {window_ms!r}")
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
        if self._change_times and rec.t_ms < self._change_times[-1]:
            raise ClockRegressionError(
                f"change at t={rec.t_ms:g} ms after one at t={self._change_times[-1]:g} ms"
            )
        self._changes.append(rec)
        self._change_times.append(rec.t_ms)
        return self

    def record_degradation(self, ev: DegradationEvent) -> "Ledger":
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

def bench_detection(topology: ConflictTopology, events: Iterable) -> dict[str, dict]:
    """Replay labeled events through a fresh ledger, timing classify only.

    Each event carries .change, .degradation and .expected (a VerdictKind).
    Recording is outside the timed region; the clock wraps the single
    classify call.  Implicit events do not learn here so repeated implicit
    couplings stay implicit and the labels stay stable.

    Returns, per expected kind that has events, its count, accuracy and
    the mean, median and p99 classify latency in microseconds; the p99
    is the sorted sample at index round(0.99 * (count - 1)).
    """
    ledger = Ledger(topology)
    runs: dict[str, list[tuple[float, bool]]] = {k.value: [] for k in VerdictKind}
    for ev in events:
        ledger.record_change(ev.change)
        ledger.record_degradation(ev.degradation)
        t0 = time.perf_counter()
        verdict = ledger.classify(ev.degradation)
        dt_us = (time.perf_counter() - t0) * 1e6
        runs[ev.expected.value].append((dt_us, verdict.kind is ev.expected))
    stats = {}
    for kind, run in runs.items():
        if run:
            us = sorted(dt for dt, _ in run)
            stats[kind] = {
                "count": len(run),
                "accuracy": sum(ok for _, ok in run) / len(run),
                "mean_us": mean(us),
                "median_us": median(us),
                "p99_us": us[round(0.99 * (len(us) - 1))],
            }
    return stats
