"""Conflict mitigation: pick one value when several xApps want the same knob.

Five strategies, selectable per deployment:

  nc     no coordination, the most recent request wins
  sbd    standard-based default, the parameter snaps back to its default
  p-es   fixed priority, energy-saving app wins
  p-mro  fixed priority, mobility-robustness app wins
  qacm   QoS-aware: scan the value grid and keep the value with the best
         product of per-KPI satisfactions

QACM needs a response model per affected KPI: a piecewise-linear curve
mapping parameter value to predicted KPI outcome, plus the KPI's target
direction and threshold.  Satisfaction of one KPI is the capped ratio of
prediction to threshold (maximize) or threshold to prediction (minimize),
so 1.0 means "meets target" and the product rewards meeting all targets
at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

from .conflict_model import KpiDirection


class MitigationError(Exception):
    pass


class Strategy(Enum):
    NC = "nc"
    SBD = "sbd"
    P_ES = "p-es"
    P_MRO = "p-mro"
    QACM = "qacm"


@dataclass(frozen=True)
class ParameterRequest:
    """One xApp's wish for a parameter value at a point in time."""

    xapp: str
    param: str
    value: float
    t_ms: float


@dataclass(frozen=True)
class KpiResponseModel:
    """Predicted KPI outcome as a function of one parameter's value.

    curve holds (value, outcome) breakpoints with strictly increasing
    values; prediction interpolates linearly and clamps outside the
    covered range.
    """

    kpi: str
    direction: KpiDirection
    threshold: float
    curve: tuple[tuple[float, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "curve", tuple((float(v), float(y)) for v, y in self.curve))
        if len(self.curve) < 2:
            raise MitigationError(f"model for {self.kpi!r} needs at least 2 breakpoints")
        vs = [v for v, _ in self.curve]
        if any(b <= a for a, b in zip(vs, vs[1:])):
            raise MitigationError(f"model for {self.kpi!r} has non-increasing breakpoints")
        if self.direction is KpiDirection.MAXIMIZE and self.threshold == 0:
            raise MitigationError(f"model for {self.kpi!r}: maximize threshold must be nonzero")

    def predict(self, v: float) -> float:
        pts = self.curve
        if v <= pts[0][0]:
            return pts[0][1]
        if v >= pts[-1][0]:
            return pts[-1][1]
        for (v0, y0), (v1, y1) in zip(pts, pts[1:]):
            if v0 <= v <= v1:
                return y0 + (y1 - y0) * (v - v0) / (v1 - v0)
        raise AssertionError("unreachable, curve covers the range")

    def satisfaction(self, v: float) -> float:
        """Capped ratio toward the threshold; 1.0 means target met."""
        y = self.predict(v)
        if self.direction is KpiDirection.MAXIMIZE:
            ratio = y / self.threshold
        else:
            if y == 0:
                return 1.0 if self.threshold >= 0 else 0.0
            ratio = self.threshold / y
        if ratio < 0:
            return 0.0
        return min(1.0, ratio)


@dataclass(frozen=True)
class QacmResult:
    value: float
    welfare: float
    satisfied_all: bool
    satisfactions: tuple[float, ...]


def qacm_optimize(
    models: Sequence[KpiResponseModel],
    bounds: tuple[float, float],
    grid_step: float = 1.0,
) -> QacmResult:
    """Scan the value grid, return the welfare-maximizing value.

    Grid: lo, lo+step, ... up to hi inclusive when it lands on the grid.
    Welfare is the product of satisfactions in model order.  Ties prefer
    the smaller value, so the result is the least aggressive setting that
    achieves the best attainable welfare.
    """
    if not models:
        raise MitigationError("qacm needs at least one response model")
    lo, hi = bounds
    if hi < lo:
        raise MitigationError(f"empty bounds ({lo}, {hi})")
    if grid_step <= 0:
        raise MitigationError("grid step must be positive")
    n = int((hi - lo) / grid_step + 1e-9) + 1
    best_v = lo
    best_w = -1.0
    best_sats: tuple[float, ...] = ()
    for i in range(n):
        v = lo + i * grid_step
        sats = tuple(m.satisfaction(v) for m in models)
        w = 1.0
        for s in sats:
            w *= s
        if w > best_w:
            best_v, best_w, best_sats = v, w, sats
    return QacmResult(
        value=best_v,
        welfare=best_w,
        satisfied_all=all(s == 1.0 for s in best_sats),
        satisfactions=best_sats,
    )


@dataclass(frozen=True)
class ResponseModelSet:
    """All response models for one parameter, with its scan range."""

    param: str
    bounds: tuple[float, float]
    grid_step: float
    models: tuple[KpiResponseModel, ...]

    def optimize(self) -> QacmResult:
        return qacm_optimize(self.models, self.bounds, self.grid_step)


# ---------------------------------------------------------------------------
# Strategy dispatch
# ---------------------------------------------------------------------------

@dataclass
class MitigationContext:
    """Deployment-level inputs the strategies draw on.

    defaults:        param -> standards default (sbd)
    priorities:      xapp -> rank, higher wins (p-es, p-mro)
    response_models: param -> ResponseModelSet (qacm)
    bounds:          param -> allowed range, applied to every decision
    """

    defaults: dict[str, float]
    priorities: dict[str, int]
    response_models: dict[str, ResponseModelSet]
    bounds: dict[str, tuple[float, float]]

    def clamp(self, param: str, value: float) -> float:
        if param in self.bounds:
            lo, hi = self.bounds[param]
            return min(max(value, lo), hi)
        return value


@dataclass(frozen=True)
class MitigationDecision:
    param: str
    value: float
    strategy: Strategy
    winner: str | None = None       # requesting xApp whose value was kept, if any
    satisfied_all: bool | None = None  # qacm only


def _last_writer(requests: Sequence[ParameterRequest]) -> ParameterRequest:
    # max() keeps the first maximum; iterate in reverse so timestamp ties
    # resolve to the later list entry.
    best = requests[-1]
    for r in reversed(requests[:-1]):
        if r.t_ms > best.t_ms:
            best = r
    return best


def _priority_winner(requests: Sequence[ParameterRequest], priorities: Mapping[str, int]) -> ParameterRequest:
    # Highest priority wins; among equals the most recent request, then
    # the later list entry (same convention as _last_writer).
    best = requests[-1]
    best_p = priorities.get(best.xapp, 0)
    for r in reversed(requests[:-1]):
        p = priorities.get(r.xapp, 0)
        if p > best_p or (p == best_p and r.t_ms > best.t_ms):
            best, best_p = r, p
    return best


def mitigate(
    strategy: Strategy,
    requests: Sequence[ParameterRequest],
    ctx: MitigationContext,
) -> MitigationDecision:
    """Resolve one parameter's competing requests under the given strategy."""
    if not requests:
        raise MitigationError("no requests to mitigate")
    param = requests[0].param
    if any(r.param != param for r in requests):
        raise MitigationError("requests span multiple parameters")

    if strategy is Strategy.NC:
        r = _last_writer(requests)
        return MitigationDecision(param, ctx.clamp(param, r.value), strategy, winner=r.xapp)

    if strategy is Strategy.SBD:
        try:
            default = ctx.defaults[param]
        except KeyError:
            raise MitigationError(f"no default registered for {param!r}") from None
        return MitigationDecision(param, ctx.clamp(param, default), strategy)

    if strategy in (Strategy.P_ES, Strategy.P_MRO):
        r = _priority_winner(requests, ctx.priorities)
        return MitigationDecision(param, ctx.clamp(param, r.value), strategy, winner=r.xapp)

    if strategy is Strategy.QACM:
        try:
            ms = ctx.response_models[param]
        except KeyError:
            raise MitigationError(f"no response models registered for {param!r}") from None
        res = ms.optimize()
        return MitigationDecision(
            param,
            ctx.clamp(param, res.value),
            strategy,
            satisfied_all=res.satisfied_all,
        )

    raise MitigationError(f"unknown strategy {strategy!r}")
