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

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .conflict_model import KpiDirection

# The experiment's grid has 51 points; a scan this long means bounds or
# a step in the wrong unit, and is refused before anything is allocated.
MAX_GRID_POINTS = 1_000_000
_INF = math.inf


class MitigationError(Exception):
    pass


def _finite(x, what: str) -> float:
    """x as a float; MitigationError unless it is a finite number."""
    try:
        f = float(x)
    except (TypeError, ValueError, OverflowError):
        f = math.nan
    if not math.isfinite(f):
        raise MitigationError(f"{what} must be a finite number, got {x!r}")
    return f


def _pair(x, what: str) -> tuple[float, float]:
    """x as two floats; MitigationError unless it is a pair of finite numbers."""
    try:
        a, b = x
    except (TypeError, ValueError):
        raise MitigationError(f"{what} must be a pair of finite numbers, got {x!r}") from None
    return _finite(a, what), _finite(b, what)


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

    def __post_init__(self):
        # Chained comparisons, which NaN and the infinities fail, keep
        # this cheap: requests are built in bulk.
        try:
            if -_INF < self.value < _INF and -_INF < self.t_ms < _INF:
                return
        except (TypeError, ValueError):
            pass
        raise MitigationError(
            f"request by {self.xapp!r} needs a finite value and t_ms, got {self.value!r} and {self.t_ms!r}")


@dataclass(frozen=True)
class KpiResponseModel:
    """Predicted KPI outcome as a function of one parameter's value.

    curve holds (value, outcome) breakpoints with strictly increasing
    values; prediction interpolates linearly and clamps outside the
    covered range.  Breakpoints and threshold must be finite numbers.
    """

    kpi: str
    direction: KpiDirection
    threshold: float
    curve: tuple[tuple[float, float], ...]

    def __post_init__(self):
        what = f"model for {self.kpi!r}"
        object.__setattr__(self, "threshold", _finite(self.threshold, f"{what}: threshold"))
        point = f"{what}: breakpoint"
        try:
            points = tuple(self.curve)
        except TypeError:
            raise MitigationError(f"{what}: curve must be a sequence of breakpoints, got {self.curve!r}") from None
        object.__setattr__(self, "curve", tuple(_pair(p, point) for p in points))
        if len(self.curve) < 2:
            raise MitigationError(f"{what} needs at least 2 breakpoints")
        vs = [v for v, _ in self.curve]
        if any(b <= a for a, b in zip(vs, vs[1:])):
            raise MitigationError(f"{what} has non-increasing breakpoints")
        if self.direction is KpiDirection.MAXIMIZE and self.threshold == 0:
            raise MitigationError(f"{what}: maximize threshold must be nonzero")

    def predict(self, v):
        """Prediction at v: a float for a number, an array for an array."""
        pts = np.array(self.curve)
        deltas = pts[1:] - pts[:-1]  # per segment: (v1 - v0, y1 - y0)
        v = np.asarray(v, dtype=float)
        # A value on an interior breakpoint takes the segment that ends there.
        j = pts[1:-1, 0].searchsorted(v, side="left")
        left, delta = pts.take(j, axis=0), deltas.take(j, axis=0)
        inside = left[..., 1] + delta[..., 1] * (v - left[..., 0]) / delta[..., 0]
        (v_first, y_first), (v_last, y_last) = self.curve[0], self.curve[-1]
        return np.where(v <= v_first, y_first, np.where(v >= v_last, y_last, inside))[()]

    def satisfaction(self, v):
        """Capped ratio toward the threshold at v, shaped like predict's
        result; 1.0 means target met."""
        y = self.predict(v)
        if self.direction is KpiDirection.MAXIMIZE:
            ratio = y / self.threshold
        else:
            zero = y == 0
            met = 1.0 if self.threshold >= 0 else 0.0
            ratio = np.where(zero, met, self.threshold / np.where(zero, 1.0, y))
        # fmin, unlike minimum, caps a NaN ratio (from overflow in the
        # curve) to 1.0, as min(1.0, nan) does; the where keeps -0.0.
        return np.where(ratio < 0, 0.0, np.fmin(1.0, ratio))[()]


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

    Grid: lo, lo+step, ... up to hi inclusive when it lands on the grid,
    at most MAX_GRID_POINTS points, evaluated as one array per model.
    Welfare is the product of satisfactions in model order.  Ties prefer
    the smaller value, so the result is the least aggressive setting that
    achieves the best attainable welfare.
    """
    if not models:
        raise MitigationError("qacm needs at least one response model")
    lo, hi = _pair(bounds, "qacm bound")
    step = _finite(grid_step, "qacm grid step")
    if hi < lo:
        raise MitigationError(f"empty bounds ({lo}, {hi})")
    if step <= 0:
        raise MitigationError("grid step must be positive")
    steps = (hi - lo) / step + 1e-9  # inf when the width or the ratio overflows
    if steps >= MAX_GRID_POINTS:
        raise MitigationError(f"grid over ({lo:g}, {hi:g}) in steps of {step:g} exceeds {MAX_GRID_POINTS} points")
    v = lo + np.arange(int(steps) + 1) * step
    sats = [m.satisfaction(v) for m in models]
    welfare = sats[0]
    for s in sats[1:]:
        welfare = welfare * s
    i = int(welfare.argmax())  # the first maximum: the smallest value
    best = tuple(float(s[i]) for s in sats)
    return QacmResult(
        value=float(v[i]),
        welfare=float(welfare[i]),
        satisfied_all=all(s == 1.0 for s in best),
        satisfactions=best,
    )


@dataclass(frozen=True)
class ResponseModelSet:
    """All response models for one parameter, with its scan range.  The set
    is immutable, so its grid is scanned once, by the first optimize()."""

    param: str
    bounds: tuple[float, float]
    grid_step: float
    models: tuple[KpiResponseModel, ...]

    def optimize(self) -> QacmResult:
        return self._scan

    @cached_property
    def _scan(self) -> QacmResult:
        return qacm_optimize(self.models, self.bounds, self.grid_step)


# ---------------------------------------------------------------------------
# Strategy dispatch
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MitigationContext:
    """Deployment-level inputs the strategies draw on.

    defaults:        param -> standards default (sbd), a finite number
    priorities:      xapp -> rank, higher wins (p-es, p-mro)
    response_models: param -> ResponseModelSet (qacm)
    bounds:          param -> allowed range (lo, hi), finite with lo <= hi,
                     applied to every decision
    """

    defaults: dict[str, float]
    priorities: dict[str, int]
    response_models: dict[str, ResponseModelSet]
    bounds: dict[str, tuple[float, float]]

    def __post_init__(self):
        # inline chained comparisons, as in ParameterRequest
        try:
            for param, v in self.defaults.items():
                if not -_INF < v < _INF:
                    raise MitigationError(f"default for {param!r} must be a finite number, got {v!r}")
            for param, (lo, hi) in self.bounds.items():
                if not -_INF < lo <= hi < _INF:
                    raise MitigationError(f"bounds for {param!r} must be finite with lo <= hi, got {(lo, hi)!r}")
        except (TypeError, ValueError):
            raise MitigationError(f"defaults must be finite numbers and bounds finite (lo, hi) pairs, "
                                  f"got {self.defaults!r} and {self.bounds!r}") from None

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
