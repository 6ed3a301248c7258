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

from dataclasses import dataclass, field
from enum import Enum
from operator import le, lt
from types import MappingProxyType
from typing import Mapping, Sequence

from .checks import finite, integer
from .conflict_model import KpiDirection

# The experiment's grid has 51 points; a scan this long means bounds or
# a step in the wrong unit, and is refused before anything is allocated.
MAX_GRID_POINTS = 1_000_000


class MitigationError(Exception):
    pass


def _finite(x, what: str) -> float:
    """x as a float; MitigationError unless it is a finite number."""
    if not finite(x):
        raise MitigationError(f"{what} must be a finite number, got {x!r}")
    return float(x)


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


# Members bound once: on Python 3.11 a read such as Strategy.NC runs EnumType.__getattr__, ~10x a global read.
_NC, _SBD, _P_ES, _P_MRO, _QACM = Strategy.NC, Strategy.SBD, Strategy.P_ES, Strategy.P_MRO, Strategy.QACM
_MAXIMIZE = KpiDirection.MAXIMIZE


@dataclass(frozen=True, slots=True)
class ParameterRequest:
    """One xApp's wish for a parameter value at a point in time."""

    xapp: str
    param: str
    value: float
    t_ms: float

    def __post_init__(self):
        if not (finite(self.value) and finite(self.t_ms)):
            raise MitigationError(
                f"request by {self.xapp!r} needs a finite value and t_ms, got {self.value!r} and {self.t_ms!r}")


@dataclass(frozen=True, slots=True)
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
        if not isinstance(self.direction, KpiDirection):
            raise MitigationError(f"{what}: direction must be a KpiDirection, got {self.direction!r}")
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
        if self.direction is _MAXIMIZE and self.threshold == 0:
            raise MitigationError(f"{what}: maximize threshold must be nonzero")

    def satisfaction(self, v: float) -> float:
        """Capped ratio toward the threshold at the number v (1.0: target met)."""
        return self._scalar()(v)

    def _scalar(self):
        """Satisfaction at one number; curve ends, threshold and direction bound once."""
        (v_first, y_first), (v_last, y_last) = self.curve[0], self.curve[-1]
        segments, threshold = tuple(zip(self.curve, self.curve[1:])), self.threshold
        maximize = self.direction is _MAXIMIZE

        def at(v):
            if v <= v_first:
                y = y_first
            elif v >= v_last:
                y = y_last
            else:
                for (v0, y0), (v1, y1) in segments:
                    if v <= v1:  # on an interior breakpoint, the segment that ends there
                        break
                y = y0 + (y1 - y0) * (v - v0) / (v1 - v0)
            if not maximize and y == 0:
                return 1.0 if threshold >= 0 else 0.0
            r = y / threshold if maximize else threshold / y
            # min(1.0, r): a NaN ratio (overflow in the curve) caps to 1.0, -0.0 stays
            return 0.0 if r < 0 else r if r < 1.0 else 1.0

        return at


@dataclass(frozen=True, slots=True)
class QacmResult:
    value: float
    welfare: float
    satisfied_all: bool
    satisfactions: tuple[float, ...]


def _first_not(below, x: float, lo: float, step: float, n: int) -> int:
    """The first i < n whose grid value lo + i * step is not below(value, x), else n.
    Grid values never decrease with i (rounding is monotone), so an estimate from
    (x - lo) / step, clipped as it overflows near +-1e308, is stepped into place."""
    e = (x - lo) / step
    i = 0 if e <= 0 else n if e >= n else int(e)
    while i > 0 and not below(lo + (i - 1) * step, x):
        i -= 1
    while i < n and below(lo + i * step, x):
        i += 1
    return i


def _walk(models, lo: float, hi: float, step: float) -> QacmResult:
    """The scan of a grid that ResponseModelSet accepted.  A point at or
    below every first breakpoint ties point 0, and one at or above every last
    breakpoint ties the first such point, so only point 0 and the span between
    can be a strict gain.  There the walk prunes exactly: satisfactions lie in
    [0, 1], so a partial product never grows."""
    n = int((hi - lo) / step + 1e-9) + 1
    sats = [m._scalar() for m in models]
    a = _first_not(le, min([m.curve[0][0] for m in models]), lo, step, n)
    b = _first_not(lt, max([m.curve[-1][0] for m in models]), lo, step, n)
    best_i, best_w = 0, -1.0
    for i in (0, *range(max(a, 1), min(b, n - 1) + 1)):
        v, w = lo + i * step, 1.0
        for sat in sats:
            w = w * sat(v)
            if w <= best_w:  # w can only fall from here, so it cannot win
                break
        else:  # w > best_w, a strict gain
            best_i, best_w = i, w
            if w == 1.0:  # no later point can beat it
                break
    v = lo + best_i * step
    # a product of factors in [0, 1] rounds to 1.0 only when every factor is 1.0
    return QacmResult(v, best_w, best_w == 1.0, tuple([sat(v) for sat in sats]))


@dataclass(frozen=True, slots=True)
class ResponseModelSet:
    """All response models for one parameter, with its scan grid: lo, lo +
    step, ... up to hi inclusive when it lands on the grid.  The set is
    immutable, so the grid is checked when it is built (finite, non-empty, at
    most MAX_GRID_POINTS points, bounds kept as a float pair) and scanned
    once, by the first optimize()."""

    param: str
    bounds: tuple[float, float]
    grid_step: float
    models: tuple[KpiResponseModel, ...]
    _scan: QacmResult | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            models = tuple(self.models)
        except TypeError:
            models = None
        if models is None or not all(isinstance(m, KpiResponseModel) for m in models):
            raise MitigationError(f"models for {self.param!r} must be a sequence of KpiResponseModel, got {self.models!r}")
        object.__setattr__(self, "models", models)
        if not models:
            raise MitigationError("qacm needs at least one response model")
        lo, hi = _pair(self.bounds, "qacm bound")
        step = _finite(self.grid_step, "qacm grid step")
        if hi < lo:
            raise MitigationError(f"empty bounds ({lo}, {hi})")
        if step <= 0:
            raise MitigationError("grid step must be positive")
        if (hi - lo) / step + 1e-9 >= MAX_GRID_POINTS:  # inf when the width or the ratio overflows
            raise MitigationError(f"grid over ({lo:g}, {hi:g}) in steps of {step:g} exceeds {MAX_GRID_POINTS} points")
        object.__setattr__(self, "bounds", (lo, hi))
        object.__setattr__(self, "grid_step", step)

    def optimize(self) -> QacmResult:
        """The welfare-maximizing grid value.  Welfare is the product of
        satisfactions in model order.  Ties prefer the smaller value, so the
        result is the least aggressive setting with the best attainable welfare."""
        if self._scan is None:
            object.__setattr__(self, "_scan", _walk(self.models, *self.bounds, self.grid_step))
        return self._scan


# ---------------------------------------------------------------------------
# Strategy dispatch
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class MitigationContext:
    """Deployment-level inputs the strategies draw on.

    defaults:        param -> standards default (sbd), a finite number
    priorities:      xapp -> integer rank, higher wins (p-es, p-mro)
    response_models: param -> ResponseModelSet for that param (qacm)
    bounds:          param -> allowed range (lo, hi), finite with lo <= hi,
                     applied to every decision

    Each field is kept as a read-only view of a copy taken when the context
    is built, so what was validated is what the strategies read.
    """

    defaults: Mapping[str, float]
    priorities: Mapping[str, int]
    response_models: Mapping[str, ResponseModelSet]
    bounds: Mapping[str, tuple[float, float]]

    def __post_init__(self):
        for name in ("defaults", "priorities", "response_models", "bounds"):
            value = getattr(self, name)
            if value.__class__ is not dict and not isinstance(value, Mapping):  # a dict first: the common case
                raise MitigationError(f"{name} must be a mapping, got {value!r}")
            object.__setattr__(self, name, MappingProxyType(dict(value)))
        for param, v in self.defaults.items():
            if not finite(v):
                raise MitigationError(f"default for {param!r} must be a finite number, got {v!r}")
        for xapp, p in self.priorities.items():
            if not integer(p):
                raise MitigationError(f"priority of {xapp!r} must be an integer, got {p!r}")
        for param, ms in self.response_models.items():
            if not (isinstance(ms, ResponseModelSet) and ms.param == param):
                raise MitigationError(f"response models for {param!r} must be a ResponseModelSet for {param!r}, got {ms!r}")
        bounds = {}
        for param, b in self.bounds.items():
            try:
                lo, hi = b
            except (TypeError, ValueError):
                lo = hi = None
            if not (finite(lo) and finite(hi) and lo <= hi):
                raise MitigationError(f"bounds for {param!r} must be finite with lo <= hi, as a (lo, hi) pair; got {b!r}")
            bounds[param] = lo, hi  # a pair the caller cannot change
        object.__setattr__(self, "bounds", MappingProxyType(bounds))

    def __reduce__(self):  # a mappingproxy neither pickles nor copies: rebuild from plain dicts
        return MitigationContext, (dict(self.defaults), dict(self.priorities), dict(self.response_models), dict(self.bounds))

    def clamp(self, param: str, value: float) -> float:
        b = self.bounds.get(param)
        if b is None:
            return value
        lo, hi = b
        return lo if value < lo else hi if value > hi else value  # the object min(max(value, lo), hi) returns


@dataclass(frozen=True, slots=True)
class MitigationDecision:
    param: str
    value: float
    strategy: Strategy
    winner: str | None = None       # requesting xApp whose value was kept, if any
    satisfied_all: bool | None = None  # qacm only


def _priority_winner(requests: Sequence[ParameterRequest], priorities: Mapping[str, int]) -> ParameterRequest:
    # Highest priority wins; among equals the most recent request, then
    # the later list entry.  With no priorities (NC) the last writer wins.
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
    for r in requests:
        if r.param != param:
            raise MitigationError("requests span multiple parameters")

    if strategy is _NC:
        r = _priority_winner(requests, {})
        return MitigationDecision(param, ctx.clamp(param, r.value), strategy, r.xapp)

    if strategy is _SBD:
        try:
            default = ctx.defaults[param]
        except KeyError:
            raise MitigationError(f"no default registered for {param!r}") from None
        return MitigationDecision(param, ctx.clamp(param, default), strategy)

    if strategy is _P_ES or strategy is _P_MRO:
        r = _priority_winner(requests, ctx.priorities)
        return MitigationDecision(param, ctx.clamp(param, r.value), strategy, r.xapp)

    if strategy is _QACM:
        try:
            ms = ctx.response_models[param]
        except KeyError:
            raise MitigationError(f"no response models registered for {param!r}") from None
        res = ms.optimize()
        return MitigationDecision(param, ctx.clamp(param, res.value), strategy, None, res.satisfied_all)

    raise MitigationError(f"unknown strategy {strategy!r}")
