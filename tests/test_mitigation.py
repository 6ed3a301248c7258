import math
import random
from dataclasses import FrozenInstanceError, astuple
from itertools import chain

import numpy as np
import pytest

from conftest import (
    BAD_NUMBERS,
    mitigate_oracle,
    oracle_satisfaction,
    qacm_scan_oracle,
    random_desk_shaped_model_set,
    random_on_breakpoint_instance,
    random_qacm_instance,
)
from ric_cms.conflict_model import KpiDirection
from ric_cms.mitigation import (
    MAX_GRID_POINTS,
    KpiResponseModel,
    MitigationContext,
    MitigationError,
    ParameterRequest,
    ResponseModelSet,
    Strategy,
    mitigate,
    qacm_optimize,
)


def model(direction=KpiDirection.MAXIMIZE, threshold=10.0, curve=((0.0, 0.0), (10.0, 20.0)), kpi="k"):
    return KpiResponseModel(kpi, direction, threshold, curve)


def ctx(**kw):
    base = dict(defaults={}, priorities={}, response_models={}, bounds={})
    base.update(kw)
    return MitigationContext(**base)


def req(xapp, value, t, param="TXP"):
    return ParameterRequest(xapp, param, value, t)


# -- response model ---------------------------------------------------------

# A maximize model with threshold 100 reads its prediction y as satisfaction y / 100.

def test_predict_interpolates():
    m = model(threshold=100.0, curve=((0.0, 0.0), (10.0, 20.0)))
    assert m.satisfaction(5.0) == 0.1    # prediction 10
    assert m.satisfaction(2.5) == 0.05   # prediction 5


def test_predict_and_satisfaction_take_numbers_and_arrays():
    m = model(direction=KpiDirection.MINIMIZE, threshold=4.0, curve=((0.0, 2.0), (4.0, 0.0), (10.0, 12.0)))
    vs = np.array([[-1.0, 0.0, 2.0], [4.0, 7.0, 11.0]])
    assert m.satisfaction(vs).shape == (2, 3)
    for v, s in zip(vs.ravel(), m.satisfaction(vs).ravel()):
        assert repr(float(m.satisfaction(float(v)))) == repr(float(s)) == repr(oracle_satisfaction(m, float(v)))


def test_predict_clamps_outside_range():
    m = model(threshold=100.0, curve=((2.0, 4.0), (8.0, 16.0)))
    assert m.satisfaction(-100.0) == 0.04  # prediction 4, the first breakpoint's
    assert m.satisfaction(100.0) == 0.16   # prediction 16, the last breakpoint's


def test_curve_needs_two_increasing_breakpoints():
    with pytest.raises(MitigationError, match="2 breakpoints"):
        model(curve=((0.0, 0.0),))
    with pytest.raises(MitigationError, match="non-increasing"):
        model(curve=((0.0, 0.0), (0.0, 1.0)))
    with pytest.raises(MitigationError, match="non-increasing"):
        model(curve=((5.0, 0.0), (1.0, 1.0)))


@pytest.mark.parametrize("direction", ["maximize", None, 1])
def test_model_direction_must_be_a_kpi_direction(direction):
    with pytest.raises(MitigationError, match="model for 'k': direction must be a KpiDirection"):
        model(direction=direction)


def test_maximize_zero_threshold_rejected():
    with pytest.raises(MitigationError, match="nonzero"):
        model(direction=KpiDirection.MAXIMIZE, threshold=0.0)


@pytest.mark.parametrize("bad", [*BAD_NUMBERS, "x"])
def test_non_finite_model_inputs_rejected(bad):
    with pytest.raises(MitigationError, match="threshold must be a finite number"):
        model(threshold=bad)
    with pytest.raises(MitigationError, match="breakpoint must be a finite number"):
        model(curve=((0.0, 0.0), (bad, 1.0)))
    with pytest.raises(MitigationError, match="breakpoint must be a finite number"):
        model(curve=((0.0, 0.0), (10.0, bad)))


@pytest.mark.parametrize("curve", [((0.0, 1.0, 2.0), (1.0, 2.0)), ((0.0,), (1.0, 2.0)), (5.0, 6.0), 5.0, None])
def test_malformed_curve_rejected(curve):
    with pytest.raises(MitigationError, match="breakpoint|curve"):
        model(curve=curve)


def test_satisfaction_maximize():
    m = model(threshold=10.0, curve=((0.0, 0.0), (10.0, 20.0)))
    assert m.satisfaction(10.0) == 1.0   # prediction 20 over threshold 10, capped
    assert m.satisfaction(2.5) == 0.5    # prediction 5
    assert m.satisfaction(0.0) == 0.0


def test_satisfaction_negative_ratio_is_zero():
    m = model(threshold=10.0, curve=((0.0, -5.0), (10.0, -1.0)))
    assert m.satisfaction(5.0) == 0.0
    m2 = model(direction=KpiDirection.MINIMIZE, threshold=4.0, curve=((0.0, -5.0), (10.0, -1.0)))
    assert m2.satisfaction(5.0) == 0.0


def test_satisfaction_minimize():
    m = model(direction=KpiDirection.MINIMIZE, threshold=4.0, curve=((0.0, 2.0), (10.0, 12.0)))
    assert m.satisfaction(0.0) == 1.0    # prediction 2 under threshold 4, capped
    assert m.satisfaction(10.0) == 4.0 / 12.0


def test_satisfaction_minimize_zero_prediction():
    m = model(direction=KpiDirection.MINIMIZE, threshold=4.0, curve=((0.0, 0.0), (10.0, 0.0)))
    assert m.satisfaction(3.0) == 1.0
    m_neg = model(direction=KpiDirection.MINIMIZE, threshold=-1.0, curve=((0.0, 0.0), (10.0, 0.0)))
    assert m_neg.satisfaction(3.0) == 0.0


# -- grid optimizer ---------------------------------------------------------

def test_qacm_finds_feasible_value():
    ee = model(threshold=10.0, curve=((0.0, 0.0), (50.0, 25.0)))        # needs v >= 20
    lf = model(direction=KpiDirection.MINIMIZE, threshold=5.0, curve=((0.0, 50.0), (50.0, 0.0)))
    res = qacm_optimize([ee, lf], (0.0, 50.0), 1.0)
    assert res.satisfied_all
    assert res.welfare == 1.0
    # smallest grid value satisfying both: ee needs 20, lf needs 45
    assert res.value == 45.0


def test_qacm_tie_prefers_smaller_value():
    flat = model(threshold=10.0, curve=((0.0, 20.0), (50.0, 20.0)))
    res = qacm_optimize([flat], (10.0, 50.0), 5.0)
    assert res.value == 10.0 and res.welfare == 1.0


def test_qacm_infeasible_keeps_best_compromise():
    ee = model(threshold=100.0, curve=((0.0, 10.0), (50.0, 50.0)))      # never reaches 100
    res = qacm_optimize([ee], (0.0, 50.0), 1.0)
    assert not res.satisfied_all
    assert res.value == 50.0
    assert res.welfare == 0.5


def test_qacm_grid_includes_upper_bound():
    m = model(threshold=10.0, curve=((0.0, 0.0), (50.0, 10.0)))
    res = qacm_optimize([m], (0.0, 50.0), 10.0)
    assert res.value == 50.0  # only the end of the grid satisfies


def test_qacm_validates_inputs():
    with pytest.raises(MitigationError, match="at least one"):
        qacm_optimize([], (0.0, 50.0), 1.0)
    with pytest.raises(MitigationError, match="empty bounds"):
        qacm_optimize([model()], (10.0, 0.0), 1.0)
    with pytest.raises(MitigationError, match="step"):
        qacm_optimize([model()], (0.0, 50.0), 0.0)


@pytest.mark.parametrize("bad", [*BAD_NUMBERS, "x"])
def test_qacm_rejects_non_finite_bounds_and_step(bad):
    with pytest.raises(MitigationError, match="bound must be a finite number"):
        qacm_optimize([model()], (bad, 50.0), 1.0)
    with pytest.raises(MitigationError, match="bound must be a finite number"):
        qacm_optimize([model()], (0.0, bad), 1.0)
    with pytest.raises(MitigationError, match="grid step must be a finite number"):
        qacm_optimize([model()], (0.0, 50.0), bad)


@pytest.mark.parametrize("bounds", [(0.0, 25.0, 50.0), (0.0,), 50.0, None])
def test_qacm_rejects_bounds_that_are_not_a_pair(bounds):
    with pytest.raises(MitigationError, match="qacm bound must be a pair"):
        qacm_optimize([model()], bounds, 1.0)


def test_qacm_refuses_oversized_grid_before_allocating():
    # The limit is checked on the bounds and step, so none of these calls
    # builds its grid.
    with pytest.raises(MitigationError, match="exceeds"):
        qacm_optimize([model()], (0.0, float(MAX_GRID_POINTS)), 1.0)  # one point too many
    with pytest.raises(MitigationError, match="exceeds"):
        qacm_optimize([model()], (0.0, 50.0), 1e-300)  # the point count overflows to inf
    with pytest.raises(MitigationError, match="exceeds"):
        qacm_optimize([model()], (-1e308, 1e308), 1.0)  # so does the width


def test_qacm_matches_scan_oracle():
    rng = random.Random(77)
    for _ in range(200):
        models, bounds, step = random_qacm_instance(rng)
        res = qacm_optimize(models, bounds, step)
        assert repr(astuple(res)) == repr(qacm_scan_oracle(models, bounds, step))


def test_qacm_exact_on_desk_shaped_sets_and_breakpoint_grids():
    rng = random.Random(2024)
    for make in [random_desk_shaped_model_set, random_on_breakpoint_instance] * 1_500:
        models, bounds, step = make(rng)
        res = qacm_optimize(models, bounds, step)
        assert repr(astuple(res)) == repr(qacm_scan_oracle(models, bounds, step))


# Cases for the pruned walk: (models, bounds, step, expected value, expected welfare)
PRUNED_WALK_CASES = {
    # every point is fully satisfied, so the walk ends at the first one
    "welfare-1-at-first-point": (
        [model(threshold=1.0, curve=((0.0, 5.0), (10.0, 5.0))), model(KpiDirection.MINIMIZE, 4.0, ((0.0, 1.0), (10.0, 2.0)))],
        (0.0, 10.0), 1.0, 0.0, 1.0),
    # the first factor is 0 everywhere: every later point stops at it
    "welfare-0-everywhere": (
        [model(curve=((0.0, 0.0), (10.0, 0.0))), model(threshold=1.0)],
        (0.0, 10.0), 0.5, 0.0, 0.0),
    # points 1-30 stop at the first factor and 31-38 at the second; 39
    # and 40 improve strictly, and 41-50 stop at the second factor again
    "long-pruned-stretch-then-improvement": (
        [model(curve=((0.0, 5.0), (30.0, 5.0), (40.0, 10.0))), model(KpiDirection.MINIMIZE, 10.0, ((0.0, 5.0), (50.0, 20.0)))],
        (0.0, 50.0), 1.0, 40.0, 10.0 / 17.0),
    # full satisfaction only from 40 on: the walk stops there
    "satisfied-plateau-late": (
        [model(curve=((0.0, 0.0), (40.0, 10.0))), model(KpiDirection.MINIMIZE, 3.0, ((0.0, 9.0), (45.0, 1.0)))],
        (0.0, 50.0), 1.0, 40.0, 1.0),
    # -0.0 at the first point; the later +0.0 points tie it and lose
    "negative-zero-welfare": (
        [model(threshold=-1.0, curve=((0.0, 0.0), (5.0, 0.0), (10.0, 3.0))), model(threshold=1.0)],
        (0.0, 10.0), 1.0, 0.0, -0.0),
}


@pytest.mark.parametrize("case", PRUNED_WALK_CASES.values(), ids=PRUNED_WALK_CASES.keys())
def test_qacm_pruned_walk_matches_scan_oracle(case):
    models, bounds, step, value, welfare = case
    res = qacm_optimize(models, bounds, step)
    assert repr(astuple(res)) == repr(qacm_scan_oracle(models, bounds, step))
    assert (repr(res.value), repr(res.welfare)) == (repr(value), repr(welfare))


# Cases at the ends of the span the walk visits: (models, bounds, step)
FLAT_EDGE_CASES = {
    # the peak (welfare 1.0 at 10.5) is the first grid point past the lowest
    # first breakpoint, 10.0, which is itself a grid point
    "grid-point-on-the-lowest-first-breakpoint": (
        [model(curve=((10.0, 0.0), (10.5, 10.0), (20.0, 0.0))), model(KpiDirection.MINIMIZE, 5.0, ((12.0, 1.0), (30.0, 9.0)))],
        (0.0, 40.0), 0.5),
    # welfare climbs to the highest last breakpoint, 30.0, a grid point, and is flat after it
    "grid-point-on-the-highest-last-breakpoint": (
        [model(threshold=20.0, curve=((0.0, 0.0), (30.0, 10.0))), model(KpiDirection.MINIMIZE, 2.0, ((5.0, 1.0), (10.0, 4.0)))],
        (0.0, 50.0), 1.0),
    "bounds-below-every-first-breakpoint": (
        [model(curve=((10.0, 5.0), (20.0, 10.0))), model(KpiDirection.MINIMIZE, 5.0, ((12.0, 9.0), (30.0, 1.0)))],
        (0.0, 5.0), 0.5),
    "bounds-above-every-last-breakpoint": (
        [model(curve=((10.0, 5.0), (20.0, 10.0))), model(KpiDirection.MINIMIZE, 5.0, ((12.0, 9.0), (30.0, 1.0)))],
        (31.0, 45.0), 0.5),
    "one-point-grid-between-the-breakpoints": (
        [model(curve=((10.0, 5.0), (20.0, 10.0)))], (15.0, 15.9), 1.0),
    "one-point-grid-on-a-breakpoint": (
        [model(curve=((10.0, 5.0), (20.0, 10.0))), model(KpiDirection.MINIMIZE, 5.0, ((12.0, 9.0), (30.0, 1.0)))],
        (20.0, 20.0), 1.0),
    # (x - lo) / step overflows to -inf and +inf for these breakpoints
    "breakpoints-at-1e308": (
        [model(curve=((-1e308, 0.0), (1e308, 10.0))), model(KpiDirection.MINIMIZE, 3.0, ((-1e308, 1.0), (0.0, 2.0), (1e308, 9.0)))],
        (-5.0, 5.0), 0.5),
    "staggered-breakpoints-3-models": (
        [model(threshold=8.0, curve=((5.0, 0.0), (20.0, 10.0))),
         model(KpiDirection.MINIMIZE, 3.0, ((10.0, 1.0), (25.0, 6.0))),
         model(threshold=6.0, curve=((15.0, 2.0), (30.0, 9.0), (35.0, 4.0)))],
        (-2.5, 45.0), 0.5),
    "staggered-breakpoints-4-models": (
        [model(threshold=8.0, curve=((5.0, 0.0), (20.0, 10.0))),
         model(KpiDirection.MINIMIZE, 3.0, ((10.0, 1.0), (25.0, 6.0))),
         model(threshold=6.0, curve=((15.0, 2.0), (30.0, 9.0), (35.0, 4.0))),
         model(KpiDirection.MINIMIZE, 2.5, ((0.0, 5.0), (12.0, 2.0), (40.0, 3.0)))],
        (-2.5, 45.0), 0.5),
}


@pytest.mark.parametrize("case", FLAT_EDGE_CASES.values(), ids=FLAT_EDGE_CASES.keys())
def test_qacm_span_ends_match_scan_oracle(case):
    models, bounds, step = case
    assert repr(astuple(qacm_optimize(models, bounds, step))) == repr(qacm_scan_oracle(models, bounds, step))


def test_qacm_evaluates_only_the_first_point_of_each_flat_run(monkeypatch):
    # At or below every first breakpoint, and at or above every last one,
    # each curve is flat; a point there other than the run's first is a tie.
    seen = []
    scalar = KpiResponseModel._scalar

    def counted(self):
        at = scalar(self)

        def sat(v):
            seen.append(v)
            return at(v)
        return sat

    monkeypatch.setattr(KpiResponseModel, "_scalar", counted)
    rng = random.Random(33)
    # the breakpoint instances put curve ends on grid points; near 1e17 the
    # grid's values repeat (16 apart), and (last - lo) / step is 10 points past
    # the first one that reaches the last breakpoint
    far = [model(threshold=20.0, curve=((1e17 - 100.0, 0.0), (1e17 + 16.0, 10.0)))], (1e17, 1e17 + 64.0), 0.7
    for models, bounds, step in [far, *(make(rng) for make in [random_desk_shaped_model_set, random_on_breakpoint_instance] * 300)]:
        seen.clear()
        qacm_optimize(models, bounds, step)
        first = min(m.curve[0][0] for m in models)
        last = max(m.curve[-1][0] for m in models)
        low = [v for v in seen if v <= first]
        high = [v for v in seen if v >= last]
        # each run's first point, evaluated in the walk and perhaps again as the best
        assert set(low) <= {bounds[0]} and len(low) <= 2 * len(models), (models, bounds, step)
        assert len(set(high)) <= 1 and len(high) <= 2 * len(models), (models, bounds, step)


@pytest.mark.slow
def test_qacm_exact_on_a_large_sweep():
    rng = random.Random(1_000_003)
    drawn = (make(rng) for make in [random_qacm_instance, random_desk_shaped_model_set, random_on_breakpoint_instance] * 33_334)
    for models, bounds, step in chain(FLAT_EDGE_CASES.values(), drawn):
        assert repr(astuple(qacm_optimize(models, bounds, step))) == repr(qacm_scan_oracle(models, bounds, step))


def test_qacm_exact_at_signed_zero_and_overflow():
    # A zero prediction over a negative maximize threshold satisfies -0.0.
    neg = model(threshold=-1.0, curve=((0.0, 0.0), (10.0, 0.0)))
    res = qacm_optimize([neg], (0.0, 10.0), 5.0)
    assert repr(astuple(res)) == repr(qacm_scan_oracle([neg], (0.0, 10.0), 5.0)) == "(0.0, -0.0, False, (-0.0,))"
    # Finite breakpoints whose interpolation overflows to NaN: the walk's
    # min(1.0, nan) is 1.0, so the NaN value is fully satisfied.
    huge = model(curve=((-1e308, 0.0), (1e308, 1e308)))
    with np.errstate(over="ignore", invalid="ignore"):
        res = qacm_optimize([huge, model()], (0.0, 10.0), 1.0)
    assert repr(astuple(res)) == repr(qacm_scan_oracle([huge, model()], (0.0, 10.0), 1.0))
    assert res.satisfactions[0] == 1.0


# -- strategies -------------------------------------------------------------

def test_nc_last_writer_wins():
    d = mitigate(Strategy.NC, [req("a", 10.0, 1.0), req("b", 20.0, 5.0), req("c", 30.0, 3.0)], ctx())
    assert d.value == 20.0 and d.winner == "b"


def test_nc_timestamp_tie_goes_to_later_request():
    d = mitigate(Strategy.NC, [req("a", 10.0, 5.0), req("b", 20.0, 5.0)], ctx())
    assert d.value == 20.0 and d.winner == "b"


def test_sbd_resets_to_default():
    d = mitigate(Strategy.SBD, [req("a", 10.0, 1.0)], ctx(defaults={"TXP": 30.0}))
    assert d.value == 30.0 and d.winner is None


def test_sbd_without_default_fails():
    with pytest.raises(MitigationError, match="default"):
        mitigate(Strategy.SBD, [req("a", 10.0, 1.0)], ctx())


def test_priority_strategies_pick_ranked_winner():
    c = ctx(priorities={"es": 2, "mro": 1})
    d = mitigate(Strategy.P_ES, [req("es", 3.0, 0.0), req("mro", 50.0, 10.0)], c)
    assert d.value == 3.0 and d.winner == "es"
    c2 = ctx(priorities={"es": 1, "mro": 2})
    d2 = mitigate(Strategy.P_MRO, [req("es", 3.0, 0.0), req("mro", 50.0, 10.0)], c2)
    assert d2.value == 50.0 and d2.winner == "mro"


def test_priority_tie_prefers_recent_then_list_order():
    c = ctx(priorities={"a": 1, "b": 1})
    assert mitigate(Strategy.P_ES, [req("a", 1.0, 5.0), req("b", 2.0, 9.0)], c).winner == "b"
    assert mitigate(Strategy.P_ES, [req("a", 1.0, 9.0), req("b", 2.0, 9.0)], c).winner == "b"
    assert mitigate(Strategy.P_ES, [req("b", 2.0, 9.0), req("a", 1.0, 9.0)], c).winner == "a"


def test_qacm_strategy_uses_models():
    ms = ResponseModelSet(
        "TXP",
        (0.0, 50.0),
        1.0,
        (model(threshold=10.0, curve=((0.0, 0.0), (50.0, 25.0))),),
    )
    d = mitigate(Strategy.QACM, [req("a", 3.0, 0.0)], ctx(response_models={"TXP": ms}))
    assert d.value == 20.0
    assert d.satisfied_all is True


def test_qacm_strategy_without_models_fails():
    with pytest.raises(MitigationError, match="response models"):
        mitigate(Strategy.QACM, [req("a", 3.0, 0.0)], ctx())


@pytest.mark.parametrize("bad", [{}, None, "TXP"], ids=["dict", "none", "str"])
def test_context_rejects_response_models_that_are_not_a_model_set(bad):
    with pytest.raises(MitigationError, match="must be a ResponseModelSet for 'TXP'"):
        ctx(response_models={"TXP": bad})


def test_context_rejects_a_model_set_registered_under_another_parameter():
    tilt = ResponseModelSet("tilt", (0.0, 50.0), 1.0, (model(),))
    with pytest.raises(MitigationError, match="must be a ResponseModelSet for 'TXP'"):
        ctx(response_models={"TXP": tilt})


@pytest.mark.parametrize("models", [("x",), (model(), None), None, 3], ids=["str", "none-entry", "none", "int"])
def test_model_set_rejects_models_that_are_not_response_models(models):
    with pytest.raises(MitigationError, match="sequence of KpiResponseModel"):
        ResponseModelSet("TXP", (0.0, 50.0), 1.0, models)


def test_model_set_stores_its_models_as_a_hashable_tuple():
    m = model()
    ms = ResponseModelSet("TXP", (0.0, 50.0), 1.0, [m])
    assert ms.models == (m,)
    assert hash(ms) == hash(ResponseModelSet("TXP", (0.0, 50.0), 1.0, (m,)))


@pytest.mark.parametrize("models, bounds, step, detail", [
    ((), (0.0, 50.0), 1.0, "at least one response model"),
    ((model(),), (5.0, 1.0), 1.0, "empty bounds"),
    ((model(),), (0.0, math.nan), 1.0, "qacm bound must be a finite number"),
    ((model(),), (0.0, 50.0), 0.0, "grid step must be positive"),
    ((model(),), (0.0, float(MAX_GRID_POINTS)), 1.0, "exceeds"),
], ids=["no-models", "reversed-bounds", "nan-bound", "zero-step", "oversized-grid"])
def test_model_set_refuses_what_its_scan_would_refuse(models, bounds, step, detail):
    with pytest.raises(MitigationError, match=detail):
        qacm_optimize(models, bounds, step)
    with pytest.raises(MitigationError, match=detail):
        ResponseModelSet("TXP", bounds, step, models)


def test_model_set_stores_its_bounds_as_a_float_pair():
    m = model()
    ms = ResponseModelSet("TXP", [0, np.float64(50.0)], 1, (m,))
    assert repr((ms.bounds, ms.grid_step)) == repr(((0.0, 50.0), 1.0))
    assert hash(ms) == hash(ResponseModelSet("TXP", (0.0, 50.0), 1.0, (m,)))


def test_a_strategy_that_is_not_a_member_fails():
    with pytest.raises(MitigationError, match="unknown strategy 'nc'"):
        mitigate("nc", [req("a", 3.0, 0.0)], ctx())


def test_decision_clamped_to_bounds():
    c = ctx(bounds={"TXP": (0.0, 40.0)})
    d = mitigate(Strategy.NC, [req("a", 99.0, 1.0)], c)
    assert d.value == 40.0


@pytest.mark.parametrize("value, t", [*((bad, 0.0) for bad in BAD_NUMBERS), *((3.0, bad) for bad in BAD_NUMBERS),
                                      ("3", 0.0)])
def test_request_needs_a_finite_value_and_time(value, t):
    with pytest.raises(MitigationError, match="finite value and t_ms"):
        req("a", value, t)


def test_numpy_scalars_are_numbers_at_a_request():
    assert mitigate(Strategy.NC, [req("a", np.float64(3.0), np.int64(5))], ctx()).value == 3.0
    assert mitigate(Strategy.NC, [req("a", np.int64(3), np.float64(5.0))], ctx()).value == 3


DEFAULT_NOT_FINITE = "default for 'TXP' must be a finite number"
BOUNDS_NOT_A_RANGE = "bounds for 'TXP' must be finite with lo <= hi"
PRIORITY_NOT_AN_INTEGER = "priority of 'es' must be an integer"


@pytest.mark.parametrize("kw, detail", [
    ({"defaults": {"TXP": math.nan}}, DEFAULT_NOT_FINITE),
    ({"defaults": {"TXP": math.inf}}, DEFAULT_NOT_FINITE),
    ({"defaults": {"TXP": -math.inf}}, DEFAULT_NOT_FINITE),
    ({"bounds": {"TXP": (20.0, 10.0)}}, BOUNDS_NOT_A_RANGE),
    ({"bounds": {"TXP": (math.nan, 10.0)}}, BOUNDS_NOT_A_RANGE),
    ({"bounds": {"TXP": (0.0, math.nan)}}, BOUNDS_NOT_A_RANGE),
    ({"bounds": {"TXP": (-math.inf, 10.0)}}, BOUNDS_NOT_A_RANGE),
    ({"bounds": {"TXP": (0.0, math.inf)}}, BOUNDS_NOT_A_RANGE),
    ({"bounds": {"TXP": (0.0, 10.0, 20.0)}}, BOUNDS_NOT_A_RANGE),
    ({"bounds": {"TXP": 10.0}}, BOUNDS_NOT_A_RANGE),
    ({"bounds": {"TXP": ("0", "10")}}, BOUNDS_NOT_A_RANGE),
    ({"defaults": {"TXP": "30"}}, DEFAULT_NOT_FINITE),
    *(({"defaults": {"TXP": bad}}, DEFAULT_NOT_FINITE) for bad in BAD_NUMBERS),
    *(({"bounds": {"TXP": (bad, 10.0)}}, BOUNDS_NOT_A_RANGE) for bad in BAD_NUMBERS),
    *(({"bounds": {"TXP": (0.0, bad)}}, BOUNDS_NOT_A_RANGE) for bad in BAD_NUMBERS),
    # 10**400 is an integer, so a valid priority
    *(({"priorities": {"es": bad}}, PRIORITY_NOT_AN_INTEGER) for bad in [*(b for b in BAD_NUMBERS if b != 10**400), 1.5]),
])
def test_context_rejects_bad_defaults_and_bounds(kw, detail):
    with pytest.raises(MitigationError, match=detail):
        ctx(**kw)


@pytest.mark.parametrize("field", ["defaults", "priorities", "response_models", "bounds"])
@pytest.mark.parametrize("bad", [None, [("TXP", (0.0, 10.0))]], ids=["none", "list-of-pairs"])
def test_context_rejects_a_field_that_is_not_a_mapping(field, bad):
    with pytest.raises(MitigationError, match=f"{field} must be a mapping"):
        ctx(**{field: bad})


def test_context_is_frozen_and_takes_a_one_point_range():
    c = ctx(bounds={"TXP": (10.0, 10.0)})
    with pytest.raises(FrozenInstanceError):
        c.bounds = {}
    assert c.clamp("TXP", 3.0) == 10.0


def test_a_built_context_keeps_what_it_validated():
    ms = ResponseModelSet("TXP", (0.0, 50.0), 1.0, (model(threshold=10.0, curve=((0.0, 0.0), (50.0, 25.0))),))
    fields = dict(defaults={"TXP": 30.0}, priorities={"es": 2}, response_models={"TXP": ms}, bounds={"TXP": [0.0, 40.0]})
    c = ctx(**fields)
    with pytest.raises(TypeError):
        c.response_models["TXP"] = {}
    with pytest.raises(TypeError):
        c.bounds["TXP"] = (5, 1)
    # the caller's dicts, and the pair inside one, change after the build; the context does not
    fields["bounds"]["TXP"][1] = -1.0
    fields["bounds"]["RET"] = (5, 1)
    fields["defaults"]["TXP"] = math.nan
    fields["priorities"]["es"] = 1.5
    fields["response_models"]["TXP"] = {}
    assert c == ctx(defaults={"TXP": 30.0}, priorities={"es": 2}, response_models={"TXP": ms}, bounds={"TXP": (0.0, 40.0)})
    d = mitigate(Strategy.QACM, [req("a", 3.0, 0.0)], c)
    assert (d.value, d.satisfied_all) == (20.0, True)
    assert mitigate(Strategy.SBD, [req("a", 3.0, 0.0)], c).value == 30.0


# Numbers drawn so that equal values are distinct objects, as they are
# when they come from arithmetic; a clamp that returns the wrong one of
# two equal numbers then shows up under `is`, or in repr as a type.
def _number(rng, x):
    """x as a fresh float or np.float64; an integral x now and then as an int or np.int64."""
    if x == int(x) and rng.random() < 0.3:
        return rng.choice([int, np.int64])(x)
    return rng.choice([float, np.float64])(str(x))


def random_mitigation_case(rng, strategy):
    """One parameter's requests and a context for them, drawn to land on the
    rules' ties (timestamps, priorities) and on the clamp's edges: values at,
    inside and outside the bounds, +-0.0 at a bound, one-point ranges and
    numpy scalars."""
    bounds = None
    if rng.random() < 0.85:
        lo = rng.choice([-0.0, 0.0, -5.0, 2.5, 10.0])
        hi = lo if rng.random() < 0.2 else rng.choice([-0.0, 0.0, 3.0]) if lo == 0 else lo + rng.choice([0.5, 3.0, 40.0])
        bounds = _number(rng, lo), _number(rng, hi)

    def value():
        if bounds is None or rng.random() < 0.3:
            return _number(rng, rng.choice([-0.0, 0.0, -7.0, 3.0, 55.5]))
        lo, hi = map(float, bounds)
        return _number(rng, rng.choice([lo, hi, -lo, -hi, (lo + hi) / 2, lo - 1.0, hi + 1.0, hi + 100.0]))

    xapps = ["a", "b", "c", "d"]
    requests = [ParameterRequest(rng.choice(xapps), "TXP", value(), _number(rng, rng.choice([0.0, 1.0, 1.0, 2.5, 7.0])))
                for _ in range(rng.randint(1, 5))]
    priorities = {x: rng.choice([int, np.int64])(rng.choice([-1, 0, 1, 2, 2])) for x in xapps if rng.random() < 0.7}
    models = {}
    if strategy is Strategy.QACM:
        ms, scan_bounds, step = random_qacm_instance(rng)
        models["TXP"] = ResponseModelSet("TXP", scan_bounds, step, tuple(ms))
    c = ctx(defaults={"TXP": value()}, priorities=priorities, response_models=models,
            bounds={} if bounds is None else {"TXP": bounds})
    return requests, c


def test_mitigate_matches_the_oracle_on_every_strategy():
    rng = random.Random(2024)
    for i in range(2000):
        strategy = list(Strategy)[i % 5]
        requests, c = random_mitigation_case(rng, strategy)
        d = mitigate(strategy, requests, c)
        assert d.strategy is strategy
        got = repr((d.param, d.value, d.strategy, d.winner, d.satisfied_all))
        assert got == repr(mitigate_oracle(strategy, requests, c)), (i, requests, c)


@pytest.mark.parametrize("lo, hi", [("0", "10"), ("2.5", "2.5"), ("0.0", "0.0"), ("-0.0", "-0.0"), ("-0.0", "0.0"),
                                    ("0.0", "-0.0"), ("-3", "0.0"), ("-0.0", "7")])
@pytest.mark.parametrize("kind", [float, np.float64, int, np.int64])
def test_clamp_returns_the_object_min_max_returns(lo, hi, kind):
    lo, hi = float(lo), float(hi)  # objects distinct from every value below
    c = ctx(bounds={"TXP": (lo, hi)})
    lo, hi = c.bounds["TXP"]
    for x in ["-4", "-0.0", "0.0", "2.5", "5", "7", "10", "11"]:
        v = kind(float(x)) if kind in (float, np.float64) else kind(int(float(x)))
        assert c.clamp("TXP", v) is min(max(v, lo), hi), (x, kind)
        assert c.clamp("RET", v) is v


def test_requests_must_share_parameter():
    with pytest.raises(MitigationError, match="multiple parameters"):
        mitigate(Strategy.NC, [req("a", 1.0, 1.0, "TXP"), req("b", 2.0, 2.0, "RET")], ctx())


def test_no_requests_rejected():
    with pytest.raises(MitigationError, match="no requests"):
        mitigate(Strategy.NC, [], ctx())
