"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import random

from ric_cms.conflict_model import KpiDirection, KpiSpec, XAppDescriptor
from ric_cms.mitigation import KpiResponseModel


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
