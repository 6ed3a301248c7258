"""Output checks behind `correct`, `attempted`, `failed` and `error_rate`.

Each check records one verdict per checked output in a `Tally`.  The
oracles here are written from the documented semantics, not by calling
the code under test.
"""

from __future__ import annotations

import csv
import hashlib
import io

import numpy as np

from ric_cms.conflict_model import KpiDirection
from ric_cms.detection import ConflictVerdict, VerdictKind
from ric_cms.mitigation import MitigationDecision, Strategy


class Tally:
    """Checked outputs and the labels of the ones that failed."""

    def __init__(self):
        self.checked = 0
        self.failed: list[str] = []

    def check(self, label: str, ok: bool) -> None:
        self.checked += 1
        if not ok:
            self.failed.append(label)

    @property
    def error_rate(self) -> float:
        return len(self.failed) / self.checked if self.checked else 0.0


def digest(*blobs: bytes) -> str:
    h = hashlib.sha256()
    for b in blobs:
        h.update(b)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

def orderings(tally: Tally, ee: dict, lf: dict, ho: dict) -> None:
    """Acceptance criterion 6 on per-strategy medians of energy
    efficiency, link failures and handovers."""
    tally.check("ee qacm > p-es", ee["qacm"] > ee["p-es"])
    for s in ("nc", "sbd", "p-mro"):
        tally.check(f"ee qacm > {s}", ee["qacm"] > ee[s])
    tally.check("lf qacm <= p-mro", lf["qacm"] <= lf["p-mro"])
    for s in ("nc", "sbd", "p-es"):
        tally.check(f"lf qacm < {s}", lf["qacm"] < lf[s])
        tally.check(f"lf p-mro < {s}", lf["p-mro"] < lf[s])
    tally.check("ho qacm <= p-mro", ho["qacm"] <= ho["p-mro"])
    for s in ("nc", "sbd", "p-es"):
        tally.check(f"ho p-mro < {s}", ho["p-mro"] < ho[s])
    tally.check("lf qacm <= 0.9 nc", lf["qacm"] <= 0.9 * lf["nc"])
    tally.check("ho qacm < nc", ho["qacm"] < ho["nc"])


def results_rows(tally: Tally, csv_bytes: bytes, strategies, reps: int, base_seed: int) -> None:
    """results.csv holds one row per strategy and replica, in order, with
    replica r on seed base_seed + r."""
    rows = list(csv.reader(io.StringIO(csv_bytes.decode())))
    want = [[s, str(r), str(base_seed + r)] for s in strategies for r in range(reps)]
    tally.check("results.csv rows", [row[:3] for row in rows[1:]] == want)


# ---------------------------------------------------------------------------
# Control plane
# ---------------------------------------------------------------------------

def _predict(curve, v: np.ndarray) -> np.ndarray:
    """Piecewise-linear curve at each value of v, flat beyond its ends."""
    y = np.where(v <= curve[0][0], curve[0][1], curve[-1][1])
    inside = (v > curve[0][0]) & (v < curve[-1][0])
    # later segments first, so where two segments meet the earlier one wins
    for (v0, y0), (v1, y1) in reversed(list(zip(curve, curve[1:]))):
        with np.errstate(divide="ignore", invalid="ignore"):
            on_segment = y0 + (y1 - y0) * (v - v0) / (v1 - v0)
        y = np.where(inside & (v0 <= v) & (v <= v1), on_segment, y)
    return y


def _satisfaction(model, v: np.ndarray) -> np.ndarray:
    y = _predict(model.curve, v)
    with np.errstate(divide="ignore", invalid="ignore"):
        if model.direction is KpiDirection.MAXIMIZE:
            ratio = y / model.threshold
        else:
            ratio = np.where(y == 0, 1.0 if model.threshold >= 0 else 0.0, model.threshold / y)
    return np.minimum(1.0, np.maximum(0.0, ratio))


def qacm_oracle(model_set) -> float:
    """Grid walk from the low bound; the first best welfare wins."""
    lo, hi = model_set.bounds
    n = int((hi - lo) / model_set.grid_step + 1e-9) + 1
    v = lo + np.arange(n, dtype=float) * model_set.grid_step
    w = np.ones(n)
    for m in model_set.models:
        w = w * _satisfaction(m, v)
    return float(v[int(np.argmax(w))])


def expected_decision(strategy: Strategy, requests, ctx) -> float:
    param = requests[0].param
    if strategy is Strategy.NC:
        # latest timestamp; on a tie the later list entry
        value = max(enumerate(requests), key=lambda ir: (ir[1].t_ms, ir[0]))[1].value
    elif strategy is Strategy.SBD:
        value = ctx.defaults[param]
    elif strategy in (Strategy.P_ES, Strategy.P_MRO):
        rank = lambda ir: (ctx.priorities.get(ir[1].xapp, 0), ir[1].t_ms, ir[0])
        value = max(enumerate(requests), key=rank)[1].value
    else:
        value = qacm_oracle(ctx.response_models[param])
    lo, hi = ctx.bounds[param]
    return min(max(value, lo), hi)


def control_plane(tally: Tally, outputs, expected) -> None:
    """One check per operation.  expected holds None for a landed change
    (it must only not raise), a VerdictKind for a degradation, and a
    value for a request set."""
    for i, (got, want) in enumerate(zip(outputs, expected)):
        if want is None:
            ok = not isinstance(got, Exception)
        elif isinstance(want, VerdictKind):
            ok = isinstance(got, ConflictVerdict) and got.kind is want
        else:
            ok = isinstance(got, MitigationDecision) and got.value == want
        tally.checked += 1
        if not ok:
            tally.failed.append(f"op {i}: got {got!r}, want {want!r}")
    tally.check("op count", len(outputs) == len(expected))
