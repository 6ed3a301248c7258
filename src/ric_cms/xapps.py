"""The xApps used by the experiments, plus synthetic detection workloads.

Two apps fight over the network-wide transmit power: an energy saver that
wants it low and a mobility-robustness app that wants it high.  Their
requests fire on a fixed cadence (energy saver at the start of each
control interval, mobility app half an interval later), which produces a
sustained direct conflict on the single shared knob.

`gen_stochastic_events` builds labeled change/degradation streams against
an arbitrary topology for exercising the detector: events are spaced so
every degradation attributes to exactly its own change.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .checks import integer
from .conflict_model import (
    ConflictTopology,
    KpiDirection,
    KpiSpec,
    XAppDescriptor,
    build_topology,
)
from .detection import DEFAULT_ATTRIBUTION_WINDOW_MS, ChangeRecord, DegradationEvent, VerdictKind
from .mitigation import ParameterRequest

ES_XAPP_ID = "es"
MRO_XAPP_ID = "mro"
TXP_PARAM = "TXP"
ES_TXP_DBM = 3.0
MRO_TXP_DBM = 50.0
EE_KPI = "energy_efficiency"
LF_KPI = "link_failure_rate"

# The fixed design of the experiment: request cadence, and the TXP
# default, range and QACM scan step.
CONTROL_INTERVAL_MS = 2000.0
TXP_DEFAULT_DBM = 30.0
TXP_BOUNDS_DBM = (0.0, 50.0)
TXP_GRID_STEP_DB = 1.0

# Any link failure inside the monitoring window violates the SLA.
LF_SLA_THRESHOLD = 0.5


def experiment_topology() -> ConflictTopology:
    return build_topology((
        XAppDescriptor(ES_XAPP_ID, (TXP_PARAM,), (KpiSpec(EE_KPI, KpiDirection.MAXIMIZE),)),
        XAppDescriptor(MRO_XAPP_ID, (TXP_PARAM,), (KpiSpec(LF_KPI, KpiDirection.MINIMIZE, LF_SLA_THRESHOLD, sla_sensitive=True),)),
    ))


def es_request(t_ms: float) -> ParameterRequest:
    return ParameterRequest(ES_XAPP_ID, TXP_PARAM, ES_TXP_DBM, t_ms)


def mro_request(t_ms: float) -> ParameterRequest:
    return ParameterRequest(MRO_XAPP_ID, TXP_PARAM, MRO_TXP_DBM, t_ms)


# ---------------------------------------------------------------------------
# Labeled detection workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class LabeledEvent:
    change: ChangeRecord
    degradation: DegradationEvent
    expected: VerdictKind


def _instance_pools(t: ConflictTopology) -> dict[VerdictKind, list[tuple[str, str, str, str]]]:
    """Enumerate (instructing, param, observing, kpi) tuples per verdict kind.

    Built from first principles of the rule chain, not by running it:
    rule 1 needs same app; rule 2 needs the param in both ICP sets; rule 3
    needs it in the KPI's group but not the observer's ICPs; rule 4 the
    rest.  Changes always touch a param the instructing app declares.
    """
    pools: dict[VerdictKind, list[tuple[str, str, str, str]]] = {k: [] for k in VerdictKind}
    for obs in t.xapps:
        for kpi in obs.kpi_ids():
            group = t.param_groups[kpi]
            for instr in t.xapps:
                for p in instr.icps:
                    if instr.id == obs.id:
                        pools[VerdictKind.NO_CONFLICT].append((instr.id, p, obs.id, kpi))
                    elif p in t.icps[obs.id]:
                        pools[VerdictKind.DIRECT].append((instr.id, p, obs.id, kpi))
                    elif p in group:
                        pools[VerdictKind.INDIRECT].append((instr.id, p, obs.id, kpi))
                    else:
                        pools[VerdictKind.IMPLICIT].append((instr.id, p, obs.id, kpi))
    return pools


def gen_stochastic_events(
    topology: ConflictTopology,
    n: int,
    seed: int,
    window_ms: float = DEFAULT_ATTRIBUTION_WINDOW_MS,
) -> list[LabeledEvent]:
    """n labeled events, evenly mixed over the four verdict kinds.

    Event i puts its change at i*window_ms and its degradation half a
    window later, so attribution is unambiguous: the previous event's
    change has already fallen out of the window.
    """
    if not integer(n) or n < 1:
        raise ValueError(f"the event count must be a positive integer, got {n!r}")
    pools = _instance_pools(topology)
    missing = [k.value for k in VerdictKind if not pools[k]]
    if missing:
        raise ValueError(f"topology cannot express verdict kinds: {', '.join(missing)}")

    rng = random.Random(seed)
    kinds: list[VerdictKind] = []
    per = n // len(VerdictKind)
    for k in VerdictKind:
        kinds.extend([k] * per)
    kinds.extend(rng.choice(list(VerdictKind)) for _ in range(n - len(kinds)))
    rng.shuffle(kinds)

    events = []
    for i, kind in enumerate(kinds):
        instr, p, obs, kpi = rng.choice(pools[kind])
        t0 = i * window_ms
        events.append(
            LabeledEvent(
                change=ChangeRecord(t0, instr, p, rng.uniform(0.0, 50.0)),
                degradation=DegradationEvent(t0 + window_ms / 2.0, kpi, obs, rng.uniform(0.0, 1.0)),
                expected=kind,
            )
        )
    return events
