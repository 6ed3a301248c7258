"""The value types the control plane, the ledger and the simulator build per
operation are slotted: an instance carries no __dict__, and copying,
pickling and dataclasses.replace still give an equal object."""

import copy
import pickle
from dataclasses import replace

import pytest

from ric_cms.conflict_model import KpiDirection
from ric_cms.detection import ChangeRecord, ConflictVerdict, DegradationEvent, VerdictKind
from ric_cms.harness import PhaseStats, ReplicaResult
from ric_cms.mitigation import (
    KpiResponseModel,
    MitigationContext,
    MitigationDecision,
    ParameterRequest,
    QacmResult,
    ResponseModelSet,
    Strategy,
)
from ric_cms.ran_sim import TraceRow
from ric_cms.xapps import LabeledEvent


def model_set() -> ResponseModelSet:
    ee = KpiResponseModel("ee", KpiDirection.MAXIMIZE, 2.0, ((0.0, 1.0), (50.0, 3.0)))
    lf = KpiResponseModel("lf", KpiDirection.MINIMIZE, 10.0, ((0.0, 2.0), (50.0, 30.0)))
    return ResponseModelSet("txp", (0.0, 50.0), 1.0, (ee, lf))


def scanned() -> ResponseModelSet:
    ms = model_set()
    ms.optimize()
    return ms


change = ChangeRecord(0.0, "es", "txp", 30.0)
degradation = DegradationEvent(100.0, "ee", "mro", 0.5)

INSTANCES = {
    "ParameterRequest": lambda: ParameterRequest("es", "txp", 30.0, 0.0),
    "KpiResponseModel": lambda: model_set().models[0],
    "MitigationContext": lambda: MitigationContext({"txp": 40.0}, {"es": 1}, {"txp": model_set()}, {"txp": (0.0, 50.0)}),
    "ResponseModelSet": model_set,
    "ResponseModelSet-scanned": scanned,
    "QacmResult": lambda: scanned().optimize(),
    "MitigationDecision": lambda: MitigationDecision("txp", 30.0, Strategy.QACM, satisfied_all=True),
    "ChangeRecord": lambda: change,
    "DegradationEvent": lambda: degradation,
    "ConflictVerdict": lambda: ConflictVerdict(VerdictKind.DIRECT, "ee", "mro", "es", "txp", 0.0, 100.0),
    "LabeledEvent": lambda: LabeledEvent(change, degradation, VerdictKind.DIRECT),
    "TraceRow": lambda: TraceRow(100.0, 3, 1, -80.5, "HO"),
    "PhaseStats": lambda: PhaseStats(100.0, 1e6, 2.0, 1),
    "ReplicaResult": lambda: ReplicaResult("nc", 0, 0, 1e5, 1, 2, 0, {"direct": 1}, 0, {30.0: PhaseStats(100.0)}),
}


@pytest.mark.parametrize("make", INSTANCES.values(), ids=INSTANCES.keys())
def test_a_value_type_is_slotted_and_copies_equal(make):
    obj = make()
    assert not hasattr(obj, "__dict__")
    for twin in (copy.deepcopy(obj), pickle.loads(pickle.dumps(obj)), replace(obj)):
        assert type(twin) is type(obj) and twin == obj


def test_a_copied_model_set_gives_the_same_scan():
    ms = scanned()
    for twin in (copy.deepcopy(ms), pickle.loads(pickle.dumps(ms)), replace(ms), model_set()):
        assert twin.optimize() == ms.optimize()
        assert hash(twin) == hash(ms)
