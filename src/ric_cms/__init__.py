"""Conflict modeling, detection and mitigation for RAN control apps.

The package splits along the lifecycle of a conflict:

  conflict_model  static structure: who writes what, what moves which KPI
  detection       runtime attribution of KPI degradations to changes
  mitigation      strategies for resolving competing parameter requests
  ran_sim         a small deterministic network simulator to fight over
  xapps           the competing apps and synthetic detector workloads
  harness         paired-seed strategy comparison experiments
  files           the one CSV and the one JSON writer every output goes through
  checks          the finite and integer rules every input number meets
"""

from .conflict_model import (
    ConflictKind,
    ConflictTopology,
    KpiDirection,
    KpiSpec,
    StaticConflict,
    TopologyError,
    XAppDescriptor,
    build_topology,
    direct_conflicts,
    five_xapp_topology,
    indirect_conflicts,
    load_topology,
    promote_implicit,
)
from .detection import (
    ChangeRecord,
    ClockRegressionError,
    ConflictVerdict,
    DegradationEvent,
    DetectionError,
    Ledger,
    UnattributableDegradationError,
    VerdictKind,
    bench_detection,
)
from .harness import (
    ExperimentConfig,
    ExperimentResult,
    desk_preset,
    export_csv,
    export_summary_json,
    export_traces,
    paper_preset,
    run_experiment,
)
from .mitigation import (
    KpiResponseModel,
    MitigationContext,
    MitigationDecision,
    MitigationError,
    ParameterRequest,
    ResponseModelSet,
    Strategy,
    mitigate,
)
from .ran_sim import SimConfig, Simulator, Trajectory, load_sim_config
from .xapps import LabeledEvent, gen_stochastic_events

__version__ = "0.1.0"

__all__ = [
    "ConflictKind",
    "ConflictTopology",
    "KpiDirection",
    "KpiSpec",
    "StaticConflict",
    "TopologyError",
    "XAppDescriptor",
    "build_topology",
    "direct_conflicts",
    "five_xapp_topology",
    "indirect_conflicts",
    "load_topology",
    "promote_implicit",
    "ChangeRecord",
    "ClockRegressionError",
    "ConflictVerdict",
    "DegradationEvent",
    "DetectionError",
    "Ledger",
    "UnattributableDegradationError",
    "VerdictKind",
    "bench_detection",
    "ExperimentConfig",
    "ExperimentResult",
    "desk_preset",
    "export_csv",
    "export_summary_json",
    "export_traces",
    "paper_preset",
    "run_experiment",
    "KpiResponseModel",
    "MitigationContext",
    "MitigationDecision",
    "MitigationError",
    "ParameterRequest",
    "ResponseModelSet",
    "Strategy",
    "mitigate",
    "SimConfig",
    "Simulator",
    "Trajectory",
    "load_sim_config",
    "LabeledEvent",
    "gen_stochastic_events",
    "__version__",
]
