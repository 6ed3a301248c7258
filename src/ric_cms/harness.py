"""Experiment harness: strategy arms over a shared simulated network.

The experiment's fixed design lives in constants: the request cadence
and the TXP default, range and QACM grid in `xapps`, the attribution
window in `detection`.  A configuration chooses only the radio scenario,
the strategies, the replica count and the base seed.

One replica wires together the simulator, the two competing xApps, the
conflict-management layer and the runtime detector.  Every request
becomes its app's standing wish, and the standing wishes are arbitrated
at once:

  write-through   nc    last writer wins, and every request lands, even
                        one that leaves TXP where it is
  reactive reset  sbd   as nc, and the tick after the interval's second
                        request the controller snaps the knob back to
                        its default
  interception    p-es, p-mro, qacm
                        the strategy arbitrates; only a value that
                        differs from the applied one touches the network

Arms are paired by common random numbers: replica r uses seed
base_seed + r under every strategy, so cross-strategy differences come
from the strategy alone.  The no-coordination arm doubles as the
calibration source for QACM: its phase statistics (the network dwells at
exactly the two requested power levels) become two-point response
curves, and its medians become the satisfaction thresholds.
"""

from __future__ import annotations

import json
import numbers
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .detection import (
    DEFAULT_ATTRIBUTION_WINDOW_MS,
    ChangeRecord,
    DegradationEvent,
    Ledger,
    UnattributableDegradationError,
)
from .mitigation import (
    KpiDirection,
    KpiResponseModel,
    MitigationContext,
    ParameterRequest,
    ResponseModelSet,
    Strategy,
    mitigate,
)
from .ran_sim import SimConfig, Simulator, write_trace_csv
from .xapps import (
    CONTROL_INTERVAL_MS,
    EE_KPI,
    ES_TXP_DBM,
    ES_XAPP_ID,
    LF_KPI,
    LF_SLA_THRESHOLD,
    MRO_TXP_DBM,
    MRO_XAPP_ID,
    TXP_BOUNDS_DBM,
    TXP_DEFAULT_DBM,
    TXP_GRID_STEP_DB,
    TXP_PARAM,
    es_request,
    experiment_topology,
    mro_request,
)

ALL_STRATEGIES = (Strategy.NC, Strategy.SBD, Strategy.P_ES, Strategy.P_MRO, Strategy.QACM)

# The per-replica KPIs, in results.csv and summary.json order.
METRICS = (
    "energy_efficiency_bits_per_joule",
    "link_failures",
    "total_handovers",
    "pingpong_handovers",
)
RESULT_COLUMNS = ("strategy", "rep", "seed") + METRICS


@dataclass(frozen=True)
class ExperimentConfig:
    sim: SimConfig
    strategies: tuple[Strategy, ...] = ALL_STRATEGIES
    reps: int = 50
    base_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "strategies", tuple(self.strategies))
        if len(set(self.strategies)) != len(self.strategies):
            raise ValueError("strategies must not repeat")
        ticks = CONTROL_INTERVAL_MS / self.sim.step_ms
        if abs(ticks - round(ticks)) > 1e-9 or round(ticks) < 2 or round(ticks) % 2:
            raise ValueError(f"interval_ms ({CONTROL_INTERVAL_MS:g}) must be an even multiple of the simulation step")
        for name in ("reps", "base_seed"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.reps <= 0:
            raise ValueError("reps must be positive")
        if self.base_seed < 0:
            raise ValueError("base_seed must be non-negative")


def desk_preset(base_seed: int = 0) -> ExperimentConfig:
    """Small but statistically stable: 50 paired replicas of 2 minutes."""
    return ExperimentConfig(sim=SimConfig(duration_s=120.0), reps=50, base_seed=base_seed)


def paper_preset(base_seed: int = 0) -> ExperimentConfig:
    """Long form: 500 paired replicas of 10 minutes each."""
    return ExperimentConfig(sim=SimConfig(duration_s=600.0), reps=500, base_seed=base_seed)


PRESETS = {"desk": desk_preset, "paper": paper_preset}


# ===========================================================================
# Single replica
# ===========================================================================

@dataclass
class PhaseStats:
    """Accumulated per applied power level; the calibration raw material."""

    time_ms: float = 0.0
    bits: float = 0.0
    joules: float = 0.0
    link_failures: int = 0

    def add(self, time_ms: float, bits: float, joules: float, link_failures: int) -> None:
        self.time_ms += time_ms
        self.bits += bits
        self.joules += joules
        self.link_failures += link_failures


@dataclass
class ReplicaResult:
    strategy: str
    rep: int
    seed: int
    energy_efficiency_bits_per_joule: float
    link_failures: int
    total_handovers: int
    pingpong_handovers: int
    verdicts: dict[str, int] = field(default_factory=dict)
    unattributed: int = 0
    phases: dict[float, PhaseStats] = field(default_factory=dict)

    def csv_row(self) -> list:
        return [getattr(self, c) for c in RESULT_COLUMNS]


def run_replica(
    strategy: Strategy,
    rep: int,
    exp: ExperimentConfig,
    ctx: MitigationContext,
    record_trace: bool = False,
) -> tuple[ReplicaResult, Simulator]:
    seed = exp.base_seed + rep
    sim = Simulator(exp.sim, seed, record_trace=record_trace)
    ledger = Ledger(experiment_topology())

    step = exp.sim.step_ms
    interval_ticks = int(round(CONTROL_INTERVAL_MS / step))
    half_ticks = interval_ticks // 2
    window_ticks = int(round(DEFAULT_ATTRIBUTION_WINDOW_MS / step))
    write_through = strategy in (Strategy.NC, Strategy.SBD)
    on_arrival = Strategy.NC if write_through else strategy

    standing: dict[str, ParameterRequest] = {}
    reset_tick = -1
    lf_per_tick: list[int] = []
    phases: defaultdict[float, PhaseStats] = defaultdict(PhaseStats)
    verdicts: Counter = Counter()
    unattributed = 0

    for tick_i in range(exp.sim.n_ticks):
        t = sim.t_ms
        in_interval = tick_i % interval_ticks

        if tick_i == reset_tick:
            decision = mitigate(Strategy.SBD, list(standing.values()), ctx)
            sim.set_txp(decision.value)  # controller action, not an xApp write

        if in_interval == half_ticks:
            # SLA check runs before the mobility app's own request lands,
            # so attribution sees the energy saver's standing change.
            lf_window = sum(lf_per_tick[-window_ticks:])
            if lf_window > LF_SLA_THRESHOLD:
                ev = DegradationEvent(t, LF_KPI, MRO_XAPP_ID, float(lf_window))
                ledger.record_degradation(ev)
                try:
                    verdicts[ledger.classify(ev).kind.value] += 1
                except UnattributableDegradationError:
                    unattributed += 1

        if in_interval in (0, half_ticks):
            req = es_request(t) if in_interval == 0 else mro_request(t)
            standing[req.xapp] = req
            decision = mitigate(on_arrival, list(standing.values()), ctx)
            if write_through or decision.value != sim.txp_dbm:
                sim.set_txp(decision.value)
                ledger.record_change(ChangeRecord(t, req.xapp, TXP_PARAM, decision.value))
            if strategy is Strategy.SBD and in_interval == half_ticks:
                reset_tick = tick_i + 1

        applied = sim.txp_dbm
        stats = sim.tick()
        lf_per_tick.append(stats.link_failures)
        phases[applied].add(step, stats.bits, stats.joules, stats.link_failures)

    report = sim.kpi_report()
    result = ReplicaResult(
        strategy=strategy.value,
        rep=rep,
        seed=seed,
        **{m: report[m] for m in METRICS},
        verdicts=dict(verdicts),
        unattributed=unattributed,
        phases=dict(phases),
    )
    return result, sim


# ===========================================================================
# Calibration from the no-coordination arm
# ===========================================================================

def derive_qacm_thresholds(nc_rows: Sequence[ReplicaResult]) -> dict[str, float]:
    """Satisfaction targets: do at least as well as the typical
    uncoordinated replica on both fronts."""
    ee = [r.energy_efficiency_bits_per_joule for r in nc_rows]
    lf = [r.link_failures for r in nc_rows]
    return {
        EE_KPI: float(np.median(ee)),
        LF_KPI: float(np.median(lf)),
    }


def derive_qacm_models(nc_rows: Sequence[ReplicaResult], exp: ExperimentConfig) -> ResponseModelSet:
    """Two-point response curves from the NC arm's phase statistics,
    with the NC medians as thresholds.

    Under no coordination the network dwells at exactly the two requested
    power levels, so each level gets a direct measurement: energy
    efficiency as bits over joules, link failures as a rate scaled to the
    replica horizon.  Linear interpolation between the two anchors is a
    deliberately conservative reading of the middle ground.
    """
    thresholds = derive_qacm_thresholds(nc_rows)
    agg: defaultdict[float, PhaseStats] = defaultdict(PhaseStats)
    for row in nc_rows:
        for v, ph in row.phases.items():
            agg[v].add(ph.time_ms, ph.bits, ph.joules, ph.link_failures)

    anchors = (ES_TXP_DBM, MRO_TXP_DBM)
    for v in anchors:
        if v not in agg or agg[v].time_ms <= 0 or agg[v].joules <= 0:
            raise ValueError(f"no-coordination arm never dwelt at {v} dBm, cannot calibrate")

    horizon_ms = exp.sim.duration_s * 1000.0
    ee_curve = tuple((v, agg[v].bits / agg[v].joules) for v in anchors)
    lf_curve = tuple((v, agg[v].link_failures / agg[v].time_ms * horizon_ms) for v in anchors)

    if thresholds[EE_KPI] <= 0:
        raise ValueError("degenerate calibration: no-coordination efficiency median is zero")

    return ResponseModelSet(
        param=TXP_PARAM,
        bounds=TXP_BOUNDS_DBM,
        grid_step=TXP_GRID_STEP_DB,
        models=(
            KpiResponseModel(EE_KPI, KpiDirection.MAXIMIZE, thresholds[EE_KPI], ee_curve),
            KpiResponseModel(LF_KPI, KpiDirection.MINIMIZE, thresholds[LF_KPI], lf_curve),
        ),
    )


def _context(strategy: Strategy, model_set: ResponseModelSet | None) -> MitigationContext:
    priorities: dict[str, int] = {}
    if strategy is Strategy.P_ES:
        priorities = {ES_XAPP_ID: 2, MRO_XAPP_ID: 1}
    elif strategy is Strategy.P_MRO:
        priorities = {MRO_XAPP_ID: 2, ES_XAPP_ID: 1}
    models: dict[str, ResponseModelSet] = {}
    if strategy is Strategy.QACM:
        if model_set is None:
            raise ValueError("qacm arm needs calibrated response models")
        models = {TXP_PARAM: model_set}
    return MitigationContext(
        defaults={TXP_PARAM: TXP_DEFAULT_DBM},
        priorities=priorities,
        response_models=models,
        bounds={TXP_PARAM: TXP_BOUNDS_DBM},
    )


# ===========================================================================
# Full experiment
# ===========================================================================

def box_stats(values: Sequence[float]) -> dict[str, float]:
    qs = np.percentile(np.asarray(values, dtype=float), [0, 25, 50, 75, 100])
    return dict(zip(("min", "q1", "median", "q3", "max"), (float(q) for q in qs)))


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    rows: dict[str, list[ReplicaResult]]  # strategy value -> replicas in rep order
    model_set: ResponseModelSet | None
    traces: dict[str, Simulator] = field(default_factory=dict)  # rep-0 sims

    def summary(self) -> dict[str, dict[str, dict[str, float]]]:
        """strategy -> metric -> box stats, as summary.json writes them."""
        return {
            strat: {m: box_stats([getattr(r, m) for r in rows]) for m in METRICS}
            for strat, rows in self.rows.items()
        }

    def medians(self, metric: str) -> dict[str, float]:
        return {s: stats[metric]["median"] for s, stats in self.summary().items()}


def run_experiment(
    exp: ExperimentConfig,
    progress: Callable[[str, int, int], None] | None = None,
) -> ExperimentResult:
    """Run every requested arm, pairing replicas by seed.

    The no-coordination arm runs first whenever it is requested or the
    QACM arm needs it for calibration; QACM calibrates from those
    replicas, which are reused, never re-run, so a repeated call with the
    same config is bit-reproducible.
    """
    arms = [s for s in exp.strategies if s is not Strategy.NC]
    if Strategy.NC in exp.strategies or Strategy.QACM in exp.strategies:
        arms.insert(0, Strategy.NC)
    arm_rows: dict[Strategy, list[ReplicaResult]] = {}
    traces: dict[str, Simulator] = {}
    model_set = None
    for strategy in arms:
        if strategy is Strategy.QACM:
            model_set = derive_qacm_models(arm_rows[Strategy.NC], exp)
        ctx = _context(strategy, model_set)
        arm_rows[strategy] = []
        for rep in range(exp.reps):
            if progress:
                progress(strategy.value, rep, exp.reps)
            res, sim = run_replica(strategy, rep, exp, ctx, record_trace=rep == 0)
            arm_rows[strategy].append(res)
            if rep == 0:
                traces[strategy.value] = sim

    rows = {s.value: arm_rows[s] for s in exp.strategies}
    return ExperimentResult(exp, rows, model_set, traces)


# ===========================================================================
# Exports
# ===========================================================================

def export_csv(result: ExperimentResult, path: str | Path) -> None:
    import csv

    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(RESULT_COLUMNS)
        for strategy in result.config.strategies:
            for r in result.rows.get(strategy.value, ()):
                w.writerow(r.csv_row())


def export_summary_json(result: ExperimentResult, path: str | Path) -> None:
    payload: dict = {
        "config": {
            "reps": result.config.reps,
            "base_seed": result.config.base_seed,
            "interval_ms": CONTROL_INTERVAL_MS,
            "duration_s": result.config.sim.duration_s,
            "strategies": [s.value for s in result.config.strategies],
        },
        "strategies": result.summary(),
        "verdicts": {
            strat: {
                "counts": dict(sum((Counter(r.verdicts) for r in rows), Counter())),
                "unattributed": sum(r.unattributed for r in rows),
            }
            for strat, rows in result.rows.items()
        },
    }
    if result.model_set is not None:
        payload["thresholds"] = {m.kpi: m.threshold for m in result.model_set.models}
        opt = result.model_set.optimize()
        payload["qacm"] = {
            "chosen_txp_dbm": opt.value,
            "welfare": opt.welfare,
            "satisfied_all": opt.satisfied_all,
        }
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def export_traces(result: ExperimentResult, outdir: str | Path) -> list[Path]:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    for strat, sim in result.traces.items():
        p = outdir / f"trace_{strat}_rep0.csv"
        write_trace_csv(sim.trace, p)
        written.append(p)
    return written
