"""Experiment harness: strategy arms over a shared simulated network.

The experiment's fixed design lives in constants: the request cadence
and the TXP default, range and QACM grid in `xapps`, the attribution
window in `detection`.  A configuration chooses only the radio scenario,
the strategies, the replica count and the base seed.

The control plane is open-loop, so each arm is compiled once, with the
verdict each SLA check would give, and each replica only ticks, sums its
ticks, sets TXP and counts the verdicts of the checks it breaches.  Every
request becomes its app's standing wish, and the standing wishes are
arbitrated at once:

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

import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Generator, NamedTuple, Sequence

import numpy as np

from .checks import integer
from .detection import (
    DEFAULT_ATTRIBUTION_WINDOW_MS,
    ChangeRecord,
    DegradationEvent,
    Ledger,
    UnattributableDegradationError,
)
from .files import write_csv, write_json
from .mitigation import (
    KpiDirection,
    KpiResponseModel,
    MitigationContext,
    ParameterRequest,
    ResponseModelSet,
    Strategy,
    mitigate,
)
from .ran_sim import SimConfig, Simulator, Trajectory, write_trace_csv
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
        if not isinstance(self.sim, SimConfig):
            raise ValueError(f"sim must be a SimConfig, got {self.sim!r}")
        try:
            object.__setattr__(self, "strategies", tuple(self.strategies))
        except TypeError:
            raise ValueError(f"strategies must be Strategy members, got {self.strategies!r}") from None
        if not self.strategies:
            raise ValueError("empty strategy list")
        if not all(isinstance(s, Strategy) for s in self.strategies):
            raise ValueError(f"strategies must be Strategy members, got {self.strategies!r}")
        if len(set(self.strategies)) != len(self.strategies):
            raise ValueError("strategies must not repeat")
        ticks = CONTROL_INTERVAL_MS / self.sim.step_ms
        if abs(ticks - round(ticks)) > 1e-9 or round(ticks) < 2 or round(ticks) % 2:
            raise ValueError(f"interval_ms ({CONTROL_INTERVAL_MS:g}) must be an even multiple of the simulation step")
        for name in ("reps", "base_seed"):
            value = getattr(self, name)
            if not integer(value):
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

@dataclass(slots=True)
class PhaseStats:
    """Accumulated per applied power level; the calibration raw material."""

    time_ms: float = 0.0
    bits: float = 0.0
    joules: float = 0.0
    link_failures: int = 0


@dataclass(slots=True)  # slotted, as results pile up: perfbench keeps every unit's rows
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


class Arm(NamedTuple):
    """A strategy's control plane compiled for one experiment, as ticks of its step: the TXP to set before each
    tick that sets one, and each SLA check's tick -> (the first tick of its window, the verdict a breach there
    gets; None: no change to attribute)."""
    strategy: Strategy
    exp: ExperimentConfig
    txp: dict[int, float]
    checks: dict[int, tuple[int, str | None]]


def compile_arm(strategy: Strategy, exp: ExperimentConfig, model_set: ResponseModelSet | None = None) -> Arm:
    """The arm's control plane: its request cadence through `mitigate` once, on the control
    clock (half interval k at k * CONTROL_INTERVAL_MS / 2), and every landed change through one
    `Ledger`.  The SLA check at each mobility request classifies before that request's change
    lands, so attribution sees the energy saver's standing change.  The sbd reset is a
    controller action: it sets TXP and lands no change.  It takes a validated `ExperimentConfig`,
    whose step splits the control interval into an even tick count, and TypeError for anything else."""
    if not isinstance(exp, ExperimentConfig):
        raise TypeError(f"compile_arm needs an ExperimentConfig, got {type(exp).__name__}")
    if strategy is Strategy.QACM and model_set is None:
        raise ValueError("qacm arm needs calibrated response models")
    ranks = {Strategy.P_ES: {ES_XAPP_ID: 2, MRO_XAPP_ID: 1}, Strategy.P_MRO: {MRO_XAPP_ID: 2, ES_XAPP_ID: 1}}
    models = {TXP_PARAM: model_set} if strategy is Strategy.QACM else {}
    ctx = MitigationContext({TXP_PARAM: TXP_DEFAULT_DBM}, ranks.get(strategy, {}), models, {TXP_PARAM: TXP_BOUNDS_DBM})
    on_arrival = Strategy.NC if strategy in (Strategy.NC, Strategy.SBD) else strategy  # nc and sbd write through
    half_ticks = int(round(CONTROL_INTERVAL_MS / exp.sim.step_ms)) // 2
    window_ticks = int(round(DEFAULT_ATTRIBUTION_WINDOW_MS / exp.sim.step_ms))
    ledger = Ledger(experiment_topology())
    standing: dict[str, ParameterRequest] = {}
    applied = float(exp.sim.txp_dbm)
    arm = Arm(strategy, exp, {}, {})
    for k, tick in enumerate(range(0, exp.sim.n_ticks, half_ticks)):
        t = k * CONTROL_INTERVAL_MS / 2
        if k % 2:  # the SLA check; a breach's size is the replica's, and the verdict does not read it
            try:
                kind = ledger.classify(DegradationEvent(t, LF_KPI, MRO_XAPP_ID, math.nan)).kind.value
            except UnattributableDegradationError:
                kind = None
            arm.checks[tick] = (max(0, tick - window_ticks), kind)
        req = mro_request(t) if k % 2 else es_request(t)
        standing[req.xapp] = req
        decision = mitigate(on_arrival, list(standing.values()), ctx)
        if on_arrival is Strategy.NC or decision.value != applied:
            applied = arm.txp[tick] = decision.value
            ledger.record_change(ChangeRecord(t, req.xapp, TXP_PARAM, applied))
        if strategy is Strategy.SBD and k % 2 and tick + 1 < exp.sim.n_ticks:
            # the tick after the mobility app's request; a request there overwrites it
            arm.txp[tick + 1] = mitigate(Strategy.SBD, list(standing.values()), ctx).value
    return arm


def run_replica(
    strategy: Strategy, rep: int, arm: Arm, trajectory: Trajectory
) -> Generator[tuple[ReplicaResult, Simulator] | None, None, None]:
    """Replica rep of the strategy's `compile_arm` arm, replayed over the trajectory of seed
    arm.exp.base_seed + rep under arm.exp's scenario; ValueError at the call for another strategy's arm or
    another trajectory.  It returns a generator that yields None between the trajectory's windows of
    len(trajectory.pl) ticks (a held run is one) and (result, simulator) last; the simulator runs the arm's
    TXP schedule, and only rep 0's records the trace `export_traces` writes."""
    seed = arm.exp.base_seed + rep
    if arm.strategy is not strategy:
        raise ValueError(f"the {strategy.value} replica got an arm compiled for {arm.strategy.value}")
    if (trajectory.cfg, trajectory.seed) != (arm.exp.sim, seed):
        raise ValueError(f"replica {rep} needs the trajectory of seed {seed} under the experiment's scenario")
    return _replay(rep, arm, Simulator(trajectory, arm.txp, rep == 0))


def _replay(rep: int, arm: Arm, sim: Simulator) -> Generator:
    """`run_replica`'s replay, the one place a replica's ticks are summed: each tick's numbers are added in tick
    order, to the run's totals and to its applied power level's phase.  Before a tick in the arm, a breached SLA
    check (more than LF_SLA_THRESHOLD link failures since its window's first tick) counts its compiled verdict."""
    exp, seed = arm.exp, arm.exp.base_seed + rep
    n, step, w = exp.sim.n_ticks, exp.sim.step_ms, len(sim.trajectory.pl)
    # the ticks before which something other than a tick happens, among them each check window's start
    marks = arm.checks.keys() | {start for start, _ in arm.checks.values()} | arm.txp.keys() | {0}

    lf_at: dict[int, int] = {}  # the link failures before each mark
    phases: defaultdict[float, PhaseStats] = defaultdict(PhaseStats)
    verdicts: Counter = Counter()  # None counts the breaches with no change to attribute
    total_bits, total_joules, link_failures, handovers, pingpongs = 0.0, 0.0, 0, 0, 0  # by +=: sum() compensates floats
    level = float(exp.sim.txp_dbm)

    for a in range(0, n, w):
        for tick_i in range(a, min(a + w, n)):
            if tick_i in marks:
                lf_at[tick_i] = link_failures
                if tick_i in arm.checks:
                    start, kind = arm.checks[tick_i]
                    if link_failures - lf_at[start] > LF_SLA_THRESHOLD:
                        verdicts[kind] += 1
                if tick_i in arm.txp:
                    level = float(arm.txp[tick_i])
                phase = phases[level]  # the applied level, which only a mark changes

            bits, joules, lf, ho, pp = sim.tick()
            total_bits += bits
            total_joules += joules
            link_failures += lf
            handovers += ho
            pingpongs += pp
            phase.time_ms += step
            phase.bits += bits
            phase.joules += joules
            phase.link_failures += lf
        if a + w < n:
            yield None  # the seed's other arms tick this window

    ee = total_bits / total_joules if total_joules > 0 else 0.0
    if not math.isfinite(ee):
        raise ValueError("energy efficiency is past float64: ue_bandwidth_hz too large or noise_floor_dbm too low")
    result = ReplicaResult(arm.strategy.value, rep, seed, ee, link_failures, handovers, pingpongs,  # METRICS' order
                           unattributed=verdicts.pop(None, 0),  # before the verdicts are copied
                           verdicts=dict(verdicts), phases=dict(phases))
    yield result, sim


# ===========================================================================
# Calibration from the no-coordination arm
# ===========================================================================

def derive_qacm_models(nc_rows: Sequence[ReplicaResult], exp: ExperimentConfig) -> ResponseModelSet:
    """Two-point response curves from the NC arm's phase statistics,
    with the NC medians as thresholds: do at least as well as the typical
    uncoordinated replica on both fronts.

    Under no coordination the network dwells at exactly the two requested
    power levels, so each level gets a direct measurement: energy
    efficiency as bits over joules, link failures as a rate scaled to the
    replica horizon.  Linear interpolation between the two anchors is a
    deliberately conservative reading of the middle ground.
    """
    ee_median = float(np.median([r.energy_efficiency_bits_per_joule for r in nc_rows]))
    lf_median = float(np.median([r.link_failures for r in nc_rows]))
    agg: defaultdict[float, PhaseStats] = defaultdict(PhaseStats)
    for row in nc_rows:
        for v, ph in row.phases.items():
            agg[v].time_ms += ph.time_ms
            agg[v].bits += ph.bits
            agg[v].joules += ph.joules
            agg[v].link_failures += ph.link_failures

    anchors = (ES_TXP_DBM, MRO_TXP_DBM)
    for v in anchors:
        if v not in agg or agg[v].time_ms <= 0 or agg[v].joules <= 0:
            raise ValueError(f"no-coordination arm never dwelt at {v} dBm, cannot calibrate")

    horizon_ms = exp.sim.duration_s * 1000.0
    ee_curve = tuple((v, agg[v].bits / agg[v].joules) for v in anchors)
    lf_curve = tuple((v, agg[v].link_failures / agg[v].time_ms * horizon_ms) for v in anchors)

    if ee_median <= 0:
        raise ValueError("degenerate calibration: no-coordination efficiency median is zero")

    return ResponseModelSet(
        param=TXP_PARAM,
        bounds=TXP_BOUNDS_DBM,
        grid_step=TXP_GRID_STEP_DB,
        models=(
            KpiResponseModel(EE_KPI, KpiDirection.MAXIMIZE, ee_median, ee_curve),
            KpiResponseModel(LF_KPI, KpiDirection.MINIMIZE, lf_median, lf_curve),
        ),
    )


# ===========================================================================
# Full experiment
# ===========================================================================

def box_stats(values: Sequence[float]) -> dict[str, float]:
    qs = np.percentile(np.asarray(values, dtype=float), [0, 25, 50, 75, 100])
    return dict(zip(("min", "q1", "median", "q3", "max"), (float(q) for q in qs)))


@dataclass
class ExperimentResult:
    """The rows, the QACM models, and each arm's rep-0 simulator, whose trace `export_traces` writes."""
    config: ExperimentConfig
    rows: dict[str, list[ReplicaResult]]  # strategy value -> replicas in rep order
    model_set: ResponseModelSet | None
    traces: dict[str, Simulator] = field(default_factory=dict)  # strategy value -> rep-0 simulator

    def summary(self) -> dict[str, dict[str, dict[str, float]]]:
        """strategy -> metric -> box stats, as summary.json writes them."""
        return {
            strat: {m: box_stats([getattr(r, m) for r in rows]) for m in METRICS}
            for strat, rows in self.rows.items()
        }

    def medians(self, metric: str) -> dict[str, float]:
        return {s: stats[metric]["median"] for s, stats in self.summary().items()}


@np.errstate(over="ignore")  # an overflowing tick leaves a non-finite efficiency, which run_replica refuses
def run_experiment(
    exp: ExperimentConfig,
    progress: Callable[[tuple[str, ...], int, int], None] | None = None,
) -> ExperimentResult:
    """Run every requested arm, pairing replicas by seed.

    Each arm is compiled once per pass (`compile_arm`), and its replicas
    only replay it.  The no-coordination arm runs whenever it
    is requested or the QACM arm needs it.  Each pass builds one `Trajectory`
    per seed, and the arms but QACM run over it in lockstep: arm by arm
    through each window of its trajectory's ticks.  QACM calibrates from the
    NC replicas, which are reused, never re-run, so a repeated call with the
    same config is bit-reproducible.  It reuses the last trajectory if that
    is its seed's and still holds tick 0, as in a one-replica run.
    `progress(arms, rep, reps)` precedes each replica.
    """
    arms = [s for s in exp.strategies if s is not Strategy.NC]
    if Strategy.NC in exp.strategies or Strategy.QACM in exp.strategies:
        arms.insert(0, Strategy.NC)
    arm_rows: dict[str, list[ReplicaResult]] = {s.value: [] for s in arms}
    traces: dict[str, Simulator] = dict.fromkeys(s.value for s in arms)  # rep-0 sims, in arm order
    trajectory = None
    for group in ([s for s in arms if s is not Strategy.QACM], [s for s in arms if s is Strategy.QACM]):
        model_set = derive_qacm_models(arm_rows[Strategy.NC.value], exp) if Strategy.QACM in group else None
        compiled = [compile_arm(s, exp, model_set) for s in group]
        for rep in range(exp.reps if group else 0):
            if progress:
                progress(tuple(s.value for s in group), rep, exp.reps)
            if trajectory is None or trajectory.seed != exp.base_seed + rep or trajectory.base:
                trajectory = Trajectory(exp.sim, exp.base_seed + rep)
            replicas = [run_replica(arm.strategy, rep, arm, trajectory) for arm in compiled]
            *_, ends = zip(*replicas)  # window by window, each arm in turn ticks its rows
            for res, sim in ends:
                arm_rows[res.strategy].append(res)
                if rep == 0:
                    traces[res.strategy] = sim

    rows = {s.value: arm_rows[s.value] for s in exp.strategies}
    return ExperimentResult(exp, rows, model_set, traces)


# ===========================================================================
# Exports
# ===========================================================================

def export_csv(result: ExperimentResult, path: str | Path) -> None:
    rows = ([getattr(r, c) for c in RESULT_COLUMNS]
            for s in result.config.strategies for r in result.rows.get(s.value, ()))
    write_csv(path, RESULT_COLUMNS, rows)


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
    write_json(path, payload)


def export_traces(result: ExperimentResult, outdir: str | Path) -> list[Path]:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    for strat, sim in result.traces.items():
        p = outdir / f"trace_{strat}_rep0.csv"
        write_trace_csv(sim.trace, p)
        written.append(p)
    return written
