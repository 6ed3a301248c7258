"""Workload process: builds one workload's inputs, measures it and checks it.

Run through `run.py`, which starts this file as a child process (so
that set-up is timed from process start) and owns the final result line.
Protocol on stdout: the line `ready` once set-up is done, then one JSON
object with the raw measurements.

A run is a sequence of short units of work.  Unit k of seed s draws
fresh inputs from seed s * UNIT_STRIDE + k, so no unit replays inputs an
earlier unit of the process has seen, and a cache keyed on input values
cannot carry over from one unit to the next.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import ric_cms  # noqa: E402

if Path(ric_cms.__file__).resolve().parent != ROOT / "src" / "ric_cms":
    sys.exit(f"ric_cms imported from {ric_cms.__file__}, not from this checkout's src/")

import checks  # noqa: E402
import hostspeed  # noqa: E402
import tracer as tracing  # noqa: E402
from ric_cms import conflict_model, harness, mitigation, xapps  # noqa: E402
from ric_cms.conflict_model import KpiDirection, XAppDescriptor  # noqa: E402
from ric_cms.detection import ChangeRecord, Ledger, VerdictKind  # noqa: E402
from ric_cms.mitigation import (  # noqa: E402
    KpiResponseModel,
    MitigationContext,
    ParameterRequest,
    ResponseModelSet,
    Strategy,
)
from ric_cms.ran_sim import SimConfig, Simulator  # noqa: E402

OUT = ROOT / ".perfbench"

# Workload sizes.  "full" is what the benchmark measures; "tiny" only
# serves the smoke tests.  A desk or dense unit is one paired replica of
# all five arms.  The criterion-6 strategy orderings are checked on the
# per-arm medians pooled over the first `ordering_units` units of a run.
SIZES = {
    "desk": {
        "full": {"n_ues": 20, "duration_s": 120.0, "ordering_units": 10},
        "tiny": {"n_ues": 20, "duration_s": 6.0, "ordering_units": 0},
    },
    "dense": {
        "full": {"n_ues": 2000, "duration_s": 40.0, "ordering_units": 6},
        "tiny": {"n_ues": 200, "duration_s": 6.0, "ordering_units": 0},
    },
    "control-plane": {
        "full": {"slots": 2000},
        "tiny": {"slots": 200},
    },
}

UNIT_STRIDE = 10_000   # unit k of seed s draws its inputs from s * UNIT_STRIDE + k

# Unit 0 of the recorded seed, full size: sha256 of results.csv + summary.json.
RECORDED_SEED = 0
REFERENCE = json.loads((Path(__file__).resolve().parent / "reference.json").read_text())

# Control-plane traffic mix: calls per degradation in a traced desk run
# (seed 0, 10 paired replicas of all five arms), so the stream carries
# the write, request and strategy ratios the harness itself produces.
DESK_CALLS = {
    "degradation": 1079,
    "record_change": 2440,
    Strategy.NC: 2400,
    Strategy.SBD: 600,
    Strategy.P_ES: 1200,
    Strategy.P_MRO: 1200,
    Strategy.QACM: 1200,
}
# desk never calls classify_and_learn; this share of degradations does
LEARN_SHARE = 0.25
# the topology keeps this many unpromoted couplings per expected
# promotion of a unit, so promotions keep recurring to the end of it
COUPLING_HEADROOM = 4
WINDOW_MS = 1000.0
# a traced run times unit 0 this many times untraced and traced, alternately
TRACE_ROUNDS = 3


# ===========================================================================
# Experiment workloads (desk, dense)
# ===========================================================================

class TickClock:
    """Times one replica-tick as the gap between consecutive tick entries
    of the same simulator, i.e. one pass of the harness loop."""

    def __init__(self):
        self.samples: list[float] = []
        self._sim = None
        self._t = 0.0

    def install(self):
        self._orig = tick = Simulator.tick
        samples = self.samples

        def timed_tick(sim):
            now = perf_counter()
            if sim is self._sim:
                samples.append(now - self._t)
            self._sim, self._t = sim, now
            return tick(sim)

        Simulator.tick = timed_tick

    def uninstall(self):
        Simulator.tick = self._orig
        self._sim = None


class Experiment:
    """One paired replica of all five arms per unit, exported as `simulate` does.

    reference: the expected digest of unit 0's results.csv + summary.json.
    """

    def __init__(self, size: dict, seed: int, reference: str | None = None):
        self.size, self.seed, self.reference = size, seed, reference
        self.sim = SimConfig(n_ues=size["n_ues"], duration_s=size["duration_s"])
        self.unit_rows: dict[int, dict] = {}  # unit -> strategy -> its replica results
        self.ops = len(harness.ALL_STRATEGIES) * self.sim.n_ticks

    def config(self, k: int) -> harness.ExperimentConfig:
        return harness.ExperimentConfig(sim=self.sim, reps=1, base_seed=self.seed * UNIT_STRIDE + k)

    def unit(self, k: int) -> dict:
        exp = self.config(k)
        t0 = perf_counter()
        result = harness.run_experiment(exp)
        t1 = perf_counter()
        d = Path(tempfile.mkdtemp(dir=OUT))
        try:
            harness.export_csv(result, d / "results.csv")
            harness.export_summary_json(result, d / "summary.json")
            harness.export_traces(result, d)
            t2 = perf_counter()
            csv_bytes = (d / "results.csv").read_bytes()
            json_bytes = (d / "summary.json").read_bytes()
        finally:
            shutil.rmtree(d)
        return {"k": k, "wall_s": t2 - t0, "run_s": t1 - t0, "csv": csv_bytes, "json": json_bytes, "result": result}

    def check(self, tally: checks.Tally, u: dict) -> None:
        exp = u["result"].config
        checks.results_rows(tally, u["csv"], [s.value for s in exp.strategies], exp.reps, exp.base_seed)
        if u["k"] == 0 and self.reference is not None:
            tally.check("reference digest", checks.digest(u["csv"], u["json"]) == self.reference)
        self.unit_rows.setdefault(u["k"], u["result"].rows)

    def timed_unit(self, tally: checks.Tally, k: int) -> dict:
        clock = TickClock()
        clock.install()
        try:
            u = self.unit(k)
        finally:
            clock.uninstall()
        self.check(tally, u)
        return {"wall_s": u["wall_s"], "run_s": u["run_s"], "ops": self.ops, "lat_us": np.asarray(clock.samples) * 1e6}

    def finish(self, tally: checks.Tally, units: int) -> None:
        """Criterion-6 orderings over the first `ordering_units` units;
        units the timed loop did not reach run here, untimed."""
        n = self.size["ordering_units"]
        for k in range(units, n):
            self.check(tally, self.unit(k))
        if n:
            def medians(metric):
                return {
                    s.value: float(np.median([getattr(r, metric) for k in range(n) for r in self.unit_rows[k][s.value]]))
                    for s in harness.ALL_STRATEGIES
                }

            checks.orderings(
                tally,
                medians("energy_efficiency_bits_per_joule"),
                medians("link_failures"),
                medians("total_handovers"),
            )

    def traced(self, tally: checks.Tally, tracer, rounds: int) -> tuple[dict, list]:
        """Unit 0 untraced and traced, alternately; spans of the first
        traced pass go to `tracer`."""
        ledgers = []
        make_ledger = harness.Ledger

        def keep(*args, **kwargs):
            ledgers.append(make_ledger(*args, **kwargs))
            return ledgers[-1]

        plain, traced = [], []
        for r in range(rounds):
            plain.append(self.unit(0))
            self.check(tally, plain[-1])
            t = tracer if r == 0 else tracing.Tracer()
            t.install()
            harness.Ledger = keep if r == 0 else make_ledger
            try:
                traced.append(self.unit(0))
            finally:
                harness.Ledger = make_ledger
                t.uninstall()
            tally.check("traced unit gives the untraced bytes",
                        checks.digest(traced[-1]["csv"], traced[-1]["json"]) == checks.digest(plain[0]["csv"], plain[0]["json"]))
        extra = {
            "ran_sim.trace_rows": sum(len(sim.trace) for sim in traced[0]["result"].traces.values()),
            "trace.overhead_s": min(u["wall_s"] for u in traced) - min(u["wall_s"] for u in plain),
        }
        return extra, ledgers


# ===========================================================================
# Control-plane workload
# ===========================================================================

def replicated_topology(copies: int):
    """`copies` disjoint copies of the five-xApp reference topology, ids
    suffixed with the copy number."""
    xapp_list, extra = [], []
    for c in range(copies):
        for x in conflict_model.five_xapp_descriptors():
            xapp_list.append(XAppDescriptor(
                f"{x.id}.{c}",
                tuple(f"{p}.{c}" for p in x.icps),
                tuple(dataclasses.replace(k, id=f"{k.id}.{c}") for k in x.kpis),
            ))
        extra += [(f"{k}.{c}", f"{p}.{c}") for k, p in conflict_model.FIVE_XAPP_EXTRA_KP_EDGES]
    return conflict_model.build_topology(xapp_list, extra)


def unpromoted_couplings(topology) -> int:
    """(param, kpi) pairs that `promote_implicit` could still add."""
    n = len(topology.all_params)
    return sum(n - len(group) for group in topology.param_groups.values())


def random_model_set(rng: random.Random, param: str) -> ResponseModelSet:
    """Shaped like the desk's calibrated set (a maximized and a minimized
    KPI, two-point curves, about 50 grid points), with random values."""
    lo = rng.uniform(-10.0, 10.0)
    hi = lo + rng.uniform(40.0, 60.0)
    a, b = sorted(rng.uniform(lo, hi) for _ in range(2))
    ee = (rng.uniform(0.5, 5.0), rng.uniform(0.5, 5.0))
    lf = (rng.uniform(0.0, 40.0), rng.uniform(0.0, 40.0))
    models = (
        KpiResponseModel("ee", KpiDirection.MAXIMIZE, rng.uniform(*sorted(ee)), ((a, ee[0]), (b, ee[1]))),
        KpiResponseModel("lf", KpiDirection.MINIMIZE, rng.uniform(0.0, 40.0), ((a, lf[0]), (b, lf[1]))),
    )
    return ResponseModelSet(param, (lo, hi), rng.uniform(0.8, 1.25), models)


def draw_count(rand, mean: float) -> int:
    """floor(mean), plus one with probability frac(mean)."""
    whole = int(mean)
    return whole + (rand() < mean - whole)


class ControlPlane:
    """One Ledger and `mitigate` fed a seeded stream, closed loop, one caller.

    Per slot, one labeled event of `gen_stochastic_events`: its change
    after extra landed changes, request sets under the desk's strategy
    mix, then its degradation, through classify_and_learn for
    LEARN_SHARE of them.
    """

    def __init__(self, seed: int, size: dict):
        self.seed, self.size = seed, size
        learns = size["slots"] / len(VerdictKind) * LEARN_SHARE  # expected promotions per unit
        copies = 1
        while unpromoted_couplings(replicated_topology(copies)) < COUPLING_HEADROOM * learns:
            copies += 1
        self.topology = replicated_topology(copies)
        self.streams = {0: self.stream(0)}

    def stream(self, k: int) -> dict:
        """Unit k's ops and their labels, with fresh request sets and
        QACM model sets."""
        seed = self.seed * UNIT_STRIDE + k
        rng = random.Random(seed)
        events = xapps.gen_stochastic_events(self.topology, self.size["slots"], seed, WINDOW_MS)
        writers = [(x.id, x.icps) for x in self.topology.xapps if x.icps]
        ids = [x.id for x in self.topology.xapps]
        declared = sorted(self.topology.all_params)
        degradations = DESK_CALLS["degradation"]
        writes = DESK_CALLS["record_change"] / degradations - 1  # besides the labeled change
        requests = sum(DESK_CALLS[s] for s in harness.ALL_STRATEGIES) / degradations
        weights = [DESK_CALLS[s] for s in harness.ALL_STRATEGIES]
        rand, uniform = rng.random, rng.uniform
        # entries: ("change", rec) | ("request", strategy, reqs, ctx) | ("degrade", ev, learn)
        entries, labels = [], []
        for le in events:
            t = le.change.t_ms
            n = draw_count(rand, writes)
            for j in range(n):
                x, icps = writers[int(rand() * len(writers))]
                t_j = t - WINDOW_MS / 2 + (j + 1) * WINDOW_MS / 2 / (n + 1)
                entries.append(("change", ChangeRecord(t_j, x, icps[int(rand() * len(icps))], 50.0 * rand())))
            entries.append(("change", le.change))
            for strategy in rng.choices(harness.ALL_STRATEGIES, weights, k=draw_count(rand, requests)):
                param = declared[int(rand() * len(declared))]
                first = int(rand() * len(ids))
                who = [ids[(first + j) % len(ids)] for j in range(2 + int(rand() * 3))]
                reqs = [ParameterRequest(x, param, uniform(-10.0, 60.0), uniform(t - WINDOW_MS, t)) for x in who]
                lo = uniform(-10.0, 20.0)
                ctx = MitigationContext(
                    defaults={param: 50.0 * rand()},
                    priorities={x: int(rand() * 4) for x in who},
                    response_models={param: random_model_set(rng, param)} if strategy is Strategy.QACM else {},
                    bounds={param: (lo, lo + uniform(20.0, 60.0))},
                )
                entries.append(("request", strategy, reqs, ctx))
            entries.append(("degrade", le.degradation, rand() < LEARN_SHARE))
            labels.append(le.expected)
        return {"entries": entries, "labels": labels}

    def expected(self, k: int) -> list:
        """Per-op oracle values; implicit couplings turn indirect once learned."""
        s = self.streams[k]
        promoted: set[tuple[str, str]] = set()
        labels = iter(s["labels"])
        out, last_change = [], None
        for entry in s["entries"]:
            if entry[0] == "change":
                last_change = entry[1]
                out.append(None)
            elif entry[0] == "request":
                out.append(checks.expected_decision(*entry[1:]))
            else:
                kind = next(labels)
                coupling = (last_change.param, entry[1].kpi)
                if kind is VerdictKind.IMPLICIT and coupling in promoted:
                    kind = VerdictKind.INDIRECT
                elif kind is VerdictKind.IMPLICIT and entry[2]:
                    promoted.add(coupling)
                out.append(kind)
        return out

    def build_ops(self, k: int, ledger: Ledger, wrap=None) -> list:
        """(callable, args, is a decision) per op of unit k's stream."""
        mitigate = mitigation.mitigate
        record, classify, learn = ledger.record_degradation, ledger.classify, ledger.classify_and_learn

        def degrade(ev):
            record(ev)
            return classify(ev)

        def degrade_learn(ev):
            record(ev)
            return learn(ev)

        change = ledger.record_change
        if wrap is not None:
            change, degrade, degrade_learn, mitigate = map(wrap, (change, degrade, degrade_learn, mitigate))
        ops = []
        for entry in self.streams[k]["entries"]:
            if entry[0] == "change":
                ops.append((change, (entry[1],), False))
            elif entry[0] == "request":
                ops.append((mitigate, entry[1:], True))
            else:
                ops.append((degrade_learn if entry[2] else degrade, (entry[1],), True))
        return ops

    def unit(self, k: int, wrap=None) -> dict:
        if k not in self.streams:
            self.streams = {0: self.streams[0], k: self.stream(k)}
        self.ledger = Ledger(self.topology, WINDOW_MS)
        ops = self.build_ops(k, self.ledger, wrap)
        lat, outputs = [], []
        lat_append, out_append = lat.append, outputs.append
        t_start = perf_counter()
        for fn, args, decision in ops:
            t0 = perf_counter()
            try:
                r = fn(*args)
            except Exception as exc:  # noqa: BLE001  a raising op is a failed output
                r = exc
            t1 = perf_counter()
            if decision:
                lat_append(t1 - t0)
            out_append(r)
        wall = perf_counter() - t_start
        return {"k": k, "wall_s": wall, "lat": lat, "outputs": outputs}

    def check(self, tally: checks.Tally, u: dict) -> None:
        checks.control_plane(tally, u["outputs"], self.expected(u["k"]))

    def timed_unit(self, tally: checks.Tally, k: int) -> dict:
        u = self.unit(k)
        self.check(tally, u)
        ops = len(self.streams[k]["entries"])
        return {"wall_s": u["wall_s"], "run_s": u["wall_s"], "ops": ops, "lat_us": np.asarray(u["lat"]) * 1e6}

    def finish(self, tally: checks.Tally, units: int) -> None:
        pass

    def traced(self, tally: checks.Tally, tracer, rounds: int) -> tuple[dict, list]:
        """Unit 0 untraced and traced, alternately; spans of the first
        traced pass go to `tracer`."""
        plain, traced, ledgers = [], [], []
        for r in range(rounds):
            plain.append(self.unit(0))
            self.check(tally, plain[-1])
            t = tracer if r == 0 else tracing.Tracer()
            counter = iter(range(len(self.streams[0]["entries"])))
            t.install()
            try:
                traced.append(self.unit(0, wrap=lambda fn: t.wrap(fn, "bench.op", tag=lambda *a, **kw: next(counter))))
            finally:
                t.uninstall()
            self.check(tally, traced[-1])
            if r == 0:
                ledgers.append(self.ledger)
        extra = {
            "ran_sim.trace_rows": 0,
            "trace.overhead_s": min(u["wall_s"] for u in traced) - min(u["wall_s"] for u in plain),
        }
        return extra, ledgers


# ===========================================================================
# Shared
# ===========================================================================

def measure(w, tally: checks.Tally, seconds: float) -> dict:
    """Run units 0, 1, ... while the next one still fits in `seconds`
    (input generation and checks included) and correct each unit for
    the host's speed around it.  Report each figure's median over the
    units; p50 and p99 are taken within each unit, so the memory the
    run holds does not grow with the number of units.

    The uncorrected figures go to `raw`, and the median slowdown to
    `slowdown`.
    """
    units = []
    start = perf_counter()
    while True:
        before = hostspeed.slowdown()
        u = w.timed_unit(tally, len(units))
        u["slowdown"] = (before + hostspeed.slowdown()) / 2
        u["samples"] = len(u["lat_us"])
        u["p"] = np.percentile(u.pop("lat_us"), [50, 99])
        units.append(u)
        elapsed = perf_counter() - start
        if elapsed * (len(units) + 1) / len(units) > seconds:
            break
    w.finish(tally, len(units))
    med = statistics.median

    def figures(scale):
        return {
            "wall_s": med(u["wall_s"] / scale(u) for u in units),
            "ops_per_s": med(u["ops"] / u["run_s"] * scale(u) for u in units),
            "op_p50_us": float(med(u["p"][0] / scale(u) for u in units)),
            "op_p99_us": float(med(u["p"][1] / scale(u) for u in units)),
        }

    return {
        **figures(lambda u: u["slowdown"]),
        "raw": figures(lambda u: 1.0),
        "slowdown": med(u["slowdown"] for u in units),
        "units": len(units),
        "latency_samples": sum(u["samples"] for u in units),
    }


def amortised_classify_us(ledgers, min_s: float = 0.2) -> float:
    """Replay every degradation these ledgers saw through classify in a
    plain loop, no per-call clock: loop time over calls."""
    work = [(led.classify, ev) for led in ledgers for ev in led.degradations]
    if not work:
        return 0.0
    calls, elapsed = 0, 0.0
    while elapsed < min_s:
        t0 = perf_counter()
        for classify, ev in work:
            try:
                classify(ev)
            except Exception:  # noqa: BLE001  unattributable degradations raise by design
                pass
        elapsed += perf_counter() - t0
        calls += len(work)
    return elapsed / calls * 1e6


LAYERS = ("harness", "ran_sim", "mitigation", "detection", "conflict_model", "xapps")


def layer_metrics(t: tracing.Tracer) -> dict:
    s = tracing.summarize(t)

    def get(name, key):
        return s.get(name, {}).get(key, 0)

    def per_call_us(name):
        calls = get(name, "calls")
        return get(name, "s") / calls * 1e6 if calls else 0.0

    m = {
        "ran_sim.tick.calls": get("ran_sim.tick", "calls"),
        "ran_sim.tick.us": per_call_us("ran_sim.tick"),
        "ran_sim.init.us": per_call_us("ran_sim.init"),
        "harness.run_replica.calls": get("harness.run_replica", "calls"),
        "harness.run_replica.self_s": get("harness.run_replica", "self_s"),
        "harness.calibrate.s": get("harness.calibrate", "s"),
        "harness.export.s": get("harness.export", "s"),
        "mitigation.qacm_scan.calls": get("mitigation.qacm_scan", "calls"),
        "mitigation.qacm_scan.us": per_call_us("mitigation.qacm_scan"),
        "mitigation.qacm_scan.grid_points": get("mitigation.qacm_scan", "note"),
        "conflict_model.build_topology.calls": get("conflict_model.build_topology", "calls"),
        "conflict_model.build_topology.us": per_call_us("conflict_model.build_topology"),
        "conflict_model.promote_implicit.calls": get("conflict_model.promote_implicit", "calls"),
        "conflict_model.promote_implicit.us": per_call_us("conflict_model.promote_implicit"),
        "xapps.gen_events.s": get("xapps.gen_events", "s"),
    }
    for strat in harness.ALL_STRATEGIES:
        name = f"mitigation.mitigate.{strat.value}"
        m[f"{name}.calls"] = get(name, "calls")
        m[f"{name}.us"] = per_call_us(name)
    for op in ("record_change", "record_degradation", "classify", "classify_and_learn"):
        m[f"detection.{op}.calls"] = get(f"detection.{op}", "calls")
        m[f"detection.{op}.us"] = per_call_us(f"detection.{op}")
    degradations = get("detection.record_degradation", "calls")
    verdicts = get("detection.classify", "calls") - get("detection.classify", "raised")
    m["detection.attributed_ratio"] = verdicts / degradations if degradations else 0.0
    # qacm arm of an experiment: changes landed per scan
    in_qacm_arm = [str(tag).startswith("qacm:") for tag in t.tags]
    landed = sum(q and n == "detection.record_change" for n, q in zip(t.names, in_qacm_arm))
    scans = sum(q and n == "mitigation.qacm_scan" for n, q in zip(t.names, in_qacm_arm))
    m["mitigation.qacm_landed_per_scan"] = landed / scans if scans else 0.0
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v["self_s"] for k, v in s.items() if k.split(".")[0] == layer)
    m["trace.spans"] = len(t)
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(SIZES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    OUT.mkdir(exist_ok=True)
    size = SIZES[args.workload][args.size]

    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    if args.workload == "control-plane":
        w = ControlPlane(args.seed, size)
    else:
        recorded = args.seed == RECORDED_SEED and args.size == "full"
        w = Experiment(size, args.seed, REFERENCE[args.workload] if recorded else None)
    if tracer is not None:
        tracer.uninstall()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tally = checks.Tally()
    if tracer is not None:
        extra, ledgers = w.traced(tally, tracer, TRACE_ROUNDS)
        metrics = {**layer_metrics(tracer), **extra}
        metrics["detection.classify.amortised_us"] = amortised_classify_us(ledgers)
        metrics["trace.span_cost_us"] = tracing.span_cost_us()
        metrics["trace.overhead_est_s"] = metrics["trace.spans"] * metrics["trace.span_cost_us"] * 1e-6
        tracer.write_csv(OUT / f"spans-{args.workload}-seed{args.seed}.csv")
    else:
        metrics = measure(w, tally, args.seconds)
    payload = {
        "metrics": metrics,
        "checks": tally.checked,
        "failed_checks": len(tally.failed),
        "failed_labels": tally.failed[:20],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "host": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "sizes": size,
        },
    }
    print(json.dumps(payload), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
