"""Span tracer that wraps the package's layer entry points from outside.

`Tracer.install` replaces each entry point in `PATCHES` with a wrapper
that records one span per call: name, start, end, parent span, a replica
or operation tag, and whether the call raised.  Spans stay in memory
until `write_csv` at the end of the run; `uninstall` restores the
originals.  Nothing inside `ric_cms` is edited.

Patch points follow the names the callers look up.  The harness does
`from .mitigation import mitigate`, so `ric_cms.harness.mitigate` is the
name its replicas call; `ric_cms.mitigation.mitigate` is patched too for
callers that go through the mitigation module.
"""

from __future__ import annotations

import csv
from array import array
from time import perf_counter

from ric_cms import conflict_model, detection, harness, mitigation, xapps
from ric_cms.detection import Ledger
from ric_cms.mitigation import ResponseModelSet
from ric_cms.ran_sim import Simulator


def _strategy(strategy, *args, **kwargs) -> str:
    return strategy.value


def _replica(strategy, rep, *args, **kwargs) -> str:
    return f"{strategy.value}:{rep}"


def _grid_points(model_set, *args, **kwargs) -> int:
    lo, hi = model_set.bounds
    return int((hi - lo) / model_set.grid_step + 1e-9) + 1


# (owner, attribute, span name, name suffix from args, tag from args, note from args)
PATCHES = (
    (harness, "run_experiment", "harness.run_experiment", None, None, None),
    (harness, "run_replica", "harness.run_replica", None, _replica, None),
    (harness, "derive_qacm_models", "harness.calibrate", None, None, None),
    (harness, "export_csv", "harness.export", None, None, None),
    (harness, "export_summary_json", "harness.export", None, None, None),
    (harness, "export_traces", "harness.export", None, None, None),
    (harness, "experiment_topology", "conflict_model.build_topology", None, None, None),
    (harness, "mitigate", "mitigation.mitigate", _strategy, None, None),
    (mitigation, "mitigate", "mitigation.mitigate", _strategy, None, None),
    (ResponseModelSet, "optimize", "mitigation.qacm_scan", None, None, _grid_points),
    (Simulator, "__init__", "ran_sim.init", None, None, None),
    (Simulator, "tick", "ran_sim.tick", None, None, None),
    (Ledger, "__init__", "detection.init", None, None, None),
    (Ledger, "record_change", "detection.record_change", None, None, None),
    (Ledger, "record_degradation", "detection.record_degradation", None, None, None),
    (Ledger, "classify", "detection.classify", None, None, None),
    (Ledger, "classify_and_learn", "detection.classify_and_learn", None, None, None),
    (conflict_model, "build_topology", "conflict_model.build_topology", None, None, None),
    (detection, "promote_implicit", "conflict_model.promote_implicit", None, None, None),
    (xapps, "gen_stochastic_events", "xapps.gen_events", None, None, None),
)


class Tracer:
    """Spans as parallel columns; span i is (names[i], parents[i], tags[i],
    starts[i], ends[i], raised[i], notes[i]).  Columns are flat arrays so
    recording allocates no objects the garbage collector has to scan."""

    def __init__(self):
        self.names: list[str] = []
        self.parents = array("q")
        self.tags: list = []
        self.starts = array("d")
        self.ends = array("d")
        self.raised = bytearray()
        self.notes = array("q")
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def __len__(self) -> int:
        return len(self.starts)

    def wrap(self, fn, name, suffix=None, tag=None, note=None):
        names, parents, tags, starts, ends, raised, notes = (
            self.names, self.parents, self.tags, self.starts, self.ends, self.raised, self.notes)
        stack = self._stack

        def traced(*args, **kwargs):
            i = len(starts)
            parent = stack[-1] if stack else -1
            names.append(name if suffix is None else f"{name}.{suffix(*args, **kwargs)}")
            parents.append(parent)
            tags.append(tag(*args, **kwargs) if tag is not None else (tags[parent] if parent >= 0 else None))
            notes.append(note(*args, **kwargs) if note is not None else 0)
            ends.append(0.0)
            raised.append(0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[i] = 1
                raise
            finally:
                ends[i] = perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        for owner, attr, name, suffix, tag, note in PATCHES:
            orig = getattr(owner, attr)
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self.wrap(orig, name, suffix, tag, note))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def write_csv(self, path) -> None:
        t0 = self.starts[0] if len(self) else 0.0
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["span", "name", "parent", "tag", "start_us", "end_us", "raised"])
            for i in range(len(self)):
                w.writerow([i, self.names[i], self.parents[i], self.tags[i],
                            f"{(self.starts[i] - t0) * 1e6:.3f}", f"{(self.ends[i] - t0) * 1e6:.3f}",
                            self.raised[i]])


def self_times(parents, starts, ends) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.

    Children may overlap one another, so their intervals are merged and
    clipped to the parent before subtracting.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append((starts[i], ends[i]))
    out = []
    for i, (start, end) in enumerate(zip(starts, ends)):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(end - start - covered)
    return out


def span_cost_us(n: int = 200_000) -> float:
    """Per-span cost of the tracer: an empty wrapped call minus an empty call."""

    def empty():
        return None

    best_plain = best_wrapped = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        for _ in range(n):
            empty()
        best_plain = min(best_plain, perf_counter() - t0)
        # a fresh tracer per pass keeps the span list from growing across passes
        wrapped = Tracer().wrap(empty, "calibration")
        t0 = perf_counter()
        for _ in range(n):
            wrapped()
        best_wrapped = min(best_wrapped, perf_counter() - t0)
    return (best_wrapped - best_plain) / n * 1e6


def summarize(t: Tracer) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive and self seconds, raised calls and
    the sum of the span notes."""
    out: dict[str, dict[str, float]] = {}
    self_s = self_times(t.parents, t.starts, t.ends)
    for i, name in enumerate(t.names):
        agg = out.get(name)
        if agg is None:
            agg = out[name] = {"calls": 0, "s": 0.0, "self_s": 0.0, "raised": 0, "note": 0}
        agg["calls"] += 1
        agg["s"] += t.ends[i] - t.starts[i]
        agg["self_s"] += self_s[i]
        agg["raised"] += t.raised[i]
        agg["note"] += t.notes[i]
    return out
