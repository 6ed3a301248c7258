"""Static conflict model for RAN control apps (xApps).

Each xApp declares the input control parameters it writes (ICPs) and the
KPIs it monitors.  From those declarations we build two bipartite graphs,
xApp-parameter and KPI-parameter, and derive per-KPI parameter groups:
the set of parameters whose changes can move that KPI.  Pairwise ICP
intersections give direct conflicts; parameter-group membership beyond a
KPI owner's own ICPs gives indirect ones.  Implicit couplings discovered
at runtime are folded in with `promote_implicit`.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping


class TopologyError(ValueError):
    """Raised for malformed descriptors or inconsistent topology edits."""


class KpiDirection(Enum):
    MAXIMIZE = "maximize"
    MINIMIZE = "minimize"


@dataclass(frozen=True)
class KpiSpec:
    """A KPI monitored by exactly one xApp.

    sla_threshold is the value whose violation counts as a degradation;
    required whenever sla_sensitive is set.
    """

    id: str
    direction: KpiDirection
    sla_threshold: float | None = None
    sla_sensitive: bool = False

    def __post_init__(self):
        if not self.id:
            raise TopologyError("KPI id must be non-empty")
        if self.sla_sensitive and self.sla_threshold is None:
            raise TopologyError(f"KPI {self.id!r} is SLA-sensitive but has no threshold")


@dataclass(frozen=True)
class XAppDescriptor:
    """Declared footprint of one xApp: writable parameters and owned KPIs."""

    id: str
    icps: tuple[str, ...]
    kpis: tuple[KpiSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "icps", tuple(self.icps))
        object.__setattr__(self, "kpis", tuple(self.kpis))
        if not self.id:
            raise TopologyError("xApp id must be non-empty")
        if len(set(self.icps)) != len(self.icps):
            raise TopologyError(f"xApp {self.id!r} declares duplicate ICPs")
        kpi_ids = [k.id for k in self.kpis]
        if len(set(kpi_ids)) != len(kpi_ids):
            raise TopologyError(f"xApp {self.id!r} declares duplicate KPIs")

    def kpi_ids(self) -> tuple[str, ...]:
        return tuple(k.id for k in self.kpis)


class ConflictKind(Enum):
    DIRECT = "direct"
    INDIRECT = "indirect"


@dataclass(frozen=True)
class StaticConflict:
    """One enumerated conflict: the xApps involved, the shared parameters,
    and (for indirect conflicts) the KPI the coupling runs through."""

    kind: ConflictKind
    xapps: tuple[str, ...]
    params: tuple[str, ...]
    kpi: str | None = None


@dataclass(frozen=True)
class ConflictTopology:
    """Immutable result of the grouping pass.

    param_to_kpis maps each parameter to every KPI it can influence;
    param_groups is the inverse (KPI -> parameter group).  Edits such as
    implicit promotion return a new topology (copy on write).
    """

    xapps: tuple[XAppDescriptor, ...]
    param_to_kpis: Mapping[str, frozenset[str]]
    param_groups: Mapping[str, frozenset[str]]
    kpi_owner: Mapping[str, str] = field(compare=False)

    @property
    def all_params(self) -> frozenset[str]:
        return frozenset(self.param_to_kpis)

    @property
    def all_kpis(self) -> frozenset[str]:
        return frozenset(self.param_groups)

    @property
    def xp_edges(self) -> frozenset[tuple[str, str]]:
        return frozenset((x.id, p) for x in self.xapps for p in x.icps)

    @property
    def kp_edges(self) -> frozenset[tuple[str, str]]:
        return frozenset((k, p) for k, ps in self.param_groups.items() for p in ps)

    def xapp(self, xapp_id: str) -> XAppDescriptor:
        for x in self.xapps:
            if x.id == xapp_id:
                return x
        raise TopologyError(f"unknown xApp {xapp_id!r}")

    def icps_of(self, xapp_id: str) -> frozenset[str]:
        return frozenset(self.xapp(xapp_id).icps)

    def owner_of(self, kpi_id: str) -> str:
        try:
            return self.kpi_owner[kpi_id]
        except KeyError:
            raise TopologyError(f"unknown KPI {kpi_id!r}") from None


def build_topology(
    xapps: Iterable[XAppDescriptor],
    extra_kp_edges: Iterable[tuple[str, str]] = (),
) -> ConflictTopology:
    """Build the conflict topology from xApp descriptors.

    The core pass walks every xApp, every ICP, every monitored KPI and
    records that the parameter can influence the KPI; param_groups is the
    inverse map.  extra_kp_edges declares known couplings beyond the
    descriptors (equivalent to pre-applied implicit promotions).

    Args:
      xapps: descriptors; ids must be unique, each KPI owned by one xApp.
      extra_kp_edges: (kpi_id, param_id) pairs to add after the main pass.

    Returns:
      An immutable ConflictTopology.  Same input set in any order yields
      an equal topology.
    """
    ordered = tuple(sorted(xapps, key=lambda x: x.id))
    seen_ids: set[str] = set()
    for x in ordered:
        if x.id in seen_ids:
            raise TopologyError(f"duplicate xApp id {x.id!r}")
        seen_ids.add(x.id)

    kpi_owner: dict[str, str] = {}
    for x in ordered:
        for k in x.kpis:
            if k.id in kpi_owner:
                raise TopologyError(
                    f"KPI {k.id!r} owned by both {kpi_owner[k.id]!r} and {x.id!r}"
                )
            kpi_owner[k.id] = x.id

    param_to_kpis: dict[str, set[str]] = {}
    groups: dict[str, set[str]] = {k: set() for k in kpi_owner}
    for x in ordered:
        for p in x.icps:
            kpis = param_to_kpis.setdefault(p, set())
            for k in x.kpis:
                kpis.add(k.id)
                groups[k.id].add(p)

    all_params = set(param_to_kpis)
    for kpi_id, param_id in extra_kp_edges:
        if kpi_id not in groups:
            raise TopologyError(f"extra edge references unknown KPI {kpi_id!r}")
        if param_id not in all_params:
            raise TopologyError(f"extra edge references unknown parameter {param_id!r}")
        groups[kpi_id].add(param_id)
        param_to_kpis[param_id].add(kpi_id)

    return ConflictTopology(
        xapps=ordered,
        param_to_kpis={p: frozenset(ks) for p, ks in param_to_kpis.items()},
        param_groups={k: frozenset(ps) for k, ps in groups.items()},
        kpi_owner=dict(kpi_owner),
    )


def direct_conflicts(t: ConflictTopology) -> list[StaticConflict]:
    """Every xApp pair with intersecting ICP sets, in lexicographic order."""
    out: list[StaticConflict] = []
    for i, a in enumerate(t.xapps):
        for b in t.xapps[i + 1 :]:
            shared = set(a.icps) & set(b.icps)
            if shared:
                out.append(
                    StaticConflict(
                        kind=ConflictKind.DIRECT,
                        xapps=tuple(sorted((a.id, b.id))),
                        params=tuple(sorted(shared)),
                    )
                )
    out.sort(key=lambda c: (c.xapps, c.params))
    return out


def indirect_conflicts(t: ConflictTopology) -> list[StaticConflict]:
    """Couplings through a KPI's parameter group.

    For each KPI k owned by x_o and each group parameter p outside I_x_o,
    the writers of p plus x_o form one conflict; entries with the same
    (kpi, xapps) are merged over their parameters.
    """
    merged: dict[tuple[str, tuple[str, ...]], set[str]] = {}
    writers: dict[str, set[str]] = {}
    for x in t.xapps:
        for p in x.icps:
            writers.setdefault(p, set()).add(x.id)

    for kpi_id, group in t.param_groups.items():
        owner = t.owner_of(kpi_id)
        own_icps = t.icps_of(owner)
        for p in group - own_icps:
            involved = tuple(sorted({owner} | writers.get(p, set())))
            merged.setdefault((kpi_id, involved), set()).add(p)

    out = [
        StaticConflict(
            kind=ConflictKind.INDIRECT,
            xapps=xs,
            params=tuple(sorted(ps)),
            kpi=kpi,
        )
        for (kpi, xs), ps in merged.items()
    ]
    out.sort(key=lambda c: (c.kpi or "", c.xapps, c.params))
    return out


def promote_implicit(t: ConflictTopology, param: str, kpi: str) -> ConflictTopology:
    """Return a new topology with param added to kpi's group.

    Called after a runtime observation shows param moves kpi even though
    no declaration links them.  Promoting an edge that already exists is
    an error (signals a redundant promotion upstream).
    """
    if param not in t.all_params:
        raise TopologyError(f"unknown parameter {param!r}")
    if kpi not in t.param_groups:
        raise TopologyError(f"unknown KPI {kpi!r}")
    if param in t.param_groups[kpi]:
        raise TopologyError(f"parameter {param!r} already in group of {kpi!r}")

    groups = {k: set(ps) for k, ps in t.param_groups.items()}
    ptk = {p: set(ks) for p, ks in t.param_to_kpis.items()}
    groups[kpi].add(param)
    ptk[param].add(kpi)
    return ConflictTopology(
        xapps=t.xapps,
        param_to_kpis={p: frozenset(ks) for p, ks in ptk.items()},
        param_groups={k: frozenset(ps) for k, ps in groups.items()},
        kpi_owner=dict(t.kpi_owner),
    )


def param_param_edges(t: ConflictTopology) -> list[tuple[str, str, tuple[str, ...]]]:
    """Derived parameter-parameter graph: two parameters are linked when
    they share at least one KPI; each edge carries the common KPIs."""
    params = sorted(t.all_params)
    out = []
    for i, a in enumerate(params):
        for b in params[i + 1 :]:
            common = t.param_to_kpis[a] & t.param_to_kpis[b]
            if common:
                out.append((a, b, tuple(sorted(common))))
    return out


# ---------------------------------------------------------------------------
# Built-in five-xApp reference configuration
# ---------------------------------------------------------------------------

def five_xapp_descriptors() -> tuple[XAppDescriptor, ...]:
    """Five xApps over eight parameters and six KPIs; x1..x3 overlap on p1/p2,
    x4 monitors two KPIs, x5 is initially isolated."""

    def kpi(kid: str) -> KpiSpec:
        return KpiSpec(kid, KpiDirection.MAXIMIZE, sla_threshold=100.0, sla_sensitive=True)

    return (
        XAppDescriptor("x1", ("p1", "p2"), (kpi("k1"),)),
        XAppDescriptor("x2", ("p1", "p2", "p3"), (kpi("k2"),)),
        XAppDescriptor("x3", ("p1", "p4"), (kpi("k3"),)),
        XAppDescriptor("x4", ("p5", "p6"), (kpi("k41"), kpi("k42"))),
        XAppDescriptor("x5", ("p7", "p8"), (kpi("k5"),)),
    )


FIVE_XAPP_EXTRA_KP_EDGES: tuple[tuple[str, str], ...] = (("k41", "p2"), ("k42", "p2"))


def five_xapp_topology() -> ConflictTopology:
    """The reference topology, including the declared p2 coupling into
    x4's KPIs (known to move them despite not being x4 ICPs)."""
    return build_topology(five_xapp_descriptors(), FIVE_XAPP_EXTRA_KP_EDGES)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def topology_from_dict(d: Mapping) -> ConflictTopology:
    """Parse the topology JSON structure (see README for the schema)."""
    try:
        xapp_items = d["xapps"]
    except KeyError:
        raise TopologyError("topology JSON lacks 'xapps'") from None
    xapps = []
    for item in xapp_items:
        kpis = tuple(
            KpiSpec(
                id=k["id"],
                direction=KpiDirection(k["direction"]),
                sla_threshold=k.get("sla_threshold"),
                sla_sensitive=bool(k.get("sla_sensitive", False)),
            )
            for k in item.get("kpis", ())
        )
        xapps.append(
            XAppDescriptor(
                id=item["id"],
                icps=tuple(item.get("icps", ())),
                kpis=kpis,
            )
        )
    extra = tuple((k, p) for k, p in d.get("extra_kp_edges", ()))
    return build_topology(xapps, extra)


def load_topology(path: str | Path) -> ConflictTopology:
    with open(path) as f:
        return topology_from_dict(json.load(f))


def write_graph_csvs(t: ConflictTopology, outdir: str | Path) -> list[Path]:
    """Write xp_edges.csv, kp_edges.csv and pp_edges.csv under outdir."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []

    xp = outdir / "xp_edges.csv"
    with open(xp, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["xapp", "param"])
        w.writerows(sorted(t.xp_edges))
    written.append(xp)

    kp = outdir / "kp_edges.csv"
    with open(kp, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["kpi", "param"])
        w.writerows(sorted(t.kp_edges))
    written.append(kp)

    pp = outdir / "pp_edges.csv"
    with open(pp, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["param_a", "param_b", "kpis"])
        for a, b, kpis in param_param_edges(t):
            w.writerow([a, b, "|".join(kpis)])
    written.append(pp)
    return written
