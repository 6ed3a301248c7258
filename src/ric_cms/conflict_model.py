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

import json
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping

from .checks import finite
from .files import write_csv


class TopologyError(ValueError):
    """Raised for malformed descriptors or inconsistent topology edits."""


class KpiDirection(Enum):
    MAXIMIZE = "maximize"
    MINIMIZE = "minimize"


@dataclass(frozen=True)
class KpiSpec:
    """A KPI monitored by exactly one xApp.

    sla_threshold is the value whose violation counts as a degradation,
    a finite number or None; required whenever sla_sensitive is set.
    """

    id: str
    direction: KpiDirection
    sla_threshold: float | None = None
    sla_sensitive: bool = False

    def __post_init__(self):
        if not self.id:
            raise TopologyError("KPI id must be non-empty")
        if not (self.sla_threshold is None or finite(self.sla_threshold)):
            raise TopologyError(f"KPI {self.id!r} 'sla_threshold' must be a finite number or null, got {self.sla_threshold!r}")
        if not isinstance(self.sla_sensitive, bool):
            raise TopologyError(f"KPI {self.id!r} 'sla_sensitive' must be a bool, got {self.sla_sensitive!r}")
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
    """The conflict graph, stored once: the xApps and the KPI-parameter
    edge set.

    The declared edges (an xApp that writes p and owns k gives (k, p)) are
    always part of kp_edges.  Every other view is derived once here and is
    read-only: kpi_owner, icps (xApp -> ICPs), param_groups (KPI ->
    parameter group) and its inverse param_to_kpis.  Only the two stored
    fields are compared and hashed, so the same xApps and edges in any
    order give an equal topology.  Edits such as implicit promotion return
    a new topology.
    """

    xapps: tuple[XAppDescriptor, ...]
    kp_edges: frozenset[tuple[str, str]] = frozenset()
    kpi_owner: Mapping[str, str] = field(init=False, compare=False, repr=False)
    icps: Mapping[str, frozenset[str]] = field(init=False, compare=False, repr=False)
    param_groups: Mapping[str, frozenset[str]] = field(init=False, compare=False, repr=False)
    param_to_kpis: Mapping[str, frozenset[str]] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        xapps = tuple(sorted(self.xapps, key=lambda x: x.id))
        icps: dict[str, frozenset[str]] = {}
        kpi_owner: dict[str, str] = {}
        for x in xapps:
            if x.id in icps:
                raise TopologyError(f"duplicate xApp id {x.id!r}")
            icps[x.id] = frozenset(x.icps)
            for k in x.kpis:
                if k.id in kpi_owner:
                    raise TopologyError(f"KPI {k.id!r} owned by both {kpi_owner[k.id]!r} and {x.id!r}")
                kpi_owner[k.id] = x.id

        edges = frozenset(self.kp_edges) | {(k.id, p) for x in xapps for k in x.kpis for p in x.icps}
        groups: dict[str, set[str]] = {k: set() for k in kpi_owner}
        param_to_kpis: dict[str, set[str]] = {p: set() for x in xapps for p in x.icps}
        try:
            for k, p in edges:
                groups[k].add(p)
                param_to_kpis[p].add(k)
        except KeyError:
            k, p = min(e for e in edges if e[0] not in groups or e[1] not in param_to_kpis)
            what = f"KPI {k!r}" if k not in groups else f"parameter {p!r}"
            raise TopologyError(f"edge ({k!r}, {p!r}) references unknown {what}") from None

        def frozen(m: dict) -> Mapping:
            return MappingProxyType({key: frozenset(v) for key, v in m.items()})

        object.__setattr__(self, "xapps", xapps)
        object.__setattr__(self, "kp_edges", edges)
        object.__setattr__(self, "kpi_owner", MappingProxyType(kpi_owner))
        object.__setattr__(self, "icps", MappingProxyType(icps))
        object.__setattr__(self, "param_groups", frozen(groups))
        object.__setattr__(self, "param_to_kpis", frozen(param_to_kpis))

    @property
    def all_params(self) -> frozenset[str]:
        return frozenset(self.param_to_kpis)

    @property
    def all_kpis(self) -> frozenset[str]:
        return frozenset(self.param_groups)

    @property
    def xp_edges(self) -> frozenset[tuple[str, str]]:
        return frozenset((x.id, p) for x in self.xapps for p in x.icps)


def build_topology(
    xapps: Iterable[XAppDescriptor],
    extra_kp_edges: Iterable[tuple[str, str]] = (),
) -> ConflictTopology:
    """Build the conflict topology from xApp descriptors.

    Args:
      xapps: descriptors; ids must be unique, each KPI owned by one xApp.
      extra_kp_edges: (kpi_id, param_id) couplings beyond the descriptors
        (equivalent to pre-applied implicit promotions); both ends must be
        declared by some xApp.

    Returns:
      An immutable, hashable ConflictTopology.  Same input set in any
      order yields an equal topology.
    """
    return ConflictTopology(tuple(xapps), frozenset(extra_kp_edges))


def direct_conflicts(t: ConflictTopology) -> list[StaticConflict]:
    """Every xApp pair with intersecting ICP sets, in lexicographic order
    (the topology holds its xApps sorted by id)."""
    out: list[StaticConflict] = []
    for i, a in enumerate(t.xapps):
        for b in t.xapps[i + 1 :]:
            shared = t.icps[a.id] & t.icps[b.id]
            if shared:
                out.append(StaticConflict(ConflictKind.DIRECT, (a.id, b.id), tuple(sorted(shared))))
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
        owner = t.kpi_owner[kpi_id]
        for p in group - t.icps[owner]:
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
    if param not in t.param_to_kpis:
        raise TopologyError(f"unknown parameter {param!r}")
    if kpi not in t.param_groups:
        raise TopologyError(f"unknown KPI {kpi!r}")
    if param in t.param_groups[kpi]:
        raise TopologyError(f"parameter {param!r} already in group of {kpi!r}")
    groups, kpis = t.param_groups.copy(), t.param_to_kpis.copy()
    groups[kpi], kpis[param] = groups[kpi] | {param}, kpis[param] | {kpi}
    new = object.__new__(ConflictTopology)  # skips __post_init__: shares every view but these three
    new.__dict__.update(t.__dict__, kp_edges=t.kp_edges | {(kpi, param)},
                        param_groups=MappingProxyType(groups), param_to_kpis=MappingProxyType(kpis))
    return new


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

def _typed(value, kind: type | tuple[type, ...], what: str):
    """value if it has the JSON type `kind`, else a TopologyError naming `what`."""
    if not isinstance(value, kind):
        raise TopologyError(f"{what} is missing or of the wrong JSON type (got {value!r})")
    return value


def topology_from_dict(d: Mapping) -> ConflictTopology:
    """Parse the topology JSON structure (see README for the schema).

    Malformed input raises TopologyError, never a bare KeyError or
    TypeError; a string where a list belongs is rejected, not iterated.
    """
    if "xapps" not in _typed(d, dict, "the topology"):
        raise TopologyError("topology JSON lacks 'xapps'")
    xapps = []
    for item in _typed(d["xapps"], list, "'xapps'"):
        xid = _typed(_typed(item, dict, "an xApp entry").get("id"), str, "an xApp's 'id'")
        kpis = []
        for k in _typed(item.get("kpis", []), list, f"xApp {xid!r} 'kpis'"):
            kid = _typed(_typed(k, dict, f"a KPI of {xid!r}").get("id"), str, f"a KPI 'id' of {xid!r}")
            direction = k.get("direction")
            if direction not in [m.value for m in KpiDirection]:
                raise TopologyError(f"KPI {kid!r} direction must be 'maximize' or 'minimize', got {direction!r}")
            kpis.append(KpiSpec(kid, KpiDirection(direction), k.get("sla_threshold"), k.get("sla_sensitive", False)))
        icps = _typed(item.get("icps", []), list, f"xApp {xid!r} 'icps'")
        xapps.append(XAppDescriptor(xid, tuple(_typed(p, str, f"an ICP of {xid!r}") for p in icps), tuple(kpis)))
    extra = []
    for e in _typed(d.get("extra_kp_edges", []), list, "'extra_kp_edges'"):
        if not (isinstance(e, list) and len(e) == 2 and all(isinstance(v, str) for v in e)):
            raise TopologyError(f"extra_kp_edges item {e!r} is not a [kpi, param] pair of strings")
        extra.append(tuple(e))
    return build_topology(xapps, extra)


def load_topology(path: str | Path) -> ConflictTopology:
    with open(path) as f:
        return topology_from_dict(json.load(f))


def write_graph_csvs(t: ConflictTopology, outdir: str | Path) -> list[Path]:
    """Write xp_edges.csv, kp_edges.csv and pp_edges.csv under outdir."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    tables = {
        "xp_edges.csv": (("xapp", "param"), sorted(t.xp_edges)),
        "kp_edges.csv": (("kpi", "param"), sorted(t.kp_edges)),
        "pp_edges.csv": (("param_a", "param_b", "kpis"), ((a, b, "|".join(k)) for a, b, k in param_param_edges(t))),
    }
    for name, (header, rows) in tables.items():
        write_csv(outdir / name, header, rows)
    return [outdir / name for name in tables]
