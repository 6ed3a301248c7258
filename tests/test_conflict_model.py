import json
import random

import pytest

from conftest import BAD_NUMBERS, FIVE_XAPP_TOPOLOGY_JSON, oracle_direct_pairs, oracle_param_groups, random_topology_inputs
from ric_cms.conflict_model import (
    ConflictKind,
    KpiDirection,
    KpiSpec,
    TopologyError,
    XAppDescriptor,
    build_topology,
    direct_conflicts,
    five_xapp_descriptors,
    five_xapp_topology,
    indirect_conflicts,
    load_topology,
    param_param_edges,
    promote_implicit,
    topology_from_dict,
    write_graph_csvs,
)

EXPECTED_GROUPS = {
    "k1": {"p1", "p2"},
    "k2": {"p1", "p2", "p3"},
    "k3": {"p1", "p4"},
    "k41": {"p2", "p5", "p6"},
    "k42": {"p2", "p5", "p6"},
    "k5": {"p7", "p8"},
}


def test_reference_topology_groups():
    t = five_xapp_topology()
    assert {k: set(v) for k, v in t.param_groups.items()} == EXPECTED_GROUPS


def test_reference_topology_direct_conflicts():
    conflicts = direct_conflicts(five_xapp_topology())
    got = {(c.xapps, c.params) for c in conflicts}
    assert got == {
        (("x1", "x2"), ("p1", "p2")),
        (("x1", "x3"), ("p1",)),
        (("x2", "x3"), ("p1",)),
    }
    assert all(c.kind is ConflictKind.DIRECT for c in conflicts)


def test_reference_topology_indirect_conflicts():
    conflicts = indirect_conflicts(five_xapp_topology())
    got = {(c.kpi, c.xapps, c.params) for c in conflicts}
    assert got == {
        ("k41", ("x1", "x2", "x4"), ("p2",)),
        ("k42", ("x1", "x2", "x4"), ("p2",)),
    }


def test_build_is_order_insensitive():
    xapps = five_xapp_descriptors()
    a = build_topology(xapps)
    b = build_topology(tuple(reversed(xapps)))
    assert a == b


def test_inverse_maps_are_consistent():
    t = five_xapp_topology()
    for p, kpis in t.param_to_kpis.items():
        for k in kpis:
            assert p in t.param_groups[k]
    for k, params in t.param_groups.items():
        for p in params:
            assert k in t.param_to_kpis[p]


def test_duplicate_xapp_id_rejected():
    x = XAppDescriptor("a", ("p1",), ())
    with pytest.raises(TopologyError, match="duplicate xApp"):
        build_topology([x, XAppDescriptor("a", ("p2",), ())])


def test_shared_kpi_ownership_rejected():
    k = KpiSpec("k", KpiDirection.MAXIMIZE)
    with pytest.raises(TopologyError, match="owned by both"):
        build_topology(
            [XAppDescriptor("a", ("p1",), (k,)), XAppDescriptor("b", ("p2",), (k,))]
        )


def test_extra_edge_must_reference_known_nodes():
    xapps = five_xapp_descriptors()
    with pytest.raises(TopologyError, match="unknown KPI"):
        build_topology(xapps, [("nope", "p1")])
    with pytest.raises(TopologyError, match="unknown parameter"):
        build_topology(xapps, [("k1", "nope")])


def test_sla_sensitive_kpi_needs_threshold():
    with pytest.raises(TopologyError, match="no threshold"):
        KpiSpec("k", KpiDirection.MINIMIZE, sla_threshold=None, sla_sensitive=True)


@pytest.mark.parametrize("bad", [b for b in BAD_NUMBERS if b is not None])  # None: no threshold
def test_kpi_spec_rejects_a_bad_sla_threshold(bad):
    with pytest.raises(TopologyError, match="'sla_threshold' must be a finite number or null"):
        KpiSpec("k", KpiDirection.MINIMIZE, sla_threshold=bad)


def test_kpi_spec_rejects_an_sla_sensitive_that_is_not_a_bool():
    with pytest.raises(TopologyError, match="'sla_sensitive' must be a bool"):
        KpiSpec("k", KpiDirection.MINIMIZE, sla_threshold=1.0, sla_sensitive="yes")


def test_promote_implicit_is_copy_on_write():
    t = five_xapp_topology()
    t2 = promote_implicit(t, "p1", "k5")
    assert "p1" in t2.param_groups["k5"]
    assert "p1" not in t.param_groups["k5"]
    assert "k5" in t2.param_to_kpis["p1"]


def test_promote_implicit_rejects_bad_input():
    t = five_xapp_topology()
    with pytest.raises(TopologyError):
        promote_implicit(t, "nope", "k5")
    with pytest.raises(TopologyError):
        promote_implicit(t, "p1", "nope")
    with pytest.raises(TopologyError, match="already"):
        promote_implicit(t, "p7", "k5")


def test_promote_implicit_equals_a_rebuild_at_every_step():
    # promotion shares the parent's views and replaces three; every view
    # must still equal the one a full build derives from the same edges
    t = five_xapp_topology()
    open_couplings = sorted((k, p) for k in t.all_kpis for p in t.all_params - t.param_groups[k])
    random.Random(2024).shuffle(open_couplings)
    edges = set(t.kp_edges)
    for k, p in open_couplings:
        parent = t
        before = (dict(parent.param_groups), dict(parent.param_to_kpis), parent.kp_edges)
        t = promote_implicit(parent, p, k)
        edges.add((k, p))
        rebuilt = build_topology(t.xapps, edges)
        assert t.kp_edges == rebuilt.kp_edges == edges
        assert t.xapps == rebuilt.xapps
        for view in ("kpi_owner", "icps", "param_groups", "param_to_kpis"):
            assert dict(getattr(t, view)) == dict(getattr(rebuilt, view)), view
        assert t == rebuilt and hash(t) == hash(rebuilt)
        for view, key in ((t.param_groups, k), (t.param_to_kpis, p)):
            with pytest.raises(TypeError):
                view[key] = frozenset()
        with pytest.raises(TopologyError, match="already"):
            promote_implicit(t, p, k)
        assert (dict(parent.param_groups), dict(parent.param_to_kpis), parent.kp_edges) == before
        assert p not in parent.param_groups[k] and k not in parent.param_to_kpis[p]
    assert all(t.param_groups[k] == t.all_params for k in t.all_kpis)


def test_param_param_edges_reference():
    edges = {(a, b): set(ks) for a, b, ks in param_param_edges(five_xapp_topology())}
    assert edges[("p1", "p2")] == {"k1", "k2"}
    assert edges[("p2", "p5")] == {"k41", "k42"}
    assert edges[("p7", "p8")] == {"k5"}
    assert ("p1", "p7") not in edges


def test_groups_match_membership_oracle():
    rng = random.Random(1234)
    pick = random.Random(99)  # separate stream, so the inputs stay those of rng alone
    for _ in range(30):
        xapps, extra = random_topology_inputs(rng)
        t = build_topology(xapps, extra)
        expected = oracle_param_groups(xapps, extra)
        assert {k: set(v) for k, v in t.param_groups.items()} == expected
        assert t.kp_edges == {(k, p) for k, ps in expected.items() for p in ps}
        got_direct = {(c.xapps[0], c.xapps[1], frozenset(c.params)) for c in direct_conflicts(t)}
        assert got_direct == oracle_direct_pairs(xapps)

        shuffled = list(xapps)
        pick.shuffle(shuffled)
        same = build_topology(shuffled, tuple(reversed(extra)))
        assert same == t and hash(same) == hash(t)

        open_couplings = sorted((k, p) for k in t.all_kpis for p in t.all_params - t.param_groups[k])
        if open_couplings:
            k, p = pick.choice(open_couplings)
            assert promote_implicit(t, p, k) == build_topology(xapps, extra + ((k, p),))

        for view, key in ((t.param_groups, "k0"), (t.kpi_owner, "k0"), (t.icps, "x0")):
            with pytest.raises(TypeError):
                view[key] = frozenset()


def test_dict_roundtrip_preserves_everything():
    assert topology_from_dict(FIVE_XAPP_TOPOLOGY_JSON) == five_xapp_topology()


def test_file_roundtrip(tmp_path):
    path = tmp_path / "topo.json"
    path.write_text(json.dumps(FIVE_XAPP_TOPOLOGY_JSON))
    assert load_topology(path) == five_xapp_topology()


def test_graph_csvs(tmp_path):
    t = five_xapp_topology()
    written = write_graph_csvs(t, tmp_path)
    assert sorted(p.name for p in written) == ["kp_edges.csv", "pp_edges.csv", "xp_edges.csv"]
    expected = {
        "xp_edges.csv": ["xapp,param", "x1,p1", "x1,p2", "x2,p1", "x2,p2", "x2,p3", "x3,p1", "x3,p4",
                         "x4,p5", "x4,p6", "x5,p7", "x5,p8"],
        "kp_edges.csv": ["kpi,param", "k1,p1", "k1,p2", "k2,p1", "k2,p2", "k2,p3", "k3,p1", "k3,p4",
                         "k41,p2", "k41,p5", "k41,p6", "k42,p2", "k42,p5", "k42,p6", "k5,p7", "k5,p8"],
        "pp_edges.csv": ["param_a,param_b,kpis", "p1,p2,k1|k2", "p1,p3,k2", "p1,p4,k3", "p2,p3,k2",
                         "p2,p5,k41|k42", "p2,p6,k41|k42", "p5,p6,k41|k42", "p7,p8,k5"],
    }
    for name, lines in expected.items():
        # csv's default dialect ends every row with CRLF
        assert (tmp_path / name).read_bytes() == "".join(f"{line}\r\n" for line in lines).encode()
