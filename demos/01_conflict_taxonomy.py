"""
A tour of the conflict taxonomy
===============================

Five xApps share a control surface of eight parameters and six KPIs.
Walking the wiring from descriptors to conflict lists shows how the
three conflict kinds fall out of the two bipartite graphs alone, before
any traffic is simulated.
"""

from ric_cms import (
    direct_conflicts,
    five_xapp_topology,
    indirect_conflicts,
    promote_implicit,
)

topo = five_xapp_topology()

# The control-parameter graph: who writes what.
print("xApp -> control parameters")
for x in topo.xapps:
    print(f"  {x.id}: {', '.join(sorted(x.icps))}")

# The KPI graph: who watches what.  k41/k42 also depend on p2, a coupling
# the owning xApp never declared; it enters as an extra monitoring edge.
print("\nKPI -> parameter group (every parameter that can move the KPI)")
for kpi in sorted(topo.param_groups):
    group = ", ".join(sorted(topo.param_groups[kpi]))
    print(f"  {kpi} (owned by {topo.kpi_owner[kpi]}): {{{group}}}")

# Direct conflicts need no KPI at all: two writers on one parameter.
print("\ndirect conflicts (shared writers)")
for c in direct_conflicts(topo):
    print(f"  {' vs '.join(c.xapps)} on {{{', '.join(c.params)}}}")

# Indirect conflicts are one hop longer: my KPI moves when your
# parameter does, even though we share no parameter.
print("\nindirect conflicts (foreign parameters inside a KPI's group)")
for c in indirect_conflicts(topo):
    print(f"  {c.kpi}: {' vs '.join(c.xapps)} via {{{', '.join(c.params)}}}")

# Implicit conflicts are the ones the graphs cannot show yet.  Once the
# runtime attributes a k5 degradation to a p1 change, promoting that edge
# turns the coupling into an ordinary indirect conflict.
grown = promote_implicit(topo, "p1", "k5")
print("\nafter learning that p1 moves k5:")
print(f"  k5 group grew from {sorted(topo.param_groups['k5'])}"
      f" to {sorted(grown.param_groups['k5'])}")
print(f"  indirect conflicts: {len(indirect_conflicts(topo))}"
      f" -> {len(indirect_conflicts(grown))}")
