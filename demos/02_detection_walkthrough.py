"""
Detecting conflicts from the change ledger
==========================================

The detector is event-sourced: every parameter write and every KPI
degradation lands in a ledger, and a degradation is attributed to the
most recent change inside a 1-second window.  The verdict then depends
only on who changed what versus who observed what.
"""

from ric_cms import (
    ChangeRecord,
    DegradationEvent,
    Ledger,
    bench_detection,
    five_xapp_topology,
    gen_stochastic_events,
)

topo = five_xapp_topology()
led = Ledger(topo)

# Four hand-picked episodes, one per verdict kind.  Times are ms.
episodes = [
    ("x1 degrades its own KPI",
     ChangeRecord(1000.0, "x1", "p1", 7.0),
     DegradationEvent(1400.0, "k1", "x1", 0.3)),
    ("x2 writes a parameter x1 also owns",
     ChangeRecord(3000.0, "x2", "p1", 9.0),
     DegradationEvent(3500.0, "k1", "x1", 0.2)),
    ("x1 touches p2, which sits in x4's KPI group",
     ChangeRecord(5000.0, "x1", "p2", 4.0),
     DegradationEvent(5600.0, "k41", "x4", 0.1)),
    ("x1 touches p1 and x5's KPI sags, with no modeled path",
     ChangeRecord(7000.0, "x1", "p1", 2.0),
     DegradationEvent(7800.0, "k5", "x5", 0.4)),
]

for story, change, degradation in episodes:
    led.record_change(change)
    led.record_degradation(degradation)
    v = led.classify(degradation)
    print(f"{story}:")
    print(f"  -> {v.kind.value}  (blamed {v.instructing} writing {v.param},"
          f" lag {v.t_detect_ms - v.t_change_ms:.0f} ms)")

# Throughput check: 10k labeled events through the classifier.
events = gen_stochastic_events(topo, 10_000, seed=7)
stats = bench_detection(topo, events)
print("\n10,000 generated events:")
for kind in sorted(stats):
    s = stats[kind]
    print(f"  {kind:<12} n={s['count']:<5} accuracy={s['accuracy']:.3f}"
          f"  median={s['median_us']:.1f} us  p99={s['p99_us']:.1f} us")
