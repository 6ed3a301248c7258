"""
The welfare curve behind QACM
=============================

Two xApps pull transmit power in opposite directions: the energy saver
wants it low, the mobility xApp wants it high.  QACM scores every
candidate power by the product of per-KPI satisfactions and picks the
least aggressive value that maximizes the product.
"""

from ric_cms import KpiDirection, KpiResponseModel, ResponseModelSet

# Response curves as seen from a short calibration run: efficiency falls
# with power past the radio's sweet spot, failures fall as power rises.
ee = KpiResponseModel(
    "energy_efficiency", KpiDirection.MAXIMIZE, threshold=120_000.0,
    curve=((3.0, 60_000.0), (30.0, 250_000.0), (50.0, 130_000.0)),
)
lf = KpiResponseModel(
    "link_failure_rate", KpiDirection.MINIMIZE, threshold=50.0,
    curve=((3.0, 400.0), (30.0, 60.0), (50.0, 0.0)),
)

bounds = (0.0, 50.0)
res = ResponseModelSet("txp", bounds, 1.0, (ee, lf)).optimize()

print("txp  s(efficiency)  s(failures)  welfare")
for v in range(0, 51, 5):
    s1, s2 = ee.satisfaction(v), lf.satisfaction(v)
    mark = "  <- chosen" if v == res.value else ""
    print(f"{v:>3}  {s1:>13.3f}  {s2:>11.3f}  {s1 * s2:>7.3f}{mark}")

print(f"\noptimum: txp = {res.value} dBm, welfare = {res.welfare:.3f},"
      f" all targets met: {res.satisfied_all}")

# Demand more of both (a 200k efficiency floor, a failure budget of 5)
# and the feasible windows stop overlapping: welfare caps below 1 and
# QACM settles for the best compromise instead.
greedy_ee = KpiResponseModel("energy_efficiency", KpiDirection.MAXIMIZE, 200_000.0, ee.curve)
strict_lf = KpiResponseModel("link_failure_rate", KpiDirection.MINIMIZE, 5.0, lf.curve)
res2 = ResponseModelSet("txp", bounds, 1.0, (greedy_ee, strict_lf)).optimize()
print(f"under tighter targets: txp = {res2.value} dBm,"
      f" welfare = {res2.welfare:.3f}, all targets met: {res2.satisfied_all}")
