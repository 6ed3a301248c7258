"""
Conflict mitigation strategies, head to head
============================================

Runs the paired-replica experiment: an energy saver and a mobility xApp
fight over transmit power while five arbitration strategies take turns
deciding who wins.  Replicas are common-random-number paired, so the
differences between arms are down to the strategy alone.

Takes about a second at the default 50 replicas (1.14, 1.23 and 1.27 s
as a whole process in three runs on a shared 2-core Xeon VM with Python
3.11 and numpy 2.4).
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from ric_cms import (
    desk_preset,
    export_csv,
    export_summary_json,
    run_experiment,
)

parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
parser.add_argument("--reps", type=int, default=None, help="override replica count")
parser.add_argument("--seed", type=int, default=0, help="base seed for the pairing")
parser.add_argument("--out", type=Path, default=None, help="write results.csv and summary.json here")
args = parser.parse_args()

exp = desk_preset(base_seed=args.seed)
if args.reps is not None:
    exp = replace(exp, reps=args.reps)


def progress(arms, rep, total):
    # padded, so a shorter arm list fully overwrites the longer one before it
    print(f"\r{', '.join(arms) + ':':<22} replica {rep + 1}/{total}", end="", file=sys.stderr, flush=True)


result = run_experiment(exp, progress=progress)
print(file=sys.stderr)

ee = result.medians("energy_efficiency_bits_per_joule")
lf = result.medians("link_failures")
ho = result.medians("total_handovers")

print(f"medians over {exp.reps} paired replicas of {exp.sim.duration_s:.0f} s")
print(f"{'strategy':<10} {'bits/J':>10} {'link failures':>14} {'handovers':>10}")
for strat in ee:
    print(f"{strat:<10} {ee[strat]:>10.0f} {lf[strat]:>14.1f} {ho[strat]:>10.1f}")

if result.model_set is not None:
    opt = result.model_set.optimize()
    print(f"\nqacm operating point: {opt.value} dBm"
          f" (welfare {opt.welfare:.3f}, all targets met: {opt.satisfied_all})")

if args.out is not None:
    args.out.mkdir(parents=True, exist_ok=True)
    export_csv(result, args.out / "results.csv")
    export_summary_json(result, args.out / "summary.json")
    print(f"wrote {args.out / 'results.csv'} and {args.out / 'summary.json'}")
