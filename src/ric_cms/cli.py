"""Command line front end.

Three subcommands:

  topology      inspect a topology file, optionally emit graph edge lists
  detect-bench  accuracy / latency benchmark of the runtime detector
  simulate      run the strategy-comparison experiment

Errors leave on a nonzero exit code with a single JSON object on stderr,
so wrapping scripts can parse failures without scraping tracebacks.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import conflict_model as cm
from .detection import bench_detection
from .files import write_json
from .harness import (
    ALL_STRATEGIES,
    PRESETS,
    export_csv,
    export_summary_json,
    export_traces,
    run_experiment,
)
from .mitigation import Strategy
from .ran_sim import load_sim_config
from .xapps import gen_stochastic_events

BUILTIN_TOPOLOGY = "five-xapp"  # the five-app reference configuration


def _load_topology(spec: str) -> cm.ConflictTopology:
    if spec == BUILTIN_TOPOLOGY:
        return cm.five_xapp_topology()
    return cm.load_topology(spec)


def _cmd_topology(args: argparse.Namespace) -> int:
    t = _load_topology(args.input)
    print(f"xApps: {len(t.xapps)}  parameters: {len(t.all_params)}  KPIs: {len(t.all_kpis)}")
    print("parameter groups:")
    for kpi in sorted(t.param_groups):
        group = ", ".join(sorted(t.param_groups[kpi]))
        print(f"  {kpi} (owner {t.kpi_owner[kpi]}): {{{group}}}")
    direct = cm.direct_conflicts(t)
    indirect = cm.indirect_conflicts(t)
    print(f"direct conflicts: {len(direct)}")
    for c in direct:
        print(f"  {' vs '.join(c.xapps)} on {{{', '.join(c.params)}}}")
    print(f"indirect conflicts: {len(indirect)}")
    for c in indirect:
        print(f"  {', '.join(c.xapps)} through {c.kpi} on {{{', '.join(c.params)}}}")
    if args.emit_graphs:
        written = cm.write_graph_csvs(t, args.emit_graphs)
        for p in written:
            print(f"wrote {p}")
    return 0


def _cmd_detect_bench(args: argparse.Namespace) -> int:
    t = _load_topology(args.topology)
    events = gen_stochastic_events(t, args.events, args.seed)
    stats = bench_detection(t, events)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_json(out, stats)
    for kind in sorted(stats):
        s = stats[kind]
        print(
            f"{kind:12s} n={s['count']:6d}  accuracy={s['accuracy']:7.2%}  "
            f"median={s['median_us']:8.2f} us  p99={s['p99_us']:8.2f} us"
        )
    print(f"wrote {out}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    if not (args.preset or args.config):
        raise ValueError("simulate needs --preset or --config")
    exp = PRESETS[args.preset or "desk"](base_seed=args.seed)
    if args.config:  # checked before the strategies
        exp = replace(exp, sim=load_sim_config(args.config))
    overrides: dict = {"strategies": tuple(Strategy(s.strip()) for s in args.strategies.split(",") if s.strip())}
    if args.reps is not None:
        overrides["reps"] = args.reps
    exp = replace(exp, **overrides)

    def progress(arms: tuple[str, ...], rep: int, reps: int) -> None:
        if rep == 0:
            print(f"running {', '.join(arms)} ({reps} replicas)...", flush=True)

    result = run_experiment(exp, progress=progress)

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    export_csv(result, outdir / "results.csv")
    export_summary_json(result, outdir / "summary.json")
    export_traces(result, outdir)

    print(f"\nmedians over {exp.reps} replicas:")
    summary = result.summary()
    header = f"{'strategy':10s} {'EE [bit/J]':>14s} {'LF':>8s} {'HO':>8s} {'PP':>8s}"
    print(header)
    for s in exp.strategies:
        st = summary[s.value]
        print(
            f"{s.value:10s} {st['energy_efficiency_bits_per_joule']['median']:14.1f} "
            f"{st['link_failures']['median']:8.1f} {st['total_handovers']['median']:8.1f} "
            f"{st['pingpong_handovers']['median']:8.1f}"
        )
    print(f"\nwrote {outdir / 'results.csv'} and {outdir / 'summary.json'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ric-cms", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    pt = sub.add_parser("topology", help="inspect a conflict topology")
    pt.add_argument("--input", required=True, help=f"topology JSON path, or '{BUILTIN_TOPOLOGY}' for the built-in five-app reference")
    pt.add_argument("--emit-graphs", metavar="DIR", help="write xp/kp/pp edge-list CSVs here")
    pt.set_defaults(func=_cmd_topology)

    pb = sub.add_parser("detect-bench", help="detector accuracy and latency benchmark")
    pb.add_argument("--topology", default=BUILTIN_TOPOLOGY, help="topology JSON path or built-in name")
    pb.add_argument("--events", type=int, default=10_000)
    pb.add_argument("--seed", type=int, default=0)
    pb.add_argument("--out", default="stats.json")
    pb.set_defaults(func=_cmd_detect_bench)

    ps = sub.add_parser("simulate", help="run the strategy comparison")
    ps.add_argument("--config", help="scenario JSON, replacing the preset's; alone, it runs the desk design over it")
    ps.add_argument("--preset", choices=sorted(PRESETS), help="desk: quick; paper: long form")
    ps.add_argument(
        "--strategies",
        default=",".join(s.value for s in ALL_STRATEGIES),
        help="comma-separated subset of nc,sbd,p-es,p-mro,qacm",
    )
    ps.add_argument("--reps", type=int, help="override replica count")
    ps.add_argument("--seed", type=int, default=0, help="base seed; replica r uses seed+r")
    ps.add_argument("--out", required=True, help="output directory")
    ps.set_defaults(func=_cmd_simulate)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001  single machine-readable error line
        print(json.dumps({"error": type(exc).__name__, "detail": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
