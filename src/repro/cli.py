"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``quickstart`` — run the default session and print the Figure-5 panel.
* ``experiment <id>`` — regenerate one experiment table (EXPERIMENTS.md
  ids: qcmsg, avail, ccp, scale, acp, lb, abl, matrix, msgecon) and print
  it;
  ``--csv FILE`` additionally exports it, ``--json`` prints JSON instead of
  text, and ``-j N`` fans the sweep's independent sessions out across N
  worker processes (byte-identical output for every N).
* ``classroom [name]`` — run all (or one) lab assignment and print the
  reports.
* ``chaos`` — run the chaos suite: one randomized nemesis session per seed,
  the safety-invariant catalog over each final state, and delta-debugged
  minimal fault plans for any failures; ``--seeds N`` and ``-j N`` control
  scale (byte-identical report for every job count), ``--ccp NOCC`` points
  the suite at a deliberately broken classroom protocol.
* ``trace`` — run a traced session and print the causal-span summary:
  per-phase latency breakdown, orphan count, and the critical path of the
  slowest committed transaction; ``--txn N`` prints one transaction's span
  tree instead, ``--out FILE`` exports Chrome trace-event JSON (load it at
  https://ui.perfetto.dev), ``--csv FILE`` a flat per-span CSV.  Output is
  fully deterministic (same seed → same bytes).
* ``panels`` — print the configuration panels of the default instance.
* ``list`` — list experiments and assignments.
* ``lint [paths]`` — run rainbow-lint (the AST-based determinism &
  protocol-conformance analyzer) over ``paths`` (default ``src``);
  non-zero exit when findings remain.  ``--select``/``--ignore`` filter
  rules, ``--format json`` emits machine-readable output, and
  ``--list-rules`` prints the rule catalog.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Optional, Sequence

from repro.experiments import (
    ablation,
    acp_blocking,
    availability,
    ccp_contention,
    load_balance,
    message_economy,
    protocol_matrix,
    quorum_traffic,
    scalability,
    session,
)

EXPERIMENTS: dict[str, Callable] = {
    "qcmsg": quorum_traffic.run,
    "avail": availability.run,
    "ccp": ccp_contention.run,
    "scale": scalability.run,
    "acp": acp_blocking.run,
    "lb": load_balance.run,
    "abl": ablation.run,
    "matrix": protocol_matrix.run,
    "msgecon": message_economy.run,
}


def _cmd_quickstart(args: argparse.Namespace) -> int:
    result, panel, instance = session.run(
        n_txns=args.transactions,
        sites_per_host=args.sites_per_host,
        batch_site_ops=args.batch_site_ops,
        piggyback_prepare=args.piggyback_prepare,
        latency_aware_routing=args.latency_aware_routing,
    )
    print(panel)
    print(f"\nserializable: {result.serializable}")
    if args.chart:
        from repro.gui.charts import series_chart

        print()
        print(series_chart(instance.monitor.series, "committed",
                           title="Committed transactions over time"))
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    import inspect

    run = EXPERIMENTS.get(args.id)
    if run is None:
        print(f"unknown experiment {args.id!r}; try: {', '.join(sorted(EXPERIMENTS))}")
        return 2
    jobs = args.jobs
    if args.trace and jobs != 1:
        # Worker processes would each collect their own tracer registry;
        # run the sweep serially so every session's spans land in ours.
        print("note: --trace forces -j 1 (spans are collected in-process)",
              file=sys.stderr)
        jobs = 1
    kwargs = {}
    if "n_jobs" in inspect.signature(run).parameters:
        kwargs["n_jobs"] = jobs
    elif jobs != 1:
        print(f"note: experiment {args.id!r} is not a sweep; running serially",
              file=sys.stderr)
    if args.trace:
        from repro import obs

        obs.enable_global_tracing()
        try:
            table = run(**kwargs)
            tracers = obs.collected_tracers()
            with open(args.trace, "w", encoding="utf-8") as handle:
                handle.writelines(obs.chrome_json_chunks(tracers))
        finally:
            obs.disable_global_tracing()
        print(f"wrote {args.trace} ({len(tracers)} traced sessions)",
              file=sys.stderr)
    else:
        table = run(**kwargs)
    if args.json:
        print(table.to_json())
    else:
        print(table.to_text())
    if args.csv:
        from repro.monitor.export import table_to_csv

        table_to_csv(table, args.csv)
        print(f"\nwrote {args.csv}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.monitor.report import session_report
    from repro.monitor.tracing import ExecutionTracer
    from repro.workload.spec import WorkloadSpec

    from repro.experiments.common import build_instance

    instance = build_instance(4, 64, 3, seed=args.seed, sample_interval=25.0)
    instance.start()
    tracer = ExecutionTracer(instance)
    result = instance.run_workload(
        WorkloadSpec(
            n_transactions=args.transactions,
            arrival="poisson",
            arrival_rate=0.5,
            min_ops=3,
            max_ops=6,
            read_fraction=0.7,
        )
    )
    report = session_report(instance, result, tracer=tracer)
    if args.out:
        from pathlib import Path

        Path(args.out).write_text(report)
        print(f"wrote {args.out}")
    else:
        print(report)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.experiments.common import build_instance
    from repro.workload.spec import WorkloadSpec

    instance = build_instance(4, 64, 3, seed=args.seed, tracing=True)
    result = instance.run_workload(
        WorkloadSpec(
            n_transactions=args.transactions,
            arrival="poisson",
            arrival_rate=0.5,
            min_ops=3,
            max_ops=6,
            read_fraction=0.7,
        )
    )
    tracer = instance.span_tracer
    stats = result.statistics
    records = {record.txn_id: record for record in instance.monitor.records}

    if args.txn is not None:
        if tracer.root(args.txn) is None:
            traced = ", ".join(str(txn_id) for txn_id in tracer.txn_ids())
            print(f"no trace for transaction {args.txn}; traced ids: {traced}",
                  file=sys.stderr)
            return 2
        print("\n".join(obs.render_span_tree(tracer, args.txn)))
        breakdown = obs.txn_phase_breakdown(tracer, args.txn)
        print()
        print("phase breakdown (sums to the root span):")
        for phase in (*obs.PHASES, "other", "total"):
            print(f"  {phase:<12} {breakdown[phase]:.3f}")
        record = records.get(args.txn)
        if record is not None and record.response_time is not None:
            print(f"  response time {record.response_time:.3f} (OutputStatistics)")
    else:
        print(f"traced session: seed {args.seed}, {stats.submitted} submitted, "
              f"{stats.committed} committed, {stats.aborted} aborted")
        print(f"spans: {len(tracer.spans)} over {len(tracer.txn_ids())} transactions; "
              f"orphaned transactions: {stats.orphaned_txns}")
        if stats.phase_breakdown:
            print()
            print("per-phase latency (mean / max per txn):")
            for phase in obs.PHASES:
                entry = stats.phase_breakdown.get(phase)
                if entry is None:
                    continue
                print(f"  {phase:<12} {entry['mean_per_txn']:.3f} / "
                      f"{entry['max_per_txn']:.3f}")
        committed = [
            record for record in instance.monitor.records
            if record.status == "COMMITTED" and record.response_time is not None
            and tracer.root(record.txn_id) is not None
        ]
        if committed:
            slowest = max(committed, key=lambda r: (r.response_time, r.txn_id))
            print()
            print(f"critical path of slowest committed txn {slowest.txn_id} "
                  f"(response {slowest.response_time:.3f}):")
            for span, self_time in obs.critical_path(tracer, slowest.txn_id):
                print(f"  {span.name:<14} @{span.site:<8} self {self_time:.3f}")

    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.writelines(obs.chrome_json_chunks([("rainbow", tracer.spans)]))
        print(f"wrote {args.out}", file=sys.stderr)
    if args.csv:
        obs.spans_to_csv(tracer.spans, args.csv)
        print(f"wrote {args.csv}", file=sys.stderr)
    return 0


def _cmd_classroom(args: argparse.Namespace) -> int:
    from repro.classroom import all_assignments

    failures = 0
    for factory in all_assignments():
        if args.name and factory.__name__ != f"assignment_{args.name.replace('-', '_')}":
            continue
        report = factory()
        print(report.render())
        print()
        if not report.passed:
            failures += 1
    return 1 if failures else 0


def _cmd_panels(_args: argparse.Namespace) -> int:
    from repro.core.config import RainbowConfig
    from repro.core.instance import RainbowInstance
    from repro.gui.panels import (
        render_functional_architecture,
        render_protocol_panel,
        render_replication_panel,
    )

    config = RainbowConfig.quick(n_sites=4, n_items=8, replication_degree=3)
    instance = RainbowInstance(config)
    print(render_functional_architecture())
    print()
    print(render_protocol_panel(config.protocols))
    print()
    print(render_replication_panel(instance.catalog))
    return 0


def _parse_rule_ids(raw: Optional[str]) -> Optional[list[str]]:
    if raw is None:
        return None
    return [part.strip().upper() for part in raw.split(",") if part.strip()]


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import render_json, render_text, rule_catalog, run_lint
    from repro.analysis.core import AnalysisError

    if args.list_rules:
        for rule_id, name, severity, description in rule_catalog():
            print(f"{rule_id}  {name} [{severity}]")
            print(f"       {description}")
        return 0
    paths = args.paths or ["src"]
    try:
        report = run_lint(
            paths,
            select=_parse_rule_ids(args.select),
            ignore=_parse_rule_ids(args.ignore),
        )
    except (AnalysisError, FileNotFoundError) as err:
        print(f"lint: {err}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(render_json(report))
    else:
        print(render_text(report))
    return 0 if report.ok else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.chaos import render_suite_report, run_chaos_suite

    result = run_chaos_suite(
        list(range(1, args.seeds + 1)),
        n_jobs=args.jobs,
        shrink=not args.no_shrink,
        n_sites=args.sites,
        n_transactions=args.transactions,
        rcp=args.rcp,
        ccp=args.ccp,
        acp=args.acp,
        intensity=args.intensity,
        sites_per_host=args.sites_per_host,
        batch_site_ops=args.batch_site_ops,
        piggyback_prepare=args.piggyback_prepare,
        latency_aware_routing=args.latency_aware_routing,
        trace=args.trace,
    )
    print(render_suite_report(result))
    if args.trace:
        from pathlib import Path

        out_dir = Path(args.trace_dir)
        for case in result.failing():
            if not case.trace_json:
                continue
            out_dir.mkdir(parents=True, exist_ok=True)
            target = out_dir / f"chaos-trace-seed{case.seed}.json"
            target.write_text(case.trace_json)
            print(f"wrote {target}", file=sys.stderr)
    return 0 if result.ok else 1


def _cmd_list(_args: argparse.Namespace) -> int:
    from repro.classroom import all_assignments

    print("experiments:")
    for name in sorted(EXPERIMENTS):
        print(f"  {name}")
    print("assignments:")
    for factory in all_assignments():
        print(f"  {factory.__name__.removeprefix('assignment_').replace('_', '-')}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Rainbow distributed database (VLDB 2000) — reproduction CLI",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    quickstart = commands.add_parser("quickstart", help="run the default session")
    quickstart.add_argument("--transactions", type=int, default=200)
    quickstart.add_argument("--chart", action="store_true",
                            help="also print the commit time-series chart")
    quickstart.add_argument("--sites-per-host", type=int, default=1, metavar="N",
                            help="co-locate N sites per host (default: 1)")
    quickstart.add_argument("--batch-site-ops", action="store_true",
                            help="enable per-host operation batching (docs/PERF.md)")
    quickstart.add_argument("--piggyback-prepare", action="store_true",
                            help="fold the 2PC VOTE_REQ into the final access")
    quickstart.add_argument("--latency-aware-routing", action="store_true",
                            help="rank copy holders by expected network delay")
    quickstart.set_defaults(fn=_cmd_quickstart)

    experiment = commands.add_parser("experiment", help="regenerate one experiment")
    experiment.add_argument("id", help=f"one of: {', '.join(sorted(EXPERIMENTS))}")
    experiment.add_argument("--csv", default=None, help="export the table as CSV")
    experiment.add_argument(
        "-j", "--jobs", type=int, default=1, metavar="N",
        help="worker processes for sweep experiments (0 or -1 = all cores); "
        "results are identical for every N",
    )
    experiment.add_argument(
        "--json", action="store_true",
        help="print the table as JSON instead of fixed-width text",
    )
    experiment.add_argument(
        "--trace", default=None, metavar="FILE",
        help="trace every session of the experiment and write one Chrome "
        "trace-event JSON (forces -j 1)",
    )
    experiment.set_defaults(fn=_cmd_experiment)

    report = commands.add_parser("report", help="run a session, emit a markdown report")
    report.add_argument("--transactions", type=int, default=100)
    report.add_argument("--seed", type=int, default=7)
    report.add_argument("--out", default=None, help="write the report to a file")
    report.set_defaults(fn=_cmd_report)

    classroom = commands.add_parser("classroom", help="run lab assignments")
    classroom.add_argument("name", nargs="?", default=None)
    classroom.set_defaults(fn=_cmd_classroom)

    trace = commands.add_parser(
        "trace",
        help="run a traced session: phase breakdown, critical path, Perfetto export",
    )
    trace.add_argument("--transactions", type=int, default=60)
    trace.add_argument("--seed", type=int, default=7)
    trace.add_argument("--txn", type=int, default=None, metavar="N",
                       help="print one transaction's span tree and exact breakdown")
    trace.add_argument("--out", default=None, metavar="FILE",
                       help="write Chrome trace-event JSON (Perfetto-loadable)")
    trace.add_argument("--csv", default=None, metavar="FILE",
                       help="write a flat per-span CSV")
    trace.set_defaults(fn=_cmd_trace)

    panels = commands.add_parser("panels", help="print the configuration panels")
    panels.set_defaults(fn=_cmd_panels)

    chaos = commands.add_parser(
        "chaos",
        help="run the chaos suite: seeded nemesis + safety invariants + shrinking",
    )
    chaos.add_argument("--seeds", type=int, default=25, metavar="N",
                       help="run seeds 1..N (default: 25)")
    chaos.add_argument(
        "-j", "--jobs", type=int, default=1, metavar="N",
        help="worker processes for the cases (0 or -1 = all cores); "
        "the report is byte-identical for every N",
    )
    chaos.add_argument("--transactions", type=int, default=40,
                       help="transactions per case (default: 40)")
    chaos.add_argument("--sites", type=int, default=4,
                       help="sites per case (default: 4)")
    chaos.add_argument("--rcp", default="QC", help="replication protocol (default: QC)")
    chaos.add_argument("--ccp", default="2PL",
                       help="concurrency protocol; classroom names like NOCC work too")
    chaos.add_argument("--acp", default="2PC", help="commit protocol (default: 2PC)")
    chaos.add_argument("--intensity", type=float, default=1.0,
                       help="fault episodes per site (default: 1.0)")
    chaos.add_argument("--sites-per-host", type=int, default=1, metavar="N",
                       help="co-locate N sites per host (default: 1)")
    chaos.add_argument("--batch-site-ops", action="store_true",
                       help="enable per-host operation batching (docs/PERF.md)")
    chaos.add_argument("--piggyback-prepare", action="store_true",
                       help="fold the 2PC VOTE_REQ into the final access")
    chaos.add_argument("--latency-aware-routing", action="store_true",
                       help="rank copy holders by expected network delay")
    chaos.add_argument("--no-shrink", action="store_true",
                       help="skip delta-debugging the failing seeds")
    chaos.add_argument("--trace", action="store_true",
                       help="span-trace every case; failing seeds ship a Chrome "
                       "trace-event JSON next to the shrunk fault plan")
    chaos.add_argument("--trace-dir", default="chaos-traces", metavar="DIR",
                       help="directory for per-seed trace JSONs (default: "
                       "chaos-traces)")
    chaos.set_defaults(fn=_cmd_chaos)

    listing = commands.add_parser("list", help="list experiments and assignments")
    listing.set_defaults(fn=_cmd_list)

    lint = commands.add_parser(
        "lint", help="run rainbow-lint (determinism & protocol-conformance analyzer)"
    )
    lint.add_argument("paths", nargs="*", default=None,
                      help="files or directories to lint (default: src)")
    lint.add_argument("--select", default=None, metavar="IDS",
                      help="comma-separated rule ids to run (e.g. RB101,RB102)")
    lint.add_argument("--ignore", default=None, metavar="IDS",
                      help="comma-separated rule ids to skip")
    lint.add_argument("--format", choices=("text", "json"), default="text",
                      help="output format (default: text)")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule catalog and exit")
    lint.set_defaults(fn=_cmd_lint)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # Downstream consumer (e.g. `... | head`) closed the pipe; suppress
        # the stderr traceback the interpreter would otherwise print while
        # flushing stdout at shutdown.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
