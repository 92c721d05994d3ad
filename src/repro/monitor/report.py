"""Session reports: one markdown document per Rainbow session.

Research needs a write-up, classrooms need a lab report; this module
assembles both from a finished session: the §3 statistics block, the
per-site table, the message-traffic breakdown, the fault log, the
serializability verdict, and (optionally) the tail of the global execution
history.  The output is plain markdown with the ASCII panels embedded in
code fences, so it reads in a terminal, a gist, or a grading system alike.
"""

from __future__ import annotations


__all__ = ["session_report"]


def session_report(
    instance,
    result,
    *,
    title: str = "Rainbow session report",
    tracer=None,
    history_tail: int = 40,
) -> str:
    """Build the markdown report for ``result`` produced on ``instance``."""
    # Imported here to keep the monitor package free of a gui dependency
    # at import time (gui builds on web, which builds on core, which
    # imports the monitor).
    from repro.gui.panels import (
        render_session_panel,
        render_sites_panel,
        render_traffic_panel,
    )

    stats = result.statistics
    protocols = instance.config.protocols
    lines = [
        f"# {title}",
        "",
        f"- Protocols: RCP={protocols.rcp}, CCP={protocols.ccp}, "
        f"ACP={protocols.acp}",
        f"- Domain: {len(instance.sites)} sites on "
        f"{len({s.host for s in instance.sites.values()})} hosts, "
        f"{len(instance.catalog)} items",
        f"- Simulated duration: {result.duration:.1f} time units",
        f"- Simulator: {stats.processed_events} kernel events in "
        f"{stats.wall_clock_seconds:.3f}s wall clock "
        f"({stats.events_per_second:,.0f} events/sec)",
        f"- Committed history one-copy serializable: **{result.serializable}**",
    ]
    if result.serialization_cycle:
        lines.append(
            f"- Serialization cycle: {result.serialization_cycle} "
            "(**violation — investigate the protocol configuration**)"
        )
    collisions = instance.monitor.history.version_collisions()
    if collisions:
        lines.append(f"- Version collisions: {collisions}")
    lines += [
        "",
        "## Output statistics",
        "",
        "```",
        render_session_panel(stats, instance.monitor.records[-5:]),
        "```",
        "",
        "## Sites",
        "",
        "```",
        render_sites_panel(instance.sites.values()),
        "```",
        "",
        "## Message traffic",
        "",
        "```",
        render_traffic_panel(
            instance.network.stats,
            round_trips_saved=stats.round_trips_saved,
            batched_ops=stats.batched_ops,
        ),
        "```",
    ]
    if result.fault_log:
        lines += ["", "## Injected faults", ""]
        for event in result.fault_log:
            detail = f" {event.detail}" if event.detail else ""
            lines.append(f"- t={event.time:.1f}: {event.kind} {event.target}{detail}")
    if tracer is not None and tracer.events:
        lines += [
            "",
            f"## Global execution history (last {history_tail} events)",
            "",
            "```",
            _tail_history(tracer, history_tail),
            "```",
        ]
    lines.append("")
    return "\n".join(lines)


def _tail_history(tracer, count: int) -> str:
    from repro.monitor.tracing import format_history

    events = tracer.global_events()
    return format_history(events[-count:])
