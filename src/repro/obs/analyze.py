"""Span analysis: phase taxonomy, latency breakdown, critical path.

The phase taxonomy maps span names onto the five buckets the session
panel reports (per ISSUE 5): time a transaction spent blocked in the
concurrency controller (``lock_wait``), assembling read/write quorums
(``quorum_wait``), collecting commit votes (``vote``), distributing the
decision (``decision``), and in message flight (``network``).

Two different sums are exposed on purpose:

* :func:`aggregate_phase_stats` sums *all* spans of a phase per
  transaction (nested network spans under a quorum wave count toward
  ``network`` as well as being covered by the wave) — the right view for
  "how much of this phase did the run see".
* :func:`txn_phase_breakdown` partitions one transaction's *root window*
  among the root's direct children, clamped to ``[root.start,
  root.end]``, plus an ``other`` gap — so the printed rows sum exactly
  to the transaction's response time.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.obs.spans import Span, SpanTracer

__all__ = [
    "PHASES",
    "phase_of",
    "aggregate_phase_stats",
    "txn_phase_breakdown",
    "critical_path",
    "render_span_tree",
]

#: Panel ordering of the latency buckets.
PHASES = ("lock_wait", "quorum_wait", "vote", "decision", "network")

# Structural spans (the root, per-wave groupings) carry no phase of their
# own: their time is attributed through their leaf children instead, so a
# quorum wave is not double-counted against the rcp.* op span above it.
_PHASE_BY_NAME = {
    "ccp.read": "lock_wait",
    "ccp.prewrite": "lock_wait",
    "ccp.prepare": "lock_wait",
    "rcp.read": "quorum_wait",
    "rcp.write": "quorum_wait",
    "rcp.increment": "quorum_wait",
    "acp.vote": "vote",
    "acp.precommit": "decision",
    "acp.decision": "decision",
    "net.msg": "network",
    "dispatch": "network",
}


def phase_of(name: str) -> Optional[str]:
    """Latency bucket for a span name (``None`` for structural spans)."""
    return _PHASE_BY_NAME.get(name)


def aggregate_phase_stats(
    spans: Iterable[Span],
    txn_ids: Optional[Iterable[int]] = None,
) -> dict[str, dict[str, float]]:
    """Per-phase ``{mean_per_txn, max_per_txn}`` over traced transactions.

    ``txn_ids`` restricts the aggregate (e.g. to finished transactions);
    by default every traced transaction counts.  Returns ``{}`` when
    nothing qualifies, so flag-off output is unchanged.
    """
    wanted = None if txn_ids is None else set(txn_ids)
    totals: dict[int, dict[str, float]] = {}
    for span in spans:
        phase = phase_of(span.name)
        if phase is None:
            continue
        if wanted is not None and span.txn_id not in wanted:
            continue
        per_txn = totals.setdefault(span.txn_id, dict.fromkeys(PHASES, 0.0))
        per_txn[phase] += span.duration
    if not totals:
        return {}
    ordered = [totals[txn_id] for txn_id in sorted(totals)]
    result: dict[str, dict[str, float]] = {}
    for phase in PHASES:
        values = [per_txn[phase] for per_txn in ordered]
        result[phase] = {
            "mean_per_txn": sum(values) / len(values),
            "max_per_txn": max(values),
        }
    return result


def _clamped_duration(span: Span, window_start: float, window_end: float) -> float:
    """Overlap of a span with a window (open spans contribute nothing)."""
    if span.end is None:
        return 0.0
    lo = max(span.start, window_start)
    hi = min(span.end, window_end)
    return max(0.0, hi - lo)


def txn_phase_breakdown(
    tracer: SpanTracer, txn_id: int
) -> Optional[dict[str, float]]:
    """Partition one transaction's response time among phases.

    The root span covers ``[submitted_at, decided_at]`` — exactly the
    monitor's response time.  Each direct child is clamped to that window
    and attributed to its phase (a decision broadcast that outlives the
    decision point therefore contributes only its pre-decision part, as
    it should: post-decision time is not response time).  The remainder
    is reported as ``other``, so the values sum to the root duration.
    """
    root = tracer.root(txn_id)
    if root is None or root.end is None:
        return None
    breakdown = dict.fromkeys(PHASES, 0.0)
    breakdown["other"] = 0.0
    covered = 0.0
    for child in tracer.children(root):
        clamped = _clamped_duration(child, root.start, root.end)
        covered += clamped
        breakdown[phase_of(child.name) or "other"] += clamped
    breakdown["other"] += max(0.0, root.duration - covered)
    breakdown["total"] = root.duration
    return breakdown


def critical_path(
    tracer: SpanTracer, txn_id: int
) -> list[tuple[Span, float]]:
    """Longest root-to-leaf chain with per-hop self-time attribution.

    From the root, repeatedly descend into the child that finishes last
    (ties broken by span id, which is deterministic).  Each hop's *self*
    time is its own duration minus the chosen child's — the latency that
    hop added on the critical path.  Returns ``[]`` for untraced txns.
    """
    root = tracer.root(txn_id)
    if root is None:
        return []
    path: list[tuple[Span, float]] = []
    current = root
    while True:
        children = [
            child
            for child in tracer.children(current)
            if child.end is not None
        ]
        if not children:
            path.append((current, current.duration))
            break
        last = max(children, key=lambda child: (child.end, child.span_id))
        path.append((current, max(0.0, current.duration - last.duration)))
        current = last
    return path


def render_span_tree(tracer: SpanTracer, txn_id: int) -> list[str]:
    """Indented text rendering of one transaction's span tree."""
    root = tracer.root(txn_id)
    if root is None:
        return [f"(no spans recorded for transaction {txn_id})"]
    lines: list[str] = []

    def fmt(span: Span) -> str:
        end = span.start if span.end is None else span.end
        values = span.attrs
        attrs = ", ".join(f"{key}={values[key]}" for key in sorted(values))
        detail = f"  [{attrs}]" if attrs else ""
        return (
            f"{span.name} @{span.site}  "
            f"[{span.start:.3f} → {end:.3f}]  {span.duration:.3f}{detail}"
        )

    stack = [(root, 0)]  # depth first; children pushed last-first
    while stack:
        span, depth = stack.pop()
        lines.append("  " * depth + fmt(span))
        children = sorted(
            tracer.children(span),
            key=lambda child: (child.start, child.span_id),
            reverse=True,
        )
        stack.extend((child, depth + 1) for child in children)
    return lines
