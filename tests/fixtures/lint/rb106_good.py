"""Fixture: RB106 corrected twin — fully deterministic span emission.

Span ids come from per-key counters, timestamps from ``sim.now``, and
every ordering from ``sorted(...)``.  Never imported; analyzed as source
only.
"""


def make_span_id(counters, txn_id, site):
    seq = counters.get((txn_id, site), 0) + 1
    counters[(txn_id, site)] = seq
    return f"t{txn_id}:{site}:{seq}"


def emit_flight(tracer, sim, msg, delay):
    tracer.record(
        msg.txn_id,
        msg.src,
        "net.msg",
        start=sim.now,
        end=sim.now + delay,
    )


def span_order_key(span):
    return (span.start, span.span_id)


def render_trace(spans):
    lines = []
    for site in sorted({span.site for span in spans}):
        lines.append(site)
    return lines


def begin_wave(tracer, txn, active):
    return tracer.begin(txn, "rcp.wave", sites=sorted(active))


def publish_reads(site, txn, items):
    pending = sorted(set(items))
    for subscriber in site.subscribers:
        for item in pending:
            subscriber("read", site.name, txn.txn_id, item, None, None)
