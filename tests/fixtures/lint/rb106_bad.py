"""Fixture: RB106 must fire — entropy inside span/trace emission code.

Every hazard here is one RB102 cannot see (RNG drawn through an object,
a from-imported clock, name-indirected set iteration, a set expression
fed straight to a tracer call, an address or a set order handed to an
execution stream's subscribers).  Never imported; analyzed as source only.
"""

from time import perf_counter


def make_span_id(rng, txn_id, site):
    return f"t{txn_id}:{site}:{rng.randint(0, 9999)}"  # RB106: RNG span id


def emit_flight(tracer, msg):
    tracer.record(
        msg.txn_id,
        msg.src,
        "net.msg",
        start=perf_counter(),  # RB106: wall-clock span timestamp
        end=perf_counter(),  # RB106: wall-clock span timestamp
    )


def span_order_key(span):
    return id(span)  # RB106: memory address as span identity


def render_trace(spans):
    sites = {span.site for span in spans}
    lines = []
    for site in sites:  # RB106: local set drives span ordering  # rb: ignore[RB102]
        lines.append(site)
    return lines


def begin_wave(tracer, txn, active):
    return tracer.begin(txn, "rcp.wave", sites=set(active))  # RB106: set arg


def publish_reads(site, txn, items):
    pending = set(items)
    for subscriber in site.subscribers:
        for item in pending:  # RB106: local set orders the stream's events  # rb: ignore[RB102]
            subscriber("read", site.name, id(txn), item, None, None)  # RB106: id()
