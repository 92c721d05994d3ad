"""Fixture: RB101 must fire — event-returning calls discarded in generators.

Never imported; analyzed as source only.
"""


def commit_handler(ctx):
    """The classic silent no-op: broadcast without `yield from`."""
    ctx.broadcast("COMMIT")  # RB101: result discarded
    yield ctx.timeout_event


def vote_phase(ctx, sim):
    ctx.collect_votes()  # RB101: generator never driven
    sim.timeout(5.0)  # RB101: timeout event dropped on the floor
    done = yield sim.event("done")
    return done
