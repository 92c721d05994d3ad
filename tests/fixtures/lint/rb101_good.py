"""Fixture: the corrected counterpart of rb101_bad — RB101 must stay quiet."""


def commit_handler(ctx):
    acked = yield from ctx.broadcast("COMMIT")  # driven with yield from
    yield ctx.timeout_event
    return acked


def vote_phase(ctx, sim):
    all_yes, detail = yield from ctx.collect_votes()  # driven
    grant = sim.timeout(5.0)  # bound for later yielding
    yield grant
    done = yield sim.event("done")
    return all_yes, detail, done


def not_a_generator(ctx):
    # Outside a generator the rule does not apply: a plain function may
    # legitimately hand the event to its caller or register callbacks.
    return ctx.timeout_event
