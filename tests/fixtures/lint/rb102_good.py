"""Fixture: the corrected counterpart of rb102_bad — RB102 must stay quiet."""

import itertools
import random


def make_rng(seed):
    return random.Random(seed)  # seeded: reproducible


def pick_site(rng, sites):
    return rng.choice(sites)  # instance stream, not the global RNG


def stamp(sim):
    return sim.now  # simulated time, not the wall clock


def break_ties(waiters):
    return sorted(waiters, key=lambda w: (w.ts, w.txn_id))  # value-based key


def drain(pending):
    for txn in sorted(set(pending)):  # sorted() pins the order
        yield txn


def victims(sites):
    return [site for site in sorted({"s1", "s2", "s3"})]


class Session:
    def __init__(self):
        self.numbers = itertools.count(1)  # the session owns its counter

    def order(self, waiting: set[int]):
        return tuple(sorted(waiting))
