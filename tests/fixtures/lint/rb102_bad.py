"""Fixture: RB102 must fire — every flavour of nondeterminism hazard.

Never imported; analyzed as source only.
"""

import itertools
import random
import time
from random import choice

JITTER = random.random()  # RB102: module-level global-RNG draw


def make_rng():
    return random.Random()  # RB102: unseeded Random


def pick_site(sites):
    return choice(sites)  # RB102: from-imported global-RNG function


def stamp():
    return time.time()  # RB102: wall clock outside monitor//benchmarks/


def break_ties(waiters):
    return sorted(waiters, key=id)  # RB102: memory addresses as sort key


def drain(pending):
    for txn in set(pending):  # RB102: set iteration order feeds scheduling
        yield txn


def victims(sites):
    return [site for site in {"s1", "s2", "s3"}]  # RB102: set literal iteration


_ids = itertools.count(1)  # RB102: a process-global id counter


class Session:
    numbers = itertools.count(1)  # RB102: class scope is process-global too

    def order(self, waiting: set[int]):
        return tuple(waiting)  # RB102: annotated set, iterated by value
