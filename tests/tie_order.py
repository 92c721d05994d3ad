"""Tie-order fuzzing: a kernel that breaks same-instant ties by a seeded draw.

The kernel promises only that a process's bootstrap runs before its first
resume and that one event's callbacks run in registration order (see
``repro.sim.kernel``).  Its FIFO order among other entries due at one
instant is an accident of the implementation, so nothing may depend on it.
:func:`fuzzed_simulator` makes a :class:`~repro.sim.kernel.Simulator`
whose heap ties break by a seeded random rank instead, and
:func:`tie_order` installs it as the simulator every
:class:`~repro.core.instance.RainbowInstance` builds.  The same
(seed, tie seed) pair always gives the same run.

This is test machinery only: the program has no option for it.
"""

from __future__ import annotations

import random
from contextlib import contextmanager

import repro.core.instance
from benchmarks.chaos_ledger import FLAGS
from repro.sim.kernel import Simulator

TIE_SEEDS = (1, 2)


class _TieKey:
    """A heap tie key: a seeded random rank, made unique by a counter.

    The kernel numbers its heap entries with ``sim._sequence += 1``; a key
    answers ``+ 1`` with the next key, so no kernel line changes.
    """

    __slots__ = ("rng", "count", "rank")

    def __init__(self, rng: random.Random, count: int):
        self.rng = rng
        self.count = count
        self.rank = rng.random()

    def __add__(self, step: int) -> "_TieKey":
        return _TieKey(self.rng, self.count + step)

    def __lt__(self, other: "_TieKey") -> bool:
        return (self.rank, self.count) < (other.rank, other.count)


def fuzzed_simulator(tie_seed: int) -> type[Simulator]:
    """A ``Simulator`` class whose same-instant ties follow ``tie_seed``."""

    class TieFuzzSimulator(Simulator):
        def __init__(self):
            super().__init__()
            self._sequence = _TieKey(random.Random(tie_seed), 0)

    return TieFuzzSimulator


@contextmanager
def tie_order(tie_seed: int):
    """Build every instance inside the block on a tie-fuzzed simulator."""
    saved = repro.core.instance.Simulator
    repro.core.instance.Simulator = fuzzed_simulator(tie_seed)
    try:
        yield
    finally:
        repro.core.instance.Simulator = saved


def red_cases(seeds, rcp: str = "QC", ccp: str = "2PL", acp: str = "2PC") -> list[str]:
    """Run one chaos report under each tie seed, flags off and on; the red cases.

    Each case runs in this process (no worker pool), so the installed
    simulator is the one every instance uses.
    """
    from repro.chaos.engine import run_chaos_case

    red = []
    for tie_seed in TIE_SEEDS:
        with tie_order(tie_seed):
            for flags, settings in FLAGS.items():
                for seed in seeds:
                    case = run_chaos_case(seed, rcp=rcp, ccp=ccp, acp=acp, **settings)
                    if not case.ok:
                        red.append(
                            f"{rcp}+{ccp}+{acp} flags-{flags} seed {seed} tie seed "
                            f"{tie_seed}: {', '.join(case.violated_invariants())}"
                        )
    return red
