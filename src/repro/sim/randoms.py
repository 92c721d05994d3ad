"""Deterministic named random streams.

Experiments need *variance isolation*: changing the workload seed must not
perturb the network-latency draws, and adding a site must not shift the
failure schedule.  :class:`RandomStreams` therefore derives an independent
``random.Random`` per named purpose from one master seed, so each subsystem
consumes its own stream.

A stream's seed is the first 8 bytes, big-endian, of the SHA-256 of
``"seed:name"`` (a child family's of ``"seed/child/name"``).  The digest
comes from the interpreter's own SHA-256 module (``_sha2`` on 3.12+,
``_sha256`` before) rather than through OpenSSL, whose binding would add
megabytes of resident memory to every session process; the OpenSSL-backed
standard module is only the fallback where neither is built.  All three
give the same digest, so every seed, draw and simulated event is the same
whichever is loaded.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from itertools import accumulate
from typing import Iterator

try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

__all__ = [
    "RandomStreams",
    "cumulative_weights",
    "exponential",
    "iterate_poisson_arrivals",
    "weighted_choice",
    "zipf_weights",
]


class RandomStreams:
    """A family of independent, reproducible random streams.

    >>> streams = RandomStreams(42)
    >>> streams.get("network") is streams.get("network")
    True
    >>> streams.get("network") is streams.get("workload")
    False
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._streams: dict[str, random.Random] = {}

    def get(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it deterministically."""
        stream = self._streams.get(name)
        if stream is None:
            digest = sha256(f"{self.seed}:{name}".encode()).digest()
            stream = random.Random(int.from_bytes(digest[:8], "big"))
            self._streams[name] = stream
        return stream

    def spawn(self, name: str) -> "RandomStreams":
        """Derive a child family (e.g. one per experiment repetition)."""
        digest = sha256(f"{self.seed}/child/{name}".encode()).digest()
        return RandomStreams(int.from_bytes(digest[:8], "big"))


def zipf_weights(n: int, theta: float) -> list[float]:
    """Normalised Zipf(θ) weights over ranks ``1..n``.

    θ = 0 is uniform; larger θ skews access towards low ranks.  Used by the
    workload generator's hotspot access distributions.
    """
    if n <= 0:
        raise ValueError(f"zipf_weights needs n >= 1, got {n}")
    if theta < 0:
        raise ValueError(f"zipf_weights needs theta >= 0, got {theta}")
    raw = [1.0 / (rank ** theta) for rank in range(1, n + 1)]
    total = sum(raw)
    return [w / total for w in raw]


def cumulative_weights(weights: list[float]) -> list[float]:
    """Running sums of ``weights`` (assumed normalised), for :func:`weighted_choice`."""
    return list(accumulate(weights))


def weighted_choice(rng: random.Random, cumulative: list[float]) -> int:
    """Draw an index according to :func:`cumulative_weights` ``cumulative``.

    The first index whose running sum reaches the draw, found by bisection;
    the last index when rounding leaves the total just short of it.
    """
    return min(bisect_left(cumulative, rng.random()), len(cumulative) - 1)


def exponential(rng: random.Random, mean: float) -> float:
    """Exponential variate with the given mean (mean<=0 returns 0)."""
    if mean <= 0:
        return 0.0
    return rng.expovariate(1.0 / mean)


def iterate_poisson_arrivals(rng: random.Random, rate: float) -> Iterator[float]:
    """Yield successive inter-arrival gaps of a Poisson process."""
    if rate <= 0:
        raise ValueError(f"arrival rate must be positive, got {rate}")
    while True:
        yield rng.expovariate(rate)
