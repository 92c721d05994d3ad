"""Additional property-based tests: lock strategies, WAL checkpoints, network."""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.net.latency import ConstantLatency
from repro.net.network import Network
from repro.sim.kernel import Simulator
from repro.site.locks import LockManager, LockMode
from repro.site.wal import WriteAheadLog

# ---------------------------------------------------------------------------
# Lock safety holds under every deadlock strategy


@settings(max_examples=25, suppress_health_check=[HealthCheck.too_slow])
@given(
    strategy=st.sampled_from(["detect", "timeout", "wait_die", "wound_wait"]),
    seed=st.integers(0, 10_000),
    n_txns=st.integers(2, 5),
    n_steps=st.integers(5, 25),
)
def test_every_strategy_preserves_mutual_exclusion(strategy, seed, n_txns, n_steps):
    sim = Simulator()
    locks = LockManager(sim, strategy=strategy, wait_timeout=40.0)
    rng = random.Random(seed)
    items = ["x", "y"]

    def invariant():
        for item in items:
            modes = [
                mode
                for txn in range(1, n_txns + 1)
                for held, mode in locks.held_locks(txn).items()
                if held == item
            ]
            if LockMode.X in modes:
                assert len(modes) == 1

    def worker(txn_id):
        for _ in range(n_steps):
            mode = LockMode.X if rng.random() < 0.5 else LockMode.S
            try:
                wait = locks.acquire(txn_id, float(txn_id), rng.choice(items), mode)
                if wait is not None:
                    yield wait
            except Exception:
                locks.release_all(txn_id)
                return
            invariant()
            yield sim.timeout(rng.random() * 2)
            invariant()
            if rng.random() < 0.4:
                locks.release_all(txn_id)
        locks.release_all(txn_id)

    for txn_id in range(1, n_txns + 1):
        sim.process(worker(txn_id))
    sim.run()
    invariant()
    # Liveness: nothing is left waiting after everyone released.
    assert locks.waiting_count() == 0


# ---------------------------------------------------------------------------
# Checkpointing never changes what recovery concludes


@given(
    ops=st.lists(
        st.tuples(st.integers(1, 5), st.sampled_from(["P", "PC", "C", "A"])),
        max_size=25,
    ),
    checkpoint_after=st.integers(0, 25),
)
def test_checkpoint_preserves_recovery_semantics(ops, checkpoint_after):
    def build(with_checkpoint):
        wal = WriteAheadLog("s")
        prepared, precommitted, decided = set(), set(), set()
        for index, (txn, kind) in enumerate(ops):
            if with_checkpoint and index == checkpoint_after:
                wal.checkpoint({}, at=float(index))
            if kind == "P" and txn not in prepared:
                wal.log_prepare(txn, {"x": (txn, txn)}, f"c/{txn}", at=0.0, ts=txn)
                prepared.add(txn)
            elif kind == "PC" and txn in prepared and txn not in decided:
                wal.log_precommit(txn, at=0.0)
                precommitted.add(txn)
            elif kind == "C" and txn in prepared and txn not in decided:
                wal.log_commit(txn, at=0.0)
                decided.add(txn)
            elif kind == "A" and txn in prepared and txn not in decided:
                wal.log_abort(txn, at=0.0)
                decided.add(txn)
        if with_checkpoint and checkpoint_after >= len(ops):
            wal.checkpoint({}, at=99.0)
        return wal

    plain = build(False)
    checked = build(True)
    in_doubt_plain, _ = plain.recover_state()
    in_doubt_checked, _ = checked.recover_state()
    # The in-doubt classification — the part recovery acts on — is
    # identical with or without a checkpoint anywhere in the history.
    def key(doubt):
        return (doubt.txn_id, doubt.precommitted, doubt.coordinator, doubt.ts)

    assert sorted(map(key, in_doubt_plain)) == sorted(map(key, in_doubt_checked))


# ---------------------------------------------------------------------------
# Partitions drop exactly the cross-group traffic


@settings(max_examples=30)
@given(
    hosts=st.integers(2, 5),
    split=st.integers(1, 4),
    messages=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=20),
)
def test_partition_drops_exactly_cross_group(hosts, split, messages):
    split = min(split, hosts - 1)
    sim = Simulator()
    network = Network(sim, ConstantLatency(0.1))
    endpoints = [network.endpoint(f"h{i}", "e") for i in range(hosts)]
    got = []
    for endpoint in endpoints:
        endpoint.serve(got.append)
    group_a = [f"h{i}" for i in range(split)]
    group_b = [f"h{i}" for i in range(split, hosts)]
    network.partition([group_a, group_b])

    expected_delivered = 0
    for src, dst in messages:
        src %= hosts
        dst %= hosts
        endpoints[src].send(endpoints[dst].address, "X")
        same_side = (src < split) == (dst < split)
        if same_side:
            expected_delivered += 1
    sim.run()
    assert len(got) == expected_delivered
    assert network.stats.dropped == len(messages) - expected_delivered
