"""Additional property-based tests: lock strategies, WAL release, network."""

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
# Releasing at each decision never changes what recovery concludes


@given(
    ops=st.lists(
        st.tuples(st.integers(1, 5), st.sampled_from(["P", "PC", "C", "A", "E"])),
        max_size=30,
    ),
    acp=st.sampled_from(["2PC", "3PC"]),
    roles=st.lists(st.booleans(), min_size=5, max_size=5),
)
def test_release_at_decision_preserves_recovery_semantics(ops, acp, roles):
    """``acp`` is the site's one ACP (a 3PC log keeps decisions), and
    ``roles[txn - 1]`` whether this site is the transaction's coordinator
    (decision records without a coordinator address).  A coordinating site
    that also prepared applies its own decision as the home participant,
    with a copy of the record, as ``Site.local_commit`` does."""

    def build(release):
        wal = WriteAheadLog("s", keep_decisions=acp == "3PC")
        prepared, decided, ended = set(), {}, set()
        for txn, kind in ops:
            coordinating = roles[txn - 1]
            coordinator = f"c/{txn}"
            if txn in ended:
                continue
            if kind == "P" and txn not in prepared and txn not in decided:
                wal.log_prepare(
                    txn, {"x": (txn, txn)}, coordinator, at=0.0, ts=txn,
                    peers=["p"] if acp == "3PC" else None,
                )
                prepared.add(txn)
            elif kind == "PC" and txn in prepared and txn not in decided:
                wal.log_precommit(txn, at=0.0)
            elif kind in ("C", "A") and txn not in decided:
                log = wal.log_commit if kind == "C" else wal.log_abort
                if coordinating:
                    log(txn, at=0.0)
                if not coordinating or txn in prepared:
                    log(txn, at=0.0, coordinator=coordinator)
                decided[txn] = "COMMIT" if kind == "C" else "ABORT"
                if release:
                    wal.release(txn)
            elif kind == "E" and coordinating and txn in decided:
                wal.log_end(txn, at=0.0)
                ended.add(txn)
                if release:
                    wal.release(txn)
        return wal, decided, ended

    kept, decided, ended = build(release=False)
    released, _, _ = build(release=True)
    assert released.in_doubt() == kept.in_doubt()
    # Who may still ask: 3PC peers, which presume nothing, and in-doubt
    # participants asking a coordinator that has not logged END.
    for txn, decision in decided.items():
        coordinating = roles[txn - 1]
        if txn in ended:
            continue
        if acp == "3PC" or (coordinating and decision == "COMMIT"):
            assert released.decision_for(txn) == kept.decision_for(txn) == decision
        else:
            assert released.decision_for(txn) in (None, decision)


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
