"""Property-based tests (hypothesis) for core data structures & invariants."""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import RainbowConfig
from repro.nameserver.catalog import Catalog
from repro.sim.kernel import Simulator
from repro.sim.randoms import zipf_weights
from repro.site.locks import LockManager, LockMode
from repro.site.storage import LocalStore
from repro.site.wal import WriteAheadLog
from repro.txn.history import HistoryRecorder, SerializationGraph

# ---------------------------------------------------------------------------
# Distributions


@given(n=st.integers(1, 200), theta=st.floats(0, 3, allow_nan=False))
def test_zipf_weights_normalised_and_monotone(n, theta):
    weights = zipf_weights(n, theta)
    assert len(weights) == n
    assert abs(sum(weights) - 1.0) < 1e-9
    assert all(a >= b - 1e-12 for a, b in zip(weights, weights[1:]))
    assert all(w > 0 for w in weights)


# ---------------------------------------------------------------------------
# Catalog quorum invariants


@given(
    votes=st.lists(st.integers(1, 5), min_size=1, max_size=8),
)
def test_default_quorums_always_valid(votes):
    placement = {f"s{i}": v for i, v in enumerate(votes)}
    catalog = Catalog()
    spec = catalog.add_item("x", placement=placement)
    spec.validate()  # majorities always satisfy r+w>V and 2w>V
    r, w = spec.effective_read_quorum(), spec.effective_write_quorum()
    total = spec.total_votes
    assert r + w > total
    assert 2 * w > total


@given(
    n_sites=st.integers(1, 8),
    n_items=st.integers(1, 20),
    degree=st.integers(1, 8),
)
def test_round_robin_placement_balanced(n_sites, n_items, degree):
    if degree > n_sites:
        return
    catalog = Catalog()
    for index in range(n_items):
        catalog.add_item(f"x{index}")
    sites = [f"s{i}" for i in range(n_sites)]
    catalog.place_round_robin(sites, degree)
    counts = {site: 0 for site in sites}
    for spec in catalog.items():
        assert spec.replication_degree == degree
        for site in spec.sites:
            counts[site] += 1
    # Conservation: every copy is placed exactly once.
    assert sum(counts.values()) == n_items * degree
    # Consecutive-window placement keeps the spread within the degree.
    assert max(counts.values()) - min(counts.values()) <= degree


# ---------------------------------------------------------------------------
# Serialization graph: cycle detection agrees with topological sort


@given(
    edges=st.lists(
        st.tuples(st.integers(1, 8), st.integers(1, 8)), max_size=30
    )
)
def test_cycle_detection_iff_no_topological_order(edges):
    graph = SerializationGraph()
    for before, after in edges:
        graph.add_edge(before, after)
    cycle = graph.find_cycle()
    order = graph.topological_order()
    assert (cycle is None) == (order is not None)
    if cycle is not None:
        # Verify the cycle is a real path: consecutive members are edges.
        for a, b in zip(cycle, cycle[1:]):
            assert b in graph.edges[a]
    if order is not None:
        position = {node: i for i, node in enumerate(order)}
        for node, successors in graph.edges.items():
            for successor in successors:
                assert position[node] < position[successor]


# ---------------------------------------------------------------------------
# Histories generated from *serial* executions must always verify


@given(
    script=st.lists(
        st.tuples(
            st.booleans(),  # write?
            st.integers(0, 3),  # item index
        ),
        min_size=1,
        max_size=30,
    ),
    txn_sizes=st.lists(st.integers(1, 4), min_size=1, max_size=10),
)
def test_serial_execution_always_serializable(script, txn_sizes):
    recorder = HistoryRecorder()
    versions = {f"x{i}": 0.0 for i in range(4)}
    writer_version = {f"x{i}": 0 for i in range(4)}
    cursor = 0
    txn_id = 0
    for size in txn_sizes:
        txn_id += 1
        reads, writes = {}, {}
        for _ in range(size):
            if cursor >= len(script):
                break
            is_write, item_index = script[cursor]
            cursor += 1
            item = f"x{item_index}"
            if is_write:
                # A transaction installs one version per item, whatever the
                # number of times it overwrote it in its workspace.
                if item not in writes:
                    writer_version[item] += 1
                    writes[item] = writer_version[item]
            elif item not in writes:
                # Reads of the transaction's own buffered write observe no
                # committed version and constrain nothing.
                reads[item] = versions[item]
        for item, version in writes.items():
            versions[item] = version
        if reads or writes:
            recorder.record_commit(txn_id, reads, writes)
    ok, _witness = recorder.check_serializable()
    assert ok
    assert recorder.reads_see_committed_versions() == []


# ---------------------------------------------------------------------------
# Lock manager safety under random schedules


@settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 10_000),
    n_txns=st.integers(2, 6),
    n_items=st.integers(1, 4),
    n_steps=st.integers(5, 40),
)
def test_lock_manager_never_grants_conflicting_locks(seed, n_txns, n_items, n_steps):
    """Random acquire/release schedules never produce conflicting holders."""
    sim = Simulator()
    locks = LockManager(sim, strategy="detect", wait_timeout=50.0)
    rng = random.Random(seed)
    items = [f"x{i}" for i in range(n_items)]

    def check_invariant():
        for item in items:
            holders = [
                (txn, mode)
                for txn in range(1, n_txns + 1)
                for held_item, mode in locks.held_locks(txn).items()
                if held_item == item
            ]
            x_holders = [txn for txn, mode in holders if mode == LockMode.X]
            assert len(x_holders) <= 1
            if x_holders:
                assert len(holders) == 1

    def txn_proc(txn_id):
        for _ in range(n_steps):
            item = rng.choice(items)
            mode = LockMode.X if rng.random() < 0.4 else LockMode.S
            try:
                yield locks.acquire(txn_id, float(txn_id), item, mode)
            except Exception:
                locks.release_all(txn_id)
                return
            check_invariant()
            yield sim.timeout(rng.random())
            check_invariant()
            if rng.random() < 0.3:
                locks.release_all(txn_id)
        locks.release_all(txn_id)

    for txn_id in range(1, n_txns + 1):
        sim.process(txn_proc(txn_id))
    sim.run()
    check_invariant()


class _ScanLockManager(LockManager):
    """Reference model: every multi-entry walk scans the whole lock table."""

    def _entries_of(self, txn_id):
        return list(self._table.values())

    def _waiting_entries(self):
        return list(self._table.values())


# Acquires dominate so that queues, upgrades and multi-item holders build up.
_LOCK_OPS = st.lists(
    st.tuples(
        st.sampled_from(["acquire"] * 5 + ["release_all", "abort_waiter", "wound", "advance"]),
        st.integers(1, 4),
        st.sampled_from("abc"),
        st.sampled_from("SX"),
        st.floats(0, 3),
    ),
    min_size=10,
    max_size=60,
)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    strategy=st.sampled_from(["detect", "timeout", "wait_die", "wound_wait"]),
    ops=_LOCK_OPS,
)
def test_lock_index_matches_full_table_scan(strategy, ops):
    """The per-txn / waiter index changes no observable lock-manager behaviour.

    The indexed manager and a full-scan reference run the same random
    schedule side by side; after every step their answers, hook calls and
    the order in which lock events fire must agree.
    """
    runs = []
    for cls in (LockManager, _ScanLockManager):
        sim = Simulator()
        log: list = []
        locks = cls(
            sim,
            strategy=strategy,
            wait_timeout=5.0,
            on_wound=lambda txn, log=log: log.append(("wounded", txn)),
            on_block=lambda txn, ts, blockers, log=log: log.append(
                ("block", txn, sorted(blockers))
            ),
        )
        runs.append((sim, locks, log))

    def observe(sim, locks, log):
        txns = range(1, 5)
        return (
            sim.now,
            list(log),
            {txn: locks.held_locks(txn) for txn in txns},
            {txn: locks.blockers_of(txn) for txn in txns},
            locks.waiting_info(),
            locks.waiting_count(),
            locks.wait_for_graph_dot(),
            locks.stats,
        )

    for step, op in enumerate(ops):
        kind, txn, item, mode, delay = op
        for sim, locks, log in runs:
            if kind == "acquire":
                event = locks.acquire(txn, float(txn), item, mode)
                event.add_callback(
                    lambda ev, step=step, log=log: log.append(
                        ("fired", step, ev.ok, str(ev.value))
                    )
                )
            elif kind == "release_all":
                locks.release_all(txn)
            elif kind == "abort_waiter":
                log.append(("was_waiting", locks.abort_waiter(txn, "test victim")))
            elif kind == "wound":
                locks._wound(txn)
            else:
                sim.run(until=sim.now + delay)
        indexed, reference = (observe(*run) for run in runs)
        assert indexed == reference, f"diverged after step {step}: {op}"


# ---------------------------------------------------------------------------
# Storage and WAL


@given(
    writes=st.lists(
        st.tuples(st.integers(0, 20), st.integers(0, 1000)),  # (version, value)
        max_size=40,
    )
)
def test_store_version_never_regresses(writes):
    store = LocalStore("s")
    store.create_copy("x", 0)
    high = 0
    for version, value in writes:
        store.apply("x", value, version, txn_id=1, at=0.0)
        high = max(high, version)
        assert store.version("x") == high


@given(
    ops=st.lists(
        st.tuples(st.integers(1, 6), st.sampled_from(["P", "C", "A"])),
        max_size=30,
    )
)
def test_wal_recovery_partitions_transactions(ops):
    """Every prepared txn is exactly one of: in-doubt, committed, aborted."""
    wal = WriteAheadLog("s")
    prepared, decided = set(), {}
    for txn, kind in ops:
        if kind == "P" and txn not in prepared:
            wal.log_prepare(txn, {"x": (1, 1)}, None, at=0.0)
            prepared.add(txn)
        elif kind == "C" and txn in prepared and txn not in decided:
            wal.log_commit(txn, at=1.0)
            decided[txn] = "COMMIT"
        elif kind == "A" and txn in prepared and txn not in decided:
            wal.log_abort(txn, at=1.0)
            decided[txn] = "ABORT"
    in_doubt, committed = wal.recover_state()
    in_doubt_ids = {d.txn_id for d in in_doubt}
    committed_ids = {r.txn_id for r in committed}
    assert in_doubt_ids == prepared - set(decided)
    assert committed_ids == {t for t, d in decided.items() if d == "COMMIT"}
    assert in_doubt_ids.isdisjoint(committed_ids)


# ---------------------------------------------------------------------------
# Config roundtrip


@given(
    n_sites=st.integers(1, 6),
    n_items=st.integers(1, 10),
    seed=st.integers(0, 1000),
    rcp=st.sampled_from(["ROWA", "QC"]),
    ccp=st.sampled_from(["2PL", "TSO", "MVTO"]),
    acp=st.sampled_from(["2PC", "3PC"]),
)
def test_config_roundtrip_preserves_everything(n_sites, n_items, seed, rcp, ccp, acp):
    config = RainbowConfig.quick(
        n_sites=n_sites,
        n_items=n_items,
        replication_degree=min(3, n_sites),
        seed=seed,
    )
    config.protocols.rcp = rcp
    config.protocols.ccp = ccp
    config.protocols.acp = acp
    clone = RainbowConfig.from_dict(config.to_dict())
    assert clone.to_dict() == config.to_dict()
    clone.validate()


# ---------------------------------------------------------------------------
# Counter invariant: committed increments are never lost


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 10_000),
    ccp=st.sampled_from(["2PL", "TSO", "MVTO", "OCC"]),
    n_increments=st.integers(3, 10),
    gap=st.floats(2.0, 8.0),
)
def test_counter_invariant_random(seed, ccp, n_increments, gap):
    """Every committed +1 increment is reflected in the final counter."""
    from repro.core.instance import RainbowInstance
    from repro.txn.transaction import Operation, Transaction

    config = RainbowConfig.quick(n_sites=3, n_items=2, replication_degree=3,
                                 seed=seed, settle_time=60)
    config.protocols.ccp = ccp
    instance = RainbowInstance(config)
    instance.start()
    txns = []
    processes = []
    for index in range(n_increments):
        txn = Transaction(
            ops=[Operation.increment("x1", 1)],
            home_site=f"site{(index % 3) + 1}",
        )
        txns.append(txn)
        processes.append(instance.submit(txn))
        instance.sim.run(until=instance.sim.now + gap)
    instance.sim.run(until=instance.sim.all_of(processes))
    instance.sim.run(until=instance.sim.now + 60)

    committed = sum(1 for txn in txns if txn.committed)
    final = max(
        (
            instance.sites[name].store.read("x1")
            for name in instance.catalog.sites_holding("x1")
        ),
        key=lambda pair: pair[1],  # highest committed version wins
    )
    assert final[0] == committed
    ok, _witness = instance.monitor.history.check_serializable()
    assert ok


# ---------------------------------------------------------------------------
# End-to-end: random tiny sessions always produce serializable histories


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 10_000),
    ccp=st.sampled_from(["2PL", "TSO", "MVTO"]),
    rcp=st.sampled_from(["ROWA", "QC"]),
    read_fraction=st.floats(0.0, 1.0),
)
def test_random_sessions_serializable(seed, ccp, rcp, read_fraction):
    from repro.core.instance import RainbowInstance
    from repro.workload.spec import WorkloadSpec

    config = RainbowConfig.quick(n_sites=3, n_items=8, replication_degree=2,
                                 seed=seed, settle_time=40)
    config.protocols.rcp = rcp
    config.protocols.ccp = ccp
    instance = RainbowInstance(config)
    spec = WorkloadSpec(
        n_transactions=12, arrival="poisson", arrival_rate=1.0,
        min_ops=1, max_ops=4, read_fraction=read_fraction,
    )
    result = instance.run_workload(spec)
    assert result.serializable is True
    assert instance.monitor.history.reads_see_committed_versions() == []
