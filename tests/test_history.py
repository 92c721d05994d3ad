"""Unit tests for histories and the serializability checker."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.txn.history import HistoryRecorder, SerializationGraph


def _linear_scan_graph(recorder: HistoryRecorder) -> SerializationGraph:
    """Reference conflict graph: each wr/rw edge found by a linear scan."""
    graph = SerializationGraph()
    writers: dict[str, list] = {}
    readers: dict[str, list] = {}
    for txn in recorder.committed:
        graph.add_node(txn.txn_id)
        for item, version in txn.writes:
            writers.setdefault(item, []).append((version, txn.txn_id))
        for item, version in txn.reads:
            readers.setdefault(item, []).append((version, txn.txn_id))
    for write_list in writers.values():
        write_list.sort()
        for (_v1, t1), (_v2, t2) in zip(write_list, write_list[1:]):
            graph.add_edge(t1, t2)
    for item, read_list in readers.items():
        write_list = sorted(writers.get(item, []))
        for version_read, reader in read_list:
            writer = next((t for v, t in write_list if v == version_read), None)
            if writer is not None:
                graph.add_edge(writer, reader)
            next_writer = next((t for v, t in write_list if v > version_read), None)
            if next_writer is not None:
                graph.add_edge(reader, next_writer)
    return graph


_footprint = st.dictionaries(st.sampled_from("xyz"), st.integers(0, 6), max_size=3)


def _oracle_check(history) -> tuple[bool, list[int]]:
    """The 1SR verdict by the textbook rules over a dict-of-sets graph.

    ``history`` is a list of ``(txn_id, reads, writes)``.  The cycle comes
    from a DFS over ascending roots and ascending children, closed by the
    first edge back to the path; the witness is Kahn's order taking the
    smallest ready transaction.
    """
    successors: dict[int, set[int]] = {}
    writers: dict[str, list] = {}
    for txn_id, _reads, writes in history:
        successors.setdefault(txn_id, set())
        for item, version in writes.items():
            writers.setdefault(item, []).append((version, txn_id))

    def edge(before, after):
        if before != after:
            successors[before].add(after)

    for chain in writers.values():
        chain.sort()
        for (_v1, before), (_v2, after) in zip(chain, chain[1:]):
            edge(before, after)
    for txn_id, reads, _writes in history:
        for item, version in reads.items():
            chain = writers.get(item, [])
            writer = next((t for v, t in chain if v == version), None)
            if writer is not None:
                edge(writer, txn_id)
            overwriter = next((t for v, t in chain if v > version), None)
            if overwriter is not None:
                edge(txn_id, overwriter)

    colour = dict.fromkeys(successors, "white")
    parent: dict[int, int] = {}

    def visit(node):
        colour[node] = "grey"
        for child in sorted(successors[node]):
            if colour[child] == "white":
                parent[child] = node
                cycle = visit(child)
                if cycle:
                    return cycle
            elif colour[child] == "grey":
                path = [node]
                while path[-1] != child:
                    path.append(parent[path[-1]])
                return path[::-1] + [child]
        colour[node] = "black"
        return None

    for root in sorted(successors):
        if colour[root] == "white":
            cycle = visit(root)
            if cycle:
                return False, cycle
    in_degree = dict.fromkeys(successors, 0)
    for after in successors.values():
        for node in after:
            in_degree[node] += 1
    ready = [node for node, degree in in_degree.items() if degree == 0]
    order = []
    while ready:
        node = min(ready)
        ready.remove(node)
        order.append(node)
        for child in successors[node]:
            in_degree[child] -= 1
            if in_degree[child] == 0:
                ready.append(child)
    return True, order


# Integer (counter) and float (timestamp) versions, repeated across writers
# on purpose: duplicate versions are what NOCC commits.
_version = st.one_of(st.integers(0, 5), st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.25, 3.0]))
_accesses = st.dictionaries(st.sampled_from("wxyz"), _version, max_size=3)
_history = st.lists(
    st.tuples(st.integers(1, 60), _accesses, _accesses | st.just({})),  # read-only too
    max_size=16,
    unique_by=lambda footprint: footprint[0],
)


class TestSerializationGraph:
    def test_empty_graph_acyclic(self):
        graph = SerializationGraph()
        assert graph.find_cycle() is None
        assert graph.topological_order() == []

    def test_self_edge_ignored(self):
        graph = SerializationGraph()
        graph.add_edge(1, 1)
        assert graph.find_cycle() is None

    def test_chain_is_acyclic_with_order(self):
        graph = SerializationGraph()
        graph.add_edge(1, 2)
        graph.add_edge(2, 3)
        assert graph.find_cycle() is None
        assert graph.topological_order() == [1, 2, 3]

    def test_two_cycle_found(self):
        graph = SerializationGraph()
        graph.add_edge(1, 2)
        graph.add_edge(2, 1)
        cycle = graph.find_cycle()
        assert cycle is not None
        assert set(cycle) == {1, 2}
        assert graph.topological_order() is None

    def test_long_cycle_found(self):
        graph = SerializationGraph()
        for a, b in [(1, 2), (2, 3), (3, 4), (4, 1)]:
            graph.add_edge(a, b)
        cycle = graph.find_cycle()
        assert cycle is not None
        assert set(cycle) == {1, 2, 3, 4}

    def test_disconnected_components(self):
        graph = SerializationGraph()
        graph.add_edge(1, 2)
        graph.add_edge(10, 11)
        graph.add_edge(11, 10)
        assert graph.find_cycle() is not None

    def test_diamond_acyclic(self):
        graph = SerializationGraph()
        for a, b in [(1, 2), (1, 3), (2, 4), (3, 4)]:
            graph.add_edge(a, b)
        assert graph.find_cycle() is None
        order = graph.topological_order()
        assert order.index(1) < order.index(2) < order.index(4)
        assert order.index(1) < order.index(3) < order.index(4)


class TestHistoryRecorder:
    def test_wr_edge(self):
        recorder = HistoryRecorder()
        recorder.record_commit(1, reads={}, writes={"x": 1})
        recorder.record_commit(2, reads={"x": 1}, writes={})
        graph = recorder.build_graph()
        assert 2 in graph.edges[1]

    def test_ww_edges_follow_version_order(self):
        recorder = HistoryRecorder()
        recorder.record_commit(5, reads={}, writes={"x": 2})
        recorder.record_commit(4, reads={}, writes={"x": 1})
        graph = recorder.build_graph()
        assert 5 in graph.edges[4]

    def test_rw_edge_to_next_writer(self):
        recorder = HistoryRecorder()
        recorder.record_commit(1, reads={"x": 0}, writes={})
        recorder.record_commit(2, reads={}, writes={"x": 1})
        graph = recorder.build_graph()
        assert 2 in graph.edges[1]

    def test_serial_history_passes(self):
        recorder = HistoryRecorder()
        recorder.record_commit(1, reads={"x": 0}, writes={"x": 1})
        recorder.record_commit(2, reads={"x": 1}, writes={"x": 2})
        recorder.record_commit(3, reads={"x": 2}, writes={})
        ok, order = recorder.check_serializable()
        assert ok
        assert order == [1, 2, 3]

    def test_lost_update_anomaly_detected(self):
        """Classic lost update: both read v0, both write -> cycle."""
        recorder = HistoryRecorder()
        recorder.record_commit(1, reads={"x": 0}, writes={"x": 1})
        recorder.record_commit(2, reads={"x": 0}, writes={"x": 2})
        ok, cycle = recorder.check_serializable()
        assert not ok
        assert set(cycle) == {1, 2}

    def test_write_skew_anomaly_detected(self):
        """T1 reads x writes y; T2 reads y writes x — both from v0."""
        recorder = HistoryRecorder()
        recorder.record_commit(1, reads={"x": 0}, writes={"y": 1})
        recorder.record_commit(2, reads={"y": 0}, writes={"x": 1})
        ok, cycle = recorder.check_serializable()
        assert not ok

    def test_read_only_transactions_always_fit(self):
        recorder = HistoryRecorder()
        recorder.record_commit(1, reads={}, writes={"x": 1})
        recorder.record_commit(2, reads={"x": 1}, writes={})
        recorder.record_commit(3, reads={"x": 0}, writes={})
        ok, _order = recorder.check_serializable()
        assert ok

    def test_reads_see_committed_versions_clean(self):
        recorder = HistoryRecorder()
        recorder.record_commit(1, reads={}, writes={"x": 1})
        recorder.record_commit(2, reads={"x": 1}, writes={})
        assert recorder.reads_see_committed_versions() == []

    def test_reads_see_committed_versions_flags_phantom_version(self):
        recorder = HistoryRecorder()
        recorder.record_commit(2, reads={"x": 7}, writes={})
        problems = recorder.reads_see_committed_versions()
        assert len(problems) == 1
        assert "x@7" in problems[0]

    def test_initial_version_zero_is_fine(self):
        recorder = HistoryRecorder()
        recorder.record_commit(2, reads={"x": 0}, writes={})
        assert recorder.reads_see_committed_versions() == []

    def test_len_counts_commits(self):
        recorder = HistoryRecorder()
        assert len(recorder) == 0
        recorder.record_commit(1, reads={}, writes={})
        assert len(recorder) == 1

    def test_multi_item_interleaving_acyclic(self):
        recorder = HistoryRecorder()
        recorder.record_commit(1, reads={"a": 0}, writes={"a": 1})
        recorder.record_commit(2, reads={"b": 0}, writes={"b": 1})
        recorder.record_commit(3, reads={"a": 1, "b": 1}, writes={})
        ok, order = recorder.check_serializable()
        assert ok
        assert order.index(1) < order.index(3)
        assert order.index(2) < order.index(3)


class TestGraphMatchesLinearScan:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(_footprint, _footprint), max_size=12))
    def test_edges_match_linear_scan(self, footprints):
        # Versions repeat across writers on purpose: collisions and reads of
        # versions nobody wrote must pick the same entries as the scan.
        recorder = HistoryRecorder()
        for txn_id, (reads, writes) in enumerate(footprints, start=1):
            recorder.record_commit(txn_id, reads=reads, writes=writes)
        graph = recorder.build_graph()
        reference = _linear_scan_graph(recorder)
        assert list(graph.edges.items()) == list(reference.edges.items())
        assert graph.nodes == reference.nodes


class TestCheckMatchesOracle:
    @settings(max_examples=400, deadline=None)
    @given(_history)
    def test_verdict_cycle_and_witness_match_oracle(self, history):
        recorder = HistoryRecorder()
        for txn_id, reads, writes in history:
            recorder.record_commit(txn_id, reads=reads, writes=writes)
        assert recorder.check_serializable() == _oracle_check(history)

    def test_nocc_duplicate_versions_give_the_oracle_cycle(self):
        history = [
            (7, {"x": 0}, {"x": 1}),
            (3, {"x": 0}, {"x": 1}),  # the same version, as NOCC commits it
            (5, {"x": 1, "y": 0.5}, {"y": 1.5}),
            (4, {"y": 1.5}, {}),
        ]
        recorder = HistoryRecorder()
        for txn_id, reads, writes in history:
            recorder.record_commit(txn_id, reads=reads, writes=writes)
        ok, cycle = recorder.check_serializable()
        assert not ok
        assert (ok, cycle) == _oracle_check(history)
        assert cycle[0] == cycle[-1]
