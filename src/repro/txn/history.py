"""Execution histories and a one-copy-serializability checker.

Rainbow lets students "observe local as well as global executions
(history…)".  The :class:`HistoryRecorder` collects the *committed* global
history in version-order form: which version each committed transaction
read per item, and which version it installed.  From that we build the
serialization (conflict) graph over committed transactions:

* **wr**: the writer of version ``v`` precedes every reader of ``v``;
* **ww**: the writer of version ``v`` precedes the writer of the next
  version of the same item;
* **rw**: a reader of version ``v`` precedes the writer of the next
  version (it must be serialized before the overwrite it did not see).

If the graph is acyclic the committed execution is equivalent to a serial
one-copy execution (view serializability over the version order).  With
correct RCP+CCP+ACP implementations the check always passes — which makes
it the central *property test* of the whole stack: any protocol bug that
lets a non-serializable interleaving commit trips the cycle detector.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import NamedTuple, Optional

__all__ = ["CommittedTxn", "HistoryRecorder", "SerializationGraph"]

_INITIAL_WRITER = 0  # pseudo-transaction that wrote version 0 of everything


class CommittedTxn(NamedTuple):
    """The version footprint of one committed transaction.

    ``reads`` and ``writes`` are tuples of ``(item, version)`` pairs.  The
    recorder stores each footprint as a plain tuple of atomics, which the
    garbage collector stops tracking; this named view is built on demand.
    """

    txn_id: int
    reads: tuple[tuple[str, float], ...] = ()  # (item, version read)
    writes: tuple[tuple[str, float], ...] = ()  # (item, version written)
    committed_at: float = 0.0


class SerializationGraph:
    """Conflict graph over committed transactions with cycle detection."""

    def __init__(self):
        self.edges: dict[int, set[int]] = {}
        self.nodes: set[int] = set()

    def add_node(self, txn: int) -> None:
        self.nodes.add(txn)
        self.edges.setdefault(txn, set())

    def add_edge(self, before: int, after: int) -> None:
        """Record that ``before`` must serialize before ``after``."""
        if before == after:
            return
        self.add_node(before)
        self.add_node(after)
        self.edges[before].add(after)

    def find_cycle(self) -> Optional[list[int]]:
        """Return one cycle as a node list, or None if the graph is acyclic."""
        WHITE, GREY, BLACK = 0, 1, 2
        colour = {node: WHITE for node in self.nodes}
        parent: dict[int, int] = {}

        for root in sorted(self.nodes):
            if colour[root] != WHITE:
                continue
            stack = [(root, iter(sorted(self.edges.get(root, ()))))]
            colour[root] = GREY
            while stack:
                node, children = stack[-1]
                advanced = False
                for child in children:
                    if colour[child] == WHITE:
                        colour[child] = GREY
                        parent[child] = node
                        stack.append((child, iter(sorted(self.edges.get(child, ())))))
                        advanced = True
                        break
                    if colour[child] == GREY:
                        cycle = [child, node]
                        walk = node
                        while walk != child:
                            walk = parent[walk]
                            cycle.append(walk)
                        cycle.reverse()
                        return cycle
                if not advanced:
                    colour[node] = BLACK
                    stack.pop()
        return None

    def to_dot(self, highlight: Optional[list[int]] = None) -> str:
        """Graphviz DOT rendering of the serialization graph.

        ``highlight`` (e.g. a cycle from :meth:`find_cycle`) is drawn in
        red — handy for lab reports: ``dot -Tpng graph.dot -o graph.png``.
        """
        hot = set(highlight or [])
        lines = ["digraph serialization {", "  rankdir=LR;"]
        for node in sorted(self.nodes):
            style = ' [color=red, fontcolor=red]' if node in hot else ""
            lines.append(f'  "T{node}"{style};')
        for node in sorted(self.edges):
            for successor in sorted(self.edges[node]):
                style = (
                    " [color=red]" if node in hot and successor in hot else ""
                )
                lines.append(f'  "T{node}" -> "T{successor}"{style};')
        lines.append("}")
        return "\n".join(lines)

    def topological_order(self) -> Optional[list[int]]:
        """A serial order witnessing serializability, or None if cyclic."""
        in_degree = {node: 0 for node in self.nodes}
        for node, successors in self.edges.items():
            for successor in successors:
                in_degree[successor] += 1
        ready = sorted(node for node, degree in in_degree.items() if degree == 0)
        order: list[int] = []
        while ready:
            node = ready.pop(0)
            order.append(node)
            for successor in sorted(self.edges.get(node, ())):
                in_degree[successor] -= 1
                if in_degree[successor] == 0:
                    ready.append(successor)
            ready.sort()
        if len(order) != len(self.nodes):
            return None
        return order


class HistoryRecorder:
    """Collects the committed global history of a Rainbow session."""

    def __init__(self):
        self._committed: list[tuple] = []

    def record_commit(
        self,
        txn_id: int,
        reads: dict[str, float],
        writes: dict[str, float],
        committed_at: float = 0.0,
    ) -> None:
        """Record the version footprint of a committed transaction."""
        self._committed.append(
            (txn_id, tuple(reads.items()), tuple(writes.items()), committed_at)
        )

    @property
    def committed(self) -> list[CommittedTxn]:
        """The committed footprints in commit order (a fresh list of views)."""
        return list(map(CommittedTxn._make, self._committed))

    def __len__(self) -> int:
        return len(self._committed)

    # -- graph construction ----------------------------------------------------
    def build_graph(self) -> SerializationGraph:
        """Build the wr/ww/rw conflict graph of the committed history."""
        graph = SerializationGraph()
        writers: dict[str, list[tuple[float, int]]] = {}
        readers: dict[str, list[tuple[float, int]]] = {}

        for txn_id, reads, writes, _at in self._committed:
            graph.add_node(txn_id)
            for item, version in writes:
                writers.setdefault(item, []).append((version, txn_id))
            for item, version in reads:
                readers.setdefault(item, []).append((version, txn_id))

        for item, write_list in writers.items():
            write_list.sort()
            # ww edges along the version chain
            for (v1, t1), (v2, t2) in zip(write_list, write_list[1:]):
                graph.add_edge(t1, t2)

        for item, read_list in readers.items():
            write_list = writers.get(item, [])  # sorted above
            versions = [v for v, _txn in write_list]
            for version_read, reader in read_list:
                # wr edge: the writer of the version read comes first
                # (version 0, the initial state, has none).
                index = bisect_left(versions, version_read)
                if index < len(versions) and versions[index] == version_read:
                    graph.add_edge(write_list[index][1], reader)
                # rw edge: the reader precedes the next overwrite.
                index = bisect_right(versions, version_read, index)
                if index < len(versions):
                    graph.add_edge(reader, write_list[index][1])
        return graph

    # -- checks -----------------------------------------------------------------
    def check_serializable(self) -> tuple[bool, Optional[list[int]]]:
        """``(True, serial_order)`` if 1SR holds, else ``(False, cycle)``."""
        graph = self.build_graph()
        cycle = graph.find_cycle()
        if cycle is not None:
            return False, cycle
        return True, graph.topological_order()

    def version_collisions(self) -> list[str]:
        """Detect two committed writers installing the same version.

        A correct RCP+CCP stack assigns each committed write of an item a
        distinct version, so collisions are a protocol violation (the
        second write physically overwrote the first at equal version — a
        lost update).  The broken classroom protocol (NOCC) trips this.
        """
        seen: dict[tuple[str, float], int] = {}
        problems = []
        for txn_id, _reads, writes, _at in self._committed:
            for key in writes:
                if key in seen:
                    item, version = key
                    problems.append(
                        f"{item}@{version} written by both T{seen[key]} and T{txn_id}"
                    )
                else:
                    seen[key] = txn_id
        return problems

    def reads_see_committed_versions(self) -> list[str]:
        """Sanity check: every version read was version 0 or was written.

        Returns a list of violation descriptions (empty when clean).
        """
        written: dict[str, set[float]] = {}
        for _txn_id, _reads, writes, _at in self._committed:
            for item, version in writes:
                written.setdefault(item, set()).add(version)
        problems = []
        for txn_id, reads, _writes, _at in self._committed:
            for item, version in reads:
                if version != _INITIAL_WRITER and version not in written.get(item, set()):
                    problems.append(
                        f"T{txn_id} read {item}@{version} which no committed txn wrote"
                    )
        return problems
